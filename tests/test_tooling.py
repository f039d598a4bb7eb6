"""The benchmark's tracer (``perfbench/tracing.py``) patches simulator
attributes by name; a renamed attribute, or a leaf path around the
methods it wraps, must fail here, not in a traced benchmark run.  The
recorder's verdicts (``tools/bench_record.py``) are checked here too."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    named = tracing.SPANNED + tracing.COUNTED
    owners = {id(o): o for o, _, _ in named}
    owners.update({id(o): o for o in (tracing.Machine, tracing.EnclaveManifest)})
    before = {key: dict(vars(o)) for key, o in owners.items()}

    with tracing.Tracer().installed():
        for owner, attr, _ in named:
            assert vars(owner)[attr] is not before[id(owner)][attr], attr

    for key, owner in owners.items():
        after = vars(owner)
        assert after.keys() == before[key].keys(), owner
        for attr, value in before[key].items():
            assert after[attr] is value, (owner, attr)


def test_per_layer_counts_see_the_miss_path_and_not_the_hits(monkeypatch, tmp_path):
    """The first ecall fetches through the checked path and decodes; the
    second, identical one finds every instruction in the decode cache."""
    from ccxsim import fixtures
    from ccxsim.machine import Machine
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import HostRuntime

    from helpers import small_config

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    rt = HostRuntime(Machine(small_config()))
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(tmp_path)))
    counts = []
    for _ in range(2):
        with tracing.Tracer().installed() as tracer:
            assert rt.ecall(h, 0, 0, 20) == fixtures.compute_expected(20)
        stats, _ = tracer.aggregate()
        counts.append({name: stats.get(name, [0])[0] for name in
                       ("isa.decode", "memory.read_granule", "memory.find_page")})
    assert all(counts[0].values()), counts[0]
    assert counts[1]["isa.decode"] == 0


def test_traced_leaf_counts_of_a_load_equal_the_machine_counters(monkeypatch, tmp_path):
    """Every leaf of a load goes through ``Machine.encls`` or ``enclu``,
    where the tracer times it: a path around them would count here as a
    leaf the tracer missed."""
    from ccxsim import fixtures
    from ccxsim.machine import Machine
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import HostRuntime

    from helpers import small_config

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    rt = HostRuntime(Machine(small_config()))
    manifest = EnclaveManifest.load(fixtures.write_standard_manifest(tmp_path))
    rt.load_enclave(manifest)  # the second load hits the signature memos
    before = dict(rt.machine.counters)
    with tracing.Tracer().installed() as tracer:
        rt.load_enclave(manifest)
    stats, _ = tracer.aggregate()
    counted = {name: n - before[name] for name, n in rt.machine.counters.items()
               if n != before[name]}
    traced = {name[len("machine.leaf."):]: s[0] for name, s in stats.items()
              if name.startswith("machine.leaf.")}
    assert counted == traced
    assert counted["EEXTEND"] > 0 and counted["EINIT"] == 1


def test_bench_record_verdicts_follow_its_method(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    record = importlib.import_module("bench_record")
    higher = {"unit": "1/s", "better": "higher", "bound": 0.2}
    lower = {"unit": "ms", "better": "lower", "bound": 0.25}
    parent = [100.0 + i % 3 for i in range(10)]

    def word(spec, p, c):
        return record.verdict(spec, p, c)["verdict"]

    assert word(higher, parent, [v + 10 for v in parent]) == "better"
    assert word(lower, parent, [v - 10 for v in parent]) == "better"
    assert word(higher, parent, [v + 1.5 for v in parent]) == "same"  # within the spread
    assert word(higher, parent[:9], [v + 10 for v in parent[:9]]) == "same"  # too few pairs
    assert word(higher, parent, [v * 0.7 for v in parent]) == "worse"
    assert word(lower, parent, [v * 1.3 for v in parent]) == "worse"
    assert word(higher, [100.0, 150.0] * 5, [125.0] * 10) == "unresolved"
    summary = record.verdict(higher, parent, [v + 10 for v in parent])
    assert (summary["wins"], summary["losses"]) == (10, 0)
    assert summary["parent"] == {"median": 101.0, "q1": 100.0, "q3": 101.75}
