"""The benchmark's tracer (``perfbench/tracing.py``) patches simulator
attributes by name; a renamed attribute, or a leaf path around the
methods it wraps, must fail here, not in a traced benchmark run.  The
recorder's verdicts (``tools/bench_record.py``) are checked here too."""

import importlib
import re
from pathlib import Path

import pytest

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


def test_the_unreached_list_names_executable_lines_each_with_a_kind(monkeypatch):
    """Each entry of ``tests/unreached.txt`` is an executable line of
    ``src/ccxsim`` with one of the census's kinds of reason, so the census
    step fails on a stale list only when a line is reached, not on a typo."""
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    linecov = importlib.import_module("linecov")
    listed = linecov.read_list(Path(__file__).parent / "unreached.txt")
    assert listed
    for entry in listed:
        name, line = entry.split(":")
        assert int(line) in linecov.executable_lines(linecov.PACKAGE / name), entry


def test_the_census_refuses_a_listed_line_without_a_kind(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    linecov = importlib.import_module("linecov")
    (tmp_path / "list.txt").write_text("# comment\n\ncli.py:1 guard: fine\ncli.py:2 because\n")
    with pytest.raises(SystemExit, match="list.txt:4: cli.py:2 needs a reason"):
        linecov.read_list(tmp_path / "list.txt")


def test_no_test_module_cites_a_line_of_the_package(monkeypatch):
    """A test names the function it means, never ``<module>.py:<n>`` of
    ``src/ccxsim``: such a line number goes stale with any edit above it,
    and nothing else checks it.  Exempt are the census-format entries that
    this module writes."""
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    modules = {path.name for path in importlib.import_module("linecov").PACKAGE.glob("*.py")}
    exempt = {("test_tooling.py", "cli.py:1"), ("test_tooling.py", "cli.py:2")}
    cited = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for match in re.finditer(r"\b(\w+\.py):\d+", line):
                if match[1] in modules and (path.name, match[0]) not in exempt:
                    cited.append(f"{path.name}:{number}: {match[0]}")
    assert not cited


def test_the_epc_probe_counts_equal_capped_and_other_seeds(monkeypatch, capsys, tmp_path):
    """One line per EPC size; a seed past its reload cap is capped, and so
    is one past its wall cap; seed 69 at 16 granules, which fails a create
    in sgx mode only, is other."""
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    epc_probe = importlib.import_module("epc_probe")
    from ccxsim import fixtures
    from ccxsim.runtime import HostRuntime

    swap_in = HostRuntime.swap_in
    assert epc_probe.main(["--seeds", "2", "24", "16"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "24 granules: 2 equal, 0 capped, 0 other; not equal: -",
        "16 granules: 2 equal, 0 capped, 0 other; not equal: -"]
    assert HostRuntime.swap_in is swap_in
    fixtures.write_demo_tree(tmp_path)
    assert epc_probe.probe(69, 16, tmp_path) == "other"
    monkeypatch.setattr(epc_probe, "RELOAD_CAP", 0)  # seed 0 reloads nothing, seed 1 does
    assert epc_probe.main(["--seeds", "2", "16"]) == 0
    assert capsys.readouterr().out == (
        "16 granules: 1 equal, 1 capped, 0 other; not equal: 1 (capped)\n")
    monkeypatch.setattr(epc_probe, "RELOAD_CAP", 1_000)
    monkeypatch.setattr(epc_probe, "CAP", 1e-6)
    assert epc_probe.probe(0, 24, tmp_path) == "capped"
    assert HostRuntime.swap_in is swap_in
