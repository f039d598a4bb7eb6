"""The benchmark's tracer (``perfbench/tracing.py``) patches simulator
attributes by name; a renamed attribute must fail here, not in a traced
benchmark run."""

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
