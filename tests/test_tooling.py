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
