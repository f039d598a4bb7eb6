"""Golden output digests: the sha256 of every deterministic front-end output.

Each case runs the command-line front end in-process and yields its outputs
by name; ``digests.json`` holds their sha256.  ``tests/test_golden.py``
recomputes every case and names the output whose digest differs.

Rewrite ``digests.json`` only when an output changes on purpose, and say in
CHANGES.md which outputs changed and why::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

from ccxsim import cli, fixtures
from ccxsim.bench import run_leaf_bench
from ccxsim.config import Config

DIGESTS = Path(__file__).with_name("digests.json")

DEMOS = ("lifecycle", "mode_diff", "attest", "seal_unseal", "interrupts")
MODES = ("sgx", "ccx")
CONFIGS = {
    "default": Config(),
    "criterion14": Config(granule_count=2048, epc_base=64, epc_size=256, crypto_seed=14),
}
# Criterion 13's leaf benches: machine sizes under one EPC window.
LEAF_COST_GRANULES = (2048, 4096, 8192)

CASES = (
    [f"run:{demo}:{mode}" for demo in DEMOS for mode in MODES]
    + [f"bench:{mode}:{name}" for mode in MODES for name in CONFIGS]
    + ["attest", "leaf_costs"]
)


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([str(a) for a in argv])
    return f"exit {status}\n{out.getvalue()}"


def case_outputs(case: str, tmp: Path) -> Dict[str, str]:
    """Every output of one case, by name, with `tmp` written as ``<tmp>``."""
    fixtures.write_demo_tree(tmp)
    for name, config in CONFIGS.items():
        (tmp / f"{name}.json").write_text(config.to_json())
    kind, *rest = case.split(":")
    outputs: Dict[str, str] = {}
    if kind == "run":
        demo, mode = rest
        trace, snapshot = tmp / "trace.jsonl", tmp / "snapshot.json"
        outputs["run_json"] = _cli(
            "run", tmp / f"{demo}.scenario", "--config", tmp / "default.json",
            "--mode", mode, "--json", "--trace", trace, "--snapshot", snapshot,
        )
        outputs["trace"] = trace.read_text()
        outputs["snapshot"] = snapshot.read_text()
        outputs["inspect_json"] = _cli("inspect", snapshot, "--json")
        outputs["inspect_json_debug"] = _cli("inspect", snapshot, "--json", "--debug-enclave")
    elif kind == "bench":
        mode, name = rest
        outputs["bench_json"] = _cli(
            "bench", "--config", tmp / f"{name}.json", "--mode", mode, "--json"
        )
    elif kind == "attest":
        outputs["attest_json"] = _cli(
            "attest", tmp / "standard.manifest", tmp / "standard_b.manifest",
            "--config", tmp / "default.json", "--json",
        )
    elif kind == "leaf_costs":
        for granules in LEAF_COST_GRANULES:
            report = run_leaf_bench(
                Config(granule_count=granules, epc_base=64, epc_size=512, crypto_seed=13),
                iterations=2,
            )
            outputs[f"leaf_costs_{granules}"] = report.to_json()
    else:
        raise ValueError(f"no golden case {case!r}")
    return {name: text.replace(str(tmp), "<tmp>") for name, text in outputs.items()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_digests(case: str) -> Dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = case_outputs(case, Path(tmp))
    return {name: digest(text) for name, text in outputs.items()}


def main() -> int:
    digests = {case: case_digests(case) for case in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
