"""Command-line front end.

Subcommands:
    run      execute a scenario script, report results
    compare  run a scenario in both modes, under scenario.MODE_DIFFERENCES
    bench    leaf microbenchmarks
    inspect  report over a machine-state snapshot produced by run --snapshot
    attest   load two enclaves and run mutual local attestation

The default config path comes from $CCX_SIM_CONFIG when --config is absent.
Exit status is 0 only when every expectation passed and nothing failed
internally; structured output (--json) is byte-stable for fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import Config
from .errors import ModelError, json_object, read_input
from .machine import Machine
from .manifest import EnclaveManifest, ManifestError
from .runtime import HostRuntime, LoadError
from .scenario import ScenarioRunner, compare_modes

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _load_config(args) -> Config:
    """The config file's, with ``--mode`` and ``--seed`` applied: a variant
    that is validated as it is built."""
    config = Config.load(args.config or os.environ.get("CCX_SIM_CONFIG"))
    flags = {"mode": getattr(args, "mode", None), "crypto_seed": getattr(args, "seed", None)}
    return replace(config, **{name: v for name, v in flags.items() if v is not None})


def _write_trace(machine: Machine, path: str) -> None:
    with open(path, "w") as fh:
        for event in machine.trace:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


def cmd_run(args) -> int:
    runner = ScenarioRunner(_load_config(args), trace=[] if args.trace else None)
    result = runner.run_file(args.scenario)

    if args.trace:
        _write_trace(result.machine, args.trace)
    if args.snapshot:
        Path(args.snapshot).write_text(
            json.dumps(result.machine.snapshot(), sort_keys=True, indent=2)
        )

    if args.json:
        sys.stdout.write(result.to_jsonl())
    else:
        # a refused line that did not end the run is a refused try line
        failed_at = result.summary.get("failed_at")
        for event in result.events:
            if event["ok"]:
                status = "ok"
            else:
                status = "FAIL" if event["line"] == failed_at else "refused"
            extra = ""
            if "result" in event:
                extra = f" -> {event['result']}"
            if "error" in event:
                extra = f" !! {event['error']}"
            print(f"[{status}] line {event['line']}: {event['text']}{extra}")
        summary = result.summary
        print(
            f"{'PASS' if result.ok else 'FAIL'}: {summary['commands']} commands,"
            f" {summary['gpf_count']} faults logged,"
            f" {summary['swap_out_events']} swap-outs,"
            f" {summary['swap_in_events']} swap-ins"
        )
        if not result.ok:
            print(f"failed at line {summary.get('failed_at')}: {summary.get('failure')}")
    return EXIT_OK if result.ok else EXIT_FAILED


def cmd_compare(args) -> int:
    path = Path(args.scenario)
    differences = compare_modes(read_input(path, f"scenario {path}"), _load_config(args),
                                path.parent)
    print(differences[0] if differences else f"{path}: sgx and ccx agree")
    return EXIT_FAILED if differences else EXIT_OK


def cmd_bench(args) -> int:
    from .bench import run_leaf_bench

    if args.suite != "leaves":
        raise ModelError(f"unknown bench suite {args.suite!r}: the suite is 'leaves'")
    report = run_leaf_bench(_load_config(args), iterations=args.iterations)
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        print(report.human())
    return EXIT_OK


_NONE = type(None)

# The snapshot lists that inspect reports and the members it reads from each
# record, with their types.
_SNAPSHOT_RECORDS = {
    "enclaves": {
        "eid": int, "size": int, "mrenclave": (str, _NONE), "mrsigner": (str, _NONE),
        "isv_prod_id": int, "isv_svn": int,
    },
    "epcm": {
        "granule": int, "type": str, "owner": (int, _NONE), "vaddr": int, "perms": str,
        "blocked": bool, "pending": bool, "modified": bool,
    },
}


def _check_snapshot(snapshot: dict, path: str) -> None:
    """Refuse a snapshot whose members that inspect reads have the wrong shape."""
    for key in ("gpt", "granule_contents"):
        if not isinstance(snapshot.get(key, {}), dict):
            raise ModelError(f"snapshot {path}: member {key!r} is not an object")
    for key, members in _SNAPSHOT_RECORDS.items():
        records = snapshot.get(key, [])
        if not isinstance(records, list):
            raise ModelError(f"snapshot {path}: member {key!r} is not a list")
        for i, record in enumerate(records):
            if not isinstance(record, dict):
                raise ModelError(f"snapshot {path}: {key}[{i}] is not an object")
            for name, kind in members.items():
                if not isinstance(record.get(name), kind):
                    raise ModelError(
                        f"snapshot {path}: {key}[{i}] member {name!r} is missing or of the wrong type"
                    )


def _redact(snapshot: dict, show_debug_content: bool) -> dict:
    """Granule contents of enclave pages are visible only for DEBUG enclaves
    and only when explicitly requested (mirrors debug-read gating)."""
    debug_eids = {
        e["eid"] for e in snapshot.get("enclaves", []) if e.get("debug")
    }
    contents = snapshot.get("granule_contents", {})
    visible = {}
    for entry in snapshot.get("epcm", []):
        granule = str(entry["granule"])
        owner = entry.get("owner")
        if owner is None or (show_debug_content and owner in debug_eids):
            if granule in contents:
                visible[granule] = contents[granule]
        else:
            visible[granule] = "<redacted>"
    out = dict(snapshot)
    out["granule_contents"] = visible
    return out


def cmd_inspect(args) -> int:
    what = f"snapshot {args.snapshot}"
    snapshot = json_object(read_input(args.snapshot, what), what)
    _check_snapshot(snapshot, args.snapshot)
    filtered = _redact(snapshot, args.debug_enclave)
    if args.json:
        print(json.dumps(filtered, sort_keys=True, indent=2))
        return EXIT_OK

    print("enclaves:")
    for e in filtered.get("enclaves", []):
        flags = []
        if e.get("initialized"):
            flags.append("init")
        if e.get("debug"):
            flags.append("debug")
        if e.get("crashed"):
            flags.append("crashed")
        print(
            f"  eid {e['eid']}: size {e['size']:#x} [{','.join(flags) or '-'}]"
            f" mrenclave={e['mrenclave'] or '-'} mrsigner={(e['mrsigner'] or '-')[:16]}"
            f" prod={e['isv_prod_id']} svn={e['isv_svn']}"
        )
    print("gpt tables:")
    for name, counts in filtered.get("gpt", {}).items():
        print(f"  {name}: {counts}")
    print("epcm:")
    for entry in filtered.get("epcm", []):
        print(
            f"  granule {entry['granule']:>6}: {entry['type']:<4}"
            f" owner={entry['owner']} vaddr={entry['vaddr']:#x}"
            f" perms={entry['perms']}"
            + (" blocked" if entry["blocked"] else "")
            + (" pending" if entry["pending"] else "")
            + (" modified" if entry["modified"] else "")
        )
    shown = sum(1 for v in filtered["granule_contents"].values() if v != "<redacted>")
    redacted = sum(1 for v in filtered["granule_contents"].values() if v == "<redacted>")
    print(f"contents: {shown} granules shown, {redacted} redacted")
    return EXIT_OK


def cmd_attest(args) -> int:
    config = _load_config(args)
    machine = Machine(config)
    runtime = HostRuntime(machine)
    try:
        a = runtime.load_enclave(EnclaveManifest.load(args.manifest_a))
        b = runtime.load_enclave(EnclaveManifest.load(args.manifest_b))
    except (ManifestError, LoadError) as exc:
        print(f"load failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    outcome = runtime.attest(a, b)
    doc = {
        "a": {"name": a.name, "mrenclave": a.mrenclave.hex(), "mrsigner": a.mrsigner.hex()},
        "b": {"name": b.name, "mrenclave": b.mrenclave.hex(), "mrsigner": b.mrsigner.hex()},
        "a_verifies_b": outcome.b_to_a,
        "b_verifies_a": outcome.a_to_b,
        "mutual": outcome.mutual,
    }
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"{a.name}: mrenclave {a.mrenclave.hex()}")
        print(f"{b.name}: mrenclave {b.mrenclave.hex()}")
        print(f"{b.name} verifies report from {a.name}: {outcome.a_to_b}")
        print(f"{a.name} verifies report from {b.name}: {outcome.b_to_a}")
        print(f"mutual attestation: {'PASS' if outcome.mutual else 'FAIL'}")
    return EXIT_OK if outcome.mutual else EXIT_FAILED


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccxsim",
        description="deterministic enclave-system simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (default: $CCX_SIM_CONFIG)")
        p.add_argument("--mode", choices=["sgx", "ccx"], help="memory mode override")
        p.add_argument("--seed", type=int, help="crypto seed override")
        p.add_argument("--json", action="store_true", help="structured output")

    p_run = sub.add_parser("run", help="run a scenario script")
    common(p_run)
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write machine trace records to this path")
    p_run.add_argument("--snapshot", help="write a machine state snapshot to this path")
    p_run.set_defaults(fn=cmd_run)

    p_compare = sub.add_parser("compare", help="run a scenario in both modes and compare")
    p_compare.add_argument("scenario")
    p_compare.add_argument("--config", help="config file (default: $CCX_SIM_CONFIG)")
    p_compare.set_defaults(fn=cmd_compare)

    p_bench = sub.add_parser("bench", help="run benchmarks")
    common(p_bench)
    p_bench.add_argument("suite", nargs="?", default="leaves",
                         help="'leaves' for per-leaf microbenchmarks")
    p_bench.add_argument("--iterations", type=_positive_int, default=100)
    p_bench.set_defaults(fn=cmd_bench)

    p_inspect = sub.add_parser("inspect", help="report over a state snapshot")
    p_inspect.add_argument("snapshot")
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.add_argument(
        "--debug-enclave", action="store_true",
        help="show page contents of DEBUG enclaves",
    )
    p_inspect.set_defaults(fn=cmd_inspect)

    p_attest = sub.add_parser("attest", help="mutual local attestation demo")
    common(p_attest)
    p_attest.add_argument("manifest_a")
    p_attest.add_argument("manifest_b")
    p_attest.set_defaults(fn=cmd_attest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ModelError, ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
