"""Record a benchmark comparison of two revisions as ``BENCH_<n>.json``.

Usage, from anywhere inside the repository:

    python3 tools/bench_record.py --parent HEAD~1 --change HEAD \\
        --title "What the change does" --out BENCH_21.json

Each revision is checked out into its own ``git worktree`` under a temporary
directory, so only committed files are measured, and the worktrees are
removed at the end.  The recorder runs nothing but ``perfbench/run.py`` of
each checkout: the measurement, the workloads and the bounds are the
benchmark's own, read from the change side's ``BENCHMARK.json``.

For every ``--run WORKLOAD:SEED`` (by default each workload on seeds 1 and 2)
it runs ``--pairs`` pairs of ``--trace 0`` runs of ``--seconds`` each.  A
pair runs both sides once, one after the other, and the side that runs first
alternates from pair to pair.  Each ``--traced WORKLOAD:SEED`` adds one
``--trace 1`` run per side, reported as the per-layer counts that differ and
the ``--figure`` metrics.  The verdict rule is written into the file as its
``method``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
TRACED_COMMAND = "python3 perfbench/run.py --workload W --seed S --trace 1"

METHOD = (
    "Each pair runs the parent and the change once, one after the other, from fresh "
    "checkouts of the committed files; the side that runs first alternates.  Quartiles "
    "are over each side's runs.  A metric is 'better' when at least ten pairs ran, the "
    "change wins at least nine tenths of them and its median beats the parent's by "
    "more than the parent's interquartile range; 'worse' when its median is worse than "
    "the parent's by more than the BENCHMARK.json bound (relative); 'unresolved' when "
    "the parent's interquartile range is wider than the bound and the runs do not "
    "separate; 'same' otherwise."
)

TRACED_WHAT = (
    "One traced run per side: correct and failed ops, whether the run digests are "
    "equal, execution.steps, every per-layer count that differs, and the named "
    "figures (parent, change)."
)

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


@contextmanager
def checkouts(revs):
    """A detached worktree per side, removed on the way out."""
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        paths = {}
        try:
            for side, rev in revs.items():
                path = Path(tmp) / side
                git("worktree", "add", "--detach", "--quiet", str(path), rev)
                paths[side] = path
            yield paths
        finally:
            for path in paths.values():
                git("worktree", "remove", "--force", str(path))


def run_bench(checkout: Path, workload: str, seed: int, extra) -> dict:
    """One run of the checkout's ``perfbench/run.py``: its last-line JSON,
    plus the digest that a ``--trace 1`` run prints for people."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    out = json.loads(lines[-1])
    for line in lines:
        if line.strip().startswith("digest:"):
            out["digest"] = line.split(":", 1)[1].strip()
    return out


def quartiles(values):
    if len(values) == 1:
        values = values * 2  # one run is its own quartiles
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def verdict(spec: dict, parent, change) -> dict:
    """Summary and verdict of one metric from its paired values, by METHOD."""
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    base = abs(p["median"]) or 1.0
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > iqr:
        word = "better"
    elif -gain > spec["bound"] * base:
        word = "worse"
    elif iqr > spec["bound"] * base:
        word = "unresolved"
    else:
        word = "same"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_over_parent": round(c["median"] / p["median"], 4) if p["median"] else None,
        "wins": wins,
        "losses": losses,
        "verdict": word,
        "values": {"parent": parent, "change": change},
    }


def record_pairs(paths, specs, workload, seed, pairs, seconds) -> dict:
    runs = {side: [] for side in SIDES}
    extra = ["--seconds", f"{seconds:g}", "--trace", "0"]
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_bench(paths[side], workload, seed, extra))
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}", file=sys.stderr)
    return {
        "pairs": pairs,
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": {
            name: verdict(spec, *([r["metrics"][name]["value"] for r in runs[side]]
                                  for side in SIDES))
            for name, spec in specs.items()
        },
    }


def record_traced(paths, workload, seed, figures) -> dict:
    parent, change = (run_bench(paths[side], workload, seed, ["--trace", "1"])
                      for side in SIDES)
    pm, cm = parent["metrics"], change["metrics"]
    out = {
        "correct": [parent["correct"], change["correct"]],
        "failed": [parent["failed"], change["failed"]],
        "digests_equal": parent.get("digest") == change.get("digest"),
        "execution.steps": [pm["execution.steps"]["value"], cm["execution.steps"]["value"]],
        "counts_that_differ": {
            name: [pm[name]["value"], cm[name]["value"]]
            for name in pm
            if pm[name]["unit"] == "count" and name != "execution.steps"
            and pm[name]["value"] != cm.get(name, {}).get("value")
        },
    }
    for name in figures:
        out[name] = [round(pm[name]["value"], 3), round(cm[name]["value"], 3)]
    return out


def workload_seed(text: str):
    workload, sep, seed = text.partition(":")
    if not sep or not seed.isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}")
    return workload, int(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--title", required=True)
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--run", type=workload_seed, action="append", default=[],
                        metavar="WORKLOAD:SEED",
                        help="untraced pairs to record; default each workload on seeds 1 and 2")
    parser.add_argument("--traced", type=workload_seed, action="append", default=[],
                        metavar="WORKLOAD:SEED", help="one traced run per side to record")
    parser.add_argument("--figure", action="append", default=[],
                        help="per-layer metric of the traced runs to report next to the "
                             "counts; execution.step.self_ns_per_step always is")
    parser.add_argument("--note", help="free text stored as the file's note")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    revs = {
        "parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
        "change": git("rev-parse", "--verify", f"{args.change}^{{commit}}"),
    }
    figures = ["execution.step.self_ns_per_step"] + [
        f for f in args.figure if f != "execution.step.self_ns_per_step"]
    with checkouts(revs) as paths:
        bench = json.loads((paths["change"] / "BENCHMARK.json").read_text())
        specs = {m["name"]: m for m in bench["end_to_end"]}
        runs = args.run or [(w["name"], s) for w in bench["workloads"] for s in (1, 2)]
        workloads: dict = {}
        for workload, seed in runs:
            workloads.setdefault(workload, {})[f"seed {seed}"] = record_pairs(
                paths, specs, workload, seed, args.pairs, args.seconds)
        traced = {f"{w} seed {s}": record_traced(paths, w, s, figures) for w, s in args.traced}

    doc = {
        "title": args.title,
        "parent_sha": revs["parent"],
        "change_sha": revs["change"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "command": COMMAND.format(seconds=args.seconds),
        "method": METHOD,
    }
    if args.note:
        doc["note"] = args.note
    doc["seeds"] = sorted(f"{w}:{s}" for w, s in runs)
    doc["workloads"] = {w: workloads[w] for w in sorted(workloads)}
    doc["traced"] = {"command": TRACED_COMMAND, "what": TRACED_WHAT, "runs": traced}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
