"""ccxsim benchmark: one closed-loop client per workload, host-time metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interp_irq --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  Set-up runs
``SETUPS`` times and ``setup_s`` is their median.  The first set-up also runs
``CHECKPOINT`` ops untimed, and its digest must equal the timed run's digest
at the same op count.  The timed loop runs a fixed number of ops,
``--seconds`` times the workload's ``ops_per_s``, so that a seed fixes every
op, every result and every failure of a run: two runs of one seed attempt and
fail the same ops.  It takes about ``--seconds`` on the host the rates come
from; should the program get much slower, the wall-clock cap ``WALL_CAP_S``
stops the loop early and the run is marked incorrect.  ``peak_rss_mb`` is
read when the loop ends, after a fixed amount of work: ``Machine.trace``
grows with every op.

The tail latency is p99.5 (see ``tail_ms``).  On ``epc_oversub`` 1-3 % of
ops fail and failed ops rank slowest, so p99 would sit near the share of
failed ops and could jump between a completed op and a failed one from seed
to seed; p99.9 rests on the ten or twenty slowest ops of a run.  There p99.5
lands on a failed op and measures the cost of a restart (destroy and reload)
until the save-state crash is fixed; the per-layer ``op_p99_ok_ms``, over
completed ops only, follows the swap path.

``--trace 1`` runs a fixed number of ops and takes no notice of
``--seconds``.  Two passes each build the workload, run ``WARM_OPS`` ops
untraced, so that the window below starts past ``epc_oversub``'s cold burst
of crashes, and then run a window of ``TRACE_OPS`` ops: the first pass
untraced, the second with the tracer installed.  Per-layer counts repeat
exactly for a seed, and both passes must end with the same digest.  The
per-layer metrics come from the traced window, rates and latencies from the
untraced one; the ratio of the two window times is the tracing overhead.

Every reported host time is CPU time of the client thread, scaled to a
reference host speed (see ``hostclock``); the lines for people also give
the unscaled figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the same figures for people, with the sample count, the digest and the checks.
Nothing is written to disk.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns, thread_time_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUPS = 7
CHECKPOINT = 128  # ops before the digest that every run must reproduce
WALL_CAP_S = 120  # wall-clock seconds after which the timed loop stops short
WARM_OPS = 3000  # untraced ops before the window of a --trace 1 pass
TRACE_OPS = 3000  # ops in the window of each --trace 1 pass
TAIL_BLOCKS = 10  # blocks of the timed loop whose median tail is op_p995_ms


def _import_ccxsim():
    """Import ccxsim from this checkout's sources, and from nowhere else."""
    if not (SRC / "ccxsim" / "__init__.py").is_file():
        sys.exit(f"benchmark: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ccxsim

    if Path(ccxsim.__file__).resolve().parent != (SRC / "ccxsim").resolve():
        sys.exit(f"benchmark: ccxsim imported from {ccxsim.__file__}, not {SRC}")


def latency_ms(samples, q):
    """Nearest-rank latency at quantile ``q`` of (failed, ns) samples.

    Failed ops rank after every completed op."""
    ranked = sorted(samples)
    k = max(0, min(len(ranked) - 1, round(q * len(ranked)) - 1))
    return ranked[k][1] / 1e6


def tail_ms(samples, q):
    """Latency at quantile ``q`` of (failed, ns) samples, failed ops ranked slowest.

    When the rank falls among failed ops this is ``latency_ms``.  When it
    falls among completed ops, the figure is the median, over ``TAIL_BLOCKS``
    consecutive blocks of the run, of the same quantile of each block's
    completed ops, so that a short stretch of host slowdown moves one block
    and not the figure."""
    rank = round(q * len(samples))
    ok = [d for f, d in samples if not f]
    if rank > len(ok):
        return latency_ms(samples, q)
    q_ok = rank / len(ok)
    size = len(samples) // TAIL_BLOCKS
    return statistics.median(
        latency_ms([(False, d) for f, d in samples[i * size:(i + 1) * size] if not f], q_ok)
        for i in range(TAIL_BLOCKS)
    )


class Loop:
    """Run ops of one workload; keep latencies, counts and the run digest."""

    def __init__(self, workload, results_hash=None):
        from hostclock import HostClock

        self.w = workload
        self.h = hashlib.sha256() if results_hash is None else results_hash
        self.clock = HostClock()
        self.samples = []  # (failed, start ns, duration ns) per op, in order
        self.ok = 0
        self.wrong = 0  # ops that completed with a wrong answer
        self.checkpoint_digest = None
        self.peak_rss_mb = None  # read when the loop ends
        self.cut_short = False  # the wall-clock cap stopped the loop
        self.end_ns = 0

    def run(self, max_ops, deadline_ns=None, tracer=None):
        """Run ``max_ops`` ops, or fewer if the wall clock passes ``deadline_ns``."""
        from workloads import OK, WRONG

        w, h, samples, clock = self.w, self.h, self.samples, self.clock
        while len(samples) < max_ops:
            if deadline_ns is not None and perf_counter_ns() >= deadline_ns:
                self.cut_short = True
                break
            clock.tick()
            a = thread_time_ns()
            if tracer is None:
                outcome, record = w.run_op()
            else:
                with tracer.span("bench.op"):
                    outcome, record = w.run_op()
            samples.append((outcome != OK, a, thread_time_ns() - a))
            h.update(repr(record).encode())
            self.ok += outcome == OK
            self.wrong += outcome == WRONG
            if len(samples) == CHECKPOINT:
                self.checkpoint_digest = w.state_digest(h)
        self.end_ns = thread_time_ns()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return self

    @property
    def attempted(self):
        return len(self.samples)

    @property
    def failed(self):
        return self.attempted - self.ok

    def digest(self):
        return self.w.state_digest(self.h)

    def latencies(self, scaled=True):
        """(failed, ns) per op, scaled to the reference host speed or raw."""
        scale = self.clock.scaler() if scaled else (lambda _a, d: d)
        return [(f, scale(a, d)) for f, a, d in self.samples]

    def seconds(self, scaled=True):
        """Loop time without the calibration samples."""
        if scaled:
            return self.clock.scaled_span(self.end_ns) / 1e9
        return (self.end_ns - self.clock.starts[0] - sum(self.clock.durations)) / 1e9


def timed_setup(cls, seed):
    """Build a workload; returns it with its set-up time, raw and scaled."""
    from hostclock import REF_PROBE_NS, probe_ns

    gc.collect()
    before = probe_ns()
    t0 = thread_time_ns()
    w = cls(seed)
    ns = thread_time_ns() - t0
    after = probe_ns()
    return w, ns / 1e9, ns * 2 * REF_PROBE_NS / (before + after) / 1e9


def end_to_end(cls, seed, seconds):
    raw_setup, setup = [], []
    for i in range(SETUPS):
        w, raw, scaled = timed_setup(cls, seed)
        raw_setup.append(raw)
        setup.append(scaled)
        if i == 0:
            replay = Loop(w).run(max_ops=CHECKPOINT).digest()
        if i < SETUPS - 1:
            del w
    gc.collect()
    ops = max(CHECKPOINT, round(seconds * cls.ops_per_s))
    wall0 = perf_counter_ns()
    loop = Loop(w).run(max_ops=ops, deadline_ns=wall0 + WALL_CAP_S * 10**9)
    wall_s = (perf_counter_ns() - wall0) / 1e9
    lat = loop.latencies()
    raw_lat = loop.latencies(scaled=False)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ok_ops_per_s": (loop.ok / loop.seconds(), "1/s"),
        "op_p50_ms": (latency_ms(lat, 0.50), "ms"),
        "op_p995_ms": (tail_ms(lat, 0.995), "ms"),
        "success_rate": (loop.ok / loop.attempted, "ratio"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    checks = {
        "every completed op matched its oracle": loop.wrong == 0,
        "the loop ran all %d ops within the wall-clock cap" % ops: not loop.cut_short,
        "digest at op %d equals a fresh replay's" % CHECKPOINT:
            loop.checkpoint_digest == replay,
    }
    notes = {
        "latency samples": loop.attempted,
        "wall-clock loop s": wall_s,
        "error_rate": loop.failed / loop.attempted,
        "restarts": w.restarts,
        "digest at checkpoint": loop.checkpoint_digest,
        "digest at the end": loop.digest(),
        "op_p99_ms": latency_ms(lat, 0.99),
        "op_p999_ms": latency_ms(lat, 0.999),
        "unscaled setup_s": statistics.median(raw_setup),
        "unscaled ok_ops_per_s": loop.ok / loop.seconds(scaled=False),
        "unscaled op_p50_ms": latency_ms(raw_lat, 0.50),
        "unscaled op_p995_ms": tail_ms(raw_lat, 0.995),
        "calibration loop ms, median": statistics.median(loop.clock.durations) / 1e6,
    }
    return loop, metrics, checks, notes


def warmed(cls, seed):
    """Build a workload and run ``WARM_OPS`` ops; returns it and the results hash."""
    w = cls(seed)
    warm = Loop(w).run(max_ops=WARM_OPS)
    gc.collect()
    return w, warm.h


def per_layer(cls, seed):
    from tracing import LEAVES, Tracer

    w, h = warmed(cls, seed)
    m = w.machine
    cost0 = sum(m.cost_tally.values())
    plain = Loop(w, h).run(max_ops=TRACE_OPS)
    plain_s = plain.seconds()
    cost_units = sum(m.cost_tally.values()) - cost0
    quarter = TRACE_OPS // 4
    plain_digest = plain.digest()
    del w, m

    tw, th = warmed(cls, seed)
    tm, trt = tw.machine, tw.runtime
    swaps0, restarts0 = trt.swap_out_events, tw.restarts
    gpf0 = len(tm.memory.gpf_log)
    tracer = Tracer()
    with tracer.installed():
        t0 = perf_counter_ns()
        with tracer.span("bench.loop"):
            traced = Loop(tw, th).run(max_ops=TRACE_OPS, tracer=tracer)
        wall_ns = perf_counter_ns() - t0
    stats, nested_ok = tracer.aggregate()
    loop_ns = stats["bench.loop"][1]
    self_sum = sum(s[2] for s in stats.values())
    roots = sum(1 for p in tracer.parent if p < 0)
    # Span times are scaled by one factor for the whole traced pass.
    tf = traced.clock.factor()

    def count(name):
        return stats.get(name, (0, 0, 0))[0]

    def per_op(name, unit_ns, field=1):
        s = stats.get(name)
        return s[field] * tf / s[0] / unit_ns if s and s[0] else 0.0

    steps = tracer.sim_steps
    taken = count("runtime.take_epc_granule") + count("runtime.take_host_granule")
    entered = [len(s.entered_counts) for s in tm.enclaves.values()]
    store = trt.store
    blobs = sum(len(store.keys_for(eid)) for eid in list(trt.handles) + [None])
    lat = plain.latencies()

    metrics = {
        "isa.decode.count": (count("isa.decode"), "count"),
        "isa.decode.ns_per_op": (per_op("isa.decode", 1), "ns"),
        "execution.steps": (steps, "count"),
        "execution.sim_steps_per_s": (steps / plain_s, "1/s"),
        "execution.step.self_ns_per_step": (
            stats["execution.step"][2] * tf / steps if steps else 0.0, "ns"),
        "execution.aex.count": (count("execution.aex"), "count"),
    }
    for name in ("read_granule", "write_granule", "epcm_lookup", "find_page"):
        metrics[f"memory.{name}.count"] = (count(f"memory.{name}"), "count")
        metrics[f"memory.{name}.ns_per_op"] = (per_op(f"memory.{name}", 1), "ns")
    metrics["memory.epcm_update.count"] = (tracer.counts["memory.epcm_update"], "count")
    metrics["memory.is_free.count"] = (tracer.counts["memory.is_free"], "count")
    for name in ("assign", "unassign", "create_table", "drop_table"):
        metrics[f"memory.gpt.{name}.us_per_op"] = (per_op(f"memory.gpt.{name}", 1e3), "us")
    metrics["memory.gpf.count"] = (len(tm.memory.gpf_log) - gpf0, "count")
    for leaf in LEAVES:
        metrics[f"machine.leaf.{leaf}.count"] = (count(f"machine.leaf.{leaf}"), "count")
        metrics[f"machine.leaf.{leaf}.us_per_op"] = (per_op(f"machine.leaf.{leaf}", 1e3), "us")
    metrics["machine.dispatch_share"] = (tracer.leaf_ns_outside_leaves() / loop_ns, "ratio")
    metrics["machine.cost_units_per_s"] = (cost_units / plain_s, "1/s")
    for name in ("page_seal", "page_unseal", "verify_sigstruct", "sign_sigstruct",
                 "derive_key", "report_mac", "blob_seal", "blob_unseal"):
        metrics[f"crypto.{name}.us_per_op"] = (per_op(f"crypto.{name}", 1e3), "us")
    metrics["crypto.hash_absorb.count"] = (tracer.counts["crypto.hash_absorb"], "count")
    for name in ("ecall", "take_epc_granule", "take_host_granule"):
        metrics[f"runtime.{name}.self_us"] = (per_op(f"runtime.{name}", 1e3, field=2), "us")
    for name in ("load_enclave", "destroy"):
        metrics[f"runtime.{name}.ms_per_op"] = (per_op(f"runtime.{name}", 1e6), "ms")
    metrics["runtime.swap_in.count"] = (count("runtime.swap_in"), "count")
    metrics["runtime.swap_in.us_per_op"] = (per_op("runtime.swap_in", 1e3), "us")
    metrics["runtime.evictions"] = (trt.swap_out_events - swaps0, "count")
    metrics["runtime.alloc_scan_ratio"] = (
        tracer.counts["memory.is_free"] / taken if taken else 0.0, "ratio")
    metrics["runtime.restarts.count"] = (tw.restarts - restarts0, "count")
    metrics["manifest.load.ms_per_op"] = (per_op("manifest.load", 1e6), "ms")
    metrics["state.trace_records"] = (len(tm.trace), "count")
    metrics["state.gpf_log"] = (len(tm.memory.gpf_log), "count")
    metrics["state.entered_epochs_max"] = (max(entered, default=0), "count")
    metrics["state.swap_store_blobs"] = (blobs, "count")
    metrics["op_p99_ms"] = (latency_ms(lat, 0.99), "ms")
    completed = [s for s in lat if not s[0]]
    metrics["op_p99_ok_ms"] = (latency_ms(completed, 0.99), "ms")
    metrics["op_latency.samples"] = (plain.attempted, "count")
    metrics["op_p50_ms.q1"] = (latency_ms(lat[:quarter], 0.5), "ms")
    metrics["op_p50_ms.q4"] = (latency_ms(lat[-quarter:], 0.5), "ms")
    metrics["error_rate"] = (plain.failed / plain.attempted, "ratio")
    metrics["trace.overhead"] = (traced.seconds() / plain_s, "ratio")
    metrics["trace.self_time_share"] = (self_sum / wall_ns, "ratio")

    checks = {
        "every completed op matched its oracle": plain.wrong == 0 and traced.wrong == 0,
        "traced and untraced passes end with the same digest":
            traced.digest() == plain_digest,
        "traced and untraced checkpoint digests agree":
            traced.checkpoint_digest == plain.checkpoint_digest,
        "spans nest and self times add up to the traced loop time":
            nested_ok and roots == 1 and 0.999 < self_sum / wall_ns <= 1.0,
    }
    notes = {
        "untraced ops before each window": WARM_OPS,
        "ops per window": TRACE_OPS,
        "calibration loop ms, median": statistics.median(plain.clock.durations) / 1e6,
        "unscaled untraced loop s": plain.seconds(scaled=False),
        "unscaled traced loop s": traced.seconds(scaled=False),
        "spans recorded": len(tracer.start),
        "digest": plain_digest,
    }
    return plain, metrics, checks, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed loop; needed with --trace 0, "
                             "and of no effect with --trace 1, which runs fixed op counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.trace and args.seconds is None:
        parser.error("--trace 0 needs --seconds")

    _import_ccxsim()
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.trace:
        loop, metrics, checks, notes = per_layer(cls, args.seed)
    else:
        loop, metrics, checks, notes = end_to_end(cls, args.seed, args.seconds)

    print(f"workload {args.workload}  mode {cls.mode}  seed {args.seed}  "
          f"trace {args.trace}  python {platform.python_version()}  nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    for name, passed in checks.items():
        print(f"  check {'PASS' if passed else 'FAIL'}: {name}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
