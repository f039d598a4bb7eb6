"""Scenario scripts: line-oriented drivers for whole simulated runs.

Grammar (one command per line, '#' comments):

    create <id> <manifest-path>       path relative to the scenario file
    destroy <id>
    ecall <id> <tcs> <selector> [a] [b]
    inject_irq vcpu=<n> at=every|<s>[,<s>...]   applies to the next ecall;
                                      each <s> counts every step from 1,
                                      the host's halt at a gate included
    swap_out <id> <offset>            enclave-relative page offset
    swap_in <id> <offset>
    attest <a> <b>
    seal <id> mrenclave|mrsigner <hexpayload>
    unseal <id>
    expect <probe> <op> <value>
    expect mrenclave_eq <a> <b>
    try <command>                     <command>, but a refusal is recorded
                                      and the run goes on

Each command is one row of ``_COMMANDS``: its arity and its runner method.
Probes: ``last`` (result of the previous command), ``unseal_ok``,
``attest_ab``, ``attest_ba`` and ``attest_mutual``, which the commands leave
in ``ScenarioRunner.probes``; ``count:<LEAF>``, ``gpf_count``,
``swap_out_events`` and ``swap_in_events``, read from ``counts()`` as the
summary is.  Ops: == != >= <= > <.

The report is line-delimited: one JSON record per executed command, then one
summary object.  With fixed seeds the serialized report is byte-identical
across runs.  A refused command or failed expectation aborts the scenario, and
the report carries the failing position plus a machine-state snapshot.  A
refused ``try`` line does not: its record (``ok`` false, ``cmd`` the inner
command) is kept and the run goes on.  An unknown inner command or a wrong
argument count still aborts, so ``try`` hides no authoring error.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from .config import Config
from .errors import ModelError, SgxError, read_input
from .machine import ALL_LEAF_NAMES, Machine
from .manifest import EnclaveManifest, ManifestError
from .runtime import EnclaveFault, HostRuntime, LoadError
from .structs import KeyPolicy

_OPS = {"==": operator.eq, "!=": operator.ne, ">=": operator.ge,
        "<=": operator.le, ">": operator.gt, "<": operator.lt}

_POLICIES = {"mrenclave": KeyPolicy.MRENCLAVE, "mrsigner": KeyPolicy.MRSIGNER}


class ScenarioError(Exception):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"scenario line {line_no}: {message}")


@dataclass
class ScenarioResult:
    ok: bool
    events: List[dict]
    summary: dict
    machine: Machine
    runtime: HostRuntime

    def to_jsonl(self) -> str:
        lines = [json.dumps(e, sort_keys=True) for e in self.events]
        lines.append(json.dumps({"summary": self.summary}, sort_keys=True))
        return "\n".join(lines) + "\n"


@dataclass
class _Pending:
    vcpu: int = 0
    at: object = None  # "every" | set of ints


class ScenarioRunner:
    """Runs a scenario on one machine, built from ``config``, whose mode is
    the platform's: the scenario itself names none."""

    def __init__(self, config: Config, base_dir: Optional[Path] = None,
                 trace: Optional[list] = None):
        self.base_dir = Path(base_dir) if base_dir else Path(".")
        self.machine = Machine(config)
        if trace is not None:  # the machine's trace sink; with none it keeps no records
            self.machine.trace = trace
        self.runtime = HostRuntime(self.machine)
        self.handles: Dict[str, object] = {}
        # what the commands leave for probes; attest_* is None until an attest
        self.probes: Dict[str, Optional[int]] = dict(
            last=0, unseal_ok=0, attest_ab=None, attest_ba=None, attest_mutual=None)
        self.sealed = None  # the last seal's (SealedBlob, payload)
        self._pending_inject: Optional[_Pending] = None

    def _handle(self, name: str, line_no: int):
        try:
            return self.handles[name]
        except KeyError:
            raise ScenarioError(line_no, f"unknown enclave {name!r}") from None

    @staticmethod
    def _int(text: str, line_no: int) -> int:
        try:
            return int(text, 0)
        except ValueError:
            raise ScenarioError(line_no, f"{text!r} is not a number") from None

    # -- counts and probes ----------------------------------------------------

    def counts(self) -> dict:
        """The run's counts so far: the summary carries each, and each
        int-valued one is a probe."""
        m, rt = self.machine, self.runtime
        return {
            "counters": dict(m.counters),
            "cost_tally": m.cost_tally,
            "gpf_count": len(m.memory.gpf_log),
            "swap_out_events": rt.swap_out_events,
            "swap_in_events": rt.swap_in_events,
        }

    def probe(self, name: str, line_no: int) -> int:
        """A leaf counter, an int-valued count or a value a command left."""
        counts = self.counts()
        if name.startswith("count:"):
            leaf = name.split(":", 1)[1]
            if leaf not in ALL_LEAF_NAMES:
                raise ScenarioError(line_no, f"unknown leaf counter {leaf!r}")
            return counts["counters"][leaf]
        values = {**counts, **self.probes}
        if name not in values or isinstance(values[name], dict):
            raise ScenarioError(line_no, f"unknown probe {name!r}")
        if values[name] is None:
            raise ScenarioError(line_no, "no attestation has run")
        return values[name]

    # -- running a scenario -------------------------------------------------------

    def run_text(self, text: str) -> ScenarioResult:
        events: List[dict] = []
        failure: Optional[dict] = None
        for line_no, raw in enumerate(text.splitlines(), start=1):
            record = self.run_line(raw, line_no)
            if record is None:
                continue
            events.append(record)
            if _ends_run(record):
                failure = record
                break
        ok = failure is None
        summary = {"ok": ok, "commands": len(events), **self.counts()}
        if failure is not None:
            summary["failed_at"] = failure["line"]
            summary["failure"] = failure.get("error", "expectation failed")
            snapshot = self.machine.snapshot()
            snapshot.pop("granule_contents", None)  # keep reports readable
            summary["state_snapshot"] = snapshot
        return ScenarioResult(
            ok=ok, events=events, summary=summary,
            machine=self.machine, runtime=self.runtime,
        )

    def run_file(self, path) -> ScenarioResult:
        path = Path(path)
        self.base_dir = path.parent
        return self.run_text(read_input(path, f"scenario {path}"))

    def run_line(self, raw: str, line_no: int) -> Optional[dict]:
        """The record of one scenario line, or None for a blank one.  A refused
        line's record has ``ok`` false and the ``error``; a ``try`` line's names
        its inner command once that is known and its arguments counted."""
        line = raw.split("#", 1)[0].strip()
        if not line:
            return None
        parts = line.split()
        record = {"line": line_no, "cmd": parts[0], "text": line}
        try:
            if parts[0] == "try":
                if len(parts) == 1:
                    raise ScenarioError(line_no, "try needs a command")
                del parts[0]
            cmd, args = parts[0], parts[1:]
            if cmd not in _COMMANDS:
                raise ScenarioError(line_no, f"unknown command {cmd!r}")
            fewest, most, method = _COMMANDS[cmd]
            if not fewest <= len(args) <= most:
                count = fewest if fewest == most else f"{fewest} to {most}"
                raise ScenarioError(line_no, f"{cmd} takes {count} arguments, got {len(args)}")
            record["cmd"] = cmd
            result = method(self, args, line_no)
            record["ok"] = True
            if result is not None:
                record["result"] = result
        except (ScenarioError, ManifestError, ModelError) as exc:
            record["ok"] = False
            record["error"] = str(exc)
        except (SgxError, LoadError, EnclaveFault) as exc:
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    # -- the commands: each takes its arguments and returns its record's result

    def _create(self, args: List[str], line_no: int) -> int:
        name, path = args
        manifest_path = self.base_dir / path
        text = read_input(manifest_path, f"manifest {path!r}")
        manifest = EnclaveManifest.parse(text, base_dir=manifest_path.parent)
        handle = self.runtime.load_enclave(manifest)
        self.handles[name] = handle
        self.probes["last"] = handle.eid
        return handle.eid

    def _destroy(self, args: List[str], line_no: int) -> None:
        self.runtime.destroy(self._handle(args[0], line_no))
        del self.handles[args[0]]
        self.probes["last"] = 0

    def _ecall(self, args: List[str], line_no: int) -> int:
        # the pending schedule is this call's, even if the call is refused
        pending, self._pending_inject = self._pending_inject or _Pending(), None
        name, *numbers = args + ["0"] * (5 - len(args))  # a and b default to 0
        tcs, selector, a, b = (self._int(v, line_no) for v in numbers)
        handle = self._handle(name, line_no)
        self.probes["last"] = self.runtime.ecall(
            handle, tcs, selector, a, b, vcpu_index=pending.vcpu, inject_at=pending.at
        )
        return self.probes["last"]

    def _inject_irq(self, args: List[str], line_no: int) -> None:
        pending = _Pending()
        fields = dict(token.partition("=")[::2] for token in args)
        if len(fields) < len(args):  # at most two tokens, so the first is repeated
            raise ScenarioError(line_no, f"inject_irq {args[0].partition('=')[0]}= given twice")
        for key, value in fields.items():
            if key == "vcpu":
                pending.vcpu = self._int(value, line_no)
            elif key == "at":
                pending.at = "every" if value == "every" else {
                    self._int(v, line_no) for v in value.split(",")}
                if pending.at != "every" and min(pending.at) < 1:
                    raise ScenarioError(line_no, f"inject_irq at={min(pending.at)} "
                                                 "can never fire: steps count from 1")
            else:
                raise ScenarioError(line_no, f"unknown inject field {key!r}")
        if pending.at is None:
            raise ScenarioError(line_no, "inject_irq needs at=")
        self._pending_inject = pending

    def _swap(self, args: List[str], line_no: int, direction: str) -> None:
        handle = self._handle(args[0], line_no)
        vaddr = handle.base + self._int(args[1], line_no)
        getattr(self.runtime, direction)(handle, vaddr)
        self.probes["last"] = 1

    def _attest(self, args: List[str], line_no: int) -> dict:
        a = self._handle(args[0], line_no)
        b = self._handle(args[1], line_no)
        report = self.runtime.attest(a, b)
        self.probes.update(attest_ab=int(report.a_to_b), attest_ba=int(report.b_to_a),
                           attest_mutual=int(report.mutual), last=int(report.mutual))
        return {"a_to_b": report.a_to_b, "b_to_a": report.b_to_a}

    def _seal(self, args: List[str], line_no: int) -> None:
        handle = self._handle(args[0], line_no)
        if args[1] not in _POLICIES:
            raise ScenarioError(line_no, f"unknown seal policy {args[1]!r}")
        try:
            payload = bytes.fromhex(args[2])
        except ValueError:
            raise ScenarioError(line_no, f"payload {args[2]!r} is not hex") from None
        self.sealed = self.runtime.seal(handle, _POLICIES[args[1]], payload), payload
        self.probes["last"] = 1

    def _unseal(self, args: List[str], line_no: int) -> int:
        if self.sealed is None:
            raise ScenarioError(line_no, "nothing has been sealed")
        blob, payload = self.sealed
        recovered = self.runtime.unseal(self._handle(args[0], line_no), blob)
        self.probes["unseal_ok"] = self.probes["last"] = int(recovered == payload)
        return self.probes["last"]

    def _expect(self, args: List[str], line_no: int) -> bool:
        if args[0] == "mrenclave_eq":
            a = self._handle(args[1], line_no)
            b = self._handle(args[2], line_no)
            if a.mrenclave != b.mrenclave:
                raise ScenarioError(line_no, "expectation failed: mrenclave "
                                    f"{a.mrenclave.hex()[:16]}... != {b.mrenclave.hex()[:16]}...")
            return True
        probe, op, value = args[0], args[1], self._int(args[2], line_no)
        if op not in _OPS:
            raise ScenarioError(line_no, f"unknown operator {op!r}")
        actual = self.probe(probe, line_no)
        if not _OPS[op](actual, value):
            raise ScenarioError(
                line_no, f"expectation failed: {probe} is {actual}, wanted {op} {value}"
            )
        return True


# Command -> (fewest, most) arguments and the runner method that runs it.
_COMMANDS = {
    "create": (2, 2, ScenarioRunner._create),
    "destroy": (1, 1, ScenarioRunner._destroy),
    "ecall": (3, 5, ScenarioRunner._ecall),
    "inject_irq": (1, 2, ScenarioRunner._inject_irq),
    "swap_out": (2, 2, partial(ScenarioRunner._swap, direction="swap_out")),
    "swap_in": (2, 2, partial(ScenarioRunner._swap, direction="swap_in")),
    "attest": (2, 2, ScenarioRunner._attest),
    "seal": (3, 3, ScenarioRunner._seal),
    "unseal": (1, 1, ScenarioRunner._unseal),
    "expect": (3, 3, ScenarioRunner._expect),
}


def _ends_run(record: dict) -> bool:
    """A refusal ends a run, but a try line's, whose record names its inner command."""
    return not record["ok"] and record["cmd"] == record["text"].split()[0]


# The fields of a line's outcome in which sgx and ccx may differ: sgx pages
# its fixed EPC.  EPA makes version arrays, EBLOCK, ETRACK and EWB write a
# page back, ELDU loads it again, and ERESUME resumes a thread that faulted
# on it; on an AEX-Notify thread that resume enters the notify handler, which
# retires the frame by EDECCSSA.
MODE_DIFFERENCES = frozenset({"swap_out_events", "swap_in_events"} | {
    f"counters.{leaf}" for leaf in ("EBLOCK", "EDECCSSA", "ELDU", "EPA", "ERESUME", "ETRACK",
                                    "EWB")})


def compare_modes(text: str, config: Config, base_dir=None, after_line=None,
                  table=MODE_DIFFERENCES) -> List[str]:
    """Run scenario ``text`` line by line in sgx and in ccx mode, in lockstep,
    and return each difference in a line's record or in a count the line
    added, in a field that ``table`` does not name, as ``scenario line N:
    <field>: sgx <value>, ccx <value>``, a line's ``error`` first, then ``ok``,
    then the rest by name.  Both runs stop where ``run_text`` would stop
    either.  ``after_line(runners, records)`` is called after each line.  A
    ``config`` valid in one mode only is refused, as a ModelError, before
    line 1."""
    runners = [ScenarioRunner(replace(config, mode=mode), base_dir) for mode in ("sgx", "ccx")]

    # The leaf counters flattened (counters.EWB), without the cost tally: a
    # cost is a count times its Machine.leaf_cost, which no mode enters.
    def counts(runner) -> Dict[str, int]:
        counts = runner.counts()
        del counts["cost_tally"]
        return {**{f"counters.{leaf}": n for leaf, n in counts.pop("counters").items()}, **counts}

    before = [counts(runner) for runner in runners]
    differences: List[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        records = [runner.run_line(raw, line_no) for runner in runners]
        if records[0] is None:
            continue
        if after_line is not None:
            after_line(runners, records)
        after = [counts(runner) for runner in runners]
        outcomes = [{**record, **{key: n - old.get(key, 0) for key, n in new.items()}}
                    for record, old, new in zip(records, before, after)]
        fields = outcomes[0].keys() | outcomes[1].keys()
        for field in sorted(fields, key=lambda field: (field != "error", field != "ok", field)):
            a, b = (outcome.get(field) for outcome in outcomes)
            if a != b and field not in table:
                differences.append(f"scenario line {line_no}: {field}: sgx {a!r}, ccx {b!r}")
        if any(map(_ends_run, records)):
            break
        before = after
    return differences


def run_scenario(path, config: Optional[Config] = None) -> ScenarioResult:
    return ScenarioRunner(config or Config()).run_file(path)
