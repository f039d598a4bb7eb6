"""The three closed-loop workloads: set-up, a seeded op stream, and oracles.

Each workload drives only the public entry points (``Machine``,
``HostRuntime``, ``EnclaveManifest`` and ``fixtures``).  One client keeps one
op in flight.  The op stream comes from a generator seeded with the workload
name and ``seed``; the simulator itself is deterministic, so a seed fixes
every op and every result.

``run_op`` returns ``(outcome, record)``.  The outcome is ``OK`` when the op
completed with the oracle's answer, ``WRONG`` when it completed with another
answer and ``ERROR`` when it raised.  ``record`` is a small tuple that feeds
the run digest.  An op that raises ``EnclaveFault``, ``SgxError``,
``ModelError`` or ``LoadError``, or returns a wrong value, is a failed op.
When the enclave it ran in is crashed, the workload destroys it, reloads it
from its manifest and resets its shadow state; that restart is part of the
op and is counted in ``restarts``.
"""

from __future__ import annotations

import random

from ccxsim import Config, EnclaveManifest, HostRuntime, Machine, fixtures
from ccxsim.errors import ModelError, SgxError
from ccxsim.runtime import EnclaveFault, LoadError
from ccxsim.structs import KeyPolicy

OP_ERRORS = (EnclaveFault, SgxError, ModelError, LoadError)
OK, WRONG, ERROR = "ok", "wrong", "error"

SEL_COMPUTE = 0  # the compute and notify programs ignore the selector


def _fail(kind, exc):
    return ERROR, (kind, ERROR, type(exc).__name__)


def _checked(got, expected):
    return OK if got == expected else WRONG


class Workload:
    """Base: a machine, its runtime and an op stream drawn from ``seed``."""

    name = ""
    mode = ""
    # Ops in a timed loop per second of ``--seconds``: the loop runs a fixed
    # number of ops, so a seed fixes every op, result and failure of a run.
    # Each rate is about the slowest seen on a shared 2-vCPU Xeon VM.
    ops_per_s = 0

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.restarts = 0
        self.machine = Machine(Config(mode=self.mode))
        self.runtime = HostRuntime(self.machine)

    def state_digest(self, results_hash) -> str:
        """sha256 over op records, leaf counters, cost tally and swap counts."""
        h = results_hash.copy()
        m = self.machine
        h.update(repr(sorted(m.counters.items())).encode())
        h.update(repr(sorted(m.cost_tally.items())).encode())
        h.update(repr((self.runtime.swap_out_events, self.runtime.swap_in_events)).encode())
        return h.hexdigest()


class InterpIrq(Workload):
    """Accumulator-loop ecalls, some interrupted (AEX + ERESUME), some notify."""

    name = "interp_irq"
    mode = "sgx"
    ops_per_s = 450

    def __init__(self, seed: int):
        super().__init__(seed)
        rt = self.runtime
        self.compute = rt.load_enclave(
            EnclaveManifest.parse(
                fixtures.build_manifest_text(fixtures.compute_program(), name="compute")
            )
        )
        self.notify = rt.load_enclave(
            EnclaveManifest.parse(
                fixtures.build_manifest_text(
                    fixtures.notify_program(), name="notify", aexnotify=True
                )
            )
        )

    def run_op(self):
        r = self.rng.random()
        n = self.rng.randint(10, 40)
        expected = fixtures.compute_expected(n)
        # The loop body spans steps 4 .. 6n+3; interrupts land inside it so the
        # notify handler's register restore covers every live register.
        if r < 0.7:
            kind, handle, inject = "plain", self.compute, None
        elif r < 0.9:
            third = 2 * n
            inject = {
                self.rng.randrange(4, 4 + third),
                self.rng.randrange(4 + third + 2, 4 + 2 * third),
                self.rng.randrange(4 + 2 * third + 2, 4 + 3 * third),
            }
            kind, handle = "irq3", self.compute
        else:
            kind, handle = "notify", self.notify
            inject = {self.rng.randrange(5, 4 + 6 * n)}
        try:
            got = self.runtime.ecall(handle, 0, SEL_COMPUTE, n, inject_at=inject)
        except OP_ERRORS as exc:
            return _fail(kind, exc)
        return _checked(got, expected), (kind, n, got)


DATA_OFF = 0x10000
DATA_PAGES = 64
SLOTS_PER_PAGE = 512


class EpcOversub(Workload):
    """PEEK/POKE ecalls over 16 enclaves whose pages overflow the fixed EPC."""

    name = "epc_oversub"
    mode = "sgx"
    ops_per_s = 800
    enclaves = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self.manifest_text = fixtures.build_manifest_text(
            fixtures.standard_program(),
            name="tenant",
            extra_lines=[
                f"page vaddr={DATA_OFF:#x} perms=rw content=zero"
                f" count={DATA_PAGES} measured=no"
            ],
        )
        self.handles = [self._load() for _ in range(self.enclaves)]
        self.shadow = [dict() for _ in range(self.enclaves)]
        # Each enclave sweeps its data pages in its own seeded order, so every
        # access goes to the page that enclave touched longest ago.
        self.sweep = [self.rng.sample(range(DATA_PAGES), DATA_PAGES) for _ in self.handles]
        self.cursor = [0] * self.enclaves

    def _load(self):
        return self.runtime.load_enclave(EnclaveManifest.parse(self.manifest_text))

    def _restart(self, idx: int) -> None:
        self.runtime.destroy(self.handles[idx])
        self.handles[idx] = self._load()
        self.shadow[idx].clear()
        self.restarts += 1

    def run_op(self):
        idx = self.rng.randrange(self.enclaves)
        page = self.sweep[idx][self.cursor[idx]]
        self.cursor[idx] = (self.cursor[idx] + 1) % DATA_PAGES
        slot = self.rng.randrange(SLOTS_PER_PAGE)
        poke = self.rng.random() < 0.5
        value = self.rng.getrandbits(64)
        handle = self.handles[idx]
        addr = handle.base + DATA_OFF + page * 4096 + slot * 8
        key = (page, slot)
        kind = "poke" if poke else "peek"
        try:
            if poke:
                got = self.runtime.ecall(handle, 0, fixtures.SEL_POKE, addr, value)
                expected = value
            else:
                got = self.runtime.ecall(handle, 0, fixtures.SEL_PEEK, addr)
                expected = self.shadow[idx].get(key, 0)
        except OP_ERRORS as exc:
            secs = self.machine.enclaves.get(handle.eid)
            if secs is not None and secs.crashed:
                self._restart(idx)
            return _fail(kind, exc)
        if poke:
            self.shadow[idx][key] = value
        return _checked(got, expected), (kind, idx, page, slot, got)


CHURN_POOL = 32
CHURN_MANIFESTS = 8


class EnclaveChurn(Workload):
    """Replace, attest and seal/unseal over a pool of 32 live enclaves."""

    name = "enclave_churn"
    mode = "ccx"
    ops_per_s = 600

    def __init__(self, seed: int):
        super().__init__(seed)
        self.texts = []
        self.signers = []
        for i in range(CHURN_MANIFESTS):
            signer = "vendor-a" if i % 2 == 0 else "vendor-b"
            self.texts.append(
                fixtures.build_manifest_text(
                    fixtures.standard_program(),
                    name=f"churn{i}",
                    signer=signer,
                    salt=f"churn manifest {i}".encode(),
                )
            )
            self.signers.append(signer)
        # pool entries are (manifest index, handle), oldest first
        self.pool = [self._load(i % CHURN_MANIFESTS) for i in range(CHURN_POOL)]

    def _load(self, midx: int):
        return midx, self.runtime.load_enclave(EnclaveManifest.parse(self.texts[midx]))

    def _pair(self):
        a, b = self.rng.sample(range(len(self.pool)), 2)
        return self.pool[a], self.pool[b]

    def run_op(self):
        r = self.rng.random()
        rt = self.runtime
        if r < 0.4:
            midx = self.rng.randrange(CHURN_MANIFESTS)
            x, y = self.rng.getrandbits(32), self.rng.getrandbits(32)
            try:
                rt.destroy(self.pool.pop(0)[1])
                entry = self._load(midx)
                self.pool.append(entry)
                got = rt.ecall(entry[1], 0, fixtures.SEL_ADD, x, y)
            except OP_ERRORS as exc:
                return _fail("replace", exc)
            return _checked(got, x + y), ("replace", midx, got)
        if r < 0.7:
            (_, a), (_, b) = self._pair()
            try:
                outcome = rt.attest(a, b)
            except OP_ERRORS as exc:
                return _fail("attest", exc)
            return _checked(outcome.mutual, True), ("attest", outcome.a_to_b, outcome.b_to_a)
        (ma, a), (mb, b) = self._pair()
        payload = self.rng.randbytes(48)
        try:
            blob = rt.seal(a, KeyPolicy.MRSIGNER, payload)
            got = rt.unseal(b, blob)
        except OP_ERRORS as exc:
            return _fail("seal", exc)
        same_signer = self.signers[ma] == self.signers[mb]
        expected = payload if same_signer else None
        return _checked(got, expected), ("seal", same_signer, got is not None)


WORKLOADS = {w.name: w for w in (InterpIrq, EpcOversub, EnclaveChurn)}
