"""Span tracing of the simulator from outside its sources.

``Tracer.installed()`` wraps public functions of ``ccxsim`` for the length of
a ``with`` block and restores them afterwards.  Each wrapped call records a
span (name, start, end, parent) into flat arrays in memory; a few very hot,
cheap functions are only counted.  Self time is a span's duration minus the
durations of its child spans.  Nothing inside ``src/ccxsim`` changes.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter_ns

from ccxsim import EnclaveManifest, HostRuntime, Machine, isa
from ccxsim import execution
from ccxsim.crypto import CryptoEngine, RunningHash
from ccxsim.machine import ENCLS_TABLE, ENCLU_TABLE
from ccxsim.memory import GptSet, MachineMemory

# Leaves the workloads can invoke while timed, restarts included; EPA runs
# only when the swap manager runs out of version slots.
LEAVES = (
    "ECREATE", "EADD", "EEXTEND", "EINIT", "EREMOVE", "EPA",
    "EENTER", "EEXIT", "ERESUME", "EDECCSSA",
    "EBLOCK", "ETRACK", "EWB", "ELDU", "EREPORT", "EGETKEY",
)

# (owner, attribute, span name) for every timed wrapper.
SPANNED = [
    (isa, "decode", "isa.decode"),
    (execution, "aex", "execution.aex"),
    (MachineMemory, "read_granule", "memory.read_granule"),
    (MachineMemory, "write_granule", "memory.write_granule"),
    (MachineMemory, "epcm_lookup", "memory.epcm_lookup"),
    (MachineMemory, "find_page", "memory.find_page"),
    (GptSet, "assign", "memory.gpt.assign"),
    (GptSet, "unassign", "memory.gpt.unassign"),
    (GptSet, "create_enclave_table", "memory.gpt.create_table"),
    (GptSet, "drop_enclave_table", "memory.gpt.drop_table"),
    (CryptoEngine, "page_seal", "crypto.page_seal"),
    (CryptoEngine, "page_unseal", "crypto.page_unseal"),
    (CryptoEngine, "verify_sigstruct", "crypto.verify_sigstruct"),
    (CryptoEngine, "sign_sigstruct", "crypto.sign_sigstruct"),
    (CryptoEngine, "derive_key", "crypto.derive_key"),
    (CryptoEngine, "report_mac", "crypto.report_mac"),
    (CryptoEngine, "blob_seal", "crypto.blob_seal"),
    (CryptoEngine, "blob_unseal", "crypto.blob_unseal"),
    (HostRuntime, "ecall", "runtime.ecall"),
    (HostRuntime, "take_epc_granule", "runtime.take_epc_granule"),
    (HostRuntime, "take_host_granule", "runtime.take_host_granule"),
    (HostRuntime, "load_enclave", "runtime.load_enclave"),
    (HostRuntime, "destroy", "runtime.destroy"),
    (HostRuntime, "swap_in", "runtime.swap_in"),
]

# (owner, attribute, counter name) for count-only wrappers.
COUNTED = [
    (MachineMemory, "epcm_update", "memory.epcm_update"),
    (MachineMemory, "is_free", "memory.is_free"),
    (RunningHash, "absorb", "crypto.hash_absorb"),
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.counts: dict = {}
        self.sim_steps = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _spanned(self, fn, name_of):
        """Wrap ``fn``; ``name_of(args)`` gives the span's name id."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper for the ``with`` block, then restore."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for owner, attr, name in SPANNED:
            nid = self._id(name)
            patch(owner, attr, self._spanned(getattr(owner, attr), lambda _a, n=nid: n))
        for owner, attr, name in COUNTED:
            patch(owner, attr, self._counted(getattr(owner, attr), name))

        encls_ids = {num: self._id(f"machine.leaf.{n}") for num, (n, _) in ENCLS_TABLE.items()}
        enclu_ids = {num: self._id(f"machine.leaf.{n}") for num, (n, _) in ENCLU_TABLE.items()}
        bad_leaf = self._id("machine.leaf.undefined")
        patch(Machine, "encls", self._spanned(
            Machine.encls, lambda a: encls_ids.get(a[1], bad_leaf)))
        patch(Machine, "enclu", self._spanned(
            Machine.enclu, lambda a: enclu_ids.get(a[2], bad_leaf)))

        step = Machine.step
        step_id = self._id("execution.step")
        tracer = self

        def traced_step(*args, **kwargs):
            idx = tracer._open(step_id)
            try:
                report = step(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.sim_steps += report.steps
            return report

        patch(Machine, "step", traced_step)

        parse = EnclaveManifest.__dict__["parse"].__func__
        patch(EnclaveManifest, "parse",
              classmethod(self._spanned(parse, lambda _a, n=self._id("manifest.load"): n)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def aggregate(self):
        """Per name: [count, inclusive ns, self ns]; also checks nesting.

        Returns ``(stats, nested_ok)``.  ``nested_ok`` holds when every span
        lies inside its parent and no self time is negative.  A blob AEAD call
        made from inside a page AEAD call is booked as ``<name>.in_page`` so
        the blob figures cover only the runtime's own sealing.
        """
        n = len(self.start)
        child_ns = array("q", bytes(8 * n))
        nested_ok = True
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
                if start[i] < start[p] or end[i] > end[p]:
                    nested_ok = False
        names = self.names
        page_aead = {self._ids.get("crypto.page_seal"), self._ids.get("crypto.page_unseal")}
        blob_aead = {self._ids.get("crypto.blob_seal"), self._ids.get("crypto.blob_unseal")}
        stats: dict = {}
        for i in range(n):
            nid = self.name_id[i]
            name = names[nid]
            if nid in blob_aead and parent[i] >= 0 and self.name_id[parent[i]] in page_aead:
                name += ".in_page"
            dur = end[i] - start[i]
            own = dur - child_ns[i]
            if own < 0:
                nested_ok = False
            s = stats.setdefault(name, [0, 0, 0])
            s[0] += 1
            s[1] += dur
            s[2] += own
        return stats, nested_ok

    def leaf_ns_outside_leaves(self) -> int:
        """Inclusive ns of leaf spans not nested directly in another leaf."""
        leaf_ids = {i for i, name in enumerate(self.names) if name.startswith("machine.leaf.")}
        total = 0
        for i in range(len(self.start)):
            if self.name_id[i] in leaf_ids:
                p = self.parent[i]
                if p < 0 or self.name_id[p] not in leaf_ids:
                    total += self.end[i] - self.start[i]
        return total
