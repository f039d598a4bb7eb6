"""The machine: memory, crypto, cores, and the one leaf dispatch.

One Machine is one simulated platform.  All microprogram execution funnels
through :meth:`Machine.encls` / :meth:`Machine.enclu`, which find the leaf's
one row in :data:`~ccxsim.execution.LEAVES`, count and cost the invocation,
check the ENCLU mode rule the row holds, run the handler to completion,
record the invocation, and optionally audit the protection-table invariants
afterwards.  A driver passes the handler's arguments; a trap passes its core
and register words, which the row's kinds decode.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from . import execution
from .config import Config
from .crypto import CryptoEngine, DeviceSecrets
from .errors import ModelError, PageAccessFault, SgxError, SgxErrorCode as E
from .execution import LEAF_NUMBERS, NO_TRACE, SMC_ID_ENCLS, SMC_ID_ENCLU, VCpu
from .memory import GRANULE_SIZE, HOST, MachineMemory, PageType
from .structs import TCS_OFF_CSSA, Secs, Tcs

_ENCLS_ROWS, _ENCLU_ROWS = execution.LEAVES[SMC_ID_ENCLS], execution.LEAVES[SMC_ID_ENCLU]

# Number -> (name, handler) views of the rows, which the benchmark's tracer
# names its leaf spans by; the dispatch reads the rows themselves.
ENCLS_TABLE, ENCLU_TABLE = (
    {num: (row.name, row.handler) for num, row in rows.items()}
    for rows in (_ENCLS_ROWS, _ENCLU_ROWS))

ALL_LEAF_NAMES = sorted(LEAF_NUMBERS)


def _leaf_costs(config: Config) -> Dict[str, int]:
    """Each leaf's units: its row's cost plus the factors its row charges,
    where one ``gpt_per_granule`` is paid for every granule of the machine."""
    factors = dict(config.cost_factors)
    factors["gpt_per_granule"] *= config.granule_count
    return {row.name: row.cost + sum(map(factors.__getitem__, row.charges))
            for row in (*_ENCLS_ROWS.values(), *_ENCLU_ROWS.values())}


class Machine:
    """One platform, which one host thread drives: a leaf, a step or an
    interrupt delivery ends before the next begins, so nothing locks.
    ``step`` runs one vCPU and returns before any other core or the host
    acts, so concurrent cores are calls that their driver interleaves."""

    def __init__(self, config: Optional[Config] = None):
        self.config = config or Config()
        self.memory = MachineMemory(self.config.granule_count, self.config.epc_span())
        self.crypto = CryptoEngine(DeviceSecrets.from_seed_int(self.config.crypto_seed))
        self.enclaves: Dict[int, Secs] = {}
        self.vcpus: List[VCpu] = [VCpu(id=i) for i in range(self.config.vcpu_count)]
        self.counters: Dict[str, int] = {name: 0 for name in ALL_LEAF_NAMES}
        self.leaf_cost = _leaf_costs(self.config)
        # Records go to whatever is here: by default NO_TRACE, so observation
        # nobody reads costs no record and holds no memory.  A reader puts a list.
        self.trace = NO_TRACE
        self._rng = random.Random(f"machine:{self.config.crypto_seed}")
        self._next_eid = 1

    # -- plumbing -------------------------------------------------------------

    @property
    def cost_tally(self) -> Dict[str, int]:
        """Cost units per leaf: each invocation costs its fixed ``leaf_cost``."""
        return {name: n * self.leaf_cost[name] for name, n in self.counters.items()}

    def alloc_eid(self) -> int:
        eid = self._next_eid
        self._next_eid += 1
        return eid

    def rand_bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    def trace_event(self, kind: str, **payload) -> None:
        """The one writer of trace records; none is built for ``NO_TRACE``."""
        trace = self.trace
        if trace is not NO_TRACE:
            trace.append({"seq": len(trace), "kind": kind, **payload})

    # -- leaf dispatch ----------------------------------------------------------

    def _dispatch(self, rows, vcpu: Optional[VCpu], leaf: int, args, core, words) -> Any:
        """Run one leaf; ``vcpu`` is None for ENCLS, else also ``args[0]``.
        A trapping ``core``'s ``words`` x2..x4 give the rest of the arguments.
        A leaf that faults on a page has not run: its count is taken back, it
        writes no leaf record, and the pump's AEX and ERESUME, or a driver's
        retry of an entry leaf, runs it again once the page is reloaded.  A
        driver's call records the fault as ``pagefault``; the pump records a
        trap's."""
        row = rows.get(leaf)
        if row is None:
            cls = "ENCLS" if vcpu is None else "ENCLU"
            raise SgxError(E.INVALID_LEAF, f"{cls} leaf {leaf:#x} is undefined")
        name = row.name
        self.counters[name] += 1
        try:
            if vcpu is not None and (vcpu.cur_eid is None) != row.host_mode:
                need = "host" if row.host_mode else "enclave"
                raise SgxError(E.INVALID_MODE, f"{name} requires {need} mode")
            if words is None:
                result = row.handler(self, *args)
            else:
                result = execution.run_trapped(self, row, core, words, args)
        except SgxError as err:
            if self.trace is not NO_TRACE:
                self.trace_event(name.lower(), vcpu=None if vcpu is None else vcpu.id,
                                 outcome=err.code.name, cost=self.leaf_cost[name])
            raise
        except PageAccessFault as fault:
            self.counters[name] -= 1
            if words is None and self.trace is not NO_TRACE:
                self.trace_event("pagefault", vcpu=None if vcpu is None else vcpu.id,
                                 leaf=name.lower(), addr=fault.vaddr, why=fault.why)
            raise
        if self.trace is not NO_TRACE:  # every leaf comes here: skip the call too
            self.trace_event(name.lower(), vcpu=None if vcpu is None else vcpu.id,
                             outcome="ok", cost=self.leaf_cost[name])
        if self.config.audit_after_leaf:
            self.audit()
        return result

    # A trap passes ``words`` in place of arguments, and ENCLS its ``core``,
    # so memory is read only once the call is counted and its mode checked.
    # The benchmark's tracer reads the leaf number as args[1] of encls and
    # args[2] of enclu, with the machine at args[0].

    def encls(self, leaf: int, *args, core: Optional[VCpu] = None,
              words: Optional[tuple] = None) -> Any:
        return self._dispatch(_ENCLS_ROWS, None, leaf, args, core, words)

    def enclu(self, vcpu: VCpu, leaf: int, *args, words: Optional[tuple] = None) -> Any:
        return self._dispatch(_ENCLU_ROWS, vcpu, leaf, (vcpu, *args), vcpu, words)

    def leaf(self, name: str, *args, vcpu: Optional[VCpu] = None) -> Any:
        """Dispatch by name; convenience for drivers and tests."""
        if name not in LEAF_NUMBERS:
            raise ModelError(f"unknown leaf {name!r}")
        service, num = LEAF_NUMBERS[name]
        if service == SMC_ID_ENCLS:
            return self.encls(num, *args)
        if vcpu is None:
            raise ModelError(f"{name} is an ENCLU leaf and needs a vcpu")
        return self.enclu(vcpu, num, *args)

    def tcs_busy(self, granule: int) -> bool:
        """A TCS is busy exactly while some vCPU runs on it."""
        for vcpu in self.vcpus:
            if vcpu.cur_tcs == granule:
                return True
        return False

    def read_tcs(self, granule: int) -> Tcs:
        """The thread state in a TCS page, which is its only record.  A
        microcode read passes every protection check, so none is made."""
        return Tcs.unpack(self.memory.data, granule * GRANULE_SIZE)

    def store_cssa(self, granule: int, cssa: int) -> None:
        self.memory.store(granule, TCS_OFF_CSSA, cssa.to_bytes(8, "little"))

    def step(self, vcpu: VCpu, max_steps: int) -> execution.RunReport:
        return execution.step(self, vcpu, max_steps)

    def inject_interrupt(self, vcpu: VCpu) -> None:
        execution.inject_interrupt(self, vcpu)

    # -- host-visible memory helpers (normal-world access, checked) -------------

    def host_read(self, granule: int, offset: int, length: int) -> bytes:
        return self.memory.read_granule(HOST, granule, offset, length)

    def host_write(self, granule: int, offset: int, data: bytes) -> None:
        self.memory.write_granule(HOST, granule, offset, data)

    # -- invariants and snapshots ---------------------------------------------

    def audit(self) -> None:
        """Check the memory invariants and each SECS page's link to its
        enclave.  vCPU state needs no check: a core's world, active table
        and TCS occupancy all derive from its ``cur_eid``/``cur_tcs``."""
        self.memory.audit()
        for granule, entry in self.memory.epcm.items():
            if entry.page_type == PageType.SECS:
                secs = self.enclaves.get(entry.owner)
                if secs is None or secs.secs_granule != granule:
                    raise ModelError(f"SECS granule {granule} owner link broken")

    def snapshot(self) -> dict:
        """Full structural dump; the inspect command redacts as needed."""
        enclaves = []
        for eid, secs in sorted(self.enclaves.items()):
            enclaves.append(
                {
                    "eid": eid,
                    "size": secs.size,
                    "base": secs.base,
                    "ssa_frame_size": secs.ssa_frame_size,
                    "initialized": secs.initialized,
                    "crashed": secs.crashed,
                    "debug": secs.attributes.debug,
                    "attributes": secs.attributes.encode(),
                    "mrenclave": secs.mrenclave.hex() if secs.mrenclave else None,
                    "mrsigner": secs.mrsigner.hex() if secs.mrsigner else None,
                    "isv_prod_id": secs.isv_prod_id,
                    "isv_svn": secs.isv_svn,
                    "secs_granule": secs.secs_granule,
                }
            )
        epcm = []
        contents = {}
        for granule in self.memory.valid_pages():
            e = self.memory.epcm[granule]
            epcm.append(
                {
                    "granule": granule,
                    "type": e.page_type.name,
                    "owner": e.owner,
                    "vaddr": e.vaddr,
                    "perms": e.perms.text(),
                    "blocked": e.blocked,
                    "pending": e.pending,
                    "modified": e.modified,
                    "staged_type": e.staged_type.name if e.staged_type else None,
                }
            )
            contents[str(granule)] = self.memory.load(granule, 0, GRANULE_SIZE).hex()
        return {
            "config": self.config.to_dict(),
            "enclaves": enclaves,
            "epcm": epcm,
            "gpt": self.memory.gpts.snapshot_counts(),
            "granule_contents": contents,
            "counters": dict(self.counters),
            "gpf_count": len(self.memory.gpf_log),
        }
