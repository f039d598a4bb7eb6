"""Host runtime: the untrusted stack driving the machine.

Plays the kernel driver plus the untrusted runtime library: loads enclaves
from manifests, dispatches calls into enclaves and outside calls back to host
handlers, demand-pages swapped content back in, and makes room in a full EPC
span by evicting pages through the block/track/writeback protocol.

Eviction reclaims a batch, as the Linux SGX driver does: one scan of the
EPCM, in the order pages became valid, takes the oldest ``RECLAIM_BATCH``
pages the victim filter admits (no more than there are free version slots).
Each is blocked, every owner among them is tracked once, and then each is
written back.  The scan starts at the front every time: the runtime keeps no
cursor and no residency list of its own.

Driver ABI (documented contract with fixture programs):

    call in     x2 selector, x3/x4 arguments; larger payloads go through an
                untrusted shared buffer granule whose address rides in x4
    call out    enclave exits to the return gate with the result in x3
    outside call
                enclave exits to the ocall gate with x5 selector, x6/x7
                arguments; on re-entry x2 holds OCALL_RESUME and x5 the result
    gates       x10 return gate, x11 ocall gate (set by the driver on entry)
    async exit  lands on the aep gate; the driver resumes or reports

Gate addresses live on a reserved host granule that reads as zeroes, so a
vCPU arriving there halts and hands control back to the driver loop.

Allocation: every enclave page (SECS, added, augmented, reloaded, version
array) is the lowest free granule of the EPC span, in both memory modes, so
freed granules are reused before fresh ones.  Nothing is reserved between
the choice and its use: a taken granule stays free until a leaf assigns it,
so take one, use it, then take the next.
"""

from __future__ import annotations

import hmac as hmac_mod
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from .crypto import RunningHash
from .errors import AuthenticationFailure, ModelError, SgxError, read_input
from .execution import MASK64, ssa_frame_vaddr
from .machine import LEAF_NUMBERS, Machine
from .manifest import EnclaveManifest
from .memory import GRANULE_SIZE, RESERVED_GRANULES, EpcmEntry, PageType, Perms
from .microprograms import DEFAULT_ENCLAVE_BASE
from .structs import (
    EEXTEND_CHUNK,
    EXIT_IRQ,
    EXIT_PAGEFAULT,
    KeyName,
    KeyRequest,
    Report,
    SecInfo,
    SigStruct,
    SwapBlob,
    TargetInfo,
    VA_SLOT_COUNT,
    ecreate_record,
    page_measurement,
)

GATE_GRANULE = 1
RETURN_GATE = GATE_GRANULE * GRANULE_SIZE + 0x0
OCALL_GATE = GATE_GRANULE * GRANULE_SIZE + 0x100
AEP_GATE = GATE_GRANULE * GRANULE_SIZE + 0x200

OCALL_RESUME = 0xFFFF_FFFF

EEXTEND_LEAF = LEAF_NUMBERS["EEXTEND"][1]

RECLAIM_BATCH = 4
"""Most pages one reclaim writes back.  A batch shares one victim scan and
one ETRACK per owner, but the op that finds the span full pays for all of
its writebacks.  Linux takes 16 (``SGX_NR_TO_SCAN``).  On the ``epc_oversub``
benchmark (10 s runs, seeds 1-3, medians) batches of 8 and 16 gave about the
ok ops/s of 4 (-3 % and +4 %) but raised ``op_p995_ms`` by 32 % and 67 %."""

# Builtin outside calls
OCALL_EAUG = 0x10  # enclave asks the host to add a dynamic page at x6
OCALL_HOSTADD = 0x42  # demo host function: returns 2*a + b + 5


class LoadError(Exception):
    """An enclave build step failed; identifies the failing step."""

    def __init__(self, step: str, cause: Exception):
        self.step = step
        self.cause = cause
        super().__init__(f"{step}: {cause}")


@dataclass
class FaultReport:
    kind: str  # gpf | pagefault | ssa_overflow | abort | timeout | halt_inside | dispatch_fault
    detail: str = ""
    vaddr: Optional[int] = None


class EnclaveFault(Exception):
    def __init__(self, report: FaultReport):
        self.report = report
        super().__init__(f"enclave fault: {report.kind} {report.detail}")


@dataclass
class SealedBlob:
    policy: int
    isv_svn: int
    keyid: bytes
    nonce: bytes
    ciphertext: bytes
    mac: bytes


@dataclass
class AttestOutcome:
    a_to_b: bool
    b_to_a: bool
    report_ab: Report
    report_ba: Report

    @property
    def mutual(self) -> bool:
        return self.a_to_b and self.b_to_a


@dataclass
class EnclaveHandle:
    """What the host keeps of a loaded enclave: its name, id, base address,
    identities and TCS addresses.  It keeps no reference to the manifest,
    so the page bytes a manifest carries are freed once the caller drops it."""

    name: str
    eid: int
    base: int
    mrenclave: bytes
    mrsigner: bytes
    tcs_vaddrs: List[int]  # absolute


@dataclass
class _StoredBlob:
    blob: SwapBlob
    va_granule: int
    slot: int


class SwapStore:
    """Host-side store for evicted pages, in memory only: each sealed page
    and the version-array slot of its version, by enclave and then by page
    address.  An enclave with nothing swapped out has no entry."""

    def __init__(self):
        self._blobs: Dict[Optional[int], Dict[int, _StoredBlob]] = {}

    def put(self, eid: Optional[int], vaddr: int, stored: _StoredBlob) -> None:
        pages = self._blobs.setdefault(eid, {})
        if vaddr in pages:
            raise ModelError(f"swap store already holds {(eid, vaddr)}")
        pages[vaddr] = stored

    def pop(self, eid: Optional[int], vaddr: int) -> _StoredBlob:
        pages = self._blobs.get(eid, {})
        try:
            stored = pages.pop(vaddr)
        except KeyError:
            raise ModelError(f"swap store holds no page {vaddr:#x} of enclave {eid}") from None
        if not pages:
            del self._blobs[eid]
        return stored

    def has(self, eid: Optional[int], vaddr: int) -> bool:
        return vaddr in self._blobs.get(eid, ())

    def holds_any(self, eid: Optional[int]) -> bool:
        return eid in self._blobs

    def keys_for(self, eid: Optional[int]) -> List[int]:
        return sorted(self._blobs.get(eid, ()))


def _build_plan(
    manifest: EnclaveManifest,
) -> Iterator[Tuple[str, int, SecInfo, bytes, bool]]:
    """Every page the loader adds, in build order, as
    (label, enclave offset, secinfo, page bytes, measured)."""
    for idx, spec in enumerate(manifest.pages):
        for i in range(spec.page_count):
            page = spec.content[i * GRANULE_SIZE : (i + 1) * GRANULE_SIZE]
            yield (f"page[{idx}]+{i}", spec.vaddr + i * GRANULE_SIZE,
                   SecInfo(spec.perms, PageType.REG), page, spec.measured)
    for idx, spec in enumerate(manifest.tcs):
        yield (f"tcs[{idx}]", spec.vaddr, SecInfo(Perms.NONE, PageType.TCS),
               spec.build(manifest.nssa).pack(), spec.measured)


class HostRuntime:
    """Loader, call dispatcher, and swap manager over one machine.  Evicted
    pages wait in an in-memory :class:`SwapStore`; nothing goes to disk."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.store = SwapStore()
        self.handles: Dict[int, EnclaveHandle] = {}
        self.ocall_handlers: Dict[int, Callable] = {
            OCALL_EAUG: _ocall_eaug,
            OCALL_HOSTADD: _ocall_hostadd,
        }
        self.swap_out_events = 0
        self.swap_in_events = 0
        self._free_slots: Deque[Tuple[int, int]] = deque()
        # granules the host took for its own data; no enclave page goes there
        self._host_held: Set[int] = set()

    # ------------------------------------------------------------------ alloc

    def _first_free(self, lo: int, hi: int) -> Optional[int]:
        """The lowest free granule in [lo, hi) that the host does not hold."""
        g = self.machine.memory.first_free(lo, hi)
        while g is not None and g in self._host_held:
            g = self.machine.memory.first_free(g + 1, hi)
        return g

    def take_epc_granule(self) -> int:
        """The lowest free EPC-capable granule, for any enclave page: in the
        fixed window in sgx mode, anywhere outside the reserved granules and
        the host's own granules in ccx mode.  When the span is full, a page
        is evicted through the writeback protocol.  The granule stays free
        until a leaf assigns it, so use it before taking the next."""
        lo, hi = self.machine.memory.epc_span()
        while True:
            g = self._first_free(lo, hi)
            if g is None:
                self._reclaim()
                continue
            if not self._free_slots and self._first_free(g + 1, hi) is None:
                # Last free granule and no version capacity left: convert it
                # to a version array so the writeback protocol stays possible,
                # then reclaim for the actual request, with the victims found
                # before the conversion (a version array is never one).  With
                # nothing to evict, fail here and leave the granule free.
                victims = self._victims(RECLAIM_BATCH)
                self._add_version_array(g)
                self._reclaim(victims)
                continue
            return g

    def _add_version_array(self, g: int) -> None:
        self.machine.leaf("EPA", g)
        self._free_slots.extend((g, s) for s in range(VA_SLOT_COUNT))

    def take_host_granule(self) -> int:
        """A granule for host data such as a shared buffer: the lowest free
        one below the EPC span, else above it, else one taken as
        :meth:`take_epc_granule` takes one, evicting a page when the span is
        full.  In ccx mode no granule lies outside the span, so it is always
        the last.  A free span granule is ordinary normal-world memory, and
        the host holds the granule from then on, so no later take hands it
        out again."""
        mem = self.machine.memory
        lo, hi = mem.epc_span()
        g = self._first_free(RESERVED_GRANULES, lo)
        if g is None:
            g = self._first_free(hi, mem.granule_count)
        if g is None:
            g = self.take_epc_granule()
        self._host_held.add(g)
        return g

    # ------------------------------------------------------------------ victim

    def victim_filter(self, granule: int) -> bool:
        m = self.machine
        entry = m.memory.epcm.get(granule)
        if entry is None or entry.blocked:
            return False
        if entry.page_type not in (PageType.REG, PageType.TCS):
            return False
        # only enclaves this runtime loaded: it pages them back in by handle
        handle = self.handles.get(entry.owner)
        secs = m.enclaves.get(entry.owner)
        if handle is None or secs is None or not secs.initialized or secs.crashed:
            return False
        # Never touch an enclave that currently has threads inside, and keep
        # interrupted thread state (TCS with saved frames, its SSA pages)
        # resident so resume paths stay simple.  The runtime enters only the
        # TCSs of a handle, so those are the only ones with saved frames.
        if secs.entered_counts:
            return False
        if entry.page_type == PageType.TCS:
            return m.read_tcs(granule).cssa == 0
        for tcs_vaddr in handle.tcs_vaddrs:
            tg = m.memory.find_page(entry.owner, tcs_vaddr)
            if tg is None:
                continue
            tcs = m.read_tcs(tg)
            if tcs.cssa > 0:
                lo, hi = ssa_frame_vaddr(secs, tcs, 0), ssa_frame_vaddr(secs, tcs, tcs.nssa)
                if lo <= entry.vaddr < hi:
                    return False
        return True

    def _victims(self, limit: int) -> List[Tuple[int, EpcmEntry]]:
        """The oldest ``limit`` resident pages that :meth:`victim_filter`
        admits, or fewer if there are not as many: the first ones in the
        EPCM map, which holds valid pages in the order they became valid.
        A page the filter skips keeps its place."""
        victims: List[Tuple[int, EpcmEntry]] = []
        for g, entry in self.machine.memory.epcm.items():
            if self.victim_filter(g):
                victims.append((g, entry))
                if len(victims) == limit:
                    break
        if not victims:
            raise ModelError("EPC exhausted and no evictable page found")
        return victims

    def _reclaim(self, victims: Optional[List[Tuple[int, EpcmEntry]]] = None) -> None:
        """Write back the pages :meth:`_victims` picks, or ``victims`` if
        given, one version slot each, writing an ``evict`` record for each."""
        victims = victims or self._victims(RECLAIM_BATCH)
        if not self._free_slots:
            raise ModelError("no version slot free for eviction")
        self._write_back(victims[: len(self._free_slots)], evict=True)

    def _write_back(self, pages: List[Tuple[int, EpcmEntry]], evict: bool) -> None:
        """Block every page, track each owner once, then write each back
        into the next free version slot and keep its blob; a slot goes back
        if EWB refuses.  With ``evict``, each page's ``evict`` record comes
        just before its ``eblock``."""
        m = self.machine
        for g, entry in pages:
            if evict:
                m.trace_event("evict", eid=entry.owner, vaddr=entry.vaddr)
            m.leaf("EBLOCK", g)
        for owner in dict.fromkeys(entry.owner for _, entry in pages):
            m.leaf("ETRACK", owner)
        for g, entry in pages:
            va_g, slot = self._free_slots.popleft()
            try:
                blob = m.leaf("EWB", g, va_g, slot)
            except SgxError:
                self._free_slots.appendleft((va_g, slot))
                raise
            self.store.put(entry.owner, entry.vaddr, _StoredBlob(blob, va_g, slot))
            self.swap_out_events += 1

    # ------------------------------------------------------------------ loader

    def _signer_hash(self, manifest: EnclaveManifest) -> RunningHash:
        """A signer-side measurement holding the creation record; feed it
        each page's :func:`page_measurement` in build order."""
        state = self.machine.crypto.hash_init()
        return state.absorb(ecreate_record(manifest.ssa_frame_size, manifest.size))

    def predict_measurement(self, manifest: EnclaveManifest) -> bytes:
        """What the build measurement will be; signer-side tooling."""
        state = self._signer_hash(manifest)
        for _label, off, secinfo, page, measured in _build_plan(manifest):
            state.absorb(page_measurement(off, secinfo, page, measured))
        return state.final()

    def _add_page(self, eid: int, vaddr: int, secinfo: SecInfo, content: bytes) -> None:
        self.machine.leaf("EADD", eid, vaddr, secinfo, self.take_epc_granule(), content)

    def load_enclave(self, manifest: EnclaveManifest) -> EnclaveHandle:
        m = self.machine
        manifest.validate()
        base = DEFAULT_ENCLAVE_BASE

        step = "ecreate"
        try:
            secs_granule = self.take_epc_granule()
            eid = m.leaf(
                "ECREATE", secs_granule, manifest.size, manifest.ssa_frame_size,
                manifest.attributes, base,
            )
        except SgxError as exc:
            raise LoadError(step, exc) from exc

        # The signer-side measurement grows in the same walk that builds the
        # enclave, from the same page bytes.
        signer_hash = self._signer_hash(manifest)
        tcs_vaddrs: List[int] = []
        try:
            for label, off, secinfo, page, measured in _build_plan(manifest):
                step = f"eadd {label} at {off:#x}"
                self._add_page(eid, base + off, secinfo, page)
                if secinfo.page_type == PageType.TCS:
                    tcs_vaddrs.append(base + off)
                if measured:
                    step = f"eextend {label}"
                    # 16 leaves a page: ENCLS by number skips the name lookup
                    for chunk in range(0, GRANULE_SIZE, EEXTEND_CHUNK):
                        m.encls(EEXTEND_LEAF, eid, base + off + chunk)
                signer_hash.absorb(page_measurement(off, secinfo, page, measured))

            step = "sigstruct"
            source = manifest.sigstruct_source
            if source == "test-key" or source.startswith("test-key:"):
                signer_label = source.partition(":")[2] or "default"
                sig = m.crypto.sign_sigstruct(
                    signer_hash.final(),
                    manifest.attributes.signed_view(),
                    manifest.isv_prod_id,
                    manifest.isv_svn,
                    signer_label,
                )
            elif source.startswith("file:"):
                if manifest.base_dir is None:
                    raise ModelError("sigstruct file needs a manifest directory")
                sig = SigStruct.from_bytes(read_input(
                    manifest.base_dir / source[5:], f"sigstruct file {source[5:]!r}", binary=True
                ))
            else:
                raise ModelError(f"unknown sigstruct source {source!r}")

            step = "einit"
            m.leaf("EINIT", eid, sig)
        except (SgxError, ModelError) as exc:
            # The half-built enclave has no handle and is never evicted, so
            # nothing could free its pages later.
            self._remove_pages(eid)
            raise LoadError(step, exc) from exc

        secs = m.enclaves[eid]
        handle = EnclaveHandle(
            name=manifest.name,
            eid=eid,
            base=base,
            mrenclave=secs.mrenclave,
            mrsigner=secs.mrsigner,
            tcs_vaddrs=tcs_vaddrs,
        )
        self.handles[eid] = handle
        return handle

    def destroy(self, handle: EnclaveHandle) -> None:
        # Swapped pages are reloaded first so their version slots retire
        # through the architectural path.
        for vaddr in self.store.keys_for(handle.eid):
            self.swap_in(handle, vaddr)
        self._remove_pages(handle.eid)
        self.handles.pop(handle.eid, None)

    def _remove_pages(self, eid: int) -> None:
        """EREMOVE every resident page of enclave `eid`, then its SECS."""
        m = self.machine
        secs_granule = m.enclaves[eid].secs_granule
        for g in sorted(m.memory.gpts.owned[eid]):
            if g != secs_granule:
                m.leaf("EREMOVE", g)
        m.leaf("EREMOVE", secs_granule)

    # ------------------------------------------------------------------ swap

    def swap_out(self, handle: EnclaveHandle, vaddr: int) -> None:
        """Evict the page holding `vaddr`; its blob is filed under the page
        address, where demand paging looks for it."""
        m = self.machine
        page = vaddr & ~(GRANULE_SIZE - 1)
        g = m.memory.find_page(handle.eid, page)
        if g is None:
            raise ModelError(f"no resident page at {vaddr:#x}")
        if not self._free_slots:
            self._add_version_array(self.take_epc_granule())
            g = m.memory.find_page(handle.eid, page)
            if g is None:  # the reclaim that made room wrote it back
                return
        self._write_back([(g, m.memory.epcm[g])], evict=False)

    def swap_in(self, handle: EnclaveHandle, vaddr: int) -> None:
        m = self.machine
        stored = self.store.pop(handle.eid, vaddr & ~(GRANULE_SIZE - 1))
        target = self.take_epc_granule()
        m.leaf(
            "ELDU",
            stored.blob.ciphertext,
            stored.blob.pcmd,
            stored.va_granule,
            stored.slot,
            target,
            handle.eid,
        )
        self._free_slots.append((stored.va_granule, stored.slot))
        self.swap_in_events += 1

    def _ensure_resident(self, handle: EnclaveHandle, vaddr: int) -> None:
        """Page in the page holding ``vaddr`` if it is swapped out; a page
        in the swap store is never resident."""
        page = vaddr & ~(GRANULE_SIZE - 1)
        if self.store.has(handle.eid, page):
            self.swap_in(handle, page)

    def _ensure_tcs_ready(self, handle: EnclaveHandle, tcs_vaddr: int) -> int:
        """Page in the TCS and the save-state frames an entry can touch:
        0..cssa-1 hold saved contexts, and the next AEX writes frame cssa
        (if cssa < nssa).  Paging one in may evict another, the TCS included,
        so repeat until none of them is swapped out.  With nothing of the
        enclave swapped out all of them are resident, and the TCS is not
        read: the entry leaf reads it."""
        m = self.machine
        secs = m.enclaves[handle.eid]
        while True:
            self._ensure_resident(handle, tcs_vaddr)
            tcs_granule = m.memory.find_page(handle.eid, tcs_vaddr)
            if tcs_granule is None:
                raise ModelError(f"TCS at {tcs_vaddr:#x} is neither resident nor swapped")
            if not self.store.holds_any(handle.eid):
                return tcs_granule
            tcs = m.read_tcs(tcs_granule)
            pages = [tcs_vaddr] + [
                ssa_frame_vaddr(secs, tcs, i) for i in range(min(tcs.cssa + 1, tcs.nssa))
            ]
            for vaddr in pages[1:]:
                self._ensure_resident(handle, vaddr)
            if not any(
                self.store.has(handle.eid, vaddr & ~(GRANULE_SIZE - 1)) for vaddr in pages
            ):
                return tcs_granule

    # ------------------------------------------------------------------ calls

    def register_ocall(self, selector: int, handler: Callable) -> None:
        self.ocall_handlers[selector] = handler

    def _thread(self, handle: EnclaveHandle, tcs_index: int, vcpu_index: int):
        """The vCPU and TCS address a call names, refusing an index out of range."""
        if not 0 <= vcpu_index < len(self.machine.vcpus):
            raise ModelError(f"no vcpu {vcpu_index}")
        if not 0 <= tcs_index < len(handle.tcs_vaddrs):
            raise ModelError(f"enclave {handle.name} has no TCS {tcs_index}")
        return self.machine.vcpus[vcpu_index], handle.tcs_vaddrs[tcs_index]

    @contextmanager
    def entered(self, handle: EnclaveHandle, tcs_index: int = 0, vcpu_index: int = 0):
        """Enter an enclave for driver-level leaf calls, exit on the way out."""
        m = self.machine
        vcpu, tcs_vaddr = self._thread(handle, tcs_index, vcpu_index)
        tcs_granule = self._ensure_tcs_ready(handle, tcs_vaddr)
        m.leaf("EENTER", tcs_granule, AEP_GATE, vcpu=vcpu)
        try:
            yield vcpu
        finally:
            if vcpu.in_enclave:
                m.leaf("EEXIT", RETURN_GATE, vcpu=vcpu)

    def ecall(
        self,
        handle: EnclaveHandle,
        tcs_index: int,
        selector: int,
        arg1: int = 0,
        arg2: int = 0,
        vcpu_index: int = 0,
        inject_at=None,
        step_budget: Optional[int] = None,
    ) -> int:
        """Marshal a call into the enclave and run it to completion.

        ``inject_at`` is either "every" or a collection of step numbers at
        which to inject an interrupt (counted over enclave-mode steps of this
        call).  ``step_budget`` replaces ``Config.max_ecall_steps`` for this
        call.  Raises :class:`EnclaveFault` on any unrecovered fault.
        """
        m = self.machine
        vcpu, tcs_vaddr = self._thread(handle, tcs_index, vcpu_index)
        if vcpu.in_enclave:
            raise ModelError(f"vcpu {vcpu.id} is already inside an enclave")
        budget = m.config.max_ecall_steps if step_budget is None else step_budget
        schedule = inject_at
        if schedule is not None and schedule != "every":
            schedule = set(schedule)

        tcs_granule = self._ensure_tcs_ready(handle, tcs_vaddr)
        vcpu.regs[2] = selector & MASK64
        vcpu.regs[3] = arg1 & MASK64
        vcpu.regs[4] = arg2 & MASK64
        vcpu.regs[10] = RETURN_GATE
        vcpu.regs[11] = OCALL_GATE
        m.leaf("EENTER", tcs_granule, AEP_GATE, vcpu=vcpu)

        steps = 0
        while True:
            if steps >= budget:
                raise EnclaveFault(FaultReport("timeout", f"{steps} steps"))

            if vcpu.in_enclave and schedule is not None:
                if schedule == "every":
                    chunk = 1
                else:
                    upcoming = [s for s in schedule if s > steps]
                    chunk = (min(upcoming) - steps) if upcoming else (budget - steps)
            else:
                chunk = budget - steps
            report = m.step(vcpu, max(1, min(chunk, budget - steps)))
            steps += report.steps

            if (
                vcpu.in_enclave
                and schedule is not None
                and report.stop == "limit"
                and (schedule == "every" or steps in schedule)
            ):
                m.inject_interrupt(vcpu)
                continue

            if report.stop == "limit":
                continue
            if report.stop == "abort":
                raise EnclaveFault(FaultReport("abort"))
            if report.stop == "fault":
                raise EnclaveFault(FaultReport(report.fault["kind"], str([report.fault])))
            # stop == halt; gate pages read as zeroes, so the pc still points
            # at the gate the program landed on
            if vcpu.in_enclave:
                raise EnclaveFault(FaultReport("halt_inside", f"pc={vcpu.pc:#x}"))
            if vcpu.pc == RETURN_GATE:
                return vcpu.regs[3]
            if vcpu.pc == OCALL_GATE:
                self._handle_ocall(handle, vcpu)
                # the idle TCS may have been evicted while the handler ran
                tcs_granule = self._ensure_tcs_ready(handle, tcs_vaddr)
                m.leaf("EENTER", tcs_granule, AEP_GATE, vcpu=vcpu)
                continue
            if vcpu.pc == AEP_GATE:
                done = self._handle_aex(handle, vcpu, tcs_granule)
                if done is not None:
                    raise EnclaveFault(done)
                continue
            raise EnclaveFault(FaultReport("halt_inside", f"host halted at {vcpu.pc:#x}"))

    def _handle_ocall(self, handle: EnclaveHandle, vcpu) -> None:
        selector = vcpu.regs[5]
        handler = self.ocall_handlers.get(selector)
        if handler is None:
            raise EnclaveFault(FaultReport("dispatch_fault", f"no ocall handler {selector:#x}"))
        ctx = OcallContext(runtime=self, handle=handle)
        result = handler(ctx, vcpu.regs[6], vcpu.regs[7])
        vcpu.regs[2] = OCALL_RESUME
        vcpu.regs[5] = 0 if result is None else int(result)
        vcpu.regs[10] = RETURN_GATE
        vcpu.regs[11] = OCALL_GATE

    def _handle_aex(self, handle: EnclaveHandle, vcpu, tcs_granule: int) -> Optional[FaultReport]:
        m = self.machine
        secs = m.enclaves.get(handle.eid)
        if secs is None or secs.crashed:
            return FaultReport("ssa_overflow", "enclave crashed")
        reason, payload = vcpu.last_exit or (0, 0)
        if reason == EXIT_PAGEFAULT:
            page = payload & ~(GRANULE_SIZE - 1)
            if self.store.has(handle.eid, page):
                self.swap_in(handle, page)
            else:
                return FaultReport("pagefault", f"at {payload:#x}", payload)
        elif reason == EXIT_IRQ:
            pass  # scheduled injection; just resume
        else:
            return FaultReport("gpf", f"enclave fault at {payload:#x}", payload)
        m.leaf("ERESUME", tcs_granule, AEP_GATE, vcpu=vcpu)
        return None

    # ------------------------------------------------------------------ attest

    def get_report(
        self, handle: EnclaveHandle, target: EnclaveHandle, reportdata: bytes
    ) -> Report:
        with self.entered(handle) as vcpu:
            return self.machine.leaf(
                "EREPORT", TargetInfo(target.mrenclave), reportdata, vcpu=vcpu
            )

    def verify_report(self, handle: EnclaveHandle, report: Report) -> bool:
        """Target-side verification: rederive the report key, compare MACs."""
        with self.entered(handle) as vcpu:
            key = self.machine.leaf(
                "EGETKEY", KeyRequest(KeyName.REPORT, keyid=report.keyid), vcpu=vcpu
            )
        expected = self.machine.crypto.report_mac(key, report.body_bytes())
        return hmac_mod.compare_digest(expected, report.mac)

    def attest(
        self, a: EnclaveHandle, b: EnclaveHandle, reportdata: bytes = bytes(64)
    ) -> AttestOutcome:
        report_ab = self.get_report(a, b, reportdata)
        report_ba = self.get_report(b, a, reportdata)
        return AttestOutcome(
            a_to_b=self.verify_report(b, report_ab),
            b_to_a=self.verify_report(a, report_ba),
            report_ab=report_ab,
            report_ba=report_ba,
        )

    # ------------------------------------------------------------------ sealing

    def seal(
        self,
        handle: EnclaveHandle,
        policy: int,
        payload: bytes,
        svn: Optional[int] = None,
    ) -> SealedBlob:
        m = self.machine
        secs = m.enclaves[handle.eid]
        isv_svn = secs.isv_svn if svn is None else svn
        keyid = m.rand_bytes(32)
        request = KeyRequest(KeyName.SEAL, policy, isv_svn, keyid)
        with self.entered(handle) as vcpu:
            key = m.leaf("EGETKEY", request, vcpu=vcpu)
        nonce = m.rand_bytes(12)
        aad = bytes([policy, isv_svn & 0xFF])
        ct, mac = m.crypto.blob_seal(key, nonce, payload, aad)
        return SealedBlob(policy, isv_svn, keyid, nonce, ct, mac)

    def unseal(self, handle: EnclaveHandle, blob: SealedBlob) -> Optional[bytes]:
        m = self.machine
        request = KeyRequest(KeyName.SEAL, blob.policy, blob.isv_svn, blob.keyid)
        try:
            with self.entered(handle) as vcpu:
                key = m.leaf("EGETKEY", request, vcpu=vcpu)
        except SgxError:
            return None
        aad = bytes([blob.policy, blob.isv_svn & 0xFF])
        try:
            return m.crypto.blob_unseal(key, blob.nonce, blob.ciphertext, aad, blob.mac)
        except AuthenticationFailure:
            return None


@dataclass
class OcallContext:
    """What an outside-call handler gets: host-level machine access only.

    Reads and writes go through normal-world checked paths, so a handler that
    reaches for enclave memory takes a protection fault like any other host
    software."""

    runtime: HostRuntime
    handle: EnclaveHandle

    def read(self, address: int, length: int) -> bytes:
        return self.runtime.machine.host_read(
            address // GRANULE_SIZE, address % GRANULE_SIZE, length
        )

    def write(self, address: int, data: bytes) -> None:
        self.runtime.machine.host_write(
            address // GRANULE_SIZE, address % GRANULE_SIZE, data
        )


def _ocall_eaug(ctx: OcallContext, vaddr: int, _arg2: int) -> int:
    """Builtin: the enclave asks the host to augment a page at `vaddr`."""
    rt = ctx.runtime
    target = rt.take_epc_granule()
    rt.machine.leaf("EAUG", ctx.handle.eid, vaddr, target)
    return 0


def _ocall_hostadd(ctx: OcallContext, a: int, b: int) -> int:
    return (2 * a + b + 5) & ((1 << 64) - 1)
