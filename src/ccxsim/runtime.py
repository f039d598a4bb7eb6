"""Host runtime: the untrusted stack driving the machine.

Plays the kernel driver plus the untrusted runtime library: loads enclaves
from manifests, dispatches calls into enclaves and outside calls back to host
handlers, demand-pages swapped content back in, and makes room in a full EPC
span by evicting pages through the block/track/writeback protocol.

Loading: a manifest is validated when it is made, so the loader checks it
no further.  The loader signs a ``test-key`` SIGSTRUCT once per image and
identity, as ``sgx_sign`` signs once at build time.  The first load computes
the signer-side measurement in the walk that issues the build leaves, then
signs it; the runtime remembers the SIGSTRUCT's bytes under every input they
depend on (:func:`_sigstruct_key`: the geometry, the frozen specs and the
signed identity), for the newest :data:`~ccxsim.crypto.SIGNATURE_MEMO_SIZE`
of them.  A later load of the same image issues every leaf but feeds the
signer-side hash nothing and signs nothing.  The memo never reads the
machine, so EINIT still compares two independent computations.  Every load,
``file:`` or not, hands EINIT a SIGSTRUCT parsed from bytes.

Eviction reclaims a batch, as the Linux SGX driver does: one scan of the
EPCM, in the order pages became valid, takes the oldest ``RECLAIM_BATCH``
pages the victim filter admits (no more than there are free version slots).
Each is blocked, every owner among them is tracked once, and then each is
written back.  The scan starts at the front every time: the runtime keeps no
cursor and no residency list of its own.

Paging records: the swap store (each written-back page's blob and version
slot) and the free version slots change only after the leaf they record has
succeeded.  A writeback takes its slot and files its blob once EWB returns; a
reload unfiles the blob and frees its slot once ELDU returns.  So a refused
ELDU leaves the page filed, to be paged in by the next access.  A refused EWB
leaves its page, and the pages of its batch not yet written back, blocked:
still in the EPC, but the enclave's next access to one faults as a
``pagefault``, no reclaim picks it again, and only teardown removes it.

Residency: no thread page is pinned, and the runtime never reads a TCS.
Pages come back by one path, the fault, served at one place in the entry,
as ``sgx_vma_fault`` serves every #PF.  A load or an ENCLU leaf faults by
AEX and ERESUME runs it again; EENTER and ERESUME check each save-state
frame they need as an enclave store to it and fault straight to the
runtime, which finds their TCS by address.  A filed page, frame or TCS is
reloaded by ``swap_in``, the one ELDU, and the leaf issued again; any other
(a blocked frame, a removed one) ends the call as a ``pagefault``.  Until
the leaf has run, no reclaim takes its TCS or a page served for it, so the
retries end.  A filed page still belongs to its enclave: the EAUG outside
call reloads it, so the leaf refuses it as it refuses a resident one.

Teardown, for ``destroy`` and for a load that fails after ECREATE, is one
walk: EREMOVE every resident page but the SECS, then reload each filed page
and EREMOVE it at once, which retires its version slot, then EREMOVE the
SECS.  With the resident pages gone, no reload's reclaim picks the dying
enclave, so a teardown writes none of its own pages back.

Driver ABI (documented contract with fixture programs):

    call in     x2 selector, x3/x4 arguments; larger payloads go through an
                untrusted shared buffer granule whose address rides in x4
    call out    enclave exits to the return gate with the result in x3
    outside call
                enclave exits to the ocall gate with x5 selector, x6/x7
                arguments; on re-entry x2 holds OCALL_RESUME and x5 the result
    gates       x10 return gate, x11 ocall gate (set by the driver on entry)
    async exit  lands on the aep gate with x1 the resume leaf, x2 the TCS and
                x3 the aep; the driver resumes the TCS it looks up by address,
                as a writeback may have moved it, or reports

Gate addresses live on a reserved host granule that reads as zeroes, so a
vCPU arriving there halts and hands control back to the call.

Calls: :meth:`HostRuntime.call` is the one resumable call, a generator that
yields the report of each chunk of steps it runs, so a driver can advance
calls on several vCPUs in any order, or close one early, whose core then
leaves the enclave by an AEX.  :meth:`HostRuntime.ecall` runs one call to
completion.

Allocation: every enclave page (SECS, added, augmented, reloaded, version
array) is the lowest free granule of the EPC span, in both memory modes, so
freed granules are reused before fresh ones.  Nothing is reserved between
the choice and its use: a taken granule stays free until a leaf assigns it,
so take one, use it, then take the next.
"""

from __future__ import annotations

import hmac as hmac_mod
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, Iterator, List, Optional, Set, Tuple

from .crypto import SIGNATURE_MEMO_SIZE, remember
from .errors import AuthenticationFailure, ModelError, PageAccessFault, SgxError, read_input
from .execution import LEAF_NUMBERS, MASK64, RunReport
from .machine import Machine
from .manifest import EnclaveManifest
from .memory import GRANULE_SIZE, REG_PAGE, RESERVED_GRANULES, EpcmEntry, PageType
from .microprograms import DEFAULT_ENCLAVE_BASE, TCS_SECINFO
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

# Leaves the loader and the call issue by number, which skips the name lookup
(ECREATE_LEAF, EADD_LEAF, EEXTEND_LEAF, EINIT_LEAF, EREMOVE_LEAF, EENTER_LEAF, EEXIT_LEAF,
 ERESUME_LEAF) = (LEAF_NUMBERS[name][1] for name in (
    "ECREATE", "EADD", "EEXTEND", "EINIT", "EREMOVE", "EENTER", "EEXIT", "ERESUME"))

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
    # gpf | pagefault | ssa_overflow | abort | timeout | halt_inside | bad_opcode
    # | dispatch_fault
    kind: str
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
    identities and TCS addresses.  It keeps no reference to the manifest;
    the runtime's SIGSTRUCT memo keeps the page and TCS specs of its newest
    images, and the parse memo the manifests of the newest texts."""

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

    def get(self, eid: Optional[int], vaddr: int) -> _StoredBlob:
        try:
            return self._blobs[eid][vaddr]
        except KeyError:
            raise ModelError(f"swap store holds no page {vaddr:#x} of enclave {eid}") from None

    def pop(self, eid: Optional[int], vaddr: int) -> _StoredBlob:
        stored = self.get(eid, vaddr)
        pages = self._blobs[eid]
        del pages[vaddr]
        if not pages:
            del self._blobs[eid]
        return stored

    def has(self, eid: Optional[int], vaddr: int) -> bool:
        return vaddr in self._blobs.get(eid, ())

    def keys_for(self, eid: Optional[int]) -> List[int]:
        return sorted(self._blobs.get(eid, ()))


def _build_plan(manifest: EnclaveManifest) -> Iterator[Tuple[int, SecInfo, bytes, bool]]:
    """Every page the loader adds, in build order, as
    (enclave offset, secinfo, page bytes, measured)."""
    for spec in manifest.pages:
        secinfo = SecInfo(spec.perms, REG_PAGE)
        for i in range(spec.page_count):
            yield spec.vaddr + i * GRANULE_SIZE, secinfo, spec.page(i), spec.measured
    for spec in manifest.tcs:
        yield spec.vaddr, TCS_SECINFO, spec.build(manifest.nssa).pack(), spec.measured


def _sigstruct_key(manifest: EnclaveManifest) -> tuple:
    """Every input of a test-key SIGSTRUCT: those of the signer-side
    measurement (the geometry, then the frozen page and TCS specs, which
    compare on every field but their line), then the identity it signs and
    the source, which names the signer.  Each content is held by reference,
    so the key is as small as the manifest however many pages a run repeats."""
    return (manifest.size, manifest.ssa_frame_size, manifest.nssa, manifest.pages, manifest.tcs,
            manifest.attributes, manifest.isv_prod_id, manifest.isv_svn,
            manifest.sigstruct_source)


def _page_name(manifest: EnclaveManifest, off: int) -> str:
    """How a failed step names the page at enclave offset ``off``, which
    validation makes unique: ``page[<directive>]+<page>`` or ``tcs[<n>]``."""
    for idx, spec in enumerate(manifest.pages):
        if 0 <= off - spec.vaddr < spec.page_count * GRANULE_SIZE:
            return f"page[{idx}]+{(off - spec.vaddr) // GRANULE_SIZE}"
    return f"tcs[{[spec.vaddr for spec in manifest.tcs].index(off)}]"


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
        # an image's _sigstruct_key -> its test-key SIGSTRUCT's bytes, oldest first
        self._sigstructs: Dict[tuple, bytes] = {}
        # (eid, page) of the pages an entry leaf under way keeps from reclaim
        self._kept: Set[Tuple[int, int]] = set()

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
        """An unblocked REG or TCS page that the entry leaf under way does
        not keep, of an enclave this runtime loaded (it pages them back in
        by handle) and that no core runs in now."""
        m = self.machine
        entry = m.memory.epcm.get(granule)
        if entry is None or entry.blocked or entry.page_type not in (PageType.REG, PageType.TCS):
            return False
        if entry.owner not in self.handles or (entry.owner, entry.vaddr) in self._kept:
            return False
        secs = m.enclaves[entry.owner]
        for vcpu in secs.cores:
            if vcpu.cur_eid == secs.eid:
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
        into the next free version slot, which is taken and the blob filed
        once EWB has succeeded.  With ``evict``, each page's ``evict`` record
        comes just before its ``eblock``."""
        m = self.machine
        for g, entry in pages:
            if evict:
                m.trace_event("evict", eid=entry.owner, vaddr=entry.vaddr)
            m.leaf("EBLOCK", g)
        for owner in dict.fromkeys(entry.owner for _, entry in pages):
            m.leaf("ETRACK", owner)
        for g, entry in pages:
            blob = m.leaf("EWB", g, *self._free_slots[0])
            va_g, slot = self._free_slots.popleft()
            self.store.put(entry.owner, entry.vaddr, _StoredBlob(blob, va_g, slot))
            self.swap_out_events += 1

    # ------------------------------------------------------------------ loader

    def load_enclave(self, manifest: EnclaveManifest) -> EnclaveHandle:
        m = self.machine
        base = DEFAULT_ENCLAVE_BASE
        encls = m.encls

        try:
            eid = encls(ECREATE_LEAF, self.take_epc_granule(), manifest.size,
                        manifest.ssa_frame_size, manifest.attributes, base)
        except SgxError as exc:
            raise LoadError("ecreate", exc) from exc

        # A test-key SIGSTRUCT is signed over the signer-side measurement,
        # which grows in the same walk that builds the enclave, from the same
        # page bytes, unless this image and identity were signed before.  A
        # file SIGSTRUCT was signed elsewhere and needs neither.
        source = manifest.sigstruct_source
        key = blob = signer_hash = None
        if not source.startswith("file:"):
            key = _sigstruct_key(manifest)
            blob = self._sigstructs.get(key)
            if blob is None:
                signer_hash = m.crypto.hash_init().absorb(
                    ecreate_record(manifest.ssa_frame_size, manifest.size))
        try:
            for off, secinfo, page, measured in _build_plan(manifest):
                vaddr = base + off
                step = "eadd"
                encls(EADD_LEAF, eid, vaddr, secinfo, self.take_epc_granule(), page)
                if measured:
                    step = "eextend"
                    for chunk in range(vaddr, vaddr + GRANULE_SIZE, EEXTEND_CHUNK):
                        encls(EEXTEND_LEAF, eid, chunk)
                if signer_hash is not None:
                    signer_hash.absorb(page_measurement(off, secinfo, page, measured))

            step = "sigstruct"
            if key is None:  # validation admits a file source only with a directory
                blob = read_input(manifest.base_dir / source[5:],
                                  f"sigstruct file {source[5:]!r}", binary=True)
            elif blob is None:  # test-key[:<label>], the one other form validate() admits
                blob = remember(self._sigstructs, key, m.crypto.sign_sigstruct(
                    signer_hash.final(),
                    manifest.attributes.signed_view(),
                    manifest.isv_prod_id,
                    manifest.isv_svn,
                    source.partition(":")[2] or "default",
                ).to_bytes(), SIGNATURE_MEMO_SIZE)
            sig = SigStruct.from_bytes(blob)

            step = "einit"
            encls(EINIT_LEAF, eid, sig)
        except (SgxError, ModelError) as exc:
            # The half-built enclave has no handle and is never evicted, so
            # nothing could free its pages later.
            self._remove_pages(eid)
            if step == "eadd":
                step = f"eadd {_page_name(manifest, off)} at {off:#x}"
            elif step == "eextend":
                step = f"eextend {_page_name(manifest, off)}"
            raise LoadError(step, exc) from exc

        secs = m.enclaves[eid]
        handle = EnclaveHandle(
            name=manifest.name,
            eid=eid,
            base=base,
            mrenclave=secs.mrenclave,
            mrsigner=secs.mrsigner,
            tcs_vaddrs=[base + spec.vaddr for spec in manifest.tcs],
        )
        self.handles[eid] = handle
        return handle

    def _require_loaded(self, handle: EnclaveHandle) -> None:
        if self.handles.get(handle.eid) is not handle:
            raise ModelError(f"enclave {handle.name} (id {handle.eid}) is not loaded")

    def destroy(self, handle: EnclaveHandle) -> None:
        self._require_loaded(handle)
        self._remove_pages(handle.eid)
        del self.handles[handle.eid]

    def _remove_pages(self, eid: int) -> None:
        """EREMOVE every resident page of enclave `eid` but its SECS, then
        reload and EREMOVE each filed page, which retires its slot, then the SECS."""
        m = self.machine
        secs_granule = m.enclaves[eid].secs_granule
        for g in sorted(m.memory.gpts.owned[eid]):
            if g != secs_granule:
                m.encls(EREMOVE_LEAF, g)
        for page in self.store.keys_for(eid):  # none for a failed load, which has no handle
            m.encls(EREMOVE_LEAF, self.swap_in(self.handles[eid], page))
        m.encls(EREMOVE_LEAF, secs_granule)

    # ------------------------------------------------------------------ swap

    def swap_out(self, handle: EnclaveHandle, vaddr: int) -> None:
        """Evict the page holding `vaddr`; its blob is filed under the page
        address, where demand paging looks for it; a filed page is left alone."""
        m = self.machine
        page = vaddr & ~(GRANULE_SIZE - 1)
        g = m.memory.find_page(handle.eid, page)
        if g is None:
            if self.store.has(handle.eid, page):
                return
            raise ModelError(f"no resident page at {vaddr:#x}")
        if not self._free_slots:
            self._add_version_array(self.take_epc_granule())
            g = m.memory.find_page(handle.eid, page)
            if g is None:  # the reclaim that made room wrote it back
                return
        self._write_back([(g, m.memory.epcm[g])], evict=False)

    def swap_in(self, handle: EnclaveHandle, vaddr: int) -> int:
        """The granule of the page at `vaddr`: a resident page stays where it
        is; a filed one is ELDU'd into a taken granule, and only then does its
        blob leave the store and its slot come free.  A page that is neither
        raises the store's ModelError."""
        eid, page = handle.eid, vaddr & ~(GRANULE_SIZE - 1)
        if not self.store.has(eid, page):
            g = self.machine.memory.find_page(eid, page)
            if g is not None:
                return g
        stored = self.store.get(eid, page)
        target = self.take_epc_granule()
        self.machine.leaf("ELDU", stored.blob.ciphertext, stored.blob.pcmd, stored.va_granule,
                          stored.slot, target, eid)
        self.store.pop(eid, page)
        self._free_slots.append((stored.va_granule, stored.slot))
        self.swap_in_events += 1
        return target

    def _issue_entry(self, handle: EnclaveHandle, vcpu, leaf: int, tcs_vaddr: int,
                     page: Optional[int] = None) -> None:
        """Issue ``leaf``, EENTER or ERESUME, on the TCS at ``tcs_vaddr`` as a
        driver does, serving at one place ``page`` (a page-fault exit's), the
        TCS if not resident, and each save-state page the leaf faults on, then
        issuing it again.  A filed page is reloaded by :meth:`swap_in`; any
        other (a blocked frame, a removed one) ends the entry with a
        ``pagefault`` :class:`EnclaveFault`.  Until the leaf has run, no reclaim
        takes the TCS or a page served here, so each fault names a new page."""
        m, kept, eid = self.machine, self._kept, handle.eid
        kept.add((eid, tcs_vaddr))
        try:
            while True:
                if page is not None:
                    kept.add((eid, page))
                    if not self.store.has(eid, page):
                        raise EnclaveFault(FaultReport("pagefault", f"at {page:#x}", page))
                    self.swap_in(handle, page)
                tcs_granule = m.memory.find_page(eid, tcs_vaddr)
                if tcs_granule is None:
                    page = tcs_vaddr
                    continue
                try:
                    return m.enclu(vcpu, leaf, tcs_granule, AEP_GATE)
                except PageAccessFault as fault:
                    page = fault.vaddr
        finally:
            kept.clear()

    # ------------------------------------------------------------------ calls

    def register_ocall(self, selector: int, handler: Callable) -> None:
        """Serve outside call ``selector`` with ``handler(runtime, handle, a,
        b)``; its result goes back in x5.  A handler is host software: its
        memory accesses take the normal-world checked paths, so one that
        reaches for enclave memory takes a protection fault."""
        self.ocall_handlers[selector] = handler

    def _thread(self, handle: EnclaveHandle, tcs_index: int, vcpu_index: int):
        """The vCPU and TCS address a call names, refusing an enclave that is
        not loaded, an index out of range or a vCPU already inside an enclave
        before any leaf runs."""
        self._require_loaded(handle)
        if not 0 <= vcpu_index < len(self.machine.vcpus):
            raise ModelError(f"no vcpu {vcpu_index}")
        if not 0 <= tcs_index < len(handle.tcs_vaddrs):
            raise ModelError(f"enclave {handle.name} has no TCS {tcs_index}")
        vcpu = self.machine.vcpus[vcpu_index]
        if vcpu.in_enclave:
            raise ModelError(f"vcpu {vcpu.id} is already inside an enclave")
        return vcpu, handle.tcs_vaddrs[tcs_index]

    def _enter(self, handle: EnclaveHandle, vcpu, tcs_vaddr: int) -> None:
        """The one way in: x10 and x11 pointed at the return and ocall gates,
        then EENTER, reissued after each save-state page it faults on."""
        vcpu.regs[10:12] = RETURN_GATE, OCALL_GATE
        self._issue_entry(handle, vcpu, EENTER_LEAF, tcs_vaddr)

    @contextmanager
    def entered(self, handle: EnclaveHandle, tcs_index: int = 0, vcpu_index: int = 0):
        """Enter an enclave for driver-level leaf calls, exit on the way out."""
        vcpu, tcs_vaddr = self._thread(handle, tcs_index, vcpu_index)
        self._enter(handle, vcpu, tcs_vaddr)
        try:
            yield vcpu
        finally:
            if vcpu.in_enclave:
                self.machine.enclu(vcpu, EEXIT_LEAF, RETURN_GATE)

    def call(
        self,
        handle: EnclaveHandle,
        tcs_index: int,
        selector: int,
        arg1: int = 0,
        arg2: int = 0,
        vcpu_index: int = 0,
        inject_at=None,
        step_budget: Optional[int] = None,
    ) -> Generator[RunReport, None, int]:
        """Marshal a call into the enclave as a resumable call: a generator
        that yields the report of each ``Machine.step`` chunk and returns x3.

        ``inject_at`` is "every" or a collection of step numbers from 1 at
        which to inject an interrupt, counted over every step of the call, the
        halt the host runs at a gate after each exit included.  Each chunk runs
        to the next of them or to the budget, ``step_budget`` or else
        ``Config.max_ecall_steps``.  Any other ``inject_at``, or a budget
        that is not an int from 0, raises :class:`ModelError` before a leaf
        runs.  Raises :class:`EnclaveFault` on any unrecovered fault; a call
        that stops inside the enclave, or is closed there, first leaves it by
        an AEX.
        """
        m = self.machine
        vcpu, tcs_vaddr = self._thread(handle, tcs_index, vcpu_index)
        budget = m.config.max_ecall_steps if step_budget is None else step_budget
        marks = _marks(inject_at, budget)

        vcpu.regs[2] = selector & MASK64
        vcpu.regs[3] = arg1 & MASK64
        vcpu.regs[4] = arg2 & MASK64
        try:
            self._enter(handle, vcpu, tcs_vaddr)
            steps = 0
            while steps < budget:
                report = m.step(vcpu, marks[bisect_right(marks, steps)] - steps)
                steps += report.steps
                yield report
                if report.stop == "limit":  # at a mark; outside the enclave a no-op
                    m.inject_interrupt(vcpu)
                elif report.stop == "abort":
                    raise EnclaveFault(FaultReport("abort"))
                elif report.stop == "fault":
                    raise EnclaveFault(FaultReport(report.fault["kind"], str([report.fault])))
                # stop == halt; gate pages read as zeroes, so the pc still points
                # at the gate the program landed on
                elif vcpu.cur_eid is not None:
                    raise EnclaveFault(FaultReport("halt_inside", f"pc={vcpu.pc:#x}"))
                elif vcpu.pc == RETURN_GATE:
                    return vcpu.regs[3]
                elif vcpu.pc == OCALL_GATE:
                    self._handle_ocall(handle, vcpu)
                    # the idle TCS may have been evicted while the handler ran
                    self._enter(handle, vcpu, tcs_vaddr)
                elif vcpu.pc == AEP_GATE and vcpu.last_exit is not None:
                    self._handle_aex(handle, vcpu, tcs_vaddr)
                else:
                    raise EnclaveFault(FaultReport("halt_inside", f"host halted at {vcpu.pc:#x}"))
            raise EnclaveFault(FaultReport("timeout", f"{steps} steps"))
        finally:
            # A call that gives up or is closed inside the enclave leaves it by
            # an AEX, which saves and scrubs the thread's registers and frees
            # the core and TCS.
            if vcpu.cur_eid is not None:
                m.inject_interrupt(vcpu)

    def ecall(self, handle: EnclaveHandle, tcs_index: int, selector: int, arg1: int = 0,
              arg2: int = 0, vcpu_index: int = 0, inject_at=None,
              step_budget: Optional[int] = None) -> int:
        """Run :meth:`call` to completion and return its result."""
        calling = self.call(handle, tcs_index, selector, arg1, arg2, vcpu_index, inject_at,
                            step_budget)
        while True:
            try:
                next(calling)
            except StopIteration as done:
                return done.value

    def _handle_ocall(self, handle: EnclaveHandle, vcpu) -> None:
        selector = vcpu.regs[5]
        handler = self.ocall_handlers.get(selector)
        if handler is None:
            raise EnclaveFault(FaultReport("dispatch_fault", f"no ocall handler {selector:#x}"))
        result = handler(self, handle, vcpu.regs[6], vcpu.regs[7])
        vcpu.regs[2] = OCALL_RESUME
        vcpu.regs[5] = 0 if result is None else int(result) & MASK64

    def _handle_aex(self, handle: EnclaveHandle, vcpu, tcs_vaddr: int) -> None:
        """The host trampoline: ERESUME the TCS found at ``tcs_vaddr`` (a
        writeback may have moved it from the granule in x2), serving a
        page-fault exit's page first, or raise :class:`EnclaveFault`."""
        secs = self.machine.enclaves.get(handle.eid)
        if secs is None or secs.crashed:
            raise EnclaveFault(FaultReport("ssa_overflow", "enclave crashed"))
        reason, payload = vcpu.last_exit  # a page-fault exit's payload is the faulting page
        if reason != EXIT_PAGEFAULT and reason != EXIT_IRQ:  # an interrupt just resumes
            raise EnclaveFault(FaultReport("gpf", f"enclave fault at {payload:#x}", payload))
        self._issue_entry(handle, vcpu, ERESUME_LEAF, tcs_vaddr,
                          payload if reason == EXIT_PAGEFAULT else None)

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
        self._thread(handle, 0, 0)  # refuse a busy vCPU before the draw moves the stream
        isv_svn = m.enclaves[handle.eid].isv_svn if svn is None else svn
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


def _marks(inject_at, budget: int):
    """The steps that end a call's chunks: the interrupt steps of
    ``inject_at`` below ``budget``, then ``budget``, so bisection always
    finds the next.  ``inject_at`` is "every", None or a collection of ints
    from 1, and ``budget`` an int from 0; any other value is refused, so no
    call enters that could never run or keeps a step that never fires."""
    if not isinstance(budget, int) or budget < 0:
        raise ModelError(f"step budget {budget!r} is not a step count from 0")
    if inject_at is None:
        return [budget]
    if inject_at == "every":
        return range(1, budget + 1)
    steps = None
    if not isinstance(inject_at, (str, bytes)):
        try:
            steps = set(inject_at)
        except TypeError:  # not iterable, or a step that cannot be one
            pass
    if steps is None:
        raise ModelError(f"inject_at {inject_at!r} is neither 'every' nor a collection of steps")
    for step in steps:
        if not isinstance(step, int) or step < 1:
            raise ModelError(f"inject_at {inject_at!r}: step {step!r} is not a step number from 1")
    return sorted({step for step in steps if step < budget} | {budget})


def _ocall_eaug(rt: HostRuntime, handle: EnclaveHandle, vaddr: int, _arg2: int) -> int:
    """Builtin: the enclave asks the host to augment a page at `vaddr`."""
    granule = rt.take_epc_granule()
    # reload a filed page for the leaf to refuse, after the take that could evict it
    if rt.store.has(handle.eid, vaddr):
        rt.swap_in(handle, vaddr)
    rt.machine.leaf("EAUG", handle.eid, vaddr, granule)
    return 0


def _ocall_hostadd(rt: HostRuntime, handle: EnclaveHandle, a: int, b: int) -> int:
    return (2 * a + b + 5) & ((1 << 64) - 1)
