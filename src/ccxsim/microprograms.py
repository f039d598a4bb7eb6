"""Leaf microprograms: atomic state transitions over machine state.

Each function implements one leaf.  Handlers assume the Machine dispatch
has checked the ENCLU mode rule, and that one host thread drives the machine,
so a leaf runs to completion before any other vCPU observes its effects.
Handlers for the entry/exit/resume leaves live in :mod:`ccxsim.execution`,
whose one leaf table, :data:`~ccxsim.execution.LEAVES`, holds both.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .errors import AuthenticationFailure, ModelError, SgxError, SgxErrorCode as E
from .memory import GRANULE_SIZE, REG_PAGE, SECS_PAGE, TCS_PAGE, EpcmEntry, PageType, Perms
from .structs import (
    Attributes,
    EEXTEND_CHUNK,
    EEXTEND_INPUT,
    EEXTEND_TAG,
    EMPTY_SLOT,
    KeyName,
    KeyPolicy,
    KeyRequest,
    Pcmd,
    Report,
    Secs,
    SecInfo,
    SigStruct,
    SwapBlob,
    TargetInfo,
    Tcs,
    VA_SLOT_COUNT,
    VA_SLOT_SIZE,
    eadd_record,
    ecreate_record,
    pcmd_entry,
    pcmd_meta,
)

# Enclave linear ranges all start here; host physical addresses stay far below.
DEFAULT_ENCLAVE_BASE = 1 << 33


def geometry_fault(size: int, ssa_frame_size: int, base: int):
    """The enclave geometry ECREATE refuses, as the field at fault and why, or
    None: a size that is no power-of-two page multiple, a save-state frame of
    no pages, or a size that does not align ``base``.  A manifest applies it
    at the loader's base, so its refusal can name the line at fault."""
    if size < GRANULE_SIZE or size & (size - 1):
        return "size", f"size {size:#x} is not a power-of-two page multiple"
    if ssa_frame_size < 1:
        return "ssa_frame_size", "ssa_frame_size must be at least 1"
    if base % size:
        return "size", f"size {size:#x} exceeds {base & -base:#x}, the alignment of base {base:#x}"
    return None


def _secs(m, eid: int) -> Secs:
    secs = m.enclaves.get(eid)
    if secs is None:
        raise SgxError(E.UNKNOWN_ENCLAVE, f"no enclave {eid}")
    return secs


def _building(m, eid: int, leaf: str) -> Secs:
    """The SECS of enclave ``eid``, which ``leaf`` needs uninitialized."""
    secs = m.enclaves.get(eid)
    if secs is None:
        raise SgxError(E.UNKNOWN_ENCLAVE, f"no enclave {eid}")
    if secs.attributes.init:
        raise SgxError(E.ALREADY_INITIALIZED, f"{leaf} needs an uninitialized enclave")
    return secs


def _valid_entry(m, granule: int):
    entry = m.memory.epcm_lookup(granule)
    if entry is None:
        raise SgxError(E.PAGE_INVALID, f"granule {granule} has no valid EPCM entry")
    return entry


def _require_free(m, granule: int) -> None:
    if not m.memory.is_free(granule):
        raise SgxError(E.OCCUPIED, f"granule {granule} is not free")
    if not m.memory.epc_admissible(granule):
        raise SgxError(E.NOT_IN_EPC, f"granule {granule} outside the EPC window")


def _require_placeable(m, secs: Secs, vaddr: int, granule: int) -> None:
    """Refuse a new page unless ``vaddr`` is a page address in the range of
    ``secs`` that none of its pages holds, and ``granule`` is free EPC."""
    if vaddr % GRANULE_SIZE:
        raise SgxError(E.BAD_VADDR, f"vaddr {vaddr:#x} not page aligned")
    if not secs.contains(vaddr, GRANULE_SIZE):
        raise SgxError(E.BAD_VADDR, f"vaddr {vaddr:#x} outside enclave range")
    if m.memory.find_page(secs.eid, vaddr) is not None:
        raise SgxError(E.VADDR_COLLISION, f"vaddr {vaddr:#x} already mapped")
    _require_free(m, granule)


def _own_entry(m, vcpu, granule: int):
    """The calling enclave and the valid EPCM entry of its page at ``granule``."""
    secs = _secs(m, vcpu.cur_eid)
    entry = _valid_entry(m, granule)
    if entry.owner != secs.eid:
        raise SgxError(E.PAGE_INVALID, "page belongs to another enclave")
    return secs, entry


# TCS pages carry no software-visible permissions.
TCS_SECINFO = SecInfo(Perms.NONE, TCS_PAGE)


def effective_secinfo(secinfo: SecInfo) -> SecInfo:
    return TCS_SECINFO if secinfo.page_type == TCS_PAGE else secinfo


# ---------------------------------------------------------------------------
# Enclave build


def ecreate(
    m,
    secs_granule: int,
    size: int,
    ssa_frame_size: int,
    attributes: Attributes,
    base: int = DEFAULT_ENCLAVE_BASE,
) -> int:
    _require_free(m, secs_granule)
    fault = geometry_fault(size, ssa_frame_size, base)
    if fault is not None:
        raise SgxError(E.BAD_GEOMETRY, fault[1])
    if attributes.init:
        raise SgxError(E.BAD_GEOMETRY, "attributes cannot request INIT at creation")

    eid = m.alloc_eid()
    m.memory.zero_granule(secs_granule)
    m.memory.epcm_update(secs_granule, EpcmEntry(SECS_PAGE, owner=eid))

    state = m.crypto.hash_init()
    state.absorb(ecreate_record(ssa_frame_size, size))
    secs = Secs(
        eid=eid,
        size=size,
        base=base,
        ssa_frame_size=ssa_frame_size,
        attributes=attributes,
        secs_granule=secs_granule,
        mrenclave_state=state,
        cores=tuple(m.vcpus),
    )
    m.enclaves[eid] = secs
    return eid


def eadd(
    m,
    eid: int,
    vaddr: int,
    secinfo: SecInfo,
    target_granule: int,
    source_bytes: Optional[bytes] = None,
) -> None:
    secs = _building(m, eid, "EADD")
    page_type = secinfo.page_type
    if page_type != REG_PAGE and page_type != TCS_PAGE:
        raise SgxError(E.PAGE_INVALID, "EADD adds REG or TCS pages")
    _require_placeable(m, secs, vaddr, target_granule)
    # The page is copied from a source page, as RMI_DATA_CREATE fills a
    # delegated granule from a non-secure one.
    if source_bytes is None or len(source_bytes) != GRANULE_SIZE:
        raise SgxError(E.PAGE_INVALID, "EADD needs one full source page")
    if page_type == TCS_PAGE:
        # A bad TCS is refused before the granule changes hands.
        Tcs.unpack(source_bytes).validate(secs)

    effective = effective_secinfo(secinfo)
    m.memory.epcm_update(
        target_granule,
        EpcmEntry(page_type, owner=eid, vaddr=vaddr, perms=effective.perms),
    )
    m.memory.store(target_granule, 0, source_bytes)

    secs.mrenclave_state.absorb(eadd_record(vaddr - secs.base, effective))


def eextend(m, eid: int, vaddr_chunk: int) -> None:
    # One lookup a check.  The page-address index holds the valid pages of each
    # enclave under its id (the audit checks), so it finds only this one's.
    secs = _building(m, eid, "EEXTEND")
    if vaddr_chunk % EEXTEND_CHUNK:
        raise SgxError(E.MISALIGNED, f"chunk {vaddr_chunk:#x} not 256-byte aligned")
    mem = m.memory
    offset = vaddr_chunk & (GRANULE_SIZE - 1)
    granule = mem.vaddr_index.get((eid, vaddr_chunk - offset))
    entry = mem.epcm.get(granule)
    if entry is None:
        raise SgxError(E.UNMEASURABLE_PAGE, f"no page of enclave {eid} at {vaddr_chunk:#x}")
    if entry.blocked:
        raise SgxError(E.UNMEASURABLE_PAGE, "blocked page cannot be measured")

    at = granule * GRANULE_SIZE + offset
    secs.mrenclave_state.absorb(EEXTEND_INPUT.pack(
        EEXTEND_TAG, vaddr_chunk - secs.base, mem.data[at : at + EEXTEND_CHUNK]))


def einit(m, eid: int, sigstruct: SigStruct) -> None:
    secs = _secs(m, eid)
    if secs.initialized:
        raise SgxError(E.ALREADY_INITIALIZED, f"enclave {eid} already initialized")

    ok, signer_digest = m.crypto.verify_sigstruct(sigstruct)
    if not ok:
        raise SgxError(E.SIG_INVALID, "identity signature does not verify")
    mrenclave = secs.mrenclave_state.final()
    if sigstruct.enclavehash != mrenclave:
        raise SgxError(E.MEASUREMENT_MISMATCH, "signed hash differs from measurement")
    if sigstruct.attributes != secs.attributes.signed_view():
        raise SgxError(E.ATTRIBUTE_MISMATCH, "signed attributes differ from SECS")

    secs.mrenclave = mrenclave
    secs.mrsigner = signer_digest
    secs.isv_prod_id = sigstruct.isv_prod_id
    secs.isv_svn = sigstruct.isv_svn
    secs.attributes = secs.attributes._replace(init=True)
    m.trace_event("measured", eid=eid, mrenclave=mrenclave.hex())


def eremove(m, granule: int) -> None:
    entry = _valid_entry(m, granule)

    if entry.page_type == SECS_PAGE:
        eid = entry.owner
        children = len(m.memory.gpts.owned[eid]) - 1  # all but the SECS
        if children:
            raise SgxError(E.CHILD_PRESENT, f"enclave {eid} still owns {children} pages")
        m.memory.epcm_update(granule, None)
        del m.enclaves[eid]
        return

    if entry.page_type == TCS_PAGE and m.tcs_busy(granule):
        raise SgxError(E.PAGE_IN_USE, "TCS is occupied by a vCPU")

    m.memory.epcm_update(granule, None)


# ---------------------------------------------------------------------------
# Debug access


def _check_debug_access(m, granule: int, offset: int, length: int, types) -> None:
    entry = _valid_entry(m, granule)
    if entry.owner is None or entry.page_type not in types:
        raise SgxError(E.PAGE_INVALID, f"{entry.page_type.name} page refuses this debug access")
    secs = _secs(m, entry.owner)
    if not secs.attributes.debug:
        raise SgxError(E.NON_DEBUG_ENCLAVE, f"enclave {entry.owner} lacks DEBUG")
    if not 0 <= offset <= offset + length <= GRANULE_SIZE:
        raise SgxError(E.BAD_VADDR, f"{length} bytes at offset {offset} leave the page")


def edbgrd(m, granule: int, offset: int, length: int = 8) -> bytes:
    _check_debug_access(m, granule, offset, length, (PageType.REG, PageType.TCS))
    return m.memory.load(granule, offset, length)


def edbgwr(m, granule: int, offset: int, data: bytes) -> None:
    # A TCS page is the live record of its thread, which no write may bypass.
    _check_debug_access(m, granule, offset, len(data), (PageType.REG,))
    m.memory.store(granule, offset, data)


# ---------------------------------------------------------------------------
# Blocking, tracking, and swap


def eblock(m, granule: int) -> None:
    entry = _valid_entry(m, granule)
    if entry.page_type not in (PageType.REG, PageType.TCS, PageType.VA):
        raise SgxError(E.PAGE_INVALID, f"{entry.page_type.name} pages cannot be blocked")
    if entry.blocked:
        raise SgxError(E.ALREADY_BLOCKED, f"granule {granule} already blocked")
    epoch = entry.blocked_epoch if entry.owner is None else _secs(m, entry.owner).track_epoch
    m.memory.epcm_update(granule, entry._replace(blocked=True, blocked_epoch=epoch))


def etrack(m, eid: int) -> None:
    secs = _secs(m, eid)
    if not secs.initialized:
        raise SgxError(E.NOT_INITIALIZED, "ETRACK requires an initialized enclave")
    if secs.threads_before(secs.track_epoch) > 0:
        raise SgxError(E.PREV_TRK_INCMPL, "a previous track epoch has not drained")
    secs.track_epoch += 1


def epa(m, granule: int) -> None:
    _require_free(m, granule)
    m.memory.zero_granule(granule)
    m.memory.epcm_update(granule, EpcmEntry(PageType.VA))


def _va_entry(m, va_granule: int):
    entry = m.memory.epcm_lookup(va_granule)
    if entry is None or entry.page_type != PageType.VA:
        raise SgxError(E.VA_SLOT_INVALID, f"granule {va_granule} is not a version array")
    return entry


def _va_slot_read(m, va_granule: int, slot: int) -> bytes:
    _va_entry(m, va_granule)
    if not 0 <= slot < VA_SLOT_COUNT:
        raise SgxError(E.VA_SLOT_INVALID, f"slot {slot} out of range")
    return m.memory.load(va_granule, slot * VA_SLOT_SIZE, VA_SLOT_SIZE)


def ewb(m, granule: int, va_granule: int, slot: int) -> SwapBlob:
    entry = _valid_entry(m, granule)
    if entry.page_type == PageType.SECS:
        raise SgxError(E.PAGE_INVALID, "SECS pages are not swappable here")
    if not entry.blocked:
        raise SgxError(E.NOT_BLOCKED, f"granule {granule} is not blocked")
    if granule == va_granule:
        raise SgxError(E.VA_SLOT_INVALID, "a version array cannot version itself")
    if entry.page_type == PageType.TCS and m.tcs_busy(granule):
        raise SgxError(E.PAGE_IN_USE, "TCS is occupied by a vCPU")

    if entry.owner is not None:
        secs = _secs(m, entry.owner)
        if entry.blocked_epoch is None or secs.track_epoch <= entry.blocked_epoch:
            raise SgxError(E.NOT_TRACKED, "no track epoch started after blocking")
        if secs.threads_before(secs.track_epoch) > 0:
            raise SgxError(E.NOT_TRACKED, "threads from the pre-track epoch are still inside")

    if _va_slot_read(m, va_granule, slot) != EMPTY_SLOT:
        raise SgxError(E.VA_SLOT_OCCUPIED, f"slot {slot} already holds a version")

    version = m.rand_bytes(VA_SLOT_SIZE)
    while version == EMPTY_SLOT:
        version = m.rand_bytes(VA_SLOT_SIZE)

    plaintext = m.memory.load(granule, 0, GRANULE_SIZE)
    meta = pcmd_meta(entry)
    ciphertext, mac = m.crypto.page_seal(m.crypto.swap_key(), plaintext, meta + version)

    m.memory.store(va_granule, slot * VA_SLOT_SIZE, version)
    m.memory.epcm_update(granule, None)
    return SwapBlob(ciphertext=ciphertext, pcmd=Pcmd(meta, mac))


def _eld(
    m,
    ciphertext: bytes,
    pcmd: Pcmd,
    va_granule: int,
    slot: int,
    target_granule: int,
    eid: Optional[int],
    mark_blocked: bool,
) -> None:
    # Authentication comes first: replay is judged by the version slot, any
    # tampering of ciphertext or metadata by the AEAD.  The metadata is
    # unpacked only once it has passed.
    version = _va_slot_read(m, va_granule, slot)
    if version == EMPTY_SLOT:
        raise SgxError(E.VERSION_MISMATCH, f"slot {slot} holds no version")
    try:
        plaintext = m.crypto.page_unseal(
            m.crypto.swap_key(), ciphertext, pcmd.meta + version, pcmd.mac
        )
    except AuthenticationFailure:
        raise SgxError(E.MAC_COMPARE_FAIL, "page or metadata fail authentication") from None
    entry = pcmd_entry(pcmd.meta)

    if entry.owner != eid:
        raise SgxError(E.PAGE_INVALID, "enclave id does not match page metadata")
    if eid is None:  # a version array has no address, only its granule
        _require_free(m, target_granule)
        epoch = None
    else:
        secs = _secs(m, eid)
        _require_placeable(m, secs, entry.vaddr, target_granule)
        epoch = secs.track_epoch

    if mark_blocked:
        entry = entry._replace(blocked=True, blocked_epoch=epoch)
    m.memory.epcm_update(target_granule, entry)
    m.memory.store(target_granule, 0, plaintext)

    m.memory.store(va_granule, slot * VA_SLOT_SIZE, EMPTY_SLOT)


# Both take (ciphertext, pcmd, va_granule, slot, target_granule, eid).
eldu = partial(_eld, mark_blocked=False)
eldb = partial(_eld, mark_blocked=True)


# ---------------------------------------------------------------------------
# Dynamic page management


def eaug(m, eid: int, vaddr: int, target_granule: int) -> None:
    secs = _secs(m, eid)
    if not secs.initialized:
        raise SgxError(E.NOT_INITIALIZED, "EAUG requires an initialized enclave")
    _require_placeable(m, secs, vaddr, target_granule)

    m.memory.zero_granule(target_granule)
    m.memory.epcm_update(target_granule, EpcmEntry(
        PageType.REG, owner=eid, vaddr=vaddr, perms=Perms.R | Perms.W, pending=True
    ))


def _settled_reg_entry(m, granule: int):
    entry = _valid_entry(m, granule)
    if entry.page_type != PageType.REG:
        raise SgxError(E.PAGE_INVALID, "permission/type changes target REG pages")
    if entry.pending or entry.modified:
        raise SgxError(E.PAGE_INVALID, "page already has a change in flight")
    if entry.owner is None or not _secs(m, entry.owner).initialized:
        raise SgxError(E.NOT_INITIALIZED, "owning enclave is not initialized")
    return entry


def emodpr(m, granule: int, new_perms: Perms) -> None:
    entry = _settled_reg_entry(m, granule)
    if new_perms & ~entry.perms:
        raise SgxError(E.PERM_EXPANSION_ATTEMPT, "EMODPR only restricts permissions")
    # the restriction takes effect immediately
    m.memory.epcm_update(granule, entry._replace(perms=new_perms, modified=True))


def emodt(m, granule: int, new_type: PageType) -> None:
    entry = _settled_reg_entry(m, granule)
    if new_type not in (PageType.TCS, PageType.TRIM):
        raise SgxError(E.ILLEGAL_TRANSITION, f"REG pages become TCS or TRIM, not {new_type.name}")
    m.memory.epcm_update(granule, entry._replace(staged_type=new_type, modified=True))


def eaccept(m, vcpu, granule: int, expected: SecInfo) -> None:
    secs, entry = _own_entry(m, vcpu, granule)
    if not (entry.pending or entry.modified):
        raise SgxError(E.NOT_PENDING, "no change awaiting acceptance")
    staged = SecInfo(entry.perms, entry.staged_type or entry.page_type)
    if expected != staged:
        raise SgxError(
            E.SECINFO_MISMATCH,
            f"expected {expected.page_type.name}/{expected.perms.text()},"
            f" staged {staged.page_type.name}/{staged.perms.text()}",
        )
    entry = entry._replace(pending=False, modified=False)
    if entry.staged_type is not None:
        entry = entry._replace(page_type=entry.staged_type, staged_type=None)
        if entry.page_type == PageType.TCS:
            entry = entry._replace(perms=Perms.NONE)
            m.read_tcs(granule).validate(secs)
    m.memory.epcm_update(granule, entry)


def eacceptcopy(m, vcpu, target_granule: int, source_vaddr: int, secinfo: SecInfo) -> None:
    secs, entry = _own_entry(m, vcpu, target_granule)
    if not entry.pending:
        raise SgxError(E.NOT_PENDING, "target page is not pending")
    if secinfo.page_type != PageType.REG:
        raise SgxError(E.SECINFO_MISMATCH, "copy initialization produces REG pages")
    if source_vaddr % GRANULE_SIZE:
        raise SgxError(E.BAD_VADDR, f"source {source_vaddr:#x} not page aligned")

    # The source is read as an enclave load would read it, and faults as the load would.
    src_granule, _ = m.memory.translate(secs.eid, source_vaddr, GRANULE_SIZE, "r")
    m.memory.store(target_granule, 0, m.memory.load(src_granule, 0, GRANULE_SIZE))
    m.memory.epcm_update(target_granule, entry._replace(pending=False, perms=secinfo.perms))


def emodpe(m, vcpu, granule: int, add_perms: Perms) -> None:
    secs, entry = _own_entry(m, vcpu, granule)
    if entry.page_type != PageType.REG:
        raise SgxError(E.PAGE_INVALID, "EMODPE extends REG pages")
    if entry.pending or entry.staged_type is not None:
        raise SgxError(E.PAGE_INVALID, "page has a change in flight")
    new_perms = entry.perms | add_perms
    if new_perms & ~secs.attributes.max_page_perms:
        raise SgxError(
            E.PERM_POLICY_DENIED,
            f"{new_perms.text()} exceeds signed ceiling "
            f"{secs.attributes.max_page_perms.text()}",
        )
    m.memory.epcm_update(granule, entry._replace(perms=new_perms))


# ---------------------------------------------------------------------------
# Attestation and key derivation


def ereport(m, vcpu, targetinfo: TargetInfo, reportdata: bytes) -> Report:
    secs = _secs(m, vcpu.cur_eid)
    if len(reportdata) != 64:
        raise ModelError("reportdata must be exactly 64 bytes")
    if len(targetinfo.mrenclave) != 32:
        raise ModelError("target measurement must be 32 bytes")
    keyid = m.rand_bytes(32)
    report = Report(
        mrenclave=secs.mrenclave,
        mrsigner=secs.mrsigner,
        isv_prod_id=secs.isv_prod_id,
        isv_svn=secs.isv_svn,
        attributes=secs.attributes.encode(),
        reportdata=bytes(reportdata),
        keyid=keyid,
    )
    target_key = m.crypto.derive_key(
        KeyName.REPORT, targetinfo.mrenclave, 0, keyid
    )
    report.mac = m.crypto.report_mac(target_key, report.body_bytes())
    return report


def egetkey(m, vcpu, request: KeyRequest) -> bytes:
    secs = _secs(m, vcpu.cur_eid)
    if request.key_name not in KeyName.NAMES:
        raise SgxError(E.POLICY_DENIED, f"unknown key name {request.key_name}")
    if request.key_name in (KeyName.PROVISION, KeyName.PROVISION_SEAL):
        if not secs.attributes.provision_key:
            raise SgxError(E.POLICY_DENIED, "provisioning keys need the PROVISION_KEY attribute")

    if request.key_name == KeyName.REPORT:
        # Report keys ignore the svn floor and always bind the own measurement.
        return m.crypto.derive_key(KeyName.REPORT, secs.mrenclave, 0, request.keyid)

    if request.isv_svn > secs.isv_svn:
        raise SgxError(E.POLICY_DENIED, f"svn {request.isv_svn} above enclave svn {secs.isv_svn}")
    if request.policy == KeyPolicy.MRENCLAVE:
        identity = secs.mrenclave
    elif request.policy == KeyPolicy.MRSIGNER:
        identity = secs.mrsigner
    else:
        raise SgxError(E.POLICY_DENIED, f"unknown key policy {request.policy}")
    return m.crypto.derive_key(request.key_name, identity, request.isv_svn, request.keyid)


def edeccssa(m, vcpu) -> None:
    cssa = m.read_tcs(vcpu.cur_tcs).cssa
    if cssa == 0:
        raise SgxError(E.NO_SAVED_STATE, "cssa is already zero")
    m.store_cssa(vcpu.cur_tcs, cssa - 1)
