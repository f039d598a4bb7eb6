"""Enclave control structures and their wire formats.

Byte layouts here are the contract between microprograms, the loader, and
in-enclave programs (which read saved-state frames and thread control pages
through ordinary loads).  Everything is little-endian and fixed-size.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import ModelError, SgxError, SgxErrorCode
from .memory import GRANULE_SIZE, EpcmEntry, PageType, Perms

# --------------------------------------------------------------------------
# Attributes

ATTR_DEBUG = 1 << 0
ATTR_INIT = 1 << 1
ATTR_AEXNOTIFY_ALLOWED = 1 << 2
ATTR_PROVISION_KEY = 1 << 3
_ATTR_MAXPERM_SHIFT = 8


class Attributes(NamedTuple):
    """Enclave attribute flags plus the permission ceiling for EMODPE.  A
    value is never changed in place, so a SECS can keep its creator's."""

    debug: bool = False
    init: bool = False
    aexnotify_allowed: bool = False
    provision_key: bool = False
    max_page_perms: Perms = Perms.R | Perms.W | Perms.X

    def encode(self) -> int:
        word = 0
        if self.debug:
            word |= ATTR_DEBUG
        if self.init:
            word |= ATTR_INIT
        if self.aexnotify_allowed:
            word |= ATTR_AEXNOTIFY_ALLOWED
        if self.provision_key:
            word |= ATTR_PROVISION_KEY
        word |= int(self.max_page_perms) << _ATTR_MAXPERM_SHIFT
        return word

    @classmethod
    def decode(cls, word: int) -> "Attributes":
        return cls(
            debug=bool(word & ATTR_DEBUG),
            init=bool(word & ATTR_INIT),
            aexnotify_allowed=bool(word & ATTR_AEXNOTIFY_ALLOWED),
            provision_key=bool(word & ATTR_PROVISION_KEY),
            max_page_perms=Perms((word >> _ATTR_MAXPERM_SHIFT) & 0x7),
        )

    def signed_view(self) -> int:
        """Attribute word as bound by a signature: the INIT bit is lifecycle
        state, not identity, and is masked out."""
        return self.encode() & ~ATTR_INIT

    @classmethod
    def parse(cls, text: str) -> "Attributes":
        flags = {}
        for item in text.split(","):
            item = item.strip().lower()
            if item in ("debug", "aexnotify_allowed", "provision_key"):
                flags[item] = True
            elif item:
                raise ValueError(f"unknown attribute {item!r}")
        return cls(**flags)


# --------------------------------------------------------------------------
# SECS (kept as a live object; the SECS granule itself is opaque to software)


@dataclass
class Secs:
    """One enclave's control state.  Who is inside it, and since which track
    epoch, is read from ``cur_eid``/``entry_epoch`` of the machine's cores."""

    eid: int
    size: int
    base: int
    ssa_frame_size: int
    attributes: Attributes
    secs_granule: int
    mrenclave_state: object = None  # RunningHash until initialized
    mrenclave: Optional[bytes] = None
    mrsigner: Optional[bytes] = None
    isv_prod_id: int = 0
    isv_svn: int = 0
    track_epoch: int = 0
    crashed: bool = False
    cores: Tuple = field(default=(), repr=False, compare=False)  # the machine's vCPUs

    @property
    def initialized(self) -> bool:
        return self.attributes.init

    def contains(self, vaddr: int, length: int = 1) -> bool:
        return self.base <= vaddr and vaddr + length <= self.base + self.size

    @property
    def entered_counts(self) -> Dict[int, int]:
        """Entry epoch -> threads inside that entered in it, read from the cores."""
        return dict(Counter(v.entry_epoch for v in self.cores if v.cur_eid == self.eid))

    def threads_before(self, epoch: int) -> int:
        """Threads inside that entered before track epoch `epoch`."""
        return sum(1 for vcpu in self.cores
                   if vcpu.cur_eid == self.eid and vcpu.entry_epoch < epoch)


# --------------------------------------------------------------------------
# TCS

TCS_FLAG_DBGOPTIN = 1 << 0
TCS_FLAG_AEXNOTIFY = 1 << 1

# oentry, ossa, cssa, nssa, tls_base, flags, at the start of the page
_TCS = struct.Struct("<6Q")
TCS_OFF_CSSA = 16


class Tcs(NamedTuple):
    """One thread's control page.  The page itself is the only record of a
    thread's state: leaves unpack it when they need it and store CSSA back
    into it (see :meth:`ccxsim.machine.Machine.store_cssa`)."""

    oentry: int
    ossa: int
    nssa: int
    tls_base: int = 0
    cssa: int = 0
    dbgoptin: bool = False
    aexnotify: bool = False

    def pack(self) -> bytes:
        flags = (TCS_FLAG_DBGOPTIN if self.dbgoptin else 0) | (
            TCS_FLAG_AEXNOTIFY if self.aexnotify else 0
        )
        body = _TCS.pack(self.oentry, self.ossa, self.cssa, self.nssa, self.tls_base, flags)
        return body.ljust(GRANULE_SIZE, b"\0")

    @classmethod
    def unpack(cls, data, offset: int = 0) -> "Tcs":
        oentry, ossa, cssa, nssa, tls_base, flags = _TCS.unpack_from(data, offset)
        return tuple.__new__(cls, (oentry, ossa, nssa, tls_base, cssa,
                                   flags & TCS_FLAG_DBGOPTIN != 0,
                                   flags & TCS_FLAG_AEXNOTIFY != 0))

    def validate(self, secs) -> None:
        """Refuse a fresh TCS that does not fit its enclave, as EADD and
        EACCEPT do.  ``secs`` is a :class:`Secs` or an enclave manifest: the
        rule reads only their size, ssa_frame_size and attributes."""
        if self.nssa < 1:
            raise SgxError(SgxErrorCode.BAD_TCS_LAYOUT, "nssa must be >= 1")
        if self.cssa != 0:
            raise SgxError(SgxErrorCode.BAD_TCS_LAYOUT, "fresh TCS must have cssa == 0")
        if self.oentry >= secs.size:
            raise SgxError(SgxErrorCode.BAD_TCS_LAYOUT, "entry point outside enclave")
        ssa_bytes = self.nssa * secs.ssa_frame_size * GRANULE_SIZE
        if self.ossa % GRANULE_SIZE or self.ossa + ssa_bytes > secs.size:
            raise SgxError(SgxErrorCode.BAD_TCS_LAYOUT, "save-state area outside enclave")
        if self.tls_base >= secs.size:
            raise SgxError(SgxErrorCode.BAD_TCS_LAYOUT, "TLS base outside enclave")
        if self.aexnotify and not secs.attributes.aexnotify_allowed:
            raise SgxError(SgxErrorCode.BAD_TCS_LAYOUT,
                           "exit notification needs the aexnotify_allowed attribute")


# --------------------------------------------------------------------------
# Saved-state frame: register file snapshots written on asynchronous exit.
# In-enclave handlers read this layout with plain loads, so offsets are ABI:
# x0..x30 and sp at 0..248, then pc, pstate, tpidr, exit reason and exit
# payload at 256..288, each an unsigned 64-bit word as registers are.

SSA_NREGS = 32  # x0..x30 plus sp at index 31
SSA_FRAME = struct.Struct(f"<{SSA_NREGS + 5}Q")  # 296 bytes
SSA_WORD = 8
SSA_OFF_PC = SSA_NREGS * SSA_WORD  # 256
SSA_OFF_EXIT_REASON = SSA_OFF_PC + 3 * SSA_WORD  # 280, after pc, pstate and tpidr

EXIT_NONE = 0
EXIT_IRQ = 1
EXIT_PAGEFAULT = 2
EXIT_GPF = 3

EXIT_REASON_NAMES = {
    EXIT_NONE: "none",
    EXIT_IRQ: "irq",
    EXIT_PAGEFAULT: "pagefault",
    EXIT_GPF: "gpf",
}


# --------------------------------------------------------------------------
# SECINFO: request-side page descriptor

class SecInfo(NamedTuple):
    perms: Perms
    page_type: PageType

    def word(self) -> int:
        return int(self.perms) | (int(self.page_type) << 8)

    @classmethod
    def from_word(cls, word: int) -> "SecInfo":
        return cls(Perms(word & 0x7), PageType((word >> 8) & 0xFF))


# --------------------------------------------------------------------------
# Version arrays: 512 eight-byte slots stored directly in the page content.

VA_SLOT_SIZE = 8
VA_SLOT_COUNT = GRANULE_SIZE // VA_SLOT_SIZE  # 512
EMPTY_SLOT = bytes(VA_SLOT_SIZE)


# --------------------------------------------------------------------------
# SIGSTRUCT

_SIG_BODY_FMT = "<32sQHH"
SIG_BODY_SIZE = struct.calcsize(_SIG_BODY_FMT)
SIGSTRUCT_SIZE = SIG_BODY_SIZE + 32 + 64  # body, public key, signature


@dataclass
class SigStruct:
    enclavehash: bytes
    attributes: int  # signed attribute view (u64)
    isv_prod_id: int
    isv_svn: int
    public_key: bytes  # 32-byte Ed25519 public key
    signature: bytes  # 64 bytes

    def body_bytes(self) -> bytes:
        return struct.pack(
            _SIG_BODY_FMT,
            self.enclavehash,
            self.attributes,
            self.isv_prod_id,
            self.isv_svn,
        )

    def to_bytes(self) -> bytes:
        return self.body_bytes() + self.public_key + self.signature

    @classmethod
    def from_bytes(cls, data: bytes) -> "SigStruct":
        if len(data) != SIGSTRUCT_SIZE:
            raise ModelError(f"sigstruct must be {SIGSTRUCT_SIZE} bytes")
        enclavehash, attributes, prod, svn = struct.unpack_from(_SIG_BODY_FMT, data)
        return cls(
            enclavehash=enclavehash,
            attributes=attributes,
            isv_prod_id=prod,
            isv_svn=svn,
            public_key=data[SIG_BODY_SIZE : SIG_BODY_SIZE + 32],
            signature=data[SIG_BODY_SIZE + 32 :],
        )


# --------------------------------------------------------------------------
# Key requests and reports

class KeyName:
    SEAL = 1
    REPORT = 2
    PROVISION = 3
    PROVISION_SEAL = 4

    NAMES = {1: "SEAL", 2: "REPORT", 3: "PROVISION", 4: "PROVISION_SEAL"}


class KeyPolicy:
    MRENCLAVE = 1
    MRSIGNER = 2


_KEYREQ_FMT = "<HHH2x32s24x"
KEYREQUEST_SIZE = struct.calcsize(_KEYREQ_FMT)  # 64


@dataclass
class KeyRequest:
    key_name: int
    policy: int = KeyPolicy.MRENCLAVE
    isv_svn: int = 0
    keyid: bytes = bytes(32)

    def pack(self) -> bytes:
        return struct.pack(_KEYREQ_FMT, self.key_name, self.policy, self.isv_svn, self.keyid)

    @classmethod
    def unpack(cls, data: bytes) -> "KeyRequest":
        name, policy, svn, keyid = struct.unpack_from(_KEYREQ_FMT, data)
        return cls(name, policy, svn, keyid)


_TARGETINFO_FMT = "<32s32x"
TARGETINFO_SIZE = struct.calcsize(_TARGETINFO_FMT)  # 64


@dataclass
class TargetInfo:
    mrenclave: bytes

    def pack(self) -> bytes:
        return struct.pack(_TARGETINFO_FMT, self.mrenclave)

    @classmethod
    def unpack(cls, data: bytes) -> "TargetInfo":
        (mrenclave,) = struct.unpack_from(_TARGETINFO_FMT, data)
        return cls(mrenclave)


_REPORT_BODY_FMT = "<32s32sHH4xQ64s32s"
REPORT_BODY_SIZE = struct.calcsize(_REPORT_BODY_FMT)  # 176
REPORT_SIZE = REPORT_BODY_SIZE + 16


@dataclass
class Report:
    mrenclave: bytes
    mrsigner: bytes
    isv_prod_id: int
    isv_svn: int
    attributes: int
    reportdata: bytes  # 64 bytes
    keyid: bytes  # 32 bytes
    mac: bytes = b""

    def body_bytes(self) -> bytes:
        return struct.pack(
            _REPORT_BODY_FMT,
            self.mrenclave,
            self.mrsigner,
            self.isv_prod_id,
            self.isv_svn,
            self.attributes,
            self.reportdata,
            self.keyid,
        )

    def to_bytes(self) -> bytes:
        return self.body_bytes() + self.mac

    @classmethod
    def from_bytes(cls, data: bytes) -> "Report":
        if len(data) != REPORT_SIZE:
            raise ModelError(f"report must be {REPORT_SIZE} bytes")
        mre, mrs, prod, svn, attrs, rdata, keyid = struct.unpack_from(
            _REPORT_BODY_FMT, data
        )
        return cls(mre, mrs, prod, svn, attrs, rdata, keyid, mac=data[REPORT_BODY_SIZE:])


# --------------------------------------------------------------------------
# Swap metadata (PCMD): travels with an evicted page.  ``meta`` packs the
# EPCM fields a reloaded page resumes with; EWB binds it, together with the
# version nonce held by the version-array slot, into the AEAD as associated
# data, and ELDU unpacks it only after that check has passed.

_PCMD_FMT = "<BBBBB3xQQ"
_PCMD_META_SIZE = struct.calcsize(_PCMD_FMT)
PCMD_SIZE = _PCMD_META_SIZE + 16  # the metadata, then its 16-byte MAC
_NO_STAGED_TYPE = 0xFF


def pcmd_meta(entry: EpcmEntry) -> bytes:
    """The EPCM fields EWB writes back, packed: type, permissions, pending,
    modified, staged type (0xFF for none), owner (0 for a version array) and
    page address.  ``blocked`` and ``blocked_epoch`` stay behind."""
    return struct.pack(
        _PCMD_FMT,
        entry.page_type,
        entry.perms,
        entry.pending,
        entry.modified,
        _NO_STAGED_TYPE if entry.staged_type is None else entry.staged_type,
        0 if entry.owner is None else entry.owner,
        entry.vaddr,
    )


def pcmd_entry(meta: bytes) -> EpcmEntry:
    """The unblocked EPCM entry that :func:`pcmd_meta` packed into ``meta``.
    Only authenticated metadata may reach it: it trusts every byte."""
    ptype, perms, pending, modified, staged, owner, vaddr = struct.unpack(_PCMD_FMT, meta)
    return EpcmEntry(
        PageType(ptype),
        owner=owner or None,
        vaddr=vaddr,
        perms=Perms(perms),
        pending=bool(pending),
        modified=bool(modified),
        staged_type=None if staged == _NO_STAGED_TYPE else PageType(staged),
    )


class Pcmd(NamedTuple):
    """The PCMD as it sits in host memory: packed metadata, then its MAC."""

    meta: bytes
    mac: bytes

    def pack(self) -> bytes:
        return self.meta + self.mac

    @classmethod
    def unpack(cls, data: bytes) -> "Pcmd":
        return cls(bytes(data[:_PCMD_META_SIZE]), bytes(data[_PCMD_META_SIZE:]))


@dataclass
class SwapBlob:
    """What EWB hands back: sealed page content plus authenticated metadata."""

    ciphertext: bytes
    pcmd: Pcmd


# --------------------------------------------------------------------------
# Parameter blocks a driver passes to the structured ENCLS leaves through the
# trap gadget, both four little-endian u64 words.  x2 holds the physical
# address of a PAGEINFO.  Its SRCPGE is the address of the SECS image
# (ECREATE), of the source page (EADD) or of the sealed page (EWB, ELDB,
# ELDU).

_PARAM_BLOCK = struct.Struct("<4Q")
PAGEINFO_SIZE = SECS_IMAGE_SIZE = _PARAM_BLOCK.size  # 32


class PageInfo(NamedTuple):
    linaddr: int
    srcpge: int
    secinfo: int  # SECINFO word (EADD), or the PCMD address (EWB, ELDB, ELDU)
    secs: int  # enclave id, 0 for none

    def pack(self) -> bytes:
        return _PARAM_BLOCK.pack(*self)

    @classmethod
    def unpack(cls, data: bytes) -> "PageInfo":
        return cls(*_PARAM_BLOCK.unpack(data))


class SecsImage(NamedTuple):
    """The enclave geometry ECREATE reads."""

    size: int
    base: int
    ssa_frame_size: int  # pages per save-state frame
    attributes: int  # Attributes.encode() word

    def pack(self) -> bytes:
        return _PARAM_BLOCK.pack(*self)

    @classmethod
    def unpack(cls, data: bytes) -> "SecsImage":
        return cls(*_PARAM_BLOCK.unpack(data))


# --------------------------------------------------------------------------
# Measurement records.  Each record is one 64-byte block: an 8-byte tag, an
# 8-byte offset field, then record-specific fields, zero padded.  EEXTEND
# absorbs its record followed by the four 64-byte blocks of its chunk, packed
# as one 320-byte input (EEXTEND_INPUT).

MEASURE_BLOCK = 64
EEXTEND_CHUNK = 256
_CHUNKS_PER_PAGE = GRANULE_SIZE // EEXTEND_CHUNK
_ECREATE_RECORD = struct.Struct("<8sQQQ32x")
_EADD_FMT = "8sQQ40x"
_EEXTEND_FMT = f"8sQ48x{EEXTEND_CHUNK}s"  # the record, then the chunk
_EADD_RECORD = struct.Struct("<" + _EADD_FMT)
EEXTEND_INPUT = struct.Struct("<" + _EEXTEND_FMT)
EEXTEND_TAG = b"EEXTEND"
# A measured page's whole stream: its EADD record, then each chunk's EEXTEND
# input.
_MEASURED_PAGE = struct.Struct("<" + _EADD_FMT + _EEXTEND_FMT * _CHUNKS_PER_PAGE)
_PAGE_CHUNKS = struct.Struct(f"{EEXTEND_CHUNK}s" * _CHUNKS_PER_PAGE)
_EEXTEND_TAGS = (EEXTEND_TAG,) * _CHUNKS_PER_PAGE


def ecreate_record(ssa_frame_size: int, size: int) -> bytes:
    return _ECREATE_RECORD.pack(b"ECREATE", 0, ssa_frame_size, size)


def eadd_record(offset: int, secinfo: SecInfo) -> bytes:
    return _EADD_RECORD.pack(b"EADD", offset, secinfo.word())


def page_measurement(offset: int, secinfo: SecInfo, page: bytes, measured: bool) -> bytes:
    """The records one loaded page adds to a measurement, as one stream: its
    EADD record, then, if measured, each chunk's EEXTEND input, the same
    bytes the build leaves absorb for that page."""
    if not measured:
        return eadd_record(offset, secinfo)
    return _MEASURED_PAGE.pack(b"EADD", offset, secinfo.word(), *chain.from_iterable(zip(
        _EEXTEND_TAGS, range(offset, offset + GRANULE_SIZE, EEXTEND_CHUNK),
        _PAGE_CHUNKS.unpack(page))))
