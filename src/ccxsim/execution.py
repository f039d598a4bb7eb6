"""Simulated cores, the trap gadget, world switches, and the instruction pump.

A vCPU's one record of where it runs is ``cur_eid``/``cur_tcs``: with no
current enclave it is the host (normal world, system table active), and
inside an enclave its world (realm) and active table (that enclave's) derive
from ``cur_eid``, so nothing can fall out of step.  A TCS is busy exactly
while some vCPU's ``cur_tcs`` names it.  A thread's own state lives only in
its TCS page: entry and resume unpack the page, and AEX, ERESUME and
EDECCSSA store the save-state index (CSSA) back into it, so a debug read, a
snapshot and a sealed swap blob all see the live value.  Traps from fixture
programs arrive as a register frame mirroring the gadget sequence: x0
service id, x1 leaf, x2..x4 arguments.  Interrupts in enclave mode save the
full context to the thread's save-state area and hand control to the host at
its async exit pointer; the recorded delivery path is trampoline -> monitor
-> host.

The pump keeps no event list of its own.  Each fact of a run is one record
in the machine's trace: the dispatch records leaves, :func:`aex` exits, and
:func:`step` each page fault or GPF where it is taken, before its exit.

The pump runs code as blocks.  A block is the decoded run of ALU ops
(``movi``, ``add``, ``addi``, ``xor``, ``mul``) that starts at one address,
plus the one instruction that ends it: a branch, load, store, gadget, halt,
abort or bad opcode.  A run that reaches the end of its page ends there with
no such instruction, so a block never crosses its page.  ALU ops touch
registers only, so they can neither fault nor change memory, and
:func:`step` takes one fetch per block, runs the ALU ops in a tight loop and
then the instruction that ends the block.  A budget may end inside a block;
every count, pc and trace record is what one instruction at a time gives.

Memory accesses go through a translation cache and block fetches also
through a decode cache of blocks (both kept in
:class:`~ccxsim.memory.MachineMemory`).  A cache entry is filled only by a
successful checked access (address translation, EPCM checks, then the
protection-table check), an EPCM update of a granule (the one path that
moves a table) drops the translations that reach that granule, and a
granule's blocks are dropped on any write to it.  A miss, or an access that
crosses a page, takes the checked path, so every fault and GPF is raised as
without the caches.

There is deliberately no hook point between an enclave trap or interrupt and
the monitor: nothing at hypervisor level can observe or intercept the switch.
``EL2_HOOKS`` stays an empty, immutable tuple and the dispatch below consults
no handler registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from . import isa
from .isa import OP_ADD, OP_ADDI, OP_MOVI, OP_MUL, OP_XOR
from .crypto import KEY_SIZE
from .errors import GranuleProtectionFault, ModelError, SgxError, SgxErrorCode as E
from .memory import (
    GRANULE_SIZE,
    HOST,
    MICROCODE,
    AccessContext,
    PageType,
    Perms,
    SecurityState,
)
from .structs import (
    EXIT_GPF,
    EXIT_IRQ,
    EXIT_PAGEFAULT,
    EXIT_REASON_NAMES,
    Attributes,
    KeyRequest,
    KEYREQUEST_SIZE,
    PAGEINFO_SIZE,
    PCMD_SIZE,
    PageInfo,
    Pcmd,
    REPORT_SIZE,
    Report,
    SECS_IMAGE_SIZE,
    SIGSTRUCT_SIZE,
    SSA_FRAME_BYTES,
    SecInfo,
    SecsImage,
    SigStruct,
    SsaFrame,
    TargetInfo,
    TARGETINFO_SIZE,
    VA_SLOT_SIZE,
)

# Structural property: no hypervisor-level interception exists on the enclave
# trap or interrupt path.
EL2_HOOKS: tuple = ()

SMC_ID_ENCLU = 0x1
SMC_ID_ENCLS = 0x2
SMC_ID_CPUID = 0x3

# Register scrub pattern after an async exit; distinct from zero so leak
# checks can tell "scrubbed" from "legitimately zero".
SCRUB_PATTERN = 0xA5A5A5A5A5A5A5A5

LEAF_ERESUME = 0x3

CPUID_SGX_LEAF = 0x12
CAP_SGX1 = 1 << 0
CAP_SGX2 = 1 << 1
CAP_AEXNOTIFY = 1 << 2
# Enclave ranges start at 1<<33 and must stay base-aligned, which caps the
# advertised maximum size at the base itself.
MAX_ENCLAVE_SIZE_LOG2 = 33

MASK64 = (1 << 64) - 1
_PAGE_MASK = GRANULE_SIZE - 1


@dataclass
class VCpu:
    """One core.  ``cur_eid``/``cur_tcs`` say which enclave and thread it
    runs, or ``None`` for host mode; the world and the active protection
    table follow from ``cur_eid`` (see :meth:`access_context`).  It keeps
    no pending interrupt: one sent in host mode is taken by the host at once
    (see :func:`inject_interrupt`)."""

    id: int
    regs: List[int] = field(default_factory=lambda: [0] * 32)  # x0..x30, sp
    pc: int = 0
    pstate: int = 0
    tpidr: int = 0
    cur_eid: Optional[int] = None
    cur_tcs: Optional[int] = None
    aep: int = 0
    entry_epoch: Optional[int] = None
    last_exit: Optional[Tuple[int, int]] = None  # (reason code, payload)

    @property
    def in_enclave(self) -> bool:
        return self.cur_eid is not None

    def access_context(self) -> AccessContext:
        if self.cur_eid is None:
            return HOST
        return AccessContext(SecurityState.REALM, self.cur_eid)


@dataclass
class TrapFrame:
    """Gadget register image: x0 service id, x1 leaf, x2..x4 arguments."""

    smc_id: int
    leaf: int
    arg1: int = 0
    arg2: int = 0
    arg3: int = 0


@dataclass
class RunReport:
    stop: str  # halt | abort | fault | limit
    steps: int
    fault: Optional[dict] = None  # what stopped a "fault" run: step, vcpu, kind, details


class _PageAccessFault(Exception):
    """Enclave-linear access could not be satisfied (missing, blocked,
    pending, trimmed, or permission-denied page)."""

    def __init__(self, vaddr: int, why: str):
        self.vaddr = vaddr
        self.why = why
        super().__init__(f"page access fault at {vaddr:#x}: {why}")


# ---------------------------------------------------------------------------
# Address resolution


def _enclave_translate(m, vcpu, addr: int, size: int, kind: str) -> Tuple[int, int]:
    secs = m.enclaves[vcpu.cur_eid]
    page_off = addr & (GRANULE_SIZE - 1)
    if page_off + size > GRANULE_SIZE:
        raise _PageAccessFault(addr, "access crosses a page boundary")
    granule = m.memory.find_page(secs.eid, addr)
    if granule is None:
        raise _PageAccessFault(addr, "no page mapped")
    entry = m.memory.epcm_lookup(granule)
    if entry.blocked:
        raise _PageAccessFault(addr, "page is blocked")
    if entry.pending:
        raise _PageAccessFault(addr, "page is pending acceptance")
    if entry.staged_type is not None:
        raise _PageAccessFault(addr, "page has a type change in flight")
    if entry.page_type != PageType.REG:
        raise _PageAccessFault(addr, f"{entry.page_type.name} pages are not software-addressable")
    need = {"r": Perms.R, "w": Perms.W, "x": Perms.X}[kind]
    if not entry.perms & need:
        raise _PageAccessFault(addr, f"missing {kind} permission")
    return granule, page_off


def _resolve(m, vcpu, addr: int, size: int, kind: str) -> Tuple[int, int]:
    if vcpu.in_enclave:
        secs = m.enclaves[vcpu.cur_eid]
        if secs.contains(addr, size):
            return _enclave_translate(m, vcpu, addr, size, kind)
    # Physical addressing for host code, and for enclave code reaching out
    # into untrusted memory (checked against the enclave's own table).
    granule = addr // GRANULE_SIZE
    offset = addr % GRANULE_SIZE
    if offset + size > GRANULE_SIZE:
        raise _PageAccessFault(addr, "access crosses a granule boundary")
    if not 0 <= granule < m.memory.granule_count:
        raise _PageAccessFault(addr, "address outside physical memory")
    return granule, offset


def _cached(mem, vcpu, addr: int, size: int, kind: str) -> Optional[int]:
    """The granule a checked access of this kind to addr's page reached
    since that granule's last EPCM update, or None."""
    if (addr & _PAGE_MASK) + size > GRANULE_SIZE:
        return None
    return mem.tlb.get((vcpu.cur_eid, addr & ~_PAGE_MASK, kind))


def mem_read(m, vcpu, addr: int, size: int, kind: str = "r") -> bytes:
    mem = m.memory
    granule = _cached(mem, vcpu, addr, size, kind)
    if granule is not None:
        base = granule * GRANULE_SIZE + (addr & _PAGE_MASK)
        return mem.data[base : base + size]
    granule, offset = _resolve(m, vcpu, addr, size, kind)
    data = mem.read_granule(vcpu.access_context(), granule, offset, size)
    mem.cache_translation((vcpu.cur_eid, addr - offset, kind), granule)
    return data


def mem_write(m, vcpu, addr: int, data: bytes) -> None:
    mem = m.memory
    granule = _cached(mem, vcpu, addr, len(data), "w")
    if granule is not None:
        mem.store(granule, addr & _PAGE_MASK, data)
        return
    granule, offset = _resolve(m, vcpu, addr, len(data), "w")
    mem.write_granule(vcpu.access_context(), granule, offset, data)
    mem.cache_translation((vcpu.cur_eid, addr - offset, "w"), granule)


# Opcodes a block runs in its tight loop: they touch registers only, so they
# can neither fault nor change memory, and nothing can happen between them.
_ALU_OPS = frozenset((OP_MOVI, OP_ADD, OP_ADDI, OP_XOR, OP_MUL))


def _decode_block(data, base: int, offset: int) -> Tuple[tuple, Optional[tuple]]:
    """The block at ``offset`` of the granule at ``base``: the decoded ALU
    ops from there, and the decoded instruction that ends them, or None if
    the run reaches the page end first."""
    run = []
    while offset + isa.INSTR_SIZE <= GRANULE_SIZE:
        instr = isa.decode(data[base + offset : base + offset + isa.INSTR_SIZE])
        if instr[0] not in _ALU_OPS:
            return tuple(run), instr
        run.append(instr)
        offset += isa.INSTR_SIZE
    return tuple(run), None


def _block(m, vcpu, pc: int) -> Tuple[tuple, Optional[tuple]]:
    """The block at ``pc``, after one checked or cached fetch of its first
    instruction; a granule's blocks are kept until something writes to it."""
    mem = m.memory
    granule = _cached(mem, vcpu, pc, isa.INSTR_SIZE, "x")
    if granule is None:
        mem_read(m, vcpu, pc, isa.INSTR_SIZE, "x")  # the checked path fills the cache
        granule = mem.tlb[(vcpu.cur_eid, pc & ~_PAGE_MASK, "x")]
    blocks = mem.decoded.get(granule)
    if blocks is None:
        blocks = mem.decoded[granule] = {}
    offset = pc & _PAGE_MASK
    block = blocks.get(offset)
    if block is None:
        block = blocks[offset] = _decode_block(mem.data, granule * GRANULE_SIZE, offset)
    return block


def _user_buffer(m, vcpu, addr: int, size: int, kind: str) -> Tuple[int, int]:
    """Where a caller-supplied enclave buffer lies; the caller's page
    permissions apply, and a buffer that cannot be reached fails the leaf."""
    try:
        return _enclave_translate(m, vcpu, addr, size, kind)
    except _PageAccessFault as exc:
        raise SgxError(E.BAD_VADDR, str(exc)) from None


# ---------------------------------------------------------------------------
# CPUID emulation


def cpuid_emulate(m, leaf: int, subleaf: int) -> Tuple[int, int, int, int]:
    if leaf != CPUID_SGX_LEAF:
        return (0, 0, 0, 0)
    if subleaf == 0:
        return (CAP_SGX1 | CAP_SGX2 | CAP_AEXNOTIFY, MAX_ENCLAVE_SIZE_LOG2, 0, 0)
    if subleaf == 2:
        cfg = m.config
        if cfg.mode == "sgx":
            return (cfg.epc_base * GRANULE_SIZE, cfg.epc_size * GRANULE_SIZE, 0, 0)
        return (0, cfg.granule_count * GRANULE_SIZE, 0, 0)
    return (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Entry, exit, resume, async exit


def _tcs_for_entry(m, tcs_granule: int):
    entry = m.memory.epcm_lookup(tcs_granule)
    if entry is None or entry.page_type != PageType.TCS:
        raise SgxError(E.PAGE_INVALID, f"granule {tcs_granule} is not a TCS page")
    if entry.blocked:
        raise SgxError(E.PAGE_INVALID, "TCS page is blocked")
    secs = m.enclaves.get(entry.owner)
    if secs is None:
        raise SgxError(E.UNKNOWN_ENCLAVE, f"no enclave {entry.owner}")
    if secs.crashed:
        raise SgxError(E.ENCLAVE_CRASHED, f"enclave {secs.eid} is crashed")
    if not secs.initialized:
        raise SgxError(E.NOT_INITIALIZED, f"enclave {secs.eid} is not initialized")
    if m.tcs_busy(tcs_granule):
        raise SgxError(E.TCS_BUSY, "TCS already occupied")
    return secs, m.read_tcs(tcs_granule)


def _switch_in(vcpu, secs, tcs, tcs_granule: int, aep: int, entry_pc: int) -> None:
    vcpu.cur_eid = secs.eid
    vcpu.cur_tcs = tcs_granule
    vcpu.aep = aep
    vcpu.pc = entry_pc
    vcpu.tpidr = secs.base + tcs.tls_base
    vcpu.entry_epoch = secs.track_epoch
    secs.entered_counts[secs.track_epoch] = (
        secs.entered_counts.get(secs.track_epoch, 0) + 1
    )


def _switch_out(vcpu, secs) -> None:
    secs.entered_counts[vcpu.entry_epoch] -= 1
    if not secs.entered_counts[vcpu.entry_epoch]:
        del secs.entered_counts[vcpu.entry_epoch]
    vcpu.cur_eid = None
    vcpu.cur_tcs = None
    vcpu.entry_epoch = None


def eenter(m, vcpu, tcs_granule: int, aep: int) -> None:
    secs, tcs = _tcs_for_entry(m, tcs_granule)
    if tcs.cssa >= tcs.nssa:
        raise SgxError(E.CSSA_FULL, "no free save-state slot")
    # Host registers flow into the enclave (unified-state emulation); x0
    # reports the current save-state index so entry code can tell a fresh
    # call from exception/notify handling.
    _switch_in(vcpu, secs, tcs, tcs_granule, aep, secs.base + tcs.oentry)
    vcpu.regs[0] = tcs.cssa


def eexit(m, vcpu, target: int) -> None:
    secs = m.enclaves[vcpu.cur_eid]
    _switch_out(vcpu, secs)
    # Registers are deliberately not scrubbed here: clearing on a synchronous
    # exit is the in-enclave runtime's job.
    vcpu.pc = target


def eresume(m, vcpu, tcs_granule: int, aep: int) -> None:
    secs, tcs = _tcs_for_entry(m, tcs_granule)
    if tcs.cssa == 0:
        raise SgxError(E.NO_SAVED_STATE, "no interrupted context to resume")

    if tcs.aexnotify:
        # Re-entry lands in the enclave's notify handler at the current
        # save-state index; the handler restores context itself and uses
        # EDECCSSA to retire the slot.
        _switch_in(vcpu, secs, tcs, tcs_granule, aep, secs.base + tcs.oentry)
        vcpu.regs[0] = tcs.cssa
        return

    frame_vaddr = ssa_frame_vaddr(secs, tcs, tcs.cssa - 1)
    granule = m.memory.find_page(secs.eid, frame_vaddr)
    if granule is None:
        raise SgxError(E.PAGE_INVALID, "save-state page is not resident")
    raw = m.memory.read_granule(
        MICROCODE, granule, frame_vaddr & (GRANULE_SIZE - 1), SSA_FRAME_BYTES
    )
    frame = SsaFrame.unpack(raw)
    cssa = tcs.cssa - 1
    m.store_cssa(tcs_granule, cssa)
    _switch_in(vcpu, secs, tcs, tcs_granule, aep, frame.pc)
    vcpu.regs = list(frame.regs)
    vcpu.pstate = frame.pstate
    vcpu.tpidr = frame.tpidr


def ssa_frame_vaddr(secs, tcs, index: int) -> int:
    return secs.base + tcs.ossa + index * secs.ssa_frame_size * GRANULE_SIZE


def aex(m, vcpu, reason: int, payload: int = 0) -> None:
    """Asynchronous enclave exit: save context, scrub, return to the host."""
    if not vcpu.in_enclave:
        raise ModelError("AEX outside enclave mode")
    secs = m.enclaves[vcpu.cur_eid]
    tcs_granule = vcpu.cur_tcs
    tcs = m.read_tcs(tcs_granule)

    fatal = tcs.cssa >= tcs.nssa
    if not fatal:
        frame_vaddr = ssa_frame_vaddr(secs, tcs, tcs.cssa)
        granule = m.memory.find_page(secs.eid, frame_vaddr)
        if granule is None:
            fatal = True
        else:
            frame = SsaFrame(
                regs=list(vcpu.regs),
                pc=vcpu.pc,
                pstate=vcpu.pstate,
                tpidr=vcpu.tpidr,
                exit_reason=reason,
                exit_payload=payload,
            )
            m.memory.write_granule(
                MICROCODE, granule, frame_vaddr & (GRANULE_SIZE - 1), frame.pack()
            )
            m.store_cssa(tcs_granule, tcs.cssa + 1)

    if fatal:
        secs.crashed = True

    _switch_out(vcpu, secs)
    # Synthetic register state: everything scrubbed, then just enough for the
    # host trampoline to resume (leaf, TCS, async exit pointer).
    vcpu.regs = [SCRUB_PATTERN] * 32
    vcpu.regs[1] = LEAF_ERESUME
    vcpu.regs[2] = tcs_granule
    vcpu.regs[3] = vcpu.aep
    vcpu.pstate = 0
    vcpu.tpidr = SCRUB_PATTERN
    vcpu.pc = vcpu.aep
    vcpu.last_exit = (reason, payload)
    m.trace_event(
        "aex",
        vcpu=vcpu.id,
        eid=secs.eid,
        reason=EXIT_REASON_NAMES.get(reason, str(reason)),
        payload=payload,
        path="trampoline->el3->host",
        fatal=fatal,
    )


def inject_interrupt(m, vcpu) -> None:
    """Deliver an interrupt to `vcpu`.  In an enclave it forces an
    asynchronous exit; in host mode the host takes it at once and nothing
    changes: no register, no exit record, no trace record."""
    if vcpu.in_enclave:
        aex(m, vcpu, EXIT_IRQ)


# ---------------------------------------------------------------------------
# Gadget trap decode: one register-ABI row per leaf
#
# A kind turns one guest register word into leaf arguments, or refuses it with
# an SgxError, so a word the leaf cannot accept reaches the guest as a code in
# x0 and never as a simulator error.  A kind returns one positional argument,
# or a dict of keyword arguments where a word does not give one argument in
# register order: a PAGEINFO gives several, a version-slot address two, the
# page a load leaf fills one by name, and an output address, which the result
# slot checks, none.


def _word(m, vcpu, word: int) -> int:
    return word


def _granule(m, vcpu, word: int) -> int:
    if not 0 <= word < m.memory.granule_count:
        raise SgxError(E.PAGE_INVALID, f"granule {word} is outside physical memory")
    return word


def _own_page(m, vcpu, vaddr: int) -> int:
    granule = m.memory.find_page(vcpu.cur_eid, vaddr)
    if granule is None:
        raise SgxError(E.BAD_VADDR, f"no own page at {vaddr:#x}")
    return granule


def _perms(m, vcpu, word: int) -> Perms:
    return Perms(word & 0x7)


def _page_type(m, vcpu, word: int) -> PageType:
    try:
        return PageType(word & 0xFF)
    except ValueError:
        raise SgxError(E.PAGE_INVALID, f"no page type {word & 0xFF}") from None


def _secinfo(m, vcpu, word: int) -> SecInfo:
    try:
        return SecInfo.from_word(word)
    except ValueError:
        raise SgxError(E.PAGE_INVALID, f"SECINFO {word:#x} names no page type") from None


def _value8(m, vcpu, word: int) -> bytes:
    return (word & MASK64).to_bytes(8, "little")


def _buffer(size: int, unpack=bytes):
    """An enclave buffer of ``size`` bytes at the address in the word."""
    def read(m, vcpu, addr: int):
        granule, offset = _user_buffer(m, vcpu, addr, size, "r")
        return unpack(m.memory.read_granule(MICROCODE, granule, offset, size))
    return read


def _host_struct(m, addr: int, size: int) -> Tuple[int, int]:
    """Granule and offset of the ``size``-byte host structure at physical
    ``addr``.  One outside memory, crossing its granule's end, or in a granule
    the normal world cannot reach fails the leaf before it runs, and is no
    protection fault."""
    granule, offset = divmod(addr, GRANULE_SIZE)
    if not (0 <= granule < m.memory.granule_count and offset + size <= GRANULE_SIZE
            and m.memory.check_access(SecurityState.NORMAL, granule, None)):
        raise SgxError(E.BAD_VADDR, f"no {size}-byte host structure at {addr:#x}")
    return granule, offset


def _host_read(m, addr: int, size: int) -> bytes:
    return m.host_read(*_host_struct(m, addr, size), size)


def _pageinfo(m, addr: int) -> PageInfo:
    return PageInfo.unpack(_host_read(m, addr, PAGEINFO_SIZE))


def _ecreate_info(m, vcpu, addr: int) -> dict:
    """A PAGEINFO whose SRCPGE is the SECS image."""
    secs = SecsImage.unpack(_host_read(m, _pageinfo(m, addr).srcpge, SECS_IMAGE_SIZE))
    return {"size": secs.size, "base": secs.base, "ssa_frame_size": secs.ssa_frame_size,
            "attributes": Attributes.decode(secs.attributes)}


def _eadd_info(m, vcpu, addr: int) -> dict:
    """A PAGEINFO for EADD: the source page at SRCPGE, none if it is 0,
    which EADD refuses."""
    info = _pageinfo(m, addr)
    source = _host_read(m, info.srcpge, GRANULE_SIZE) if info.srcpge else None
    return {"eid": info.secs, "vaddr": info.linaddr,
            "secinfo": _secinfo(m, vcpu, info.secinfo), "source_bytes": source}


def _eld_info(m, vcpu, addr: int) -> dict:
    """A PAGEINFO for ELDB/ELDU: the sealed page at SRCPGE, the PCMD image at
    the PCMD address."""
    info = _pageinfo(m, addr)
    return {"ciphertext": _host_read(m, info.srcpge, GRANULE_SIZE),
            "pcmd": Pcmd.unpack(_host_read(m, info.secinfo, PCMD_SIZE)),
            "eid": info.secs or None}


def _sigstruct_at(m, vcpu, addr: int) -> SigStruct:
    return SigStruct.from_bytes(_host_read(m, addr, SIGSTRUCT_SIZE))


def _target(m, vcpu, word: int) -> dict:
    """The EPC page a load leaf fills."""
    return {"target_granule": _granule(m, vcpu, word)}


def _va_slot(m, vcpu, addr: int) -> dict:
    """The version array page and slot index of a slot's address."""
    granule, offset = divmod(addr, GRANULE_SIZE)
    if offset % VA_SLOT_SIZE:
        raise SgxError(E.VA_SLOT_INVALID, f"slot address {addr:#x} is not 8-byte aligned")
    return {"va_granule": _granule(m, vcpu, granule), "slot": offset // VA_SLOT_SIZE}


def _output(m, vcpu, word: int) -> dict:
    """An output address ahead of other arguments: the result slot checks and
    writes it."""
    return {}


# A result slot is called with the words x2..x4 after the arguments decode and
# before the leaf runs, so it refuses an output it cannot write while the
# leaf has done nothing.  It returns the store that takes a successful leaf's
# result, and x0 becomes 0.  None stores nothing; _SWITCH, for the
# context-switch leaves that rewrite the register file themselves, leaves even
# x0 alone.
_SWITCH = "switch"


def _x1(convert=lambda result: result):
    """Result slot: x1 holds ``convert(result)``."""
    def prepare(m, vcpu, words):
        def store(result) -> None:
            vcpu.regs[1] = convert(result) & MASK64
        return store
    return prepare


def _buffer_at(reg: int, size: int, pack=bytes):
    """Result slot: the enclave buffer of ``size`` bytes at the address in
    x``reg`` takes ``pack(result)``."""
    def prepare(m, vcpu, words):
        granule, offset = _user_buffer(m, vcpu, words[reg - 2], size, "w")

        def store(result) -> None:
            m.memory.write_granule(MICROCODE, granule, offset, pack(result))
        return store
    return prepare


def _swap_out(m, vcpu, words):
    """Result slot of EWB: the sealed page goes to SRCPGE and the PCMD image
    to the PCMD address of the PAGEINFO at x2."""
    info = _pageinfo(m, words[0])
    page_at = _host_struct(m, info.srcpge, GRANULE_SIZE)
    pcmd_at = _host_struct(m, info.secinfo, PCMD_SIZE)

    def store(blob) -> None:
        m.host_write(*page_at, blob.ciphertext)
        m.host_write(*pcmd_at, blob.pcmd.pack())
    return store


# Leaf number -> (kinds of x2, x3, x4 in order; result slot).
ENCLS_ABI = {
    0x0: ((_ecreate_info, _granule), _x1()),  # ECREATE: PAGEINFO, SECS page
    0x1: ((_eadd_info, _target), None),  # EADD: PAGEINFO, page
    0x2: ((_word, _sigstruct_at), None),  # EINIT: eid, SIGSTRUCT address
    0x3: ((_granule,), None),  # EREMOVE
    0x4: ((_granule, _word),
          _x1(lambda data: int.from_bytes(data, "little"))),  # EDBGRD: page, offset
    0x5: ((_granule, _word, _value8), None),  # EDBGWR: page, offset, value
    0x6: ((_word, _word), None),  # EEXTEND: eid, chunk vaddr
    0x7: ((_eld_info, _target, _va_slot), None),  # ELDB: PAGEINFO, page, VA slot
    0x8: ((_eld_info, _target, _va_slot), None),  # ELDU: as ELDB
    0x9: ((_granule,), None),  # EBLOCK
    0xA: ((_granule,), None),  # EPA
    0xB: ((_output, _granule, _va_slot), _swap_out),  # EWB: PAGEINFO, page, VA slot
    0xC: ((_word,), None),  # ETRACK: eid
    0xD: ((_word, _word, _granule), None),  # EAUG: eid, vaddr, page
    0xE: ((_granule, _perms), None),  # EMODPR
    0xF: ((_granule, _page_type), None),  # EMODT
}

ENCLU_ABI = {
    0x0: ((_buffer(TARGETINFO_SIZE, TargetInfo.unpack), _buffer(64)),
          _buffer_at(4, REPORT_SIZE, Report.to_bytes)),  # EREPORT
    0x1: ((_buffer(KEYREQUEST_SIZE, KeyRequest.unpack),), _buffer_at(3, KEY_SIZE)),  # EGETKEY
    0x2: ((_granule, _word), _SWITCH),  # EENTER: TCS, async exit pointer
    0x3: ((_granule, _word), _SWITCH),  # ERESUME: TCS, async exit pointer
    0x4: ((_word,), _SWITCH),  # EEXIT: target
    0x5: ((_own_page, _secinfo), None),  # EACCEPT
    0x6: ((_own_page, _perms), None),  # EMODPE
    0x7: ((_own_page, _word, _secinfo), None),  # EACCEPTCOPY: page, source vaddr, secinfo
    0x9: ((), None),  # EDECCSSA
}


def gadget_trap(m, vcpu, frame: TrapFrame) -> None:
    """Route one trapped gadget execution; raises SgxError on refusal."""
    assert not EL2_HOOKS  # nothing may interpose between the trap and us
    if frame.smc_id == SMC_ID_CPUID:
        words = cpuid_emulate(m, frame.leaf, frame.arg2)
        vcpu.regs[0:4] = [w & MASK64 for w in words]
        return
    if frame.smc_id == SMC_ID_ENCLU:
        abi, call = ENCLU_ABI, partial(m.enclu, vcpu)
    elif frame.smc_id == SMC_ID_ENCLS:
        if vcpu.in_enclave:
            raise SgxError(E.INVALID_SERVICE, "ENCLS service is host-privileged")
        abi, call = ENCLS_ABI, m.encls
    else:
        raise SgxError(E.INVALID_SERVICE, f"unknown service id {frame.smc_id:#x}")
    # An undefined leaf has no row; the dispatch refuses it before decoding.
    kinds, slot = abi.get(frame.leaf, ((), None))
    words = (frame.arg1, frame.arg2, frame.arg3)
    store = None

    def decode() -> Tuple[tuple, dict]:
        nonlocal store
        args, named = [], {}
        for kind, word in zip(kinds, words):
            value = kind(m, vcpu, word)
            if type(value) is dict:
                named.update(value)
            else:
                args.append(value)
        if slot is not None and slot is not _SWITCH:
            store = slot(m, vcpu, words)
        return tuple(args), named

    result = call(frame.leaf, decode=decode)
    if slot is not _SWITCH:
        if store is not None:
            store(result)
        vcpu.regs[0] = 0


# ---------------------------------------------------------------------------
# Instruction pump

_DISPATCH_FAULTS = (E.INVALID_LEAF, E.INVALID_SERVICE, E.INVALID_MODE)


class Scheduler:
    """Seeded step-level interleaver for multi-core runs.

    Picks a runnable vCPU at random (from the machine's scheduler seed) and
    advances it one instruction at a time; with a fixed seed the interleaving
    replays exactly.  A vCPU leaves the runnable set when its program stops.
    """

    def __init__(self, machine, seed: Optional[int] = None):
        self.machine = machine
        self.rng = random.Random(
            machine.config.scheduler_seed if seed is None else seed
        )
        self.pick_trace: List[int] = []

    def run(self, vcpus: List[VCpu], budget: int) -> Dict[int, RunReport]:
        reports: Dict[int, RunReport] = {v.id: RunReport("limit", 0) for v in vcpus}
        runnable = list(vcpus)
        spent = 0
        while runnable and spent < budget:
            vcpu = self.rng.choice(runnable)
            self.pick_trace.append(vcpu.id)
            report = step(self.machine, vcpu, 1)
            spent += max(report.steps, 1)
            report.steps += reports[vcpu.id].steps
            reports[vcpu.id] = report
            if report.stop != "limit":
                runnable.remove(vcpu)
        return reports


def _stopped(vcpu, executed: int, kind: str, **details) -> RunReport:
    """The report of a run that a fault stops."""
    return RunReport("fault", executed, {"step": executed, "vcpu": vcpu.id, "kind": kind, **details})


def step(m, vcpu, max_steps: int) -> RunReport:
    """Run the loaded fixture program for up to `max_steps` instructions.

    Stops on halt or abort (``vcpu.pc`` stays on it), a host-mode fault, whose
    details the report keeps, or exhaustion, which may come inside a block
    and leaves ``vcpu.pc`` on the next instruction.  A fault in enclave mode
    becomes an asynchronous exit, and execution continues at the host's async
    exit pointer (typically a halt gate): the trace shows the fault, then the
    exit.
    """
    executed = 0
    while executed < max_steps:
        pc = vcpu.pc
        fetching = True
        try:
            run, end = _block(m, vcpu, pc)
            fetching = False
            if run:
                room = max_steps - executed
                if len(run) >= room:
                    run, end = run[:room], None
                regs = vcpu.regs
                for op, rd, rs1, rs2, imm in run:
                    if op == OP_MOVI:
                        regs[rd] = imm
                    elif op == OP_ADDI:
                        regs[rd] = (regs[rs1] + imm) & MASK64
                    elif op == OP_ADD:
                        regs[rd] = (regs[rs1] + regs[rs2]) & MASK64
                    elif op == OP_XOR:
                        regs[rd] = regs[rs1] ^ regs[rs2]
                    else:  # OP_MUL
                        regs[rd] = (regs[rs1] * regs[rs2]) & MASK64
                executed += len(run)
                pc = vcpu.pc = (pc + len(run) * isa.INSTR_SIZE) & MASK64
            if end is None:
                continue  # the budget ran out, or the next instruction is on another page
            op, rd, rs1, rs2, imm = end
            executed += 1
            next_pc = (pc + isa.INSTR_SIZE) & MASK64

            if op == isa.OP_HALT:
                return RunReport("halt", executed)
            if op == isa.OP_ABORT:
                return RunReport("abort", executed)

            if op == isa.OP_LOAD:
                addr = (vcpu.regs[rs1] + imm) & MASK64
                vcpu.regs[rd] = int.from_bytes(mem_read(m, vcpu, addr, 8), "little")
            elif op == isa.OP_STORE:
                addr = (vcpu.regs[rs1] + imm) & MASK64
                mem_write(m, vcpu, addr, vcpu.regs[rs2].to_bytes(8, "little"))
            elif op == isa.OP_BNZ:
                if vcpu.regs[rs1] != 0:
                    next_pc = imm
            elif op == isa.OP_JMP:
                next_pc = imm
            elif op == isa.OP_JMPR:
                next_pc = vcpu.regs[rs1]
            elif op == isa.OP_GADGET:
                vcpu.pc = next_pc  # trap returns past the gadget
                try:
                    gadget_trap(m, vcpu, TrapFrame(*vcpu.regs[:5]))
                except SgxError as err:
                    if err.code in _DISPATCH_FAULTS:
                        return _stopped(vcpu, executed, "dispatch_fault",
                                        code=err.code.name, detail=err.detail)
                    vcpu.regs[0] = int(err.code)
                continue
            else:
                return _stopped(vcpu, executed, "bad_opcode", op=op, pc=pc)
        except (GranuleProtectionFault, _PageAccessFault) as exc:
            at = {"at": "fetch"} if fetching else {}
            if isinstance(exc, GranuleProtectionFault):
                addr = pc if fetching else (vcpu.regs[rs1] + imm) & MASK64
                details = {"granule": exc.granule, "accessor": exc.accessor.name,
                           "pas": exc.pas.name, **at, "addr": addr}
                kind, reason, payload = "gpf", EXIT_GPF, addr
            else:
                details = {"addr": exc.vaddr, "why": exc.why, **at}
                kind, reason, payload = "pagefault", EXIT_PAGEFAULT, exc.vaddr
            m.trace_event(kind, vcpu=vcpu.id, **details)
            if not vcpu.in_enclave:
                return _stopped(vcpu, executed, kind, **details)
            aex(m, vcpu, reason, payload)
            continue

        vcpu.pc = next_pc

    return RunReport("limit", executed)
