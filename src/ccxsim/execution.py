"""Simulated cores, the trap gadget, world switches, and the instruction pump.

A vCPU runs either as host (normal world, system table active) or inside an
enclave (realm state, that enclave's table active); the two invariants are
re-checked at every step boundary.  Traps from fixture programs arrive as a
register frame mirroring the gadget sequence: x0 service id, x1 leaf, x2..x4
arguments.  Interrupts in enclave mode save the full context to the thread's
save-state area and hand control to the host at its async exit pointer; the
recorded delivery path is trampoline -> monitor -> host.

There is deliberately no hook point between an enclave trap or interrupt and
the monitor: nothing at hypervisor level can observe or intercept the switch.
``EL2_HOOKS`` stays an empty, immutable tuple and the dispatch below consults
no handler registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import isa
from .errors import GranuleProtectionFault, ModelError, SgxError, SgxErrorCode as E
from .memory import (
    GRANULE_SIZE,
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
    KeyRequest,
    KEYREQUEST_SIZE,
    SSA_FRAME_BYTES,
    SecInfo,
    SsaFrame,
    TargetInfo,
    TARGETINFO_SIZE,
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


@dataclass
class VCpu:
    id: int
    regs: List[int] = field(default_factory=lambda: [0] * 32)  # x0..x30, sp
    pc: int = 0
    pstate: int = 0
    tpidr: int = 0
    security_state: SecurityState = SecurityState.NORMAL
    active_gpt: Optional[int] = None
    cur_eid: Optional[int] = None
    cur_tcs: Optional[int] = None
    aep: int = 0
    pending_irq: bool = False
    entry_epoch: Optional[int] = None
    last_exit: Optional[Tuple[int, int]] = None  # (reason code, payload)

    @property
    def in_enclave(self) -> bool:
        return self.cur_eid is not None

    def check_invariants(self) -> None:
        if self.in_enclave:
            if self.security_state != SecurityState.REALM or self.active_gpt != self.cur_eid:
                raise ModelError(f"vcpu {self.id}: enclave mode without realm/enclave table")
        else:
            if self.security_state != SecurityState.NORMAL or self.active_gpt is not None:
                raise ModelError(f"vcpu {self.id}: host mode without normal/system table")

    def access_context(self) -> AccessContext:
        return AccessContext(
            SecurityState.REALM if self.in_enclave else SecurityState.NORMAL,
            self.active_gpt,
        )


@dataclass
class TrapFrame:
    """Gadget register image: x0 service id, x1 leaf, x2..x4 arguments."""

    smc_id: int
    leaf: int
    arg1: int = 0
    arg2: int = 0
    arg3: int = 0

    @classmethod
    def from_regs(cls, regs: List[int]) -> "TrapFrame":
        return cls(regs[0], regs[1], regs[2], regs[3], regs[4])


@dataclass
class RunReport:
    stop: str  # halt | abort | fault | limit
    steps: int
    events: List[dict]

    def kinds(self) -> List[str]:
        return [e["kind"] for e in self.events]


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


def mem_read(m, vcpu, addr: int, size: int, kind: str = "r") -> bytes:
    granule, offset = _resolve(m, vcpu, addr, size, kind)
    return m.memory.read_granule(vcpu.access_context(), granule, offset, size)


def mem_write(m, vcpu, addr: int, data: bytes) -> None:
    granule, offset = _resolve(m, vcpu, addr, len(data), "w")
    m.memory.write_granule(vcpu.access_context(), granule, offset, data)


def _user_buffer(m, vcpu, addr: int, size: int, kind: str) -> Tuple[int, int]:
    # A caller-supplied buffer that cannot be reached fails the leaf.
    try:
        return _enclave_translate(m, vcpu, addr, size, kind)
    except _PageAccessFault as exc:
        raise SgxError(E.BAD_VADDR, str(exc)) from None


def user_read(m, vcpu, addr: int, size: int) -> bytes:
    """Microprogram read of a caller-supplied enclave buffer (perms apply)."""
    granule, offset = _user_buffer(m, vcpu, addr, size, "r")
    return m.memory.read_granule(MICROCODE, granule, offset, size)


def user_write(m, vcpu, addr: int, data: bytes) -> None:
    granule, offset = _user_buffer(m, vcpu, addr, len(data), "w")
    m.memory.write_granule(MICROCODE, granule, offset, data)


# ---------------------------------------------------------------------------
# CPUID emulation


def cpuid_emulate(m, leaf: int, subleaf: int) -> Tuple[int, int, int, int]:
    if leaf != CPUID_SGX_LEAF:
        return (0, 0, 0, 0)
    if subleaf == 0:
        return (CAP_SGX1 | CAP_SGX2 | CAP_AEXNOTIFY, MAX_ENCLAVE_SIZE_LOG2, 0, 0)
    if subleaf == 2:
        mode = m.memory.mode
        if mode.is_fixed:
            return (mode.epc_base * GRANULE_SIZE, mode.epc_size * GRANULE_SIZE, 0, 0)
        return (0, m.memory.granule_count * GRANULE_SIZE, 0, 0)
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
    return secs, m.tcs_registry[tcs_granule]


def _switch_in(m, vcpu, secs, tcs, tcs_granule: int, aep: int, entry_pc: int) -> None:
    tcs.busy = True
    vcpu.cur_eid = secs.eid
    vcpu.cur_tcs = tcs_granule
    vcpu.security_state = SecurityState.REALM
    vcpu.active_gpt = secs.eid
    vcpu.aep = aep
    vcpu.pc = entry_pc
    vcpu.tpidr = secs.base + tcs.tls_base
    vcpu.entry_epoch = secs.track_epoch
    secs.entered_counts[secs.track_epoch] = (
        secs.entered_counts.get(secs.track_epoch, 0) + 1
    )


def _switch_out(m, vcpu, secs, tcs) -> None:
    tcs.busy = False
    secs.entered_counts[vcpu.entry_epoch] -= 1
    if not secs.entered_counts[vcpu.entry_epoch]:
        del secs.entered_counts[vcpu.entry_epoch]
    vcpu.cur_eid = None
    vcpu.cur_tcs = None
    vcpu.security_state = SecurityState.NORMAL
    vcpu.active_gpt = None
    vcpu.entry_epoch = None


def eenter(m, vcpu, tcs_granule: int, aep: int) -> None:
    if vcpu.in_enclave:
        raise SgxError(E.INVALID_MODE, "EENTER requires host mode")
    secs, tcs = _tcs_for_entry(m, tcs_granule)
    if not secs.initialized:
        raise SgxError(E.NOT_INITIALIZED, f"enclave {secs.eid} is not initialized")
    if tcs.busy:
        raise SgxError(E.TCS_BUSY, "TCS already occupied")
    if tcs.cssa >= tcs.nssa:
        raise SgxError(E.CSSA_FULL, "no free save-state slot")
    # Host registers flow into the enclave (unified-state emulation); x0
    # reports the current save-state index so entry code can tell a fresh
    # call from exception/notify handling.
    _switch_in(m, vcpu, secs, tcs, tcs_granule, aep, secs.base + tcs.oentry)
    vcpu.regs[0] = tcs.cssa
    m.trace_event("eenter", vcpu=vcpu.id, eid=secs.eid, cssa=tcs.cssa)


def eexit(m, vcpu, target: int) -> None:
    if not vcpu.in_enclave:
        raise SgxError(E.INVALID_MODE, "EEXIT requires enclave mode")
    secs = m.enclaves[vcpu.cur_eid]
    tcs = m.tcs_registry[vcpu.cur_tcs]
    _switch_out(m, vcpu, secs, tcs)
    # Registers are deliberately not scrubbed here: clearing on a synchronous
    # exit is the in-enclave runtime's job.
    vcpu.pc = target
    m.trace_event("eexit", vcpu=vcpu.id, eid=secs.eid, target=target)


def eresume(m, vcpu, tcs_granule: int, aep: int) -> None:
    if vcpu.in_enclave:
        raise SgxError(E.INVALID_MODE, "ERESUME requires host mode")
    secs, tcs = _tcs_for_entry(m, tcs_granule)
    if not secs.initialized:
        raise SgxError(E.NOT_INITIALIZED, f"enclave {secs.eid} is not initialized")
    if tcs.busy:
        raise SgxError(E.TCS_BUSY, "TCS already occupied")
    if tcs.cssa == 0:
        raise SgxError(E.NO_SAVED_STATE, "no interrupted context to resume")

    if tcs.aexnotify:
        # Re-entry lands in the enclave's notify handler at the current
        # save-state index; the handler restores context itself and uses
        # EDECCSSA to retire the slot.
        _switch_in(m, vcpu, secs, tcs, tcs_granule, aep, secs.base + tcs.oentry)
        vcpu.regs[0] = tcs.cssa
        m.trace_event("eresume_notify", vcpu=vcpu.id, eid=secs.eid, cssa=tcs.cssa)
        return

    frame_vaddr = _ssa_frame_vaddr(secs, tcs, tcs.cssa - 1)
    granule = m.memory.find_page(secs.eid, frame_vaddr)
    if granule is None:
        raise SgxError(E.PAGE_INVALID, "save-state page is not resident")
    raw = m.memory.read_granule(
        MICROCODE, granule, frame_vaddr & (GRANULE_SIZE - 1), SSA_FRAME_BYTES
    )
    frame = SsaFrame.unpack(raw)
    tcs.cssa -= 1
    _switch_in(m, vcpu, secs, tcs, tcs_granule, aep, frame.pc)
    vcpu.regs = list(frame.regs)
    vcpu.pstate = frame.pstate
    vcpu.tpidr = frame.tpidr
    m.trace_event("eresume", vcpu=vcpu.id, eid=secs.eid, cssa=tcs.cssa)


def _ssa_frame_vaddr(secs, tcs, index: int) -> int:
    return secs.base + tcs.ossa + index * secs.ssa_frame_size * GRANULE_SIZE


def aex(m, vcpu, reason: int, payload: int = 0) -> None:
    """Asynchronous enclave exit: save context, scrub, return to the host."""
    if not vcpu.in_enclave:
        raise ModelError("AEX outside enclave mode")
    secs = m.enclaves[vcpu.cur_eid]
    tcs = m.tcs_registry[vcpu.cur_tcs]
    tcs_granule = vcpu.cur_tcs

    fatal = tcs.cssa >= tcs.nssa
    if not fatal:
        frame_vaddr = _ssa_frame_vaddr(secs, tcs, tcs.cssa)
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
            tcs.cssa += 1

    if fatal:
        secs.crashed = True
        m.trace_event("enclave_crash", vcpu=vcpu.id, eid=secs.eid,
                      reason=EXIT_REASON_NAMES.get(reason, str(reason)))

    _switch_out(m, vcpu, secs, tcs)
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
    if vcpu.in_enclave:
        aex(m, vcpu, EXIT_IRQ)
    else:
        vcpu.pending_irq = True


# ---------------------------------------------------------------------------
# Gadget trap decode

# Leaves whose effects rewrite the register file themselves; the dispatcher
# must not write a success code afterwards.
_CONTEXT_SWITCH_LEAVES = {0x2, 0x3, 0x4}


def gadget_trap(m, vcpu, frame: TrapFrame) -> None:
    """Route one trapped gadget execution; raises SgxError on refusal."""
    assert not EL2_HOOKS  # nothing may interpose between the trap and us
    if frame.smc_id == SMC_ID_CPUID:
        words = cpuid_emulate(m, frame.leaf, frame.arg2)
        vcpu.regs[0:4] = [w & MASK64 for w in words]
        return
    if frame.smc_id == SMC_ID_ENCLU:
        _dispatch_enclu_frame(m, vcpu, frame)
        return
    if frame.smc_id == SMC_ID_ENCLS:
        if vcpu.in_enclave:
            raise SgxError(E.INVALID_SERVICE, "ENCLS service is host-privileged")
        _dispatch_encls_frame(m, vcpu, frame)
        return
    raise SgxError(E.INVALID_SERVICE, f"unknown service id {frame.smc_id:#x}")


def _own_page_granule(m, vcpu, vaddr: int) -> int:
    if not vcpu.in_enclave:
        raise SgxError(E.INVALID_MODE, "leaf requires enclave mode")
    granule = m.memory.find_page(vcpu.cur_eid, vaddr)
    if granule is None:
        raise SgxError(E.BAD_VADDR, f"no own page at {vaddr:#x}")
    return granule


def _dispatch_enclu_frame(m, vcpu, frame: TrapFrame) -> None:
    leaf = frame.leaf
    if leaf == 0x0:  # EREPORT
        tinfo = TargetInfo.unpack(user_read(m, vcpu, frame.arg1, TARGETINFO_SIZE))
        rdata = user_read(m, vcpu, frame.arg2, 64)
        report = m.enclu(vcpu, 0x0, tinfo, rdata)
        user_write(m, vcpu, frame.arg3, report.to_bytes())
    elif leaf == 0x1:  # EGETKEY
        request = KeyRequest.unpack(user_read(m, vcpu, frame.arg1, KEYREQUEST_SIZE))
        key = m.enclu(vcpu, 0x1, request)
        user_write(m, vcpu, frame.arg2, key)
    elif leaf in (0x2, 0x3):  # EENTER / ERESUME
        m.enclu(vcpu, leaf, frame.arg1, frame.arg2)
        return
    elif leaf == 0x4:  # EEXIT
        m.enclu(vcpu, leaf, frame.arg1)
        return
    elif leaf == 0x5:  # EACCEPT
        granule = _own_page_granule(m, vcpu, frame.arg1)
        m.enclu(vcpu, leaf, granule, SecInfo.from_word(frame.arg2))
    elif leaf == 0x6:  # EMODPE
        granule = _own_page_granule(m, vcpu, frame.arg1)
        m.enclu(vcpu, leaf, granule, Perms(frame.arg2 & 0x7))
    elif leaf == 0x7:  # EACCEPTCOPY
        granule = _own_page_granule(m, vcpu, frame.arg1)
        m.enclu(vcpu, leaf, granule, frame.arg2, SecInfo.from_word(frame.arg3))
    elif leaf == 0x9:  # EDECCSSA
        m.enclu(vcpu, leaf)
    else:
        m.enclu(vcpu, leaf)  # raises INVALID_LEAF with counting in one place
        raise ModelError("unreachable")
    vcpu.regs[0] = 0


def _dispatch_encls_frame(m, vcpu, frame: TrapFrame) -> None:
    leaf = frame.leaf
    a1, a2, a3 = frame.arg1, frame.arg2, frame.arg3
    result_reg1: Optional[int] = None

    if leaf == 0x0:  # ECREATE: staged record (granule, geometry, attributes)
        eid = m.encls(leaf, *m.take_params(a1))
        result_reg1 = eid
    elif leaf == 0x1:  # EADD: staged parameter record
        params = m.take_params(a1)
        m.encls(leaf, *params)
    elif leaf == 0x2:  # EINIT: eid, staged sigstruct
        m.encls(leaf, a1, m.take_params(a2))
    elif leaf in (0x3, 0x9, 0xA):  # EREMOVE / EBLOCK / EPA: granule
        m.encls(leaf, a1)
    elif leaf == 0x4:  # EDBGRD: granule, offset -> 8 bytes in x1
        data = m.encls(leaf, a1, a2, 8)
        result_reg1 = int.from_bytes(data, "little")
    elif leaf == 0x5:  # EDBGWR: granule, offset, 8-byte value
        m.encls(leaf, a1, a2, int(a3 & MASK64).to_bytes(8, "little"))
    elif leaf == 0x6:  # EEXTEND: eid, chunk vaddr
        m.encls(leaf, a1, a2)
    elif leaf in (0x7, 0x8):  # ELDB / ELDU: staged record
        params = m.take_params(a1)
        m.encls(leaf, *params)
    elif leaf == 0xB:  # EWB: granule, va granule, slot -> staged blob token
        blob = m.encls(leaf, a1, a2, a3)
        result_reg1 = m.stage_params(blob)
    elif leaf == 0xC:  # ETRACK: eid
        m.encls(leaf, a1)
    elif leaf == 0xD:  # EAUG: eid, vaddr, granule
        m.encls(leaf, a1, a2, a3)
    elif leaf == 0xE:  # EMODPR: granule, perms
        m.encls(leaf, a1, Perms(a2 & 0x7))
    elif leaf == 0xF:  # EMODT: granule, type
        m.encls(leaf, a1, PageType(a2 & 0xFF))
    else:
        m.encls(leaf)
        raise ModelError("unreachable")

    vcpu.regs[0] = 0
    if result_reg1 is not None:
        vcpu.regs[1] = result_reg1 & MASK64


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
        reports: Dict[int, RunReport] = {
            v.id: RunReport("limit", 0, []) for v in vcpus
        }
        runnable = list(vcpus)
        spent = 0
        while runnable and spent < budget:
            vcpu = self.rng.choice(runnable)
            self.pick_trace.append(vcpu.id)
            report = step(self.machine, vcpu, 1)
            spent += max(report.steps, 1)
            merged = reports[vcpu.id]
            merged.steps += report.steps
            merged.events.extend(report.events)
            merged.stop = report.stop
            if report.stop != "limit":
                runnable.remove(vcpu)
        return reports


def step(m, vcpu, max_steps: int) -> RunReport:
    """Run the loaded fixture program for up to `max_steps` instructions.

    Stops on halt, abort, a host-mode fault, or exhaustion.  Faults taken in
    enclave mode become asynchronous exits; execution then continues at the
    host's async exit pointer (typically a halt gate), so the caller sees the
    fault event followed by a halt.
    """
    events: List[dict] = []
    executed = 0

    def note(kind: str, **payload):
        events.append({"step": executed, "vcpu": vcpu.id, "kind": kind, **payload})

    while executed < max_steps:
        vcpu.check_invariants()
        if vcpu.pending_irq and not vcpu.in_enclave:
            vcpu.pending_irq = False  # host takes the interrupt invisibly

        try:
            raw = mem_read(m, vcpu, vcpu.pc, isa.INSTR_SIZE, kind="x")
        except GranuleProtectionFault as exc:
            note("gpf", granule=exc.granule, accessor=exc.accessor.name,
                 pas=exc.pas.name, at="fetch", addr=vcpu.pc)
            if vcpu.in_enclave:
                aex(m, vcpu, EXIT_GPF, vcpu.pc)
                note("aex", reason="gpf")
                continue
            return RunReport("fault", executed, events)
        except _PageAccessFault as exc:
            note("pagefault", addr=exc.vaddr, why=exc.why, at="fetch")
            if vcpu.in_enclave:
                aex(m, vcpu, EXIT_PAGEFAULT, exc.vaddr)
                note("aex", reason="pagefault")
                continue
            return RunReport("fault", executed, events)

        op, rd, rs1, rs2, imm = isa.decode(raw)
        executed += 1
        next_pc = (vcpu.pc + isa.INSTR_SIZE) & MASK64

        if op == isa.OP_HALT:
            note("halt", pc=vcpu.pc)
            return RunReport("halt", executed, events)
        if op == isa.OP_ABORT:
            note("abort", pc=vcpu.pc)
            return RunReport("abort", executed, events)

        try:
            if op == isa.OP_MOVI:
                vcpu.regs[rd] = imm
            elif op == isa.OP_ADD:
                vcpu.regs[rd] = (vcpu.regs[rs1] + vcpu.regs[rs2]) & MASK64
            elif op == isa.OP_ADDI:
                vcpu.regs[rd] = (vcpu.regs[rs1] + imm) & MASK64
            elif op == isa.OP_XOR:
                vcpu.regs[rd] = vcpu.regs[rs1] ^ vcpu.regs[rs2]
            elif op == isa.OP_MUL:
                vcpu.regs[rd] = (vcpu.regs[rs1] * vcpu.regs[rs2]) & MASK64
            elif op == isa.OP_LOAD:
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
                frame = TrapFrame.from_regs(vcpu.regs)
                try:
                    gadget_trap(m, vcpu, frame)
                    note("gadget", leaf=frame.leaf, smc=frame.smc_id)
                except SgxError as err:
                    if err.code in _DISPATCH_FAULTS:
                        note("dispatch_fault", code=err.code.name, detail=err.detail)
                        return RunReport("fault", executed, events)
                    vcpu.regs[0] = int(err.code)
                    note("leaf_error", leaf=frame.leaf, code=err.code.name)
                continue
            else:
                note("bad_opcode", op=op, pc=vcpu.pc)
                return RunReport("fault", executed, events)
        except GranuleProtectionFault as exc:
            note("gpf", granule=exc.granule, accessor=exc.accessor.name,
                 pas=exc.pas.name, addr=(vcpu.regs[rs1] + imm) & MASK64)
            if vcpu.in_enclave:
                aex(m, vcpu, EXIT_GPF, (vcpu.regs[rs1] + imm) & MASK64)
                note("aex", reason="gpf")
                continue
            return RunReport("fault", executed, events)
        except _PageAccessFault as exc:
            note("pagefault", addr=exc.vaddr, why=exc.why)
            if vcpu.in_enclave:
                aex(m, vcpu, EXIT_PAGEFAULT, exc.vaddr)
                note("aex", reason="pagefault")
                continue
            return RunReport("fault", executed, events)

        vcpu.pc = next_pc

    return RunReport("limit", executed, events)
