"""Simulated cores, the trap gadget, world switches, and the instruction pump.

A vCPU's one record of where it runs is ``cur_eid``/``cur_tcs``, with the
track epoch it entered in, ``entry_epoch``: with no current enclave it is
the host, and inside one its world (realm) and active table derive from
``cur_eid``.  A TCS is busy exactly while some vCPU's ``cur_tcs`` names it,
and who is inside an enclave, since which epoch, is read from the cores
alone.  A thread's own state lives only in its TCS page: entry and resume
unpack it, and AEX, ERESUME and EDECCSSA store the save-state index (CSSA)
back into it, so a debug read, a snapshot and a sealed swap blob see the
live value.  Traps from fixture programs arrive as a register frame
mirroring the gadget sequence: x0 service id, x1 leaf, x2..x4 arguments.
Interrupts in enclave mode save the full context to the thread's save-state
area and hand control to the host at its async exit pointer; the recorded
delivery path is trampoline -> monitor -> host.

Each leaf is one row of :data:`LEAVES`: its number, name and handler, the
kinds that decode its argument registers x2..x4, the slot that takes its
result, its cost and the cost factors it pays, and whether it runs in host
mode.  The machine's dispatch reads that one row for a driver's call and a
trap alike, so a leaf's number, handler, mode rule, cost and register ABI
cannot fall out of step.

The four world switches do only their architectural work: EENTER and
ERESUME check the TCS page and the frames they need and switch in, EEXIT and
AEX switch out, and each writes the vCPU alone.  A save-state frame starts a
page and has one layout, :data:`~ccxsim.structs.SSA_FRAME`, which AEX packs
straight from the vCPU and ERESUME unpacks in place into the register list.

The pump keeps no event list of its own.  Each fact of a run is one record
in the machine's trace: the dispatch records leaves, :func:`aex` exits, and
:func:`step` each page fault or GPF where it is taken, before its exit.
While the trace is :data:`NO_TRACE`, which keeps nothing, no exit builds a
record, fault message or details dict, unless a host-mode stop reports them.

The pump runs code as blocks.  A block is the decoded run of ALU ops (the
rows of ``isa.INSTRUCTIONS`` that have ALU source) that starts at one address,
plus the one instruction that ends it: a branch, load, store, gadget, halt,
abort or bad opcode.  A run that reaches the end of its page ends there with
no such instruction, so a block never crosses its page.  ALU ops touch
registers only, so they can neither fault nor change memory.  Each block is
compiled once into one Python function of the register list, generated from
the decoded integer fields alone and each op's source in its row: the ALU run
as assignments masked to 64 bits, and an ending branch, whose function
returns the taken target or None to fall through.  A block whose ``bnz`` or
``jmp`` has its own start address as constant target is a self-loop, and
compiles from the same rows, with each register slot a local variable, into
one function that runs up to ``k`` turns while the branch is taken and stores
the registers its run writes back on return; :func:`step` passes as ``k`` the
whole turns left in its budget.  A bounded memo of :data:`BLOCK_MEMO_SIZE`
functions, oldest out first, is keyed by what is compiled (the decoded
instructions, with None for a self-loop's target), so the same code decoded
again at another address compiles nothing.  A budget that ends inside a
block runs the compiled prefix of its ALU run from the same memo; every
count, pc and trace record is what one instruction at a time gives.

:func:`step` makes a checked or cached fetch only where a chain of blocks
starts: after a branch, a load or a store, the next block on the same page
comes straight from that granule's blocks, with no translation lookup.  That
is sound because one host thread drives a machine: :func:`step` runs one
vCPU and returns before any other core or the host acts, so since the
call's last checked or cached fetch only this vCPU's ALU ops, branches,
loads and stores have run.
None of them changes a translation, an EPCM entry or a protection table, so
the fetch's translation and permission still hold.  Only a store changes
bytes, and a store to the code granule drops that granule's blocks, so the
chain goes on after a store only while the granule still holds the very
blocks it fetched (``mem.decoded.get(granule) is blocks``).  A gadget, a
fault, a page change or the end of the budget breaks the chain.

Memory accesses go through a translation cache and block fetches also
through a decode cache of blocks (both kept in
:class:`~ccxsim.memory.MachineMemory`).  A cache entry is filled only by a
successful checked access (address translation, EPCM checks, then the
protection-table check).  A translation is used only while its granule
still holds the EPCM entry it was filled with, since an EPCM update (the
one path that moves a table) stores a new entry or clears it; a granule's
blocks are dropped on any write to it.  Blocks are shared by page address
and bytes: a granule with none takes, from a bounded page memo
(``page_blocks``, :data:`BLOCK_MEMO_SIZE` pages, oldest out first), the
blocks of any granule fetched at the same page address holding the same
bytes, so a new enclave of an image, or a page swapped back in, decodes
nothing again.  A block is decoded from those bytes and its address alone,
so every granule that holds the blocks gives the same ones, and a write to
one drops only its own tie to them, never its twin's.  A miss, or an access
that crosses a page, takes the checked path, so every fault and GPF is
raised as without the caches.

There is deliberately no hook point between an enclave trap or interrupt and
the monitor: nothing at hypervisor level can observe or intercept the switch.
``EL2_HOOKS`` stays an empty, immutable tuple and the dispatch below consults
no handler registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import isa, microprograms as mp
from .isa import INSTR_SIZE, OP_ABORT, OP_GADGET, OP_HALT, OP_LOAD, OP_STORE
from .crypto import KEY_SIZE, remember
from .errors import GranuleProtectionFault, ModelError, PageAccessFault, SgxError, SgxErrorCode as E
from .memory import (
    GRANULE_SIZE,
    HOST,
    AccessContext,
    PageType,
    Perms,
    SecurityState,
    TCS_PAGE,
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
    SSA_FRAME,
    SSA_NREGS,
    SecInfo,
    SecsImage,
    SigStruct,
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

CPUID_SGX_LEAF = 0x12
CAP_SGX1 = 1 << 0
CAP_SGX2 = 1 << 1
CAP_AEXNOTIFY = 1 << 2
# Enclave ranges start at 1<<33 and must stay base-aligned, which caps the
# advertised maximum size at the base itself.
MAX_ENCLAVE_SIZE_LOG2 = 33

NO_TRACE = deque(maxlen=0)  # the machine's default trace sink, which keeps nothing

MASK64 = (1 << 64) - 1
_PAGE_MASK = GRANULE_SIZE - 1
_LAST_OFFSET = GRANULE_SIZE - INSTR_SIZE  # the last offset a whole instruction fits at


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
    last_exit: Optional[Tuple[int, int]] = None  # (reason, payload) of an AEX since entry

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


# ---------------------------------------------------------------------------
# Address resolution


def _resolve(m, vcpu, addr: int, size: int, kind: str) -> Tuple[int, int]:
    if vcpu.in_enclave and m.enclaves[vcpu.cur_eid].contains(addr, size):
        return m.memory.translate(vcpu.cur_eid, addr, size, kind)
    # Physical addressing for host code, and for enclave code reaching out
    # into untrusted memory (checked against the enclave's own table).
    granule = addr // GRANULE_SIZE
    offset = addr % GRANULE_SIZE
    if offset + size > GRANULE_SIZE:
        raise PageAccessFault(addr, "access crosses a granule boundary")
    if not 0 <= granule < m.memory.granule_count:
        raise PageAccessFault(addr, "address outside physical memory")
    return granule, offset


def _cached(mem, vcpu, addr: int, size: int, kind: str) -> Optional[int]:
    """The granule a checked access of this kind to addr's page reached, if
    that granule still holds the EPCM entry it held then, or None."""
    if (addr & _PAGE_MASK) + size > GRANULE_SIZE:
        return None
    hit = mem.tlb.get((vcpu.cur_eid, addr & ~_PAGE_MASK, kind))
    if hit is None or mem.epcm.get(hit[0]) is not hit[1]:
        return None
    return hit[0]


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


# Opcodes a block runs as one compiled run: they touch registers only, so
# they can neither fault nor change memory, and nothing can happen between
# them.  A branch that ends a block is compiled with its run.  Both sets and
# each op's source come from its row of ``isa.INSTRUCTIONS``; a branch whose
# target is its immediate can close a self-loop.
_ALU_OPS = frozenset(row.op for row in isa.INSTRUCTIONS if row.alu)
_BRANCH_OPS = frozenset(row.op for row in isa.INSTRUCTIONS if row.branch)
_LOOP_OPS = frozenset(row.op for row in isa.INSTRUCTIONS if row.branch == "{imm}")
_ROWS = {row.op: row for row in isa.INSTRUCTIONS}

BLOCK_MEMO_SIZE = 256
"""Most compiled blocks a machine's memo keeps, and most code pages its page
memo keeps; the oldest goes first.  A workload runs a few distinct blocks
over and over (the ``interp_irq`` benchmark 35 in 20,000 ops, budget-cut
prefixes included) from a few distinct code pages, and a page holds at most
256 block starts, so the bound only stops a run that executes ever new code
from growing either memo."""


def _source(template: str, instr: tuple, register: str) -> str:
    """``template`` with the decoded fields of ``instr``, each register slot
    written as ``register`` formatted with its number."""
    _, rd, rs1, rs2, imm = instr
    return template.format(rd=register.format(rd), rs1=register.format(rs1),
                           rs2=register.format(rs2), imm=imm)


def _compile(run: tuple, branch: Optional[tuple]):
    """One function of the register list that runs the ALU ops of ``run``
    and then ``branch``, if given, returning its taken target or None.

    A ``branch`` whose target is None closes a self-loop: the function takes
    ``k`` too and runs the block up to ``k`` times while the branch is
    taken, with the registers the block names in local variables, storing
    the ones its run writes back on return.  It returns the number of times
    it ran and whether the last branch was taken."""
    if branch is not None and branch[4] is None:
        return _compile_loop(run, branch)
    lines = ["def block(r):"]
    lines += ["    " + _source(_ROWS[instr[0]].alu, instr, "r[{}]") for instr in run]
    if branch is not None:
        row = _ROWS[branch[0]]
        target = _source(row.branch, branch, "r[{}]")
        if row.taken_if is None:
            lines.append(f"    return {target}")
        else:
            lines += [f"    if {_source(row.taken_if, branch, 'r[{}]')}:",
                      f"        return {target}"]
    lines.append("    return None")
    return _define("\n".join(lines))


def _registers(template: str, instr: tuple) -> set:
    """The registers ``instr`` names in the register slots ``template`` uses."""
    return {reg for slot, reg in zip(("{rd}", "{rs1}", "{rs2}"), instr[1:4]) if slot in template}


def _compile_loop(run: tuple, branch: tuple):
    """The self-loop form of :func:`_compile`; an ALU op writes its ``rd``."""
    row = _ROWS[branch[0]]
    used = _registers(row.taken_if or "", branch).union(
        *(_registers(_ROWS[instr[0]].alu, instr) for instr in run))
    store = [f"    r[{reg}] = x{reg}" for reg in sorted({instr[1] for instr in run})]
    lines = ["def block(r, k):", *(f"    x{reg} = r[{reg}]" for reg in sorted(used)),
             "    for i in range(1, k + 1):"]
    lines += ["        " + _source(_ROWS[instr[0]].alu, instr, "x{}") for instr in run]
    if row.taken_if is not None:
        lines += [f"        if not ({_source(row.taken_if, branch, 'x{}')}):",
                  *("        " + line for line in store), "            return i, False"]
    elif not run:
        lines.append("        pass")
    lines += [*store, "    return k, True"]
    return _define("\n".join(lines))


def _define(source: str):
    namespace = {"__builtins__": {"range": range}}
    exec(source, namespace)
    return namespace["block"]


def _compiled(mem, run: tuple, branch: Optional[tuple] = None):
    """The compiled ``run`` and ``branch``, from the machine's memo of at
    most :data:`BLOCK_MEMO_SIZE` functions keyed by what is compiled, so the
    same code compiles once wherever it lies."""
    memo, key = mem.compiled, (run, branch)
    return memo.get(key) or remember(memo, key, _compile(run, branch), BLOCK_MEMO_SIZE)


def _decode_block(mem, granule: int, pc: int) -> tuple:
    """The block at ``pc`` in ``granule``, as ``(code, n, branch, loop, end,
    run)``: ``run`` is the decoded ALU ops from there and ``n`` their count,
    ``end`` the decoded instruction that ends them (None if the run reaches
    the page end first), ``branch`` whether it is a branch and ``loop``
    whether that branch's constant target is ``pc``, and ``code`` the
    compiled run, with ``end`` if it is a branch.  A self-loop's branch is
    compiled and keyed with None for its target, which the loop form does
    not read, so the same loop compiles once at any address."""
    offset = pc & _PAGE_MASK
    base = granule * GRANULE_SIZE
    data = mem.data
    run = []
    end = None
    while offset + INSTR_SIZE <= GRANULE_SIZE:
        instr = isa.decode(data[base + offset : base + offset + INSTR_SIZE])
        if instr[0] not in _ALU_OPS:
            end = instr
            break
        run.append(instr)
        offset += INSTR_SIZE
    run = tuple(run)
    branch = end is not None and end[0] in _BRANCH_OPS
    loop = branch and end[0] in _LOOP_OPS and end[4] == pc
    tail = (end[:4] + (None,) if loop else end) if branch else None
    return _compiled(mem, run, tail), len(run), branch, loop, end, run


def _code_page(m, vcpu, pc: int) -> Tuple[int, dict]:
    """The granule ``pc``'s page is fetched from and that granule's blocks,
    after one checked or cached fetch at ``pc``; a granule's blocks are kept
    until something writes to it.  A granule with none takes those of any
    granule fetched at the same page address with the same bytes, from the
    page memo, so a new enclave of an image decodes nothing again."""
    mem = m.memory
    granule = _cached(mem, vcpu, pc, INSTR_SIZE, "x")
    if granule is None:
        mem_read(m, vcpu, pc, INSTR_SIZE, "x")  # the checked path fills the cache
        granule = mem.tlb[(vcpu.cur_eid, pc & ~_PAGE_MASK, "x")][0]
    blocks = mem.decoded.get(granule)
    if blocks is None:
        memo = mem.page_blocks
        key = (pc & ~_PAGE_MASK, mem.load(granule, 0, GRANULE_SIZE))
        blocks = memo.get(key)
        if blocks is None:
            blocks = remember(memo, key, {}, BLOCK_MEMO_SIZE)
        mem.decoded[granule] = blocks
    return granule, blocks


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
    if entry is None or entry.page_type != TCS_PAGE:
        raise SgxError(E.PAGE_INVALID, f"granule {tcs_granule} is not a TCS page")
    if entry.blocked:
        raise SgxError(E.PAGE_INVALID, "TCS page is blocked")
    secs = m.enclaves[entry.owner]
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
    vcpu.last_exit = None  # an exit record lives from its AEX to the next entry


def _switch_out(vcpu) -> None:
    vcpu.cur_eid = None
    vcpu.cur_tcs = None
    vcpu.entry_epoch = None


def _entry_frame(m, secs, tcs, index: int) -> int:
    """Check each save-state frame the entry needs as an enclave store to it:
    frame ``index``, or all for an AEX-Notify thread, whose handler can exit
    into the next.  The first that is missing, blocked, pending, mid type
    change or not writable faults, naming its page, before the leaf changes
    anything; the host reloads it and retries.  Returns frame ``index``'s granule."""
    for i in range(tcs.nssa) if tcs.aexnotify else (index,):
        vaddr = ssa_frame_vaddr(secs, tcs, i)
        granule, _ = m.memory.translate(secs.eid, vaddr, SSA_FRAME.size, "w")
        if i == index:
            found = granule
    return found


def eenter(m, vcpu, tcs_granule: int, aep: int) -> None:
    secs, tcs = _tcs_for_entry(m, tcs_granule)
    if tcs.cssa >= tcs.nssa:
        raise SgxError(E.CSSA_FULL, "no free save-state slot")
    _entry_frame(m, secs, tcs, tcs.cssa)  # the one the next AEX writes
    # Host registers flow into the enclave (unified-state emulation); x0
    # reports the current save-state index so entry code can tell a fresh
    # call from exception/notify handling.
    _switch_in(vcpu, secs, tcs, tcs_granule, aep, secs.base + tcs.oentry)
    vcpu.regs[0] = tcs.cssa


def eexit(m, vcpu, target: int) -> None:
    _switch_out(vcpu)
    # Registers are deliberately not scrubbed here: clearing on a synchronous
    # exit is the in-enclave runtime's job.
    vcpu.pc = target


def eresume(m, vcpu, tcs_granule: int, aep: int) -> None:
    """Resume the frame at cssa - 1.  On an AEX-Notify thread a resume of
    frame 0 (cssa 1) delivers a notification instead: it enters the notify
    handler at cssa 1, which restores the context itself and retires the
    frame by EDECCSSA.  A deeper frame is the handler's own, which SGX saves
    with no notify bit, so it resumes as a plain thread's does."""
    secs, tcs = _tcs_for_entry(m, tcs_granule)
    if tcs.cssa == 0:
        raise SgxError(E.NO_SAVED_STATE, "no interrupted context to resume")
    granule = _entry_frame(m, secs, tcs, tcs.cssa - 1)  # the one it reads back

    if tcs.aexnotify and tcs.cssa == 1:
        _switch_in(vcpu, secs, tcs, tcs_granule, aep, secs.base + tcs.oentry)
        vcpu.regs[0] = tcs.cssa
        return

    regs = list(SSA_FRAME.unpack_from(m.memory.data, granule * GRANULE_SIZE))
    m.store_cssa(tcs_granule, tcs.cssa - 1)
    _switch_in(vcpu, secs, tcs, tcs_granule, aep, regs[SSA_NREGS])
    vcpu.pstate, vcpu.tpidr = regs[SSA_NREGS + 1 : SSA_NREGS + 3]
    del regs[SSA_NREGS:]
    vcpu.regs = regs


def ssa_frame_vaddr(secs, tcs, index: int) -> int:
    return secs.base + tcs.ossa + index * secs.ssa_frame_size * GRANULE_SIZE


def aex(m, vcpu, reason: int, payload: int = 0) -> None:
    """Asynchronous enclave exit: save context, scrub, return to the host."""
    if vcpu.cur_eid is None:
        raise ModelError("AEX outside enclave mode")
    secs = m.enclaves[vcpu.cur_eid]
    tcs_granule = vcpu.cur_tcs
    tcs = m.read_tcs(tcs_granule)

    granule = None
    if tcs.cssa < tcs.nssa:
        frame_vaddr = ssa_frame_vaddr(secs, tcs, tcs.cssa)
        granule = m.memory.find_page(secs.eid, frame_vaddr)
    fatal = granule is None
    if fatal:
        secs.crashed = True
    else:
        m.memory.store(granule, frame_vaddr & _PAGE_MASK, SSA_FRAME.pack(
            *vcpu.regs, vcpu.pc, vcpu.pstate, vcpu.tpidr, reason, payload))
        m.store_cssa(tcs_granule, tcs.cssa + 1)

    _switch_out(vcpu)
    # Synthetic register state: everything scrubbed, then just enough for the
    # host trampoline to resume (leaf, TCS, async exit pointer).
    vcpu.regs = [SCRUB_PATTERN, LEAF_ERESUME, tcs_granule, vcpu.aep] + [SCRUB_PATTERN] * 28
    vcpu.pstate = 0
    vcpu.tpidr = SCRUB_PATTERN
    vcpu.pc = vcpu.aep
    # SGX tells the host a page fault's page; the frame and trace keep the address.
    vcpu.last_exit = (reason, payload & ~_PAGE_MASK if reason == EXIT_PAGEFAULT else payload)
    if m.trace is not NO_TRACE:
        m.trace_event("aex", vcpu=vcpu.id, eid=secs.eid,
                      reason=EXIT_REASON_NAMES.get(reason, str(reason)), payload=payload,
                      path="trampoline->el3->host", fatal=fatal)


def inject_interrupt(m, vcpu) -> None:
    """Deliver an interrupt to `vcpu`.  In an enclave it forces an
    asynchronous exit; in host mode the host takes it at once and nothing
    changes: no register, no exit record, no trace record."""
    if vcpu.cur_eid is not None:
        aex(m, vcpu, EXIT_IRQ)


# ---------------------------------------------------------------------------
# The leaves: one row per leaf, with its register ABI for the trap gadget
#
# A kind turns one guest register word into leaf arguments, or refuses it with
# an SgxError, so a word the leaf cannot accept reaches the guest as a code in
# x0 and never as a simulator error.  An enclave address that does not
# translate as the enclave's own access would raises PageAccessFault instead:
# the leaf has not run, and the pump's AEX and ERESUME run it again.  A kind
# returns one positional argument, or a dict of keyword arguments where a word
# does not give one argument in register order: a PAGEINFO gives several, a
# version-slot address two, the page a load leaf fills one by name, and an
# output address, which the result slot checks, none.


def _word(m, vcpu, word: int) -> int:
    return word


def _granule(m, vcpu, word: int) -> int:
    if not 0 <= word < m.memory.granule_count:
        raise SgxError(E.PAGE_INVALID, f"granule {word} is outside physical memory")
    return word


def _own_page(m, vcpu, vaddr: int) -> int:
    granule = m.memory.find_page(vcpu.cur_eid, vaddr)
    if granule is None:
        raise PageAccessFault(vaddr, "no page mapped")
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
        granule, offset = m.memory.translate(vcpu.cur_eid, addr, size, "r")
        return unpack(m.memory.load(granule, offset, size))
    return read


def _host_struct(m, addr: int, size: int) -> Tuple[int, int]:
    """Granule and offset of the ``size``-byte host structure at physical
    ``addr``.  One outside memory, crossing its granule's end, or in a granule
    the normal world cannot reach fails the leaf before it runs, and is no
    protection fault; the leaf then reads and writes it unchecked."""
    granule, offset = divmod(addr, GRANULE_SIZE)
    if not (0 <= granule < m.memory.granule_count and offset + size <= GRANULE_SIZE
            and m.memory.check_access(SecurityState.NORMAL, granule, None)):
        raise SgxError(E.BAD_VADDR, f"no {size}-byte host structure at {addr:#x}")
    return granule, offset


def _host_read(m, addr: int, size: int) -> bytes:
    return m.memory.load(*_host_struct(m, addr, size), size)


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
        granule, offset = m.memory.translate(vcpu.cur_eid, words[reg - 2], size, "w")

        def store(result) -> None:
            m.memory.store(granule, offset, pack(result))
        return store
    return prepare


def _swap_out(m, vcpu, words):
    """Result slot of EWB: the sealed page goes to SRCPGE and the PCMD image
    to the PCMD address of the PAGEINFO at x2."""
    info = _pageinfo(m, words[0])
    page_at = _host_struct(m, info.srcpge, GRANULE_SIZE)
    pcmd_at = _host_struct(m, info.secinfo, PCMD_SIZE)

    def store(blob) -> None:
        m.memory.store(*page_at, blob.ciphertext)
        m.memory.store(*pcmd_at, blob.pcmd.pack())
    return store


@dataclass(frozen=True, slots=True)  # slots: the dispatch reads a row per leaf
class Leaf:
    """One leaf's one row: its name, its handler, which takes the machine
    first and an ENCLU leaf's executing vcpu next, the kinds of x2, x3, x4 in
    order, its result slot, its base cost and the cost factors
    (``Config.cost_factors``) it pays on top, once per name listed, in
    abstract units of relative expense, and the ENCLU mode rule: true for a
    leaf that runs in host mode, false for one that runs in an enclave."""

    name: str
    handler: Callable
    kinds: tuple
    slot: object
    cost: int
    charges: tuple = ()
    host_mode: bool = False


# Service id -> leaf number -> row.
LEAVES: Dict[int, Dict[int, Leaf]] = {
    SMC_ID_ENCLS: {
        0x0: Leaf("ECREATE", mp.ecreate, (_ecreate_info, _granule), _x1(),  # PAGEINFO, SECS page
                  40, ("gpt_per_granule",)),
        0x1: Leaf("EADD", mp.eadd, (_eadd_info, _target), None,  # PAGEINFO, page
                  6, ("hash_block",)),
        0x2: Leaf("EINIT", mp.einit, (_word, _sigstruct_at), None,  # eid, SIGSTRUCT address
                  30, ("sig_verify",)),
        0x3: Leaf("EREMOVE", mp.eremove, (_granule,), None, 3),
        0x4: Leaf("EDBGRD", mp.edbgrd, (_granule, _word),  # page, offset
                  _x1(lambda data: int.from_bytes(data, "little")), 5),
        0x5: Leaf("EDBGWR", mp.edbgwr, (_granule, _word, _value8), None, 5),  # page, offset, value
        # eid, chunk vaddr; its one packed input is five measurement blocks
        0x6: Leaf("EEXTEND", mp.eextend, (_word, _word), None, 4, ("hash_block",) * 5),
        0x7: Leaf("ELDB", mp.eldb, (_eld_info, _target, _va_slot), None,  # PAGEINFO, page, slot
                  40, ("aead_page",)),
        0x8: Leaf("ELDU", mp.eldu, (_eld_info, _target, _va_slot), None,  # as ELDB
                  40, ("aead_page",)),
        0x9: Leaf("EBLOCK", mp.eblock, (_granule,), None, 4),
        0xA: Leaf("EPA", mp.epa, (_granule,), None, 20),
        0xB: Leaf("EWB", mp.ewb, (_output, _granule, _va_slot), _swap_out,  # PAGEINFO, page, slot
                  44, ("aead_page",)),
        0xC: Leaf("ETRACK", mp.etrack, (_word,), None, 2),  # eid
        0xD: Leaf("EAUG", mp.eaug, (_word, _word, _granule), None, 24),  # eid, vaddr, page
        0xE: Leaf("EMODPR", mp.emodpr, (_granule, _perms), None, 6),
        0xF: Leaf("EMODT", mp.emodt, (_granule, _page_type), None, 4),
    },
    SMC_ID_ENCLU: {
        0x0: Leaf("EREPORT", mp.ereport,
                  (_buffer(TARGETINFO_SIZE, TargetInfo.unpack), _buffer(64)),
                  _buffer_at(4, REPORT_SIZE, Report.to_bytes), 12, ("kdf", "mac")),
        0x1: Leaf("EGETKEY", mp.egetkey, (_buffer(KEYREQUEST_SIZE, KeyRequest.unpack),),
                  _buffer_at(3, KEY_SIZE), 8, ("kdf",)),
        0x2: Leaf("EENTER", eenter, (_granule, _word), _SWITCH, 14,  # TCS, async exit pointer
                  host_mode=True),
        0x3: Leaf("ERESUME", eresume, (_granule, _word), _SWITCH, 13, host_mode=True),  # as EENTER
        0x4: Leaf("EEXIT", eexit, (_word,), _SWITCH, 2),  # target
        0x5: Leaf("EACCEPT", mp.eaccept, (_own_page, _secinfo), None, 6),
        0x6: Leaf("EMODPE", mp.emodpe, (_own_page, _perms), None, 6),
        0x7: Leaf("EACCEPTCOPY", mp.eacceptcopy,  # page, source vaddr, secinfo
                  (_own_page, _word, _secinfo), None, 28),
        0x9: Leaf("EDECCSSA", mp.edeccssa, (), None, 4),
    },
}
# Leaf name -> (service id, leaf number).
LEAF_NUMBERS: Dict[str, Tuple[int, int]] = {
    row.name: (service, num) for service, rows in LEAVES.items() for num, row in rows.items()}
# What AEX leaves in x1 for the host trampoline to resume with.
LEAF_ERESUME = LEAF_NUMBERS["ERESUME"][1]


def run_trapped(m, row: Leaf, vcpu, words: tuple, args: tuple):
    """Run ``row``'s leaf for ``vcpu``'s trap once the dispatch has counted it
    and checked its mode: decode the words x2..x4 by the row's kinds after
    ``args`` (the ENCLU vcpu, or none), check the result slot, run the
    handler, store its result and clear x0.  A context switch sets the
    registers itself, x0 included."""
    named = {}
    for kind, word in zip(row.kinds, words):
        value = kind(m, vcpu, word)
        if type(value) is dict:
            named.update(value)
        else:
            args += (value,)
    slot = row.slot
    if slot is _SWITCH:
        return row.handler(m, *args, **named)
    store = None if slot is None else slot(m, vcpu, words)
    result = row.handler(m, *args, **named)
    if store is not None:
        store(result)
    vcpu.regs[0] = 0
    return result


def gadget_trap(m, vcpu, frame: TrapFrame) -> None:
    """Route one trapped gadget execution to the machine's dispatch, with the
    core and its words x2..x4; raises SgxError on refusal."""
    assert not EL2_HOOKS  # nothing may interpose between the trap and us
    if frame.smc_id == SMC_ID_CPUID:
        words = cpuid_emulate(m, frame.leaf, frame.arg2)
        vcpu.regs[0:4] = [w & MASK64 for w in words]
        return
    words = (frame.arg1, frame.arg2, frame.arg3)
    if frame.smc_id == SMC_ID_ENCLU:
        m.enclu(vcpu, frame.leaf, words=words)
    elif frame.smc_id == SMC_ID_ENCLS:
        if vcpu.in_enclave:
            raise SgxError(E.INVALID_SERVICE, "ENCLS service is host-privileged")
        m.encls(frame.leaf, core=vcpu, words=words)
    else:
        raise SgxError(E.INVALID_SERVICE, f"unknown service id {frame.smc_id:#x}")


# ---------------------------------------------------------------------------
# Instruction pump

_DISPATCH_FAULTS = (E.INVALID_LEAF, E.INVALID_SERVICE, E.INVALID_MODE)


def _stopped(vcpu, executed: int, kind: str, **details) -> RunReport:
    """The report of a run that a fault stops."""
    return RunReport("fault", executed, {"step": executed, "vcpu": vcpu.id, "kind": kind, **details})


def step(m, vcpu, max_steps: int) -> RunReport:
    """Run the loaded fixture program for up to `max_steps` instructions.

    Stops on halt or abort (``vcpu.pc`` stays on it), a host-mode fault, whose
    details the report keeps, or exhaustion, which may come inside a block
    and leaves ``vcpu.pc`` on the next instruction.  A fault in enclave mode,
    an ENCLU leaf operand's too, becomes an asynchronous exit that saves the
    faulting pc, and execution continues at the host's async exit pointer
    (typically a halt gate): the trace shows the fault, then the exit.  After a
    branch, load or store, the next block on the same page chains without a
    fetch, and a self-loop runs its whole turns in one call (module docstring).
    """
    mem = m.memory
    executed = 0
    while executed < max_steps:
        pc = vcpu.pc
        fetching = True
        try:
            granule, blocks = _code_page(m, vcpu, pc)
            fetching = False
            regs = vcpu.regs
            page = pc & ~_PAGE_MASK
            while True:  # this block, then each successor on the same page
                block = blocks.get(pc)
                if block is None:
                    block = blocks[pc] = _decode_block(mem, granule, pc)
                code, n, branch, loop, end, run = block
                if n >= max_steps - executed:  # the budget ends in the ALU run
                    room = max_steps - executed
                    _compiled(mem, run[:room])(regs)
                    vcpu.pc = (pc + room * INSTR_SIZE) & MASK64
                    return RunReport("limit", max_steps)
                if branch:
                    if loop:  # as many whole turns as the budget holds
                        turns, taken = code(regs, (max_steps - executed) // (n + 1))
                        executed += turns * (n + 1)
                        target = pc if taken else None
                    else:
                        target = code(regs)
                        executed += n + 1
                    if target is None:
                        target = (pc + (n + 1) * INSTR_SIZE) & MASK64
                    if executed < max_steps and 0 <= target - page <= _LAST_OFFSET:
                        pc = target
                        continue
                    vcpu.pc = target
                    break
                code(regs)
                executed += n
                pc = vcpu.pc = (pc + n * INSTR_SIZE) & MASK64
                if end is None:
                    break  # the next instruction is on another page
                op, rd, rs1, rs2, imm = end
                executed += 1
                next_pc = (pc + INSTR_SIZE) & MASK64
                if op == OP_LOAD or op == OP_STORE:
                    addr = (regs[rs1] + imm) & MASK64
                    if op == OP_LOAD:
                        regs[rd] = int.from_bytes(mem_read(m, vcpu, addr, 8), "little")
                    else:
                        mem_write(m, vcpu, addr, regs[rs2].to_bytes(8, "little"))
                    # A store to this granule drops the blocks it holds.
                    if (executed < max_steps and 0 <= next_pc - page <= _LAST_OFFSET
                            and mem.decoded.get(granule) is blocks):
                        pc = next_pc
                        continue
                    vcpu.pc = next_pc
                    break
                if op == OP_HALT:
                    return RunReport("halt", executed)
                if op == OP_ABORT:
                    return RunReport("abort", executed)
                if op == OP_GADGET:
                    vcpu.pc = next_pc  # trap returns past the gadget
                    try:
                        gadget_trap(m, vcpu, TrapFrame(*regs[:5]))
                    except SgxError as err:
                        if err.code in _DISPATCH_FAULTS:
                            return _stopped(vcpu, executed, "dispatch_fault",
                                            code=err.code.name, detail=err.detail)
                        vcpu.regs[0] = int(err.code)
                    except PageAccessFault:
                        vcpu.pc = pc  # an operand faulted: the leaf runs again on resume
                        raise
                    break
                if op == isa.OP_ILLEGAL:  # rd holds the opcode byte, rs1 the register
                    return _stopped(vcpu, executed, "bad_opcode", op=rd, reg=rs1, pc=pc)
                return _stopped(vcpu, executed, "bad_opcode", op=op, pc=pc)  # an undefined opcode
        except (GranuleProtectionFault, PageAccessFault) as exc:
            gpf = isinstance(exc, GranuleProtectionFault)
            addr = (pc if fetching else (vcpu.regs[rs1] + imm) & MASK64) if gpf else exc.vaddr
            if m.trace is not NO_TRACE or vcpu.cur_eid is None:
                at = {"at": "fetch"} if fetching else {}
                if gpf:
                    kind, details = "gpf", {"granule": exc.granule, "accessor": exc.accessor.name,
                                            "pas": exc.pas.name, **at, "addr": addr}
                else:
                    kind, details = "pagefault", {"addr": addr, "why": exc.why, **at}
                m.trace_event(kind, vcpu=vcpu.id, **details)
                if vcpu.cur_eid is None:
                    return _stopped(vcpu, executed, kind, **details)
            aex(m, vcpu, EXIT_GPF if gpf else EXIT_PAGEFAULT, addr)

    return RunReport("limit", executed)
