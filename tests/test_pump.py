"""The instruction pump against a one-instruction-at-a-time reference, the
memo of compiled blocks, and instructions the decoder refuses."""

import pytest
from hypothesis import given, settings, strategies as st

from ccxsim import execution, isa
from ccxsim.isa import (
    OP_ABORT, OP_ADD, OP_ADDI, OP_BNZ, OP_HALT, OP_JMP, OP_JMPR, OP_LOAD, OP_MOVI, OP_MUL,
    OP_STORE, OP_XOR,
)
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE

from helpers import small_config
from oracles import reference_run

MASK64 = (1 << 64) - 1
CODE_GRANULE = 4  # programs start in this granule and may run into the next two


def _machine():
    return Machine(small_config(mode="ccx"))


def _load(m, origin: int, image: bytes) -> None:
    """Write ``image`` at physical ``origin``, one granule at a time."""
    at = 0
    while at < len(image):
        g, off = divmod(origin + at, GRANULE_SIZE)
        chunk = image[at : at + GRANULE_SIZE - off]
        m.host_write(g, off, chunk)
        at += len(chunk)


def _observe(vcpu, report):
    stop = report.fault["kind"] if report.stop == "fault" else report.stop
    return stop, report.steps, list(vcpu.regs), vcpu.pc


# ---------------------------------------------------------------------------
# Differential: the pump against the reference interpreter

REG = st.integers(0, 31)
WORD = st.one_of(st.integers(0, 64), st.integers(MASK64 - 64, MASK64), st.integers(0, MASK64))
ADDI_IMM = st.one_of(st.integers(-64, 64).map(lambda v: v & MASK64), WORD)
TARGET = st.integers(0, 1 << 16)  # an instruction index, taken modulo the program length

# A slot is one or more instructions (op, rd, rs1, rs2, imm); a branch target
# is ("@", index) until the program is laid out.  Every op the pump compiles
# has its strategy here, by opcode (the guard below checks that).
ALU_FIELDS = {  # opcode -> strategies of rd, rs1, rs2, imm
    OP_MOVI: (REG, st.just(0), st.just(0), WORD),
    OP_ADD: (REG, REG, REG, st.just(0)),
    OP_XOR: (REG, REG, REG, st.just(0)),
    OP_MUL: (REG, REG, REG, st.just(0)),
    OP_ADDI: (REG, REG, st.just(0), ADDI_IMM),
}
ALU = st.one_of(*(st.tuples(st.just(op), *fields) for op, fields in ALU_FIELDS.items()))
BRANCH_SLOTS = {  # opcode -> slots that end in that branch
    OP_BNZ: st.tuples(st.just(OP_BNZ), st.just(0), REG, st.just(0),
                      TARGET.map(lambda t: ("@", t))).map(lambda i: [i]),
    OP_JMP: TARGET.map(lambda t: [(OP_JMP, 0, 0, 0, ("@", t))]),
    # jmpr through a register just loaded with a label's address
    OP_JMPR: st.tuples(REG, TARGET).map(lambda a: [(OP_MOVI, a[0], 0, 0, ("@", a[1])),
                                                   (OP_JMPR, 0, a[0], 0, 0)]),
}
SLOTS = st.one_of(
    ALU.map(lambda i: [i]),
    *BRANCH_SLOTS.values(),
    # a counted same-page loop around a short ALU body: the back edge is
    # relative, ("loop", k) naming the instruction k back
    st.tuples(REG, st.integers(1, 12), st.lists(ALU, max_size=4)).map(
        lambda a: [(OP_MOVI, a[0], 0, 0, a[1]), *a[2], (OP_ADDI, a[0], a[0], 0, MASK64),
                   (OP_BNZ, 0, a[0], 0, ("loop", len(a[2]) + 1))]),
    st.sampled_from([[(OP_HALT, 0, 0, 0, 0)], [(OP_ABORT, 0, 0, 0, 0)]]),
    # refused: a register above 31 in a used field, or an undefined opcode
    st.sampled_from([[(OP_MOVI, 200, 0, 0, 5)], [(OP_ADD, 1, 2, 40, 0)],
                     [(OP_ADDI, 3, 32, 0, 1)], [(OP_BNZ, 0, 99, 0, 0)],
                     [(OP_JMPR, 0, 255, 0, 0)], [(0x0D, 0, 0, 0, 0)], [(0xFF, 0, 0, 0, 0)]]),
)
PROGRAMS = st.lists(st.one_of(ALU.map(lambda i: [i]), SLOTS), min_size=1, max_size=40)
REGS = st.lists(WORD, min_size=32, max_size=32)
FULL_BUDGET = 60


def _lay_out(slots, origin: int) -> bytes:
    flat = [instr for slot in slots for instr in slot]
    out = []
    for at, (op, rd, rs1, rs2, imm) in enumerate(flat):
        if isinstance(imm, tuple):
            kind, n = imm
            index = at - n if kind == "loop" else n % (len(flat) + 1)
            imm = origin + index * isa.INSTR_SIZE
        out.append(isa.encode(op, rd, rs1, rs2, imm))
    return b"".join(out)


@settings(max_examples=80, deadline=None)
@given(slots=PROGRAMS, regs=REGS, before_page_end=st.integers(0, 24),
       chunks=st.lists(st.integers(1, 40), min_size=1, max_size=12))
def test_pump_equals_the_reference_at_every_budget(slots, regs, before_page_end, chunks):
    """Each budget from 1 on, from the same start, ends where the reference
    does; so does a run made in chunks.  Programs start ``before_page_end``
    instructions before a page end, so blocks and jumps cross pages."""
    m = _machine()
    origin = (CODE_GRANULE + 1) * GRANULE_SIZE - before_page_end * isa.INSTR_SIZE
    image = _lay_out(slots, origin)
    _load(m, origin, image)
    size = m.memory.granule_count * GRANULE_SIZE
    vcpu = m.vcpus[0]
    for budget in range(1, FULL_BUDGET + 1):
        vcpu.regs, vcpu.pc = list(regs), origin
        got = _observe(vcpu, m.step(vcpu, budget))
        assert got == reference_run(image, origin, regs, origin, budget, size), budget
        if got[0] != "limit":
            break

    vcpu.regs, vcpu.pc = list(regs), origin
    ref_regs, ref_pc = list(regs), origin
    for chunk in chunks:
        got = _observe(vcpu, m.step(vcpu, chunk))
        want = reference_run(image, origin, ref_regs, ref_pc, chunk, size)
        assert got == want
        if got[0] != "limit":
            break
        _, _, ref_regs, ref_pc = want


def test_the_differential_draws_every_op_the_pump_compiles():
    """A row of ``isa.INSTRUCTIONS`` with ALU or branch source needs its
    semantics in ``oracles.reference_run`` and a strategy above."""
    compiled = {row.mnemonic for row in isa.INSTRUCTIONS if row.alu or row.branch}
    drawn = {isa.OP_NAMES[op] for op in (*ALU_FIELDS, *BRANCH_SLOTS)}
    assert not compiled - drawn, f"no differential strategy for {sorted(compiled - drawn)}"
    assert not drawn - compiled, f"drawn but not compiled: {sorted(drawn - compiled)}"


# ---------------------------------------------------------------------------
# Refused register fields


@pytest.mark.parametrize("op, rd, rs1, rs2", [
    (OP_MOVI, 200, 0, 0), (OP_ADD, 1, 2, 32), (OP_ADDI, 3, 255, 0), (OP_XOR, 40, 1, 1),
    (OP_MUL, 1, 90, 2), (OP_LOAD, 33, 1, 0), (OP_STORE, 0, 1, 64), (OP_BNZ, 0, 32, 0),
    (OP_JMPR, 0, 100, 0),
])
def test_a_register_above_31_in_a_used_field_stops_with_bad_opcode(op, rd, rs1, rs2):
    m = _machine()
    pc = CODE_GRANULE * GRANULE_SIZE
    _load(m, pc, isa.encode(OP_MOVI, rd=3, imm=7) + isa.encode(op, rd, rs1, rs2, 5))
    vcpu = m.vcpus[0]
    vcpu.pc = pc
    report = m.step(vcpu, 10)
    assert (report.stop, report.steps, vcpu.pc, vcpu.regs[3]) == ("fault", 2, pc + 16, 7)
    # The fault names the opcode byte and the one register above 31.
    reg = max(rd, rs1, rs2)
    assert report.fault == {"step": 2, "vcpu": 0, "kind": "bad_opcode", "op": op, "reg": reg,
                            "pc": pc + 16}


def test_a_refused_instruction_decodes_to_its_opcode_and_first_refused_register():
    assert isa.decode(isa.encode(OP_ADD, 40, 50, 1, 9)) == (isa.OP_ILLEGAL, OP_ADD, 40, 0, 0)
    assert isa.decode(isa.encode(OP_STORE, 99, 7, 64, 9)) == (isa.OP_ILLEGAL, OP_STORE, 64, 0, 0)


def test_fields_an_opcode_does_not_use_may_hold_anything():
    m = _machine()
    pc = CODE_GRANULE * GRANULE_SIZE
    _load(m, pc, b"".join([
        isa.encode(OP_MOVI, rd=3, rs1=200, rs2=255, imm=7),
        isa.encode(OP_JMP, rd=99, rs1=99, rs2=99, imm=pc + 48),
        isa.encode(OP_ABORT),
        isa.encode(OP_HALT, rd=255, rs1=255, rs2=255),
    ]))
    vcpu = m.vcpus[0]
    vcpu.pc = pc
    report = m.step(vcpu, 10)
    assert (report.stop, report.steps, vcpu.pc, vcpu.regs[3]) == ("halt", 3, pc + 48, 7)


# ---------------------------------------------------------------------------
# The memo of compiled blocks


def test_more_distinct_blocks_than_the_bound_leave_the_memo_at_its_bound():
    """Each block is a movi of its own value and a jmp to the next block, so
    every block compiles; the memo keeps the newest ``BLOCK_MEMO_SIZE``."""
    blocks = execution.BLOCK_MEMO_SIZE + 20
    m = _machine()
    origin = CODE_GRANULE * GRANULE_SIZE
    program = []
    for i in range(blocks):
        program += [("movi", 3, i), ("jmp", origin + (2 * i + 2) * isa.INSTR_SIZE)]
    _load(m, origin, isa.assemble(program + [("halt",)], origin=origin))
    vcpu = m.vcpus[0]
    vcpu.pc = origin
    report = m.step(vcpu, 10 * blocks)
    assert (report.stop, report.steps, vcpu.regs[3]) == ("halt", 2 * blocks + 1, blocks - 1)
    memo = m.memory.compiled
    assert len(memo) == execution.BLOCK_MEMO_SIZE
    first = isa.decode(isa.encode(OP_MOVI, rd=3, imm=0))
    assert not any(run == (first,) for run, _ in memo)  # the oldest went first


def test_the_same_code_in_another_granule_compiles_nothing(monkeypatch):
    """Straight-line code decodes to the same instructions wherever it lies,
    so a second copy takes every function from the memo."""
    m = _machine()
    code = isa.assemble([("movi", 3, 5), ("addi", 3, 3, -1), ("mul", 4, 3, 3), ("halt",)])
    compiled = []
    compile_block = execution._compile
    monkeypatch.setattr(execution, "_compile",
                        lambda *args: compiled.append(args) or compile_block(*args))
    vcpu = m.vcpus[0]
    for g in (CODE_GRANULE, CODE_GRANULE + 7):
        m.host_write(g, 0, code)
        for budget in (1, 2, 3, 10):
            vcpu.pc = g * GRANULE_SIZE
            m.step(vcpu, budget)
        if g == CODE_GRANULE:
            first = len(compiled)
    assert first > 0 and len(compiled) == first
    assert vcpu.regs[4] == 16
