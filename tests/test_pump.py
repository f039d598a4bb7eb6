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


def _assert_matches_reference(m, image, origin, regs, budgets, chunks):
    """Each budget from 1 to ``budgets``, from the same start, ends where the
    reference does, until a run stops; so does a run made in ``chunks``."""
    size = m.memory.granule_count * GRANULE_SIZE
    vcpu = m.vcpus[0]
    for budget in range(1, budgets + 1):
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


@settings(max_examples=80, deadline=None)
@given(slots=PROGRAMS, regs=REGS, before_page_end=st.integers(0, 24),
       chunks=st.lists(st.integers(1, 40), min_size=1, max_size=12))
def test_pump_equals_the_reference_at_every_budget(slots, regs, before_page_end, chunks):
    """Programs start ``before_page_end`` instructions before a page end, so
    blocks and jumps cross pages."""
    m = _machine()
    origin = (CODE_GRANULE + 1) * GRANULE_SIZE - before_page_end * isa.INSTR_SIZE
    image = _lay_out(slots, origin)
    _load(m, origin, image)
    _assert_matches_reference(m, image, origin, regs, FULL_BUDGET, chunks)


def test_the_differential_draws_every_op_the_pump_compiles():
    """A row of ``isa.INSTRUCTIONS`` with ALU or branch source needs its
    semantics in ``oracles.reference_run`` and a strategy above."""
    compiled = {row.mnemonic for row in isa.INSTRUCTIONS if row.alu or row.branch}
    drawn = {isa.OP_NAMES[op] for op in (*ALU_FIELDS, *BRANCH_SLOTS)}
    assert not compiled - drawn, f"no differential strategy for {sorted(compiled - drawn)}"
    assert not drawn - compiled, f"drawn but not compiled: {sorted(drawn - compiled)}"


# ---------------------------------------------------------------------------
# Self-loops: blocks whose bnz or jmp goes back to their own start

LOOP_CHUNKS = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1000]
ORIGIN = CODE_GRANULE * GRANULE_SIZE
PAGE_END = (CODE_GRANULE + 1) * GRANULE_SIZE
SPREAD = [(i * 0x9E3779B97F4A7C15) & MASK64 for i in range(32)]


def _is_loop(branch) -> bool:
    """Whether a compiled ``branch`` closes a self-loop, whose target the
    memo keys as None."""
    return branch is not None and branch[4] is None


def _counting_compiles(monkeypatch):
    """The ``(run, branch)`` of each block compiled from here on, and the
    ``k`` of each call of a compiled self-loop."""
    compiled, loop_calls = [], []
    compile_block = execution._compile

    def counting(run, branch):
        compiled.append((run, branch))
        code = compile_block(run, branch)
        if not _is_loop(branch):
            return code

        def loop(r, k):
            loop_calls.append(k)
            return code(r, k)
        return loop

    monkeypatch.setattr(execution, "_compile", counting)
    return compiled, loop_calls


def _regs(x1):
    """Spread register values, with ``x1`` as given and 3 in x31, the turns
    of the 32-register loop."""
    return [SPREAD[0], x1, *SPREAD[2:31], 3]


# name -> (program, its origin, x1 values to start from)
LOOPS = {
    "jmp to itself": ([("jmp", ORIGIN)], ORIGIN, [0]),
    "bnz to itself, no body": ([("bnz", 1, ORIGIN), ("halt",)], ORIGIN, [0, 5]),
    "body writes the branch register": (
        [("addi", 1, 1, -1), ("mul", 2, 2, 1), ("bnz", 1, ORIGIN), ("halt",)], ORIGIN, [7, 0, 1]),
    "branch register toggles": (
        [("movi", 2, 1), ("xor", 1, 1, 2), ("bnz", 1, ORIGIN), ("abort",)], ORIGIN, [0, 1]),
    "all 32 registers": (
        [(("add", "xor", "mul")[i % 3], i, i, (i + 1) % 31) for i in range(31)]
        + [("addi", 31, 31, -1), ("bnz", 31, ORIGIN), ("halt",)], ORIGIN, [0]),
    "bnz at the last slot of a page": (
        [("bnz", 1, PAGE_END - 16)], PAGE_END - 16, [0, 3]),
    "body ending at the last slot of a page": (
        [("addi", 1, 1, -1), ("xor", 2, 2, 1), ("bnz", 1, PAGE_END - 48)], PAGE_END - 48,
        [4, 0]),
}


@pytest.mark.parametrize("case", sorted(LOOPS))
def test_a_self_loop_equals_the_reference_at_every_budget(case, monkeypatch):
    program, origin, starts = LOOPS[case]
    compiled, _ = _counting_compiles(monkeypatch)
    image = isa.assemble(program, origin=origin)
    for x1 in starts:
        m = _machine()
        _load(m, origin, image)
        _assert_matches_reference(m, image, origin, _regs(x1), 120, LOOP_CHUNKS)
    assert any(_is_loop(branch) for _, branch in compiled)


def test_a_jump_to_itself_runs_to_the_budget_in_one_call(monkeypatch):
    m = _machine()
    _, loop_calls = _counting_compiles(monkeypatch)
    _load(m, ORIGIN, isa.assemble([("jmp", ORIGIN)], origin=ORIGIN))
    vcpu = m.vcpus[0]
    vcpu.pc = ORIGIN
    report = m.step(vcpu, 100_000)
    assert (report.stop, report.steps, vcpu.pc) == ("limit", 100_000, ORIGIN)
    assert loop_calls == [100_000]


def test_the_same_loop_bytes_where_the_target_is_not_the_block_start_do_not_loop(monkeypatch):
    """The bytes of a loop at ORIGIN, copied 64 bytes on, branch back to
    ORIGIN from a block that starts elsewhere: there they compile as a plain
    block, and the copy at ORIGIN as a loop."""
    m = _machine()
    compiled, loop_calls = _counting_compiles(monkeypatch)
    loop = isa.assemble([("addi", 1, 1, -1), ("bnz", 1, ORIGIN)], origin=ORIGIN)
    image = loop + bytes(32) + loop
    _load(m, ORIGIN, image)
    copy = ORIGIN + 64
    regs = _regs(6)
    size = m.memory.granule_count * GRANULE_SIZE
    vcpu = m.vcpus[0]
    vcpu.regs, vcpu.pc = list(regs), copy
    assert _observe(vcpu, m.step(vcpu, 100)) == reference_run(image, ORIGIN, regs, copy, 100, size)
    addi = isa.decode(loop[:16])
    bnz = isa.decode(loop[16:])
    assert compiled == [((addi,), bnz), ((addi,), bnz[:4] + (None,)), ((), None)]
    assert len(loop_calls) == 1


def test_a_thousand_turn_loop_compiles_once(monkeypatch):
    m = _machine()
    compiled, loop_calls = _counting_compiles(monkeypatch)
    _load(m, ORIGIN, isa.assemble([("movi", 1, 1000), ("label", "loop"), ("addi", 1, 1, -1),
                                   ("bnz", 1, "@loop"), ("halt",)], origin=ORIGIN))
    vcpu = m.vcpus[0]
    vcpu.pc = ORIGIN
    report = m.step(vcpu, 10_000)
    assert (report.stop, report.steps, vcpu.regs[1]) == ("halt", 2002, 0)
    assert loop_calls == [(10_000 - 3) // 2]
    assert len(compiled) == 3 and sum(_is_loop(branch) for _, branch in compiled) == 1
    vcpu.pc = ORIGIN
    while m.step(vcpu, 7).stop == "limit":  # cut prefixes compile, the loop is memoised
        pass
    assert sum(_is_loop(branch) for _, branch in compiled) == 1


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
