"""vCPUs, the trap gadget, world switches, interrupts, and the fixture ISA."""

import random
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ccxsim import execution, fixtures, isa
from ccxsim.errors import ModelError, SgxError, SgxErrorCode as E
from ccxsim.machine import ENCLS_TABLE, ENCLU_TABLE, Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.memory import (
    GRANULE_SIZE,
    HOST,
    AccessContext,
    PageType,
    Perms,
    SecurityState,
)
from ccxsim.runtime import AEP_GATE, EnclaveFault, HostRuntime, RETURN_GATE
from ccxsim.structs import (
    Attributes,
    EMPTY_SLOT,
    EXIT_IRQ,
    KeyName,
    KeyRequest,
    PAGEINFO_SIZE,
    PCMD_SIZE,
    PageInfo,
    Pcmd,
    SecInfo,
    SecsImage,
    TCS_OFF_CSSA,
    VA_SLOT_SIZE,
    pcmd_entry,
)

from helpers import (
    BASE,
    build_raw_enclave,
    free_epc_granules,
    free_host_granule,
    host_scratch_granules,
    small_config,
)

MASK64 = (1 << 64) - 1


def _thread_enclave(machine):
    enc = build_raw_enclave(
        machine,
        page_specs=[
            (0x0000, "rx", b"\x11" * GRANULE_SIZE),
            (0x1000, "rw", b"\x22" * GRANULE_SIZE),
            (0x2000, "rw", b""),
            (0x3000, "rw", b""),
        ],
        tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000, "tls_base": 0x1000}],
    )
    return machine, enc, enc.pages[0x4000]


@pytest.fixture
def entered_env(machine):
    return _thread_enclave(machine)


def load_fixture(machine, fixture_dir, writer, name):
    rt = HostRuntime(machine)
    path = writer(fixture_dir, name)
    return rt, rt.load_enclave(EnclaveManifest.load(path))


# ---------------------------------------------------------------------------
# ISA


def test_isa_encode_decode_round_trip():
    word = isa.encode(isa.OP_ADDI, rd=3, rs1=7, imm=-5 & MASK64)
    assert len(word) == isa.INSTR_SIZE
    op, rd, rs1, rs2, imm = isa.decode(word)
    assert (op, rd, rs1) == (isa.OP_ADDI, 3, 7)
    assert imm == (-5) & MASK64


def test_assembler_resolves_labels():
    prog = [
        ("movi", 1, 0),
        ("label", "loop"),
        ("addi", 1, 1, 1),
        ("bnz", 1, "@loop"),
    ]
    blob = isa.assemble(prog, origin=0x1000)
    _, _, _, _, imm = isa.decode(blob[32:48])
    assert imm == 0x1010  # the loop label


def test_assembler_rejects_unknown_label():
    with pytest.raises(ModelError):
        isa.assemble([("jmp", "@nowhere")])


@pytest.mark.parametrize("entry, message", [
    (("halt", 5), "halt takes 0 operands (none), got 1"),
    (("gadget", "@a"), "gadget takes 0 operands (none), got 1"),
    (("movi", 3), "movi takes 2 operands (rd, imm), got 1"),
    (("jmp", 1, 2), "jmp takes 1 operands (imm), got 2"),
    ((), "empty assembler entry"),
    (("movi", 300, 1), "movi: register operand 300 is not 0..31"),
    (("store", 1, 32, 0), "store: register operand 32 is not 0..31"),
    (("add", 1, -1, 2), "add: register operand -1 is not 0..31"),
    (("jmpr", "x3"), "jmpr: register operand 'x3' is not 0..31"),
    (("label",), "label takes one name string, got ()"),
    (("movi", 1, None), "movi: immediate None is not an int or '@label'"),
    (("movi", 1, 2.5), "movi: immediate 2.5 is not an int or '@label'"),
    (("jmp", "a"), "jmp: immediate 'a' is not an int or '@label'"),
    (("label", "a"), "label 'a' defined twice"),
])
def test_assembler_refuses_a_malformed_entry_by_its_mnemonic(entry, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        isa.assemble([("label", "a"), ("halt",), entry])


@pytest.mark.parametrize("row", isa.INSTRUCTIONS, ids=lambda row: row.mnemonic)
def test_each_instruction_row_assembles_its_operands_into_their_fields(row):
    values = {"rd": 3, "rs1": 5, "rs2": 7, "imm": 0x1234}
    word = isa.assemble([(row.mnemonic, *(values[name] for name in row.operands))])
    fields = dict(zip(("op", "rd", "rs1", "rs2", "imm"), isa.decode(word)))
    unused = {"rd": 0, "rs1": 0, "rs2": 0, "imm": 0}
    assert fields == {**unused, "op": row.op, **{name: values[name] for name in row.operands}}


def test_host_program_runs_arithmetic(machine):
    g = free_host_granule(machine)
    prog = isa.assemble(
        [("movi", 5, 6), ("movi", 6, 7), ("mul", 7, 5, 6), ("halt",)],
        origin=g * GRANULE_SIZE,
    )
    machine.host_write(g, 0, prog)
    vcpu = machine.vcpus[0]
    vcpu.pc = g * GRANULE_SIZE
    report = machine.step(vcpu, 100)
    assert report.stop == "halt" and vcpu.regs[7] == 42


def test_a_budget_of_k_steps_equals_k_single_steps(machine):
    """Wherever a budget ends, inside an ALU run, on the instruction that
    ends a block, across a page end or at a fault, one call of
    ``step(k)`` leaves the registers, pc and report of ``k`` calls of
    ``step(1)``."""
    g = free_host_granule(machine)
    assert machine.memory.is_free(g + 1)
    start = (g + 1) * GRANULE_SIZE - 4 * isa.INSTR_SIZE  # four ALU ops, then the page end
    program = [
        ("movi", 5, 6), ("addi", 5, 5, 1), ("mul", 6, 5, 5), ("xor", 7, 6, 5),
        ("add", 8, 7, 5), ("movi", 9, 0), ("bnz", 9, "@out"),
        ("addi", 8, 8, 3), ("mul", 8, 8, 8), ("movi", 11, start), ("load", 10, 11, 0),
        ("movi", 12, 1 << 50), ("addi", 13, 12, 0), ("load", 10, 12, 0),  # outside memory
        ("label", "out"), ("halt",),
    ]
    code = isa.assemble(program, origin=start)
    machine.host_write(g, GRANULE_SIZE - 64, code[:64])
    machine.host_write(g + 1, 0, code[64:])
    vcpu = machine.vcpus[0]

    def run(k, single):
        vcpu.regs = [0] * 32
        vcpu.pc = start
        if not single:
            return machine.step(vcpu, k), list(vcpu.regs), vcpu.pc
        steps, report = 0, execution.RunReport("limit", 0)
        for _ in range(k):
            report = machine.step(vcpu, 1)
            steps += report.steps
            if report.stop != "limit":
                break
        fault = report.fault and {**report.fault, "step": steps}
        return execution.RunReport(report.stop, steps, fault), list(vcpu.regs), vcpu.pc

    for k in range(len(program) + 1):
        assert run(k, single=False) == run(k, single=True), k
    report = run(len(program), single=False)[0]
    assert (report.stop, report.steps, report.fault["kind"]) == ("fault", 14, "pagefault")


# ---------------------------------------------------------------------------
# Gadget routing and CPUID


def test_gadget_frame_leaf2_is_enter_path(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    frame = execution.TrapFrame(
        smc_id=execution.SMC_ID_ENCLU, leaf=0x2, arg1=tcs_g, arg2=AEP_GATE
    )
    execution.gadget_trap(machine, vcpu, frame)
    assert vcpu.in_enclave and vcpu.pc == BASE + 0x0
    assert machine.counters["EENTER"] == 1
    machine.enclu(vcpu, 0x4, RETURN_GATE)


def test_gadget_unknown_service_faults(machine):
    vcpu = machine.vcpus[0]
    with pytest.raises(SgxError) as exc:
        execution.gadget_trap(machine, vcpu, execution.TrapFrame(smc_id=0x99, leaf=0))
    assert exc.value.code == E.INVALID_SERVICE


def test_an_unknown_leaf_name_is_a_model_error(machine):
    with pytest.raises(ModelError, match="unknown leaf 'EFOO'"):
        machine.leaf("EFOO")
    with pytest.raises(ModelError, match="EENTER is an ENCLU leaf and needs a vcpu"):
        machine.leaf("EENTER", 0, 0)


def test_undefined_leaves_fault(machine):
    vcpu = machine.vcpus[0]
    for leaf in (0x8, 0xA, 0x1F):
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, leaf)
        assert exc.value.code == E.INVALID_LEAF
    for leaf in (0x10, 0x42):
        with pytest.raises(SgxError) as exc:
            machine.encls(leaf)
        assert exc.value.code == E.INVALID_LEAF


def test_every_leaf_has_one_register_abi_row():
    """The machine's number -> (name, handler) views are exactly the name
    and handler columns of the one leaf table, which also holds each
    register ABI and mode rule."""
    for service, table in ((execution.SMC_ID_ENCLS, ENCLS_TABLE),
                           (execution.SMC_ID_ENCLU, ENCLU_TABLE)):
        rows = execution.LEAVES[service]
        assert table == {num: (row.name, row.handler) for num, row in rows.items()}


OUT_OF_RANGE = 99999999
ENCLU, ENCLS = execution.SMC_ID_ENCLU, execution.SMC_ID_ENCLS

# (case, runs inside the enclave, service, leaf, words x2..x4 from the machine
# and the enclave, refusal code)
MALFORMED_FRAMES = [
    ("ereport-from-host", False, ENCLU, 0x0, lambda m, enc: (BASE, BASE, BASE), E.INVALID_MODE),
    ("egetkey-from-host", False, ENCLU, 0x1, lambda m, enc: (BASE, BASE, 0), E.INVALID_MODE),
    ("emodt-page-type-9", False, ENCLS, 0xF,
     lambda m, enc: (enc.granule(0x1000), 9, 0), E.PAGE_INVALID),
    ("eaccept-secinfo-page-type-9", True, ENCLU, 0x5,
     lambda m, enc: (BASE + 0x1000, 0x903, 0), E.PAGE_INVALID),
    ("eremove-granule-out-of-range", False, ENCLS, 0x3,
     lambda m, enc: (OUT_OF_RANGE, 0, 0), E.PAGE_INVALID),
    ("eblock-granule-out-of-range", False, ENCLS, 0x9,
     lambda m, enc: (OUT_OF_RANGE, 0, 0), E.PAGE_INVALID),
    ("epa-granule-out-of-range", False, ENCLS, 0xA,
     lambda m, enc: (OUT_OF_RANGE, 0, 0), E.PAGE_INVALID),
    ("edbgrd-granule-out-of-range", False, ENCLS, 0x4,
     lambda m, enc: (OUT_OF_RANGE, 0, 0), E.PAGE_INVALID),
    ("eenter-granule-out-of-range", False, ENCLU, 0x2,
     lambda m, enc: (OUT_OF_RANGE, AEP_GATE, 0), E.PAGE_INVALID),
    ("edbgrd-past-granule-end", False, ENCLS, 0x4,
     lambda m, enc: (enc.granule(0x1000), 5000, 0), E.BAD_VADDR),
    ("edbgwr-past-granule-end", False, ENCLS, 0x5,
     lambda m, enc: (enc.granule(0x1000), 4090, 7), E.BAD_VADDR),
    ("ecreate-pageinfo-outside-memory", False, ENCLS, 0x0,
     lambda m, enc: (OUT_OF_RANGE * GRANULE_SIZE, free_epc_granules(m, 1)[0], 0), E.BAD_VADDR),
    ("eadd-pageinfo-crosses-granule-end", False, ENCLS, 0x1,
     lambda m, enc: _eadd_frame(m, at=GRANULE_SIZE - 16), E.BAD_VADDR),
    ("eldu-pageinfo-in-an-epc-page", False, ENCLS, 0x8,
     lambda m, enc: (enc.granule(0x1000) * GRANULE_SIZE, free_epc_granules(m, 1)[0], 0),
     E.BAD_VADDR),
    ("einit-sigstruct-in-an-epc-page", False, ENCLS, 0x2,
     lambda m, enc: (enc.eid, enc.granule(0x1000) * GRANULE_SIZE, 0), E.BAD_VADDR),
    ("eadd-secinfo-page-type-9", False, ENCLS, 0x1,
     lambda m, enc: _eadd_frame(m, secinfo=0x903, source=True), E.PAGE_INVALID),
    ("eadd-without-source", False, ENCLS, 0x1,
     lambda m, enc: _eadd_frame(m), E.PAGE_INVALID),
]


def _eadd_frame(m, at=0, secinfo=SecInfo(Perms.R, PageType.REG).word(), source=False):
    """Words for a gadget EADD into a fresh, uninitialized enclave, with the
    PAGEINFO at offset ``at`` of a host granule; its SRCPGE is a zero host
    page if ``source``, else 0."""
    secs_g, page_g = free_epc_granules(m, 2)
    eid = m.leaf("ECREATE", secs_g, 1 << 21, 1, Attributes(debug=True), BASE)
    params, page = host_scratch_granules(m, 2)
    srcpge = page * GRANULE_SIZE if source else 0
    info = PageInfo(BASE, srcpge, secinfo, eid).pack()
    m.host_write(params, at, info[: GRANULE_SIZE - at])
    return params * GRANULE_SIZE + at, page_g, 0


@pytest.mark.parametrize(
    "inside, smc, leaf, words, code",
    [case[1:] for case in MALFORMED_FRAMES],
    ids=[case[0] for case in MALFORMED_FRAMES],
)
def test_malformed_gadget_frame_is_refused_with_a_code(machine, inside, smc, leaf, words, code):
    """A register word the leaf cannot accept ends as an SgxError code, both
    from gadget_trap and from a program executing the gadget."""
    program = [("gadget",), ("halt",)]
    enc = build_raw_enclave(
        machine,
        page_specs=[
            (0x0000, "rx", isa.assemble(program, origin=BASE)),
            (0x1000, "rw", b"\x22" * GRANULE_SIZE),
            (0x2000, "rw", b""),
        ],
        tcs_specs=[{"vaddr": 0x3000, "ossa": 0x2000, "nssa": 1}],
    )
    machine.trace = []
    vcpu = machine.vcpus[0]
    for run in ("trap", "step"):
        if inside:
            machine.enclu(vcpu, 0x2, enc.granule(0x3000), AEP_GATE)
        else:
            g = free_host_granule(machine)
            machine.host_write(g, 0, isa.assemble(program, origin=g * GRANULE_SIZE))
            vcpu.pc = g * GRANULE_SIZE
        frame = execution.TrapFrame(smc, leaf, *words(machine, enc))
        if run == "trap":
            with pytest.raises(SgxError) as exc:
                execution.gadget_trap(machine, vcpu, frame)
            assert exc.value.code == code
        else:
            vcpu.regs[0:5] = [frame.smc_id, frame.leaf, frame.arg1, frame.arg2, frame.arg3]
            report = machine.step(vcpu, 2)
            if code == E.INVALID_MODE:
                assert report.stop == "fault"
                assert report.fault["kind"] == "dispatch_fault"
                assert report.fault["code"] == code.name
            else:
                assert report.stop == "halt"
                table = ENCLU_TABLE if smc == execution.SMC_ID_ENCLU else ENCLS_TABLE
                assert machine.trace[-1]["kind"] == table[leaf][0].lower()
                assert machine.trace[-1]["outcome"] == code.name
                assert vcpu.regs[0] == int(code)
        if vcpu.in_enclave:
            machine.enclu(vcpu, 0x4, RETURN_GATE)
    machine.audit()


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_eadd_without_a_full_source_page_is_refused_in_both_modes(mode):
    """EADD copies its page from a source page in both memory modes: a frame
    whose SRCPGE is 0, or a leaf call with a short page, is refused before
    the target granule changes hands."""
    m = Machine(small_config(mode=mode))
    info_at, page_g, _ = _eadd_frame(m)
    with pytest.raises(SgxError) as exc:
        _encls(m, 0x1, info_at, page_g)
    assert exc.value.code == E.PAGE_INVALID
    (eid,) = m.enclaves
    with pytest.raises(SgxError) as exc:
        m.leaf("EADD", eid, BASE, SecInfo(Perms.R, PageType.REG), page_g,
               b"\x5c" * (GRANULE_SIZE - 1))
    assert exc.value.code == E.PAGE_INVALID
    assert m.memory.is_free(page_g)
    assert m.memory.find_page(eid, BASE) is None
    m.audit()


def test_gadget_eadd_with_a_source_page_measures_alike_in_both_modes():
    def measure(mode):
        m = Machine(small_config(mode=mode))
        info_at, page_g, _ = _eadd_frame(m, source=True)
        info = PageInfo.unpack(m.host_read(info_at // GRANULE_SIZE, 0, PAGEINFO_SIZE))
        m.host_write(info.srcpge // GRANULE_SIZE, 0, b"\x5c" * GRANULE_SIZE)
        _encls(m, 0x1, info_at, page_g)
        assert m.memory.load(page_g, 0, GRANULE_SIZE) == b"\x5c" * GRANULE_SIZE
        for chunk in range(0, GRANULE_SIZE, 256):
            _encls(m, 0x6, info.secs, BASE + chunk)
        m.audit()
        return m.enclaves[info.secs].mrenclave_state.copy().final()

    assert measure("sgx") == measure("ccx")


def test_encls_service_not_available_from_enclave(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    frame = execution.TrapFrame(smc_id=execution.SMC_ID_ENCLS, leaf=0x3, arg1=5)
    with pytest.raises(SgxError) as exc:
        execution.gadget_trap(machine, vcpu, frame)
    assert exc.value.code == E.INVALID_SERVICE
    machine.enclu(vcpu, 0x4, RETURN_GATE)


def _trap(machine, vcpu, smc, leaf, *words):
    """The code a gadget trap of ``leaf`` is refused with, or None."""
    try:
        execution.gadget_trap(machine, vcpu, execution.TrapFrame(smc, leaf, *words))
    except SgxError as err:
        return err.code
    return None


def test_enclu_mode_rule_runs_only_eenter_and_eresume_from_the_host(entered_env):
    """Every ENCLU leaf is refused with INVALID_MODE in exactly one of the two
    modes: EENTER and ERESUME inside an enclave, every other one in the host."""
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    host_mode = set()
    for num, row in execution.LEAVES[execution.SMC_ID_ENCLU].items():
        wrong = []
        for inside in (False, True):
            if inside:
                machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
            if _trap(machine, vcpu, execution.SMC_ID_ENCLU, num) == E.INVALID_MODE:
                wrong.append(inside)
            if vcpu.in_enclave:
                machine.enclu(vcpu, 0x4, RETURN_GATE)
        assert len(wrong) == 1, row.name
        if wrong == [True]:
            host_mode.add(row.name)
    assert host_mode == {"EENTER", "ERESUME"}
    assert {row.name for rows in execution.LEAVES.values() for row in rows.values()
            if row.host_mode} == host_mode
    machine.audit()


def test_a_refused_trap_is_counted_once_with_one_record_and_writes_no_output(entered_env):
    """A trap refused for its mode, an argument or its output moves its leaf's
    counter by one and no other, writes one record with its code, and leaves
    its output where it was."""
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    data_g = enc.granule(0x1000)
    machine.memory.store(data_g, 0, KeyRequest(KeyName.REPORT).pack())
    request, key_out = BASE + 0x1000, BASE + 0x1000 + 512
    cases = [  # (inside, service, leaf, words, code, the output's granule)
        (False, ENCLU, 0x1, (request, key_out), E.INVALID_MODE, data_g),  # EGETKEY
        (True, ENCLU, 0x1, (BASE + 0x100000, key_out), E.BAD_VADDR, data_g),  # no request
        (True, ENCLU, 0x1, (request, BASE), E.BAD_VADDR, enc.granule(0x0)),  # r-x output
        (False, ENCLS, 0x4, (OUT_OF_RANGE, 0), E.PAGE_INVALID, None),  # EDBGRD: x1
    ]
    machine.trace = []
    for inside, smc, leaf, words, code, out_g in cases:
        if inside:
            machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
        name = execution.LEAVES[smc][leaf].name
        counters = dict(machine.counters)
        before = len(machine.trace)
        vcpu.regs[1] = 0x5EED
        output = None if out_g is None else machine.memory.load(out_g, 0, GRANULE_SIZE)
        assert _trap(machine, vcpu, smc, leaf, *words) == code
        counters[name] += 1
        assert machine.counters == counters
        assert [(r["kind"], r["outcome"]) for r in machine.trace[before:]] == \
            [(name.lower(), code.name)]
        if out_g is None:
            assert vcpu.regs[1] == 0x5EED
        else:
            assert machine.memory.load(out_g, 0, GRANULE_SIZE) == output
        if vcpu.in_enclave:
            machine.enclu(vcpu, 0x4, RETURN_GATE)
    machine.audit()


def test_a_trapped_debug_read_or_create_sets_x1_and_clears_x0(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    vcpu.regs[0:2] = [0xDEAD, 0xBEEF]
    _encls(machine, 0x4, enc.granule(0x1000), 8)  # EDBGRD
    assert vcpu.regs[0:2] == [0, int.from_bytes(b"\x22" * 8, "little")]

    (params,) = host_scratch_granules(machine, 1)
    (secs_g,) = free_epc_granules(machine, 1)
    machine.host_write(params, 0, PageInfo(0, params * GRANULE_SIZE + 64, 0, 0).pack())
    machine.host_write(params, 64, SecsImage(1 << 21, BASE, 1, Attributes(debug=True).encode()).pack())
    vcpu.regs[0:2] = [0xDEAD, 0xBEEF]
    _encls(machine, 0x0, params * GRANULE_SIZE, secs_g)  # ECREATE
    assert vcpu.regs[0] == 0
    assert machine.enclaves[vcpu.regs[1]].secs_granule == secs_g
    machine.audit()


def test_trapped_context_switches_leave_x0_to_the_switch(entered_env):
    """EENTER reports the save-state index in x0, ERESUME restores the saved
    x0, and EEXIT keeps the enclave's x0: none of them is cleared."""
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    vcpu.regs[0] = 0x77
    machine.inject_interrupt(vcpu)
    assert _trap(machine, vcpu, ENCLU, 0x3, tcs_g, AEP_GATE) is None  # ERESUME
    assert vcpu.in_enclave and vcpu.regs[0] == 0x77
    vcpu.regs[0] = 0x1234
    assert _trap(machine, vcpu, ENCLU, 0x4, RETURN_GATE) is None  # EEXIT
    assert not vcpu.in_enclave and vcpu.regs[0] == 0x1234

    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    machine.inject_interrupt(vcpu)
    assert _trap(machine, vcpu, ENCLU, 0x2, tcs_g, AEP_GATE) is None  # EENTER
    assert vcpu.in_enclave and vcpu.regs[0] == 1
    machine.enclu(vcpu, 0x4, RETURN_GATE)
    machine.audit()


@pytest.mark.parametrize("smc", [ENCLS, 0x99])
def test_an_unserved_trap_is_invalid_service_before_any_counter_moves(entered_env, smc):
    """An ENCLS trap from inside an enclave, or a trap to an unknown service,
    is refused before the dispatch counts or records anything."""
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    counters = dict(machine.counters)
    machine.trace = []
    assert _trap(machine, vcpu, smc, 0x3, enc.granule(0x1000)) == E.INVALID_SERVICE
    assert machine.counters == counters and machine.trace == []
    machine.enclu(vcpu, 0x4, RETURN_GATE)
    machine.audit()


def test_cpuid_capability_words(machine):
    w = execution.cpuid_emulate(machine, 0x12, 0)
    assert w[0] & execution.CAP_SGX1
    assert w[0] & execution.CAP_SGX2
    assert w[0] & execution.CAP_AEXNOTIFY


def test_cpuid_geometry_echoes_config():
    m = Machine(small_config(epc_base=32, epc_size=128))
    assert execution.cpuid_emulate(m, 0x12, 2) == (32 * GRANULE_SIZE, 128 * GRANULE_SIZE, 0, 0)
    m2 = Machine(small_config(mode="ccx"))
    assert execution.cpuid_emulate(m2, 0x12, 2) == (0, m2.config.granule_count * GRANULE_SIZE, 0, 0)


def test_cpuid_unknown_leaf_and_subleaf_zeroed(machine):
    assert execution.cpuid_emulate(machine, 0x13, 0) == (0, 0, 0, 0)
    assert execution.cpuid_emulate(machine, 0x12, 9) == (0, 0, 0, 0)


def test_no_hypervisor_hooks_exist():
    assert execution.EL2_HOOKS == ()
    assert isinstance(execution.EL2_HOOKS, tuple)


# ---------------------------------------------------------------------------
# Entry and exit


def test_eenter_sets_up_enclave_context(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    assert vcpu.in_enclave
    assert vcpu.pc == BASE + 0x0
    assert vcpu.tpidr == BASE + 0x1000
    assert vcpu.access_context() == AccessContext(SecurityState.REALM, enc.eid)
    assert vcpu.regs[0] == 0  # save-state index at entry
    assert machine.tcs_busy(tcs_g)
    machine.enclu(vcpu, 0x4, RETURN_GATE)


def test_eenter_uninitialized_rejected(machine):
    enc = build_raw_enclave(machine, init=False,
                            page_specs=[(0x0, "rx", b"\x11" * GRANULE_SIZE),
                                        (0x2000, "rw", b""), (0x3000, "rw", b"")],
                            tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000}])
    with pytest.raises(SgxError) as exc:
        machine.enclu(machine.vcpus[0], 0x2, enc.pages[0x4000], AEP_GATE)
    assert exc.value.code == E.NOT_INITIALIZED


def test_eenter_busy_tcs_rejected(entered_env):
    machine, enc, tcs_g = entered_env
    v0, v1 = machine.vcpus[0], machine.vcpus[1]
    machine.enclu(v0, 0x2, tcs_g, AEP_GATE)
    with pytest.raises(SgxError) as exc:
        machine.enclu(v1, 0x2, tcs_g, AEP_GATE)
    assert exc.value.code == E.TCS_BUSY
    machine.enclu(v0, 0x4, RETURN_GATE)


def test_occupied_tcs_cannot_be_removed_or_written_back(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    (va,) = free_epc_granules(machine, 1)
    machine.leaf("EPA", va)
    machine.leaf("EENTER", tcs_g, AEP_GATE, vcpu=vcpu)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EREMOVE", tcs_g)
    assert exc.value.code == E.PAGE_IN_USE
    machine.leaf("EBLOCK", tcs_g)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EWB", tcs_g, va, 0)
    assert exc.value.code == E.PAGE_IN_USE
    machine.leaf("EEXIT", RETURN_GATE, vcpu=vcpu)
    machine.leaf("EREMOVE", tcs_g)  # free once no vCPU runs on it
    with pytest.raises(SgxError) as exc:
        machine.leaf("EENTER", tcs_g, AEP_GATE, vcpu=vcpu)
    assert exc.value.code == E.PAGE_INVALID


def test_eenter_with_exhausted_ssa_rejected(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    tcs = machine.read_tcs(tcs_g)
    for _ in range(tcs.nssa):
        machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
        machine.inject_interrupt(vcpu)
    assert machine.read_tcs(tcs_g).cssa == tcs.nssa
    with pytest.raises(SgxError) as exc:
        machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    assert exc.value.code == E.CSSA_FULL


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_tcs_page_shows_live_cssa(mode):
    """The TCS page is the thread's one record: a debug read sees the save-state
    index an AEX stored, and the page holds nothing else that changed."""
    machine, enc, tcs_g = _thread_enclave(Machine(small_config(mode=mode)))
    vcpu = machine.vcpus[0]
    before = machine.leaf("EDBGRD", tcs_g, 0, 64)
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    machine.inject_interrupt(vcpu)
    cssa = machine.leaf("EDBGRD", tcs_g, TCS_OFF_CSSA, 8)
    assert int.from_bytes(cssa, "little") == 1
    after = machine.leaf("EDBGRD", tcs_g, 0, 64)
    assert after == before[:TCS_OFF_CSSA] + cssa + before[TCS_OFF_CSSA + 8:]
    machine.enclu(vcpu, 0x3, tcs_g, AEP_GATE)
    assert machine.leaf("EDBGRD", tcs_g, 0, 64) == before


def test_edbgwr_refuses_tcs_pages(entered_env):
    """A debug write could otherwise set CSSA or NSSA to values the TCS checks
    never saw; reads stay allowed."""
    machine, enc, tcs_g = entered_env
    before = machine.leaf("EDBGRD", tcs_g, 0, 64)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EDBGWR", tcs_g, TCS_OFF_CSSA, (7).to_bytes(8, "little"))
    assert exc.value.code == E.PAGE_INVALID
    assert machine.leaf("EDBGRD", tcs_g, 0, 64) == before


def test_eexit_restores_host_world(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    machine.enclu(vcpu, 0x4, 0x1234560)
    assert not vcpu.in_enclave
    assert vcpu.pc == 0x1234560
    assert vcpu.access_context() == HOST
    assert not machine.tcs_busy(tcs_g)
    # host can reach its own granules again through this context
    machine.host_read(3, 0, 8)


def test_eexit_from_host_faults(machine):
    with pytest.raises(SgxError) as exc:
        machine.enclu(machine.vcpus[0], 0x4, 0x0)
    assert exc.value.code == E.INVALID_MODE


def test_eresume_without_saved_state_rejected(entered_env):
    machine, enc, tcs_g = entered_env
    with pytest.raises(SgxError) as exc:
        machine.enclu(machine.vcpus[0], 0x3, tcs_g, AEP_GATE)
    assert exc.value.code == E.NO_SAVED_STATE


# ---------------------------------------------------------------------------
# Async exit and context round trips


def test_context_round_trip_bit_exact(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    rng = random.Random(11)
    for _ in range(20):
        vcpu.regs = [rng.getrandbits(64) for _ in range(32)]
        vcpu.pstate = rng.getrandbits(64)
        machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
        snapshot = (list(vcpu.regs), vcpu.pc, vcpu.pstate, vcpu.tpidr)
        machine.inject_interrupt(vcpu)
        assert not vcpu.in_enclave and vcpu.pc == AEP_GATE
        machine.enclu(vcpu, 0x3, tcs_g, AEP_GATE)
        assert (list(vcpu.regs), vcpu.pc, vcpu.pstate, vcpu.tpidr) == snapshot
        machine.enclu(vcpu, 0x4, RETURN_GATE)


def test_aex_scrubs_registers(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    vcpu.regs = [0xDEADBEEF00 + i for i in range(32)]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    enclave_regs = set(vcpu.regs)
    machine.inject_interrupt(vcpu)
    leaked = [r for r in vcpu.regs if r in enclave_regs and r != execution.SCRUB_PATTERN]
    # the synthetic state may only carry the resume leaf, the TCS, and the aep
    assert set(vcpu.regs) <= {execution.SCRUB_PATTERN, 3, tcs_g, AEP_GATE}
    assert vcpu.last_exit == (EXIT_IRQ, 0)
    assert not leaked or leaked == []


def test_aex_records_trampoline_delivery_path(entered_env):
    machine, enc, tcs_g = entered_env
    machine.trace = []  # a bare machine keeps no records
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    machine.inject_interrupt(vcpu)
    aex_events = [t for t in machine.trace if t["kind"] == "aex"]
    assert aex_events and aex_events[-1]["path"] == "trampoline->el3->host"
    machine.enclu(vcpu, 0x3, tcs_g, AEP_GATE)
    machine.enclu(vcpu, 0x4, RETURN_GATE)


def test_host_mode_interrupt_changes_nothing(machine):
    program = isa.assemble([("movi", 3, 7), ("add", 4, 3, 3), ("halt",)], origin=0)
    granules = host_scratch_granules(machine, 2)
    for vcpu, g in zip(machine.vcpus, granules):
        machine.host_write(g, 0, program)
        vcpu.regs = [0x1000 + i for i in range(32)]
        vcpu.pc = g * GRANULE_SIZE
    quiet, interrupted = machine.vcpus[:2]
    machine.trace = []
    before = (list(interrupted.regs), interrupted.pc, interrupted.last_exit)
    machine.inject_interrupt(interrupted)
    assert (interrupted.regs, interrupted.pc, interrupted.last_exit) == before
    assert machine.trace == []
    # the next step runs the program as a vCPU that got no interrupt does
    report = machine.step(interrupted, 5)
    assert report == machine.step(quiet, 5)
    assert interrupted.regs[4] == 14 and interrupted.regs == quiet.regs
    assert interrupted.pc - granules[1] * GRANULE_SIZE == quiet.pc - granules[0] * GRANULE_SIZE


def test_ssa_overflow_crashes_enclave(machine):
    # Notify-style re-entries leave the save-state index pinned, so enough
    # interrupts exhaust the slots while the thread is still inside.
    enc = build_raw_enclave(
        machine,
        attributes=Attributes(debug=True, aexnotify_allowed=True),
        page_specs=[
            (0x0000, "rx", b"\x11" * GRANULE_SIZE),
            (0x1000, "rw", b"\x22" * GRANULE_SIZE),
            (0x2000, "rw", b""),
            (0x3000, "rw", b""),
        ],
        tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000, "aexnotify": True}],
    )
    tcs_g = enc.pages[0x4000]
    vcpu = machine.vcpus[0]
    tcs = machine.read_tcs(tcs_g)
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    for _ in range(tcs.nssa):
        machine.inject_interrupt(vcpu)
        machine.enclu(vcpu, 0x3, tcs_g, AEP_GATE)  # handler entry, cssa pinned
    assert machine.read_tcs(tcs_g).cssa == tcs.nssa
    machine.inject_interrupt(vcpu)  # no slot left: fatal
    assert machine.enclaves[enc.eid].crashed
    assert not vcpu.in_enclave
    with pytest.raises(SgxError) as exc:
        machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    assert exc.value.code == E.ENCLAVE_CRASHED


# ---------------------------------------------------------------------------
# Programs crossing protection boundaries


def test_host_program_reading_enclave_page_faults(machine):
    enc = build_raw_enclave(machine)
    g_prog = free_host_granule(machine)
    target = enc.granule(0x0) * GRANULE_SIZE
    prog = isa.assemble(
        [("movi", 5, target), ("load", 6, 5, 0), ("halt",)],
        origin=g_prog * GRANULE_SIZE,
    )
    machine.host_write(g_prog, 0, prog)
    vcpu = machine.vcpus[0]
    vcpu.pc = g_prog * GRANULE_SIZE
    report = machine.step(vcpu, 10)
    assert report.stop == "fault"
    assert report.fault["kind"] == "gpf"
    assert machine.memory.gpf_log[-1].granule == enc.granule(0x0)


def test_enclave_program_reads_own_pages(machine, fixture_dir):
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_standard_manifest, "own")
    scratch = h.base + fixtures.SCRATCH_OFF
    assert rt.ecall(h, 0, fixtures.SEL_POKE, scratch + 128, 31337) == 31337
    assert rt.ecall(h, 0, fixtures.SEL_PEEK, scratch + 128) == 31337


def test_enclave_program_reading_other_enclave_faults(machine, fixture_dir):
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_standard_manifest, "spy")
    other = build_raw_enclave(machine)
    target_phys = other.granule(0x1000) * GRANULE_SIZE
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(h, 0, fixtures.SEL_PEEK, target_phys)
    assert exc.value.report.kind == "gpf"
    record = machine.memory.gpf_log[-1]
    assert record.granule == other.granule(0x1000)
    assert record.accessor == SecurityState.REALM
    assert record.gpt == h.eid


@pytest.mark.parametrize("prog, fault", [
    ([("movi", 0, 0x2), ("movi", 1, 0x0), ("gadget",)],  # ENCLS from the enclave
     {"step": 3, "vcpu": 0, "kind": "dispatch_fault", "code": "INVALID_SERVICE",
      "detail": "ENCLS service is host-privileged"}),
    ([("movi", 2, 1 << 50), ("movi", 1, 0x4), ("movi", 0, 0x1), ("gadget",)],  # EEXIT to nowhere
     {"step": 4, "vcpu": 0, "kind": "pagefault", "addr": 1 << 50,
      "why": "address outside physical memory", "at": "fetch"}),
], ids=["dispatch_fault", "host_pagefault"])
def test_fault_that_stops_a_call_is_reported_with_its_details(machine, prog, fault):
    rt = HostRuntime(machine)
    program = isa.assemble(prog, origin=fixtures.BASE)
    h = rt.load_enclave(EnclaveManifest.parse(fixtures.build_manifest_text(program, name="f")))
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(h, 0, 1)
    assert exc.value.report.kind == fault["kind"]
    assert str(exc.value) == f"enclave fault: {fault['kind']} {[fault]}"


@pytest.mark.parametrize("budget", [0, 5])
def test_an_explicit_step_budget_holds_even_at_zero(machine, fixture_dir, budget):
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_compute_manifest, "budget")
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(h, 0, 0, 165, step_budget=budget)
    assert (exc.value.report.kind, exc.value.report.detail) == ("timeout", f"{budget} steps")

def test_interrupt_transparency_schedules(machine, fixture_dir):
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_compute_manifest, "c")
    expected = fixtures.compute_expected(165)
    assert rt.ecall(h, 0, 0, 165) == expected
    assert rt.ecall(h, 0, 0, 165, inject_at={500}) == expected
    assert rt.ecall(h, 0, 0, 165, inject_at="every") == expected


def test_inject_at_counts_every_step_of_the_call_gate_halts_included(machine, fixture_dir):
    """After the first interrupt the host runs one halt at the async exit
    gate, and that step counts: the second interrupt comes 9 enclave steps
    after the resume, not 10."""
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_compute_manifest, "chunks")
    chunks = []
    step = machine.step

    def recording_step(vcpu, budget):
        inside = vcpu.in_enclave
        report = step(vcpu, budget)
        chunks.append((inside, report.steps, report.stop))
        return report

    machine.step = recording_step
    assert rt.ecall(h, 0, 0, 40, inject_at={10, 20}) == fixtures.compute_expected(40)
    assert chunks[:4] == [(True, 10, "limit"), (False, 1, "halt"), (True, 9, "limit"),
                          (False, 1, "halt")]


def test_notify_flag_clear_keeps_plain_resume(machine, fixture_dir):
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_compute_manifest, "p")
    result = rt.ecall(h, 0, 0, 100, inject_at={50, 150, 250})
    assert result == fixtures.compute_expected(100)
    scratch_g = machine.memory.find_page(h.eid, h.base + fixtures.SCRATCH_OFF)
    ran = machine.leaf("EDBGRD", scratch_g, fixtures.SCRATCH_NOTIFY_RAN, 8)
    assert int.from_bytes(ran, "little") == 0


def test_notify_flow_handler_observes_and_retires(machine, fixture_dir):
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_notify_manifest, "n")
    result = rt.ecall(h, 0, 0, 120, inject_at={200})
    assert result == fixtures.compute_expected(120)
    scratch_g = machine.memory.find_page(h.eid, h.base + fixtures.SCRATCH_OFF)
    ran = int.from_bytes(machine.leaf("EDBGRD", scratch_g, fixtures.SCRATCH_NOTIFY_RAN, 8), "little")
    reason = int.from_bytes(machine.leaf("EDBGRD", scratch_g, fixtures.SCRATCH_NOTIFY_REASON, 8), "little")
    cssa = int.from_bytes(machine.leaf("EDBGRD", scratch_g, fixtures.SCRATCH_NOTIFY_CSSA, 8), "little")
    assert ran == 1
    assert reason == EXIT_IRQ
    assert cssa == 1
    # the handler retired the slot on its way back
    tcs_g = machine.memory.find_page(h.eid, h.tcs_vaddrs[0])
    assert machine.read_tcs(tcs_g).cssa == 0


def test_edeccssa_at_zero_faults(entered_env):
    machine, enc, tcs_g = entered_env
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    try:
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, 0x9)
        assert exc.value.code == E.NO_SAVED_STATE
    finally:
        machine.enclu(vcpu, 0x4, RETURN_GATE)


# ---------------------------------------------------------------------------
# Register-level attestation buffers (gadget path)


def test_inprogram_report_and_key_buffers(machine, fixture_dir):
    """A program invokes the report and key leaves through the gadget with
    memory-resident request/response buffers."""
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_standard_manifest, "g")
    from ccxsim.structs import KeyName, KeyRequest, Report, REPORT_SIZE, TargetInfo

    scratch = h.base + fixtures.SCRATCH_OFF
    scratch_g = machine.memory.find_page(h.eid, scratch)
    # stage targetinfo at +1024, reportdata at +1088, report out at +1536,
    # keyrequest at +2048, key out at +3072
    machine.leaf("EDBGWR", scratch_g, 1024, TargetInfo(h.mrenclave).pack())
    machine.leaf("EDBGWR", scratch_g, 1088, bytes(range(64)))

    prog = isa.assemble(
        [
            ("movi", 2, scratch + 1024),
            ("movi", 3, scratch + 1088),
            ("movi", 4, scratch + 1536),
            ("movi", 1, 0x0),  # report leaf
            ("movi", 0, 0x1),
            ("gadget",),
            ("bnz", 0, "@fail"),
            ("addi", 3, 0, 0),
            ("addi", 2, 10, 0),
            ("movi", 1, 0x4),
            ("movi", 0, 0x1),
            ("gadget",),
            ("label", "fail"),
            ("abort",),
        ],
        origin=h.base,
    )
    code_g = machine.memory.find_page(h.eid, h.base)
    machine.leaf("EDBGWR", code_g, 0, prog)
    assert rt.ecall(h, 0, 0) == 0
    raw = machine.leaf("EDBGRD", scratch_g, 1536, REPORT_SIZE)
    report = Report.from_bytes(raw)
    assert report.mrenclave == h.mrenclave
    assert report.reportdata == bytes(range(64))

    # now fetch the report key in-program and verify the MAC outside
    machine.leaf("EDBGWR", scratch_g, 2048,
                 KeyRequest(KeyName.REPORT, keyid=report.keyid).pack())
    prog2 = isa.assemble(
        [
            ("movi", 2, scratch + 2048),
            ("movi", 3, scratch + 3072),
            ("movi", 1, 0x1),  # key leaf
            ("movi", 0, 0x1),
            ("gadget",),
            ("bnz", 0, "@fail"),
            ("addi", 3, 0, 0),
            ("addi", 2, 10, 0),
            ("movi", 1, 0x4),
            ("movi", 0, 0x1),
            ("gadget",),
            ("label", "fail"),
            ("abort",),
        ],
        origin=h.base,
    )
    machine.leaf("EDBGWR", code_g, 0, prog2)
    assert rt.ecall(h, 0, 0) == 0
    key = machine.leaf("EDBGRD", scratch_g, 3072, 16)
    assert machine.crypto.report_mac(key, report.body_bytes()) == report.mac


def _run_in_enclave(machine, h, prog):
    """Enter `h` at its code page running `prog`; stop at the first halt.
    The trace keeps the records of the run, the entry's included."""
    machine.leaf("EDBGWR", machine.memory.find_page(h.eid, h.base), 0,
                 isa.assemble(prog, origin=h.base))
    vcpu = machine.vcpus[0]
    tcs_g = machine.memory.find_page(h.eid, h.tcs_vaddrs[0])
    machine.trace = []
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    return vcpu, machine.step(vcpu, 100)


def _refusals(machine):
    return [(r["kind"], r["outcome"]) for r in machine.trace if r["outcome"] != "ok"]


def test_report_to_unmapped_output_buffer_is_bad_vaddr(machine, fixture_dir):
    _, h = load_fixture(machine, fixture_dir, fixtures.write_standard_manifest, "r")
    from ccxsim.structs import TargetInfo

    scratch = h.base + fixtures.SCRATCH_OFF
    scratch_g = machine.memory.find_page(h.eid, scratch)
    machine.leaf("EDBGWR", scratch_g, 1024, TargetInfo(h.mrenclave).pack())
    unmapped = h.base + 0x40000
    assert machine.memory.find_page(h.eid, unmapped) is None
    vcpu, report = _run_in_enclave(machine, h, [
        ("movi", 2, scratch + 1024),
        ("movi", 3, scratch + 1088),
        ("movi", 4, unmapped),
        ("movi", 1, 0x0),  # report leaf
        ("movi", 0, 0x1),
        ("gadget",),
        ("halt",),
    ])
    assert report.stop == "halt" and report.steps == 7  # the gadget is step 6
    assert _refusals(machine) == [("ereport", "BAD_VADDR")]
    assert machine.trace[-1]["vcpu"] == 0
    assert vcpu.regs[0] == int(E.BAD_VADDR)


def test_refused_report_draws_no_randomness(fixture_dir):
    """An EREPORT refused for its output buffer is refused before the leaf
    draws its key id, so the next report gets the key id that a same-seed
    machine without the refused call gets."""
    from ccxsim.structs import REPORT_SIZE, Report, TargetInfo

    keyids = []
    for refused_first in (True, False):
        machine = Machine(small_config())
        _, h = load_fixture(machine, fixture_dir, fixtures.write_standard_manifest, "d")
        scratch = h.base + fixtures.SCRATCH_OFF
        scratch_g = machine.memory.find_page(h.eid, scratch)
        machine.leaf("EDBGWR", scratch_g, 1024, TargetInfo(h.mrenclave).pack())

        def report_to(out):
            return [("movi", 2, scratch + 1024), ("movi", 3, scratch + 1088),
                    ("movi", 4, out), ("movi", 1, 0x0), ("movi", 0, 0x1), ("gadget",)]

        prog = report_to(h.base) if refused_first else []  # the code page is r-x
        vcpu, report = _run_in_enclave(machine, h, prog + report_to(scratch + 1536) + [("halt",)])
        codes = [outcome for _, outcome in _refusals(machine)]
        assert codes == (["BAD_VADDR"] if refused_first else [])
        assert report.stop == "halt" and vcpu.regs[0] == 0
        raw = machine.leaf("EDBGRD", scratch_g, 1536, REPORT_SIZE)
        keyids.append(Report.from_bytes(raw).keyid)
    assert keyids[0] == keyids[1]


def test_key_to_read_only_buffer_is_bad_vaddr(machine, fixture_dir):
    _, h = load_fixture(machine, fixture_dir, fixtures.write_standard_manifest, "k")
    from ccxsim.structs import KeyName, KeyRequest

    scratch = h.base + fixtures.SCRATCH_OFF
    scratch_g = machine.memory.find_page(h.eid, scratch)
    machine.leaf("EDBGWR", scratch_g, 2048, KeyRequest(KeyName.REPORT).pack())
    vcpu, report = _run_in_enclave(machine, h, [
        ("movi", 2, scratch + 2048),
        ("movi", 3, h.base),  # the code page is r-x
        ("movi", 1, 0x1),  # key leaf
        ("movi", 0, 0x1),
        ("gadget",),
        ("halt",),
    ])
    assert report.stop == "halt" and report.steps == 6  # the gadget is step 5
    assert _refusals(machine) == [("egetkey", "BAD_VADDR")]
    assert machine.trace[-1]["vcpu"] == 0
    assert vcpu.regs[0] == int(E.BAD_VADDR)


def _encls(machine, leaf, a1=0, a2=0, a3=0):
    execution.gadget_trap(
        machine, machine.vcpus[0],
        execution.TrapFrame(execution.SMC_ID_ENCLS, leaf, a1, a2, a3),
    )


def _slot_address(va_g, slot):
    return va_g * GRANULE_SIZE + slot * VA_SLOT_SIZE


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_encls_register_path_through_host_memory(mode):
    """The privileged service decodes word arguments directly and reads and
    writes structured arguments in host memory: PAGEINFO, SECS image, source
    page, SIGSTRUCT, sealed page and PCMD."""
    machine = Machine(small_config(mode=mode))
    vcpu = machine.vcpus[0]
    params, source, sealed = host_scratch_granules(machine, 3)
    info_at = params * GRANULE_SIZE
    secs_at, sig_at, pcmd_at = info_at + 64, info_at + 128, info_at + 512
    secs_g, page_g = free_epc_granules(machine, 2)

    machine.host_write(params, 0, PageInfo(0, secs_at, 0, 0).pack())
    machine.host_write(params, 64, SecsImage(1 << 21, BASE, 1, Attributes(debug=True).encode()).pack())
    _encls(machine, 0x0, info_at, secs_g)  # create
    assert vcpu.regs[0] == 0
    eid = vcpu.regs[1]
    assert eid in machine.enclaves and machine.enclaves[eid].base == BASE

    secinfo = SecInfo(Perms.R | Perms.W, PageType.REG).word()
    machine.host_write(source, 0, b"\x5c" * GRANULE_SIZE)
    machine.host_write(params, 0, PageInfo(BASE, source * GRANULE_SIZE, secinfo, eid).pack())
    _encls(machine, 0x1, info_at, page_g)  # add
    assert machine.memory.find_page(eid, BASE) == page_g
    _encls(machine, 0x6, eid, BASE)  # extend one chunk

    sig = machine.crypto.sign_sigstruct(
        machine.enclaves[eid].mrenclave_state.copy().final(),
        machine.enclaves[eid].attributes.signed_view(), 0, 0)
    machine.host_write(params, 128, sig.to_bytes())
    _encls(machine, 0x2, eid, sig_at)  # init
    assert machine.enclaves[eid].initialized

    _encls(machine, 0x4, page_g, 8)  # debug read: 8 bytes land in x1
    assert vcpu.regs[1] == int.from_bytes(b"\x5c" * 8, "little")
    _encls(machine, 0x5, page_g, 16, 0xABCD)  # debug write
    assert machine.leaf("EDBGRD", page_g, 16, 8) == (0xABCD).to_bytes(8, "little")

    va_g = free_epc_granules(machine, 1)[0]
    _encls(machine, 0xA, va_g)  # version array
    _encls(machine, 0x9, page_g)  # block
    _encls(machine, 0xC, eid)  # track
    machine.host_write(params, 0, PageInfo(0, sealed * GRANULE_SIZE, pcmd_at, 0).pack())
    _encls(machine, 0xB, info_at, page_g, _slot_address(va_g, 3))  # writeback to host memory
    assert machine.memory.epcm_lookup(page_g) is None
    entry = pcmd_entry(Pcmd.unpack(machine.host_read(params, 512, PCMD_SIZE)).meta)
    assert (entry.owner, entry.vaddr) == (eid, BASE)
    assert machine.host_read(sealed, 0, 8) != b"\x5c" * 8

    target = free_epc_granules(machine, 1)[0]
    machine.host_write(params, 0, PageInfo(0, sealed * GRANULE_SIZE, pcmd_at, eid).pack())
    _encls(machine, 0x8, info_at, target, _slot_address(va_g, 3))  # reload
    assert machine.leaf("EDBGRD", target, 0, 8) == b"\x5c" * 8

    _encls(machine, 0x3, target)  # remove page
    _encls(machine, 0x3, va_g)
    _encls(machine, 0x3, secs_g)
    assert eid not in machine.enclaves
    machine.audit()


def _ready_to_write_back(machine):
    """An enclave whose page at 0x1000 is blocked and tracked, an empty version
    array, and two free host granules: (enclave, page, VA page, params, sealed)."""
    enc = build_raw_enclave(machine)
    page_g = enc.granule(0x1000)
    (va_g,) = free_epc_granules(machine, 1)
    machine.leaf("EPA", va_g)
    machine.leaf("EBLOCK", page_g)
    machine.leaf("ETRACK", enc.eid)
    params, sealed = host_scratch_granules(machine, 2)
    return enc, page_g, va_g, params, sealed


@pytest.mark.parametrize("region", ["ciphertext", "pcmd"])
@settings(max_examples=50, deadline=None)
@given(patch=st.dictionaries(st.integers(0, PCMD_SIZE - 1), st.integers(0, 0xFF), min_size=1))
# Offsets of PCMD fields: the page type, the staged type, the padding, the owner.
@example(patch={0: 0x07})
@example(patch={4: 0x09})
@example(patch={5: 0x01, 7: 0x80})
@example(patch=dict.fromkeys(range(8, 16), 0))
def test_eldu_of_a_tampered_host_copy_fails_authentication(region, patch):
    """Any change to the first 40 bytes of the sealed page or to the 40-byte
    PCMD in host memory fails authentication, metadata no EWB writes
    included, and ELDU then maps nothing and keeps the version."""
    machine = Machine(small_config())
    enc, page_g, va_g, params, sealed = _ready_to_write_back(machine)
    info_at, pcmd_at = params * GRANULE_SIZE, params * GRANULE_SIZE + 512
    machine.host_write(params, 0, PageInfo(0, sealed * GRANULE_SIZE, pcmd_at, 0).pack())
    _encls(machine, 0xB, info_at, page_g, _slot_address(va_g, 0))
    granule, offset = (sealed, 0) if region == "ciphertext" else (params, 512)
    original = machine.host_read(granule, offset, PCMD_SIZE)
    tampered = bytearray(original)
    for i, byte in patch.items():
        tampered[i] = byte
    assume(tampered != original)
    machine.host_write(granule, offset, bytes(tampered))
    machine.host_write(params, 0, PageInfo(0, sealed * GRANULE_SIZE, pcmd_at, enc.eid).pack())
    version = machine.memory.load(va_g, 0, VA_SLOT_SIZE)
    (target,) = free_epc_granules(machine, 1)
    with pytest.raises(SgxError) as exc:
        _encls(machine, 0x8, info_at, target, _slot_address(va_g, 0))
    assert exc.value.code == E.MAC_COMPARE_FAIL
    assert machine.memory.find_page(enc.eid, BASE + 0x1000) is None
    assert machine.memory.epcm_lookup(target) is None
    assert machine.memory.load(va_g, 0, VA_SLOT_SIZE) == version != EMPTY_SLOT
    machine.audit()


@pytest.mark.parametrize("unwritable", ["ciphertext", "pcmd"])
def test_ewb_to_an_unwritable_output_is_bad_vaddr(machine, unwritable):
    """An output EWB cannot write to is refused before the page leaves."""
    enc, page_g, va_g, params, sealed = _ready_to_write_back(machine)
    epc_page = enc.granule(0x0) * GRANULE_SIZE  # an enclave page: not host-writable
    srcpge = epc_page if unwritable == "ciphertext" else sealed * GRANULE_SIZE
    pcmd_at = epc_page if unwritable == "pcmd" else params * GRANULE_SIZE + 512
    machine.host_write(params, 0, PageInfo(0, srcpge, pcmd_at, 0).pack())
    entry = machine.memory.epcm_lookup(page_g)
    versions = machine.memory.load(va_g, 0, GRANULE_SIZE)
    with pytest.raises(SgxError) as exc:
        _encls(machine, 0xB, params * GRANULE_SIZE, page_g, _slot_address(va_g, 5))
    assert exc.value.code == E.BAD_VADDR
    assert machine.memory.find_page(enc.eid, BASE + 0x1000) == page_g
    assert machine.memory.epcm_lookup(page_g) == entry
    assert machine.memory.load(va_g, 0, GRANULE_SIZE) == versions
    assert not machine.memory.gpf_log
    machine.audit()


def test_cpuid_from_a_running_program(machine):
    g = free_host_granule(machine)
    origin = g * GRANULE_SIZE
    prog = isa.assemble(
        [
            ("movi", 0, execution.SMC_ID_CPUID),
            ("movi", 1, 0x12),
            ("movi", 3, 2),  # subleaf rides in x3
            ("gadget",),
            ("halt",),
        ],
        origin=origin,
    )
    machine.host_write(g, 0, prog)
    vcpu = machine.vcpus[0]
    vcpu.pc = origin
    report = machine.step(vcpu, 10)
    assert report.stop == "halt"
    assert vcpu.regs[0] == machine.config.epc_base * GRANULE_SIZE
    assert vcpu.regs[1] == machine.config.epc_size * GRANULE_SIZE


# ---------------------------------------------------------------------------
# Concurrent cores: the seeded scheduler is the one interleaver


def _build_leaf_lanes(machine, lanes=4, pages=4):
    """One host program per vCPU that builds an enclave through the trap
    gadget (ECREATE, then EADD of ``pages`` pages) and removes it again
    (EREMOVE of each page, then of the SECS), halting after the last leaf and
    aborting on the first refused one.  The PAGEINFO and SECS images sit in a
    host granule of the lane's own; the program stores the eid ECREATE
    returns into each EADD PAGEINFO, since which eid a lane gets depends on
    the interleaving."""
    epc = free_epc_granules(machine, lanes * (1 + pages))
    host = host_scratch_granules(machine, 3 * lanes)
    vcpus = []
    for lane in range(lanes):
        code, params, source = host[3 * lane:3 * lane + 3]
        secs_g, *page_gs = epc[lane * (1 + pages):(lane + 1) * (1 + pages)]
        info_at = params * GRANULE_SIZE
        machine.host_write(params, 0, PageInfo(0, info_at + 64, 0, 0).pack())
        secs_image = SecsImage(1 << 21, BASE, 1, Attributes(debug=True).encode())
        machine.host_write(params, 64, secs_image.pack())
        machine.host_write(source, 0, bytes([lane + 1]) * GRANULE_SIZE)
        secinfo = SecInfo(Perms.R | Perms.W, PageType.REG).word()

        def leaf(num, *args):
            words = (execution.SMC_ID_ENCLS, num, *args)
            return [*(("movi", reg, word) for reg, word in enumerate(words)),
                    ("gadget",), ("bnz", 0, "@refused")]

        prog = leaf(0x0, info_at, secs_g) + [("addi", 9, 1, 0)]  # ECREATE; x9 = eid
        for i, page_g in enumerate(page_gs):
            eadd_at = info_at + 128 + i * PAGEINFO_SIZE
            info = PageInfo(BASE + i * GRANULE_SIZE, source * GRANULE_SIZE, secinfo, 0)
            machine.host_write(params, eadd_at - info_at, info.pack())
            prog += [("movi", 5, eadd_at), ("store", 9, 5, 24)]  # the PAGEINFO's secs word
            prog += leaf(0x1, eadd_at, page_g)  # EADD
        for g in (*page_gs, secs_g):
            prog += leaf(0x3, g)  # EREMOVE
        prog += [("halt",), ("label", "refused"), ("abort",)]
        machine.host_write(code, 0, isa.assemble(prog, origin=code * GRANULE_SIZE))
        vcpu = machine.vcpus[lane]
        vcpu.pc = code * GRANULE_SIZE
        vcpus.append(vcpu)
    return vcpus


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_interleaved_build_leaves_equal_serial_order(mode):
    """Build leaves issued by four cores end in the serial run's state under
    every interleaving the scheduler picks, and a seed replays its
    interleaving and its trace records exactly."""
    cfg = small_config(mode=mode, audit_after_leaf=False, vcpu_count=4)
    fresh = Machine(cfg).memory.gpts
    fresh_system, fresh_tables = bytes(fresh.system), fresh.snapshot_counts()
    serial = Machine(cfg)
    serial.trace = []
    for vcpu in _build_leaf_lanes(serial):
        assert serial.step(vcpu, 10_000).stop == "halt"
    serial.audit()
    serial_system = bytes(serial.memory.gpts.system)
    assert serial_system == fresh_system and serial.memory.valid_pages() == []
    assert serial.memory.gpts.snapshot_counts() == fresh_tables  # no enclave table is left
    assert [serial.counters[leaf] for leaf in ("ECREATE", "EADD", "EREMOVE")] == [4, 16, 20]

    def interleaved(seed):
        machine = Machine(cfg)
        machine.trace = []
        sched = execution.Scheduler(machine, seed=seed)
        reports = sched.run(_build_leaf_lanes(machine), budget=10_000)
        assert all(r.stop == "halt" for r in reports.values())
        machine.audit()
        assert bytes(machine.memory.gpts.system) == serial_system
        assert machine.memory.gpts.snapshot_counts() == fresh_tables
        assert machine.memory.valid_pages() == []
        assert machine.counters == serial.counters
        return sched.pick_trace, machine.trace

    serial_leaves = [record["kind"] for record in serial.trace]
    picks = set()
    for seed in (1, 2, 3, 4):
        pick_trace, trace = interleaved(seed)
        assert interleaved(seed) == (pick_trace, trace)  # a seed replays exactly
        assert [record["kind"] for record in trace] != serial_leaves  # leaves interleave
        picks.add(tuple(pick_trace))
    assert len(picks) == 4


def test_scheduler_interleaving_is_seeded_and_commutes():
    def build(machine):
        progs = []
        for lane in range(3):
            g = free_host_granule(machine)
            data = free_host_granule(machine)
            prog = isa.assemble(
                [
                    ("movi", 5, data * GRANULE_SIZE),
                    ("movi", 6, 0),
                    ("label", "loop"),
                    ("store", 6, 5, 0),
                    ("addi", 6, 6, 1),
                    ("movi", 7, 20),
                    ("xor", 7, 7, 6),
                    ("bnz", 7, "@loop"),
                    ("halt",),
                ],
                origin=g * GRANULE_SIZE,
            )
            machine.host_write(g, 0, prog)
            vcpu = machine.vcpus[lane]
            vcpu.pc = g * GRANULE_SIZE
            progs.append((vcpu, data))
        return progs

    def final_state(seed):
        machine = Machine(small_config(scheduler_seed=seed, audit_after_leaf=False))
        progs = build(machine)
        sched = execution.Scheduler(machine)
        reports = sched.run([v for v, _ in progs], budget=10_000)
        assert all(r.stop == "halt" for r in reports.values())
        values = [machine.host_read(data, 0, 8) for _, data in progs]
        return values, list(sched.pick_trace)

    v1, order1 = final_state(seed=1)
    v2, order2 = final_state(seed=1)
    v3, order3 = final_state(seed=2)
    assert v1 == v2 == v3  # disjoint effects commute
    assert order1 == order2  # same seed, same interleaving
    assert order1 != order3  # different seed, different interleaving


def test_ecall_words_enter_the_registers_as_64_bit_values(machine, fixture_dir):
    rt, h = load_fixture(machine, fixture_dir, fixtures.write_standard_manifest, "mask")
    assert rt.ecall(h, 0, fixtures.SEL_ECHO, -1) == MASK64
    assert rt.ecall(h, 0, fixtures.SEL_ECHO, -1, inject_at={1, 2, 3, 4, 5}) == MASK64
    assert rt.ecall(h, 0, fixtures.SEL_ADD - (1 << 64), 2, -1) == 1
