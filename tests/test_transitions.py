"""The world switches: AEX, ERESUME, EENTER and EEXIT, and the one SSA layout."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from ccxsim import EnclaveManifest, fixtures, isa
from ccxsim.errors import SgxError, SgxErrorCode
from ccxsim.execution import SCRUB_PATTERN, mem_read
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE
from ccxsim.runtime import AEP_GATE, EnclaveFault, HostRuntime
from ccxsim.structs import EXIT_IRQ, SSA_FRAME

from helpers import small_config
from oracles import reference_ssa_frame

EENTER, ERESUME = 0x2, 0x3
DATA_OFF = 0x10000

u64 = st.one_of(st.integers(1 << 63, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))


def _loaded(program, mode="sgx", **kw):
    rt = HostRuntime(Machine(small_config(mode=mode)))
    handle = rt.load_enclave(EnclaveManifest.parse(fixtures.build_manifest_text(program, **kw)))
    return rt, handle


def _frame0(m, handle) -> bytes:
    granule = m.memory.find_page(handle.eid, handle.base + fixtures.SSA_OFF)
    return m.memory.load(granule, 0, SSA_FRAME.size)


@settings(max_examples=40, deadline=None)
@given(regs=st.lists(u64, min_size=32, max_size=32), pc=u64, pstate=u64, tpidr=u64,
       notify=st.booleans())
def test_aex_writes_the_reference_frame_and_resume_reads_it_back(regs, pc, pstate, tpidr, notify):
    program = fixtures.notify_program() if notify else fixtures.compute_program()
    rt, handle = _loaded(program, aexnotify=notify)
    m, vcpu = rt.machine, rt.machine.vcpus[0]
    tcs_g = m.memory.find_page(handle.eid, handle.tcs_vaddrs[0])
    m.enclu(vcpu, EENTER, tcs_g, AEP_GATE)
    vcpu.regs = list(regs)
    vcpu.pc, vcpu.pstate, vcpu.tpidr = pc, pstate, tpidr

    m.inject_interrupt(vcpu)
    frame = reference_ssa_frame(regs, pc, pstate, tpidr, EXIT_IRQ, 0)
    assert _frame0(m, handle) == frame
    assert vcpu.regs[4:] == [0xA5A5A5A5A5A5A5A5] * 28  # scrubbed for the host

    m.enclu(vcpu, ERESUME, tcs_g, AEP_GATE)
    if notify:
        # The handler re-enters at the entry point and reads the frame with
        # its own loads: each word is the one AEX saved.
        assert (vcpu.pc, vcpu.regs[0]) == (handle.base, 1)
        frame0 = handle.base + fixtures.SSA_OFF
        words = [mem_read(m, vcpu, frame0 + 8 * i, 8) for i in range(SSA_FRAME.size // 8)]
        assert b"".join(words) == frame
    else:
        assert (vcpu.regs, vcpu.pc, vcpu.pstate, vcpu.tpidr) == (regs, pc, pstate, tpidr)
        assert m.read_tcs(tcs_g).cssa == 0


def _no_records(monkeypatch):
    def refuse(self, kind, **payload):
        raise AssertionError(f"a {kind} record was built with tracing off")
    monkeypatch.setattr(Machine, "trace_event", refuse)


def test_an_interrupted_ecall_builds_no_record_when_untraced(monkeypatch):
    rt, handle = _loaded(fixtures.compute_program())
    _no_records(monkeypatch)
    assert rt.ecall(handle, 0, 0, 12, inject_at={5, 20, 40}) == fixtures.compute_expected(12)
    assert rt.machine.counters["ERESUME"] == 3


def test_a_faulting_ecall_builds_no_record_when_untraced(monkeypatch):
    rt, handle = _loaded(fixtures.standard_program(), extra_lines=[
        f"page vaddr={DATA_OFF:#x} perms=rw content=zero measured=no"])
    data = handle.base + DATA_OFF
    rt.swap_out(handle, data)
    _no_records(monkeypatch)
    # a demand fault: the page comes back and the call resumes
    assert rt.ecall(handle, 0, fixtures.SEL_POKE, data, 7) == 7
    # a fault nothing can mend ends the call
    with pytest.raises(EnclaveFault, match="pagefault"):
        rt.ecall(handle, 0, fixtures.SEL_PEEK, data + GRANULE_SIZE)
    assert rt.swap_in_events == 1


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_the_host_learns_the_page_of_a_fault_and_the_enclave_its_address(mode):
    """SGX clears bits 11:0 of the fault address it reports to the OS: the
    host's fault report names the page, while the save-state frame and the
    observer's aex record keep the full address."""
    m = Machine(small_config(mode=mode))
    m.trace = []
    rt = HostRuntime(m)
    handle = rt.load_enclave(EnclaveManifest.parse(
        fixtures.build_manifest_text(fixtures.standard_program())))
    addr = handle.base + 0x11238  # no page there
    page = addr & ~(GRANULE_SIZE - 1)
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(handle, 0, fixtures.SEL_PEEK, addr)
    assert str(exc.value) == f"enclave fault: pagefault at {page:#x}"
    assert exc.value.report.vaddr == page
    assert [r["payload"] for r in m.trace if r["kind"] == "aex"] == [addr]
    assert SSA_FRAME.unpack(_frame0(m, handle))[-1] == addr  # the frame's exit payload


def _aex(eid, reason="irq", payload=0):
    return {"kind": "aex", "vcpu": 0, "eid": eid, "reason": reason, "payload": payload,
            "path": "trampoline->el3->host", "fatal": False}


def _leaf(name, cost):
    return {"kind": name, "vcpu": 0, "outcome": "ok", "cost": cost}


def test_an_interrupted_ecall_and_a_notify_reentry_give_the_pinned_records():
    rt, compute = _loaded(fixtures.compute_program(), name="compute")
    notify = rt.load_enclave(EnclaveManifest.parse(fixtures.build_manifest_text(
        fixtures.notify_program(), name="notify", aexnotify=True)))
    m = rt.machine
    cost = m.leaf_cost
    m.trace = []
    assert rt.ecall(compute, 0, 0, 6, inject_at={5, 17}) == fixtures.compute_expected(6)
    assert rt.ecall(notify, 0, 0, 6, inject_at={9}) == fixtures.compute_expected(6)
    enter, resume, leave = (_leaf("eenter", cost["EENTER"]), _leaf("eresume", cost["ERESUME"]),
                            _leaf("eexit", cost["EEXIT"]))
    expected = [
        enter, _aex(compute.eid), resume, _aex(compute.eid), resume, leave,
        enter, _aex(notify.eid), resume, _leaf("edeccssa", cost["EDECCSSA"]), leave,
    ]
    assert [{k: v for k, v in r.items() if k != "seq"} for r in m.trace] == expected
    assert [r["seq"] for r in m.trace] == list(range(len(expected)))


# name -> (enclave program, ecall arguments after the TCS index, ecall keywords,
# the kind of fault that ends the call with its core still inside)
GIVE_UPS = {
    "abort": (fixtures.standard_program(), (99,), {}, "abort"),
    "timeout": (fixtures.compute_program(), (0, 165), {"step_budget": 50}, "timeout"),
    "halt_inside": (bytes(16), (1,), {}, "halt_inside"),
    # movi x200, 5
    "bad_opcode": (bytes.fromhex("01c80000000000000500000000000000"), (1,), {}, "bad_opcode"),
    # an opcode byte no instruction has
    "undefined_opcode": (bytes([0xEE]) + bytes(15), (1,), {}, "bad_opcode"),
    "unknown_service": (isa.assemble([("movi", 0, 7), ("gadget",)], origin=fixtures.BASE),
                        (1,), {}, "dispatch_fault"),
}


@pytest.mark.parametrize("case", sorted(GIVE_UPS))
def test_a_call_that_gives_up_inside_the_enclave_leaves_it_by_an_aex(case):
    """The core comes back scrubbed and the TCS free, with the thread's
    state in a save-state frame: a later call from either vCPU enters again
    and fails the same way, EENTER refuses once every frame is taken, and
    the enclave can still be destroyed."""
    program, args, kw, kind = GIVE_UPS[case]
    rt, handle = _loaded(program)
    m = rt.machine
    tcs_g = m.memory.find_page(handle.eid, handle.tcs_vaddrs[0])
    for cssa, vcpu in ((1, m.vcpus[0]), (2, m.vcpus[1])):
        with pytest.raises(EnclaveFault) as exc:
            rt.ecall(handle, 0, *args, vcpu_index=vcpu.id, **kw)
        assert exc.value.report.kind == kind
        assert vcpu.cur_eid is None and not m.tcs_busy(tcs_g)
        assert vcpu.regs[0] == SCRUB_PATTERN and vcpu.regs[4:] == [SCRUB_PATTERN] * 28
        assert m.read_tcs(tcs_g).cssa == cssa
    with pytest.raises(SgxError) as err:
        rt.ecall(handle, 0, *args, **kw)
    assert err.value.code == SgxErrorCode.CSSA_FULL
    rt.destroy(handle)
    assert handle.eid not in m.enclaves


def test_an_aborted_call_leaves_the_enclave_serving_calls():
    rt, handle = _loaded(fixtures.standard_program())
    with pytest.raises(EnclaveFault, match="abort"):
        rt.ecall(handle, 0, 99)
    assert rt.ecall(handle, 0, fixtures.SEL_ECHO, 7) == 7


def test_an_outside_call_with_no_handler_ends_the_call_with_a_dispatch_fault():
    """An outside call whose selector has no handler (``runtime.py:718``)
    ends the call with a ``dispatch_fault`` that names the selector."""
    rt, handle = _loaded(fixtures.standard_program())
    del rt.ocall_handlers[fixtures.OCALL_HOSTADD]
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(handle, 0, fixtures.SEL_OCALL_ROUNDTRIP, 1, 2)
    assert (exc.value.report.kind, exc.value.report.detail) == (
        "dispatch_fault", f"no ocall handler {fixtures.OCALL_HOSTADD:#x}")
    assert not rt.machine.vcpus[0].in_enclave


# EEXIT to the async exit gate, with no AEX behind it.
EEXIT_TO_AEP_GATE = isa.assemble([("movi", 2, AEP_GATE), ("movi", 1, 0x4), ("movi", 0, 0x1),
                                  ("gadget",)], origin=fixtures.BASE)


def _halts_at_the_aep_gate(rt, handle):
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(handle, 0, 1)
    assert (exc.value.report.kind, exc.value.report.detail) == (
        "halt_inside", f"host halted at {AEP_GATE:#x}")
    assert rt.machine.vcpus[0].last_exit is None


def test_an_exit_to_the_aep_gate_with_no_aex_is_a_halt_inside():
    rt, handle = _loaded(EEXIT_TO_AEP_GATE)
    _halts_at_the_aep_gate(rt, handle)


def test_an_aex_of_an_earlier_call_leaves_no_record_for_the_next_entry():
    """The exit record of an interrupted call ends at the next entry, so a
    later call that lands at the gate with no AEX is not served as one."""
    rt, handle = _loaded(EEXIT_TO_AEP_GATE)
    compute = rt.load_enclave(EnclaveManifest.parse(fixtures.build_manifest_text(
        fixtures.compute_program(), name="compute")))
    assert rt.ecall(compute, 0, 0, 12, inject_at={5}) == fixtures.compute_expected(12)
    assert rt.machine.vcpus[0].last_exit is None  # the resume ended it
    _halts_at_the_aep_gate(rt, handle)
    assert rt.ecall(compute, 0, 0, 12, inject_at={5}) == fixtures.compute_expected(12)


# ---------------------------------------------------------------------------
# An interrupt at any step: the compute fixture is the control for the notify
# handler, which restores what any interrupt of the call takes from it.

SWEEP_ITERATIONS = 4


@functools.cache
def _swept(kind, mode):
    """The one enclave of fixture ``kind`` that each sweep in ``mode`` calls."""
    program = getattr(fixtures, f"{kind}_program")()
    return _loaded(program, mode, aexnotify=kind == "notify")


def _call(rt, handle, inject_at):
    """The result and the step count of a call of ``SWEEP_ITERATIONS``."""
    calling = rt.call(handle, 0, 1, SWEEP_ITERATIONS, inject_at=inject_at)
    steps = 0
    while True:
        try:
            steps += next(calling).steps
        except StopIteration as done:
            return done.value, steps


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("kind", ["compute", "notify"])
def test_a_call_interrupted_at_any_step_or_any_two_steps_returns_its_value(kind, mode):
    """Every step a of the call, and every pair a < b with b up to the length
    of the call interrupted at a: the notify handler's own steps, and the
    tail it runs after EDECCSSA, included."""
    rt, handle = _swept(kind, mode)
    expected = fixtures.compute_expected(SWEEP_ITERATIONS)
    result, length = _call(rt, handle, None)
    assert (result, length) == (expected, 33 + (kind == "notify"))
    for a in range(1, length + 1):
        result, length_a = _call(rt, handle, {a})
        assert result == expected, f"interrupted at {a}"
        for b in range(a + 1, length_a + 1):
            assert _call(rt, handle, {a, b})[0] == expected, f"interrupted at {a} and {b}"


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_notify_call_interrupted_at_every_step_times_out(mode):
    """Each notification runs the handler again from its start, so a host
    that interrupts every step starves the thread until the budget; the
    handler's own exits resume plainly, so no frame stacks up."""
    rt, handle = _loaded(fixtures.notify_program(), mode, aexnotify=True)
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(handle, 0, 1, SWEEP_ITERATIONS, inject_at="every", step_budget=2_000)
    assert exc.value.report.kind == "timeout"


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_an_interrupt_in_a_one_frame_notify_handler_crashes_the_enclave(mode):
    """On a one-frame TCS the handler runs at cssa == nssa, so an exit
    inside it finds no free frame: the enclave crashes and the call ends."""
    rt, handle = _loaded(fixtures.notify_program(), mode, aexnotify=True, nssa=1)
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(handle, 0, 1, SWEEP_ITERATIONS, inject_at={10, 14})
    assert exc.value.report.kind == "ssa_overflow"
    assert rt.machine.enclaves[handle.eid].crashed
