"""The resumable call: ``HostRuntime.call`` and the interrupt schedule.

A call counts every step it runs, the halt the host runs at a gate after
each exit included, and interrupts the enclave when the count reaches a
scheduled step.  The step budget bounds the count; a call that reaches it
inside the enclave leaves by an AEX.  ``call`` yields after each chunk of
steps, so a driver can interleave calls on several vCPUs or close one
early; ``ecall`` runs one to completion."""

import random
import re

import pytest

from ccxsim import EnclaveManifest, fixtures
from ccxsim.errors import ModelError
from ccxsim.execution import SCRUB_PATTERN
from ccxsim.machine import Machine
from ccxsim.runtime import EnclaveFault, HostRuntime

from helpers import small_config


def _compute(mode, count=1):
    """A runtime with ``count`` compute enclaves loaded, and their handles."""
    rt = HostRuntime(Machine(small_config(mode=mode)))
    handles = [rt.load_enclave(EnclaveManifest.parse(
        fixtures.build_manifest_text(fixtures.compute_program(), name=f"compute{i}")))
        for i in range(count)]
    return (rt, *handles)


def _aex_records(m):
    return sum(1 for record in m.trace if record["kind"] == "aex")


# inject_at, step_budget -> the result (or the fault's kind and detail), the
# ERESUMEs, the aex records and the TCS's CSSA after a compute call with n=40
SCHEDULE_EDGES = {
    # step 11 is the halt at the async exit gate: nothing to interrupt there
    "at_the_gate_halt": ({10, 11}, None, "result", 1, 1, 0),
    "after_the_gate_halt": ({10, 12}, None, "result", 2, 2, 0),
    # an interrupt at the budget itself is the one AEX of the give-up
    "at_the_budget": ({30}, 30, ("timeout", "30 steps"), 0, 1, 1),
    "every_under_a_budget": ("every", 7, ("timeout", "7 steps"), 3, 4, 1),
    "around_the_budget": ({29, 30, 31}, 30, ("timeout", "30 steps"), 1, 2, 1),
    "every": ("every", None, "result", 247, 247, 0),
}


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("case", sorted(SCHEDULE_EDGES))
def test_the_schedule_edges_give_the_pinned_exits(mode, case):
    inject, budget, outcome, resumes, aexes, cssa = SCHEDULE_EDGES[case]
    rt, handle = _compute(mode)
    m = rt.machine
    m.trace = []
    if outcome == "result":
        assert rt.ecall(handle, 0, 0, 40, inject_at=inject, step_budget=budget) == \
            fixtures.compute_expected(40)
    else:
        with pytest.raises(EnclaveFault) as exc:
            rt.ecall(handle, 0, 0, 40, inject_at=inject, step_budget=budget)
        assert (exc.value.report.kind, exc.value.report.detail) == outcome
    assert m.counters["ERESUME"] == resumes
    assert _aex_records(m) == aexes
    assert m.read_tcs(m.memory.find_page(handle.eid, handle.tcs_vaddrs[0])).cssa == cssa
    assert not m.vcpus[0].in_enclave


# (enclave, vCPU, iterations, interrupt steps) of each of two concurrent calls
CONCURRENT = [(0, 0, 30, {7, 50, 51, 120}), (1, 1, 25, {3, 12, 13, 60, 100, 140})]


def _run_concurrently(mode, seed):
    """Advance the two calls one chunk at a time, the next call picked by a
    seeded generator, or run them one after the other with no seed; returns
    the runtime, the results and the chunks run."""
    rt, *handles = _compute(mode, count=2)
    rt.machine.trace = []
    calls = {i: rt.call(handles[enclave], 0, 0, n, vcpu_index=vcpu, inject_at=inject)
             for i, (enclave, vcpu, n, inject) in enumerate(CONCURRENT)}
    results, order = {}, []
    rng = random.Random(seed)
    while calls:
        i = min(calls) if seed is None else rng.choice(sorted(calls))
        order.append(i)
        try:
            next(calls[i])
        except StopIteration as done:
            results[i] = done.value
            del calls[i]
    return rt, results, order


def _per_vcpu(trace):
    return {vcpu: [{k: v for k, v in r.items() if k != "seq"} for r in trace if r["vcpu"] == vcpu]
            for vcpu in {r["vcpu"] for r in trace}}


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_calls_advanced_chunk_by_chunk_end_as_the_serial_run(mode, seed):
    serial, serial_results, _ = _run_concurrently(mode, None)
    rt, results, order = _run_concurrently(mode, seed)
    assert order != sorted(order)  # the calls did interleave
    expected = {i: fixtures.compute_expected(n) for i, (_, _, n, _) in enumerate(CONCURRENT)}
    assert results == serial_results == expected
    assert rt.machine.counters == serial.machine.counters
    assert rt.machine.counters["ERESUME"] > 0
    assert rt.swap_out_events == rt.swap_in_events == 0  # the EPC holds both enclaves
    assert _per_vcpu(rt.machine.trace) == _per_vcpu(serial.machine.trace)
    assert not any(vcpu.in_enclave for vcpu in rt.machine.vcpus)


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_call_closed_after_its_first_chunk_leaves_by_an_aex(mode):
    rt, handle = _compute(mode)
    m = rt.machine
    vcpu = m.vcpus[0]
    m.trace = []
    calling = rt.call(handle, 0, 0, 40, inject_at={10})
    report = next(calling)
    assert (report.stop, report.steps) == ("limit", 10) and vcpu.in_enclave
    calling.close()
    assert not vcpu.in_enclave
    assert _aex_records(m) == 1
    assert m.read_tcs(m.memory.find_page(handle.eid, handle.tcs_vaddrs[0])).cssa == 1
    assert vcpu.regs[0] == SCRUB_PATTERN and vcpu.regs[4:] == [SCRUB_PATTERN] * 28
    assert rt.ecall(handle, 0, 0, 40) == fixtures.compute_expected(40)


# inject_at, step_budget -> the start of the refusal
REFUSED = {
    "steps_below_1": ({0, -3}, None, "inject_at {0, -3}"),
    "every_misspelt": ("Every", None, "inject_at 'Every'"),
    "step_as_text": ({"3"}, None, "inject_at {'3'}"),
    "bare_step": (7, None, "inject_at 7"),
    "fractional_step": ({2.5}, None, "inject_at {2.5}"),
    "none_as_step": ([1, None], None, "inject_at [1, None]"),
    "negative_budget": (None, -5, "step budget -5"),
    "fractional_budget": ({3}, 2.5, "step budget 2.5"),
    "budget_as_text": ("every", "10", "step budget '10'"),
}


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_schedule_that_could_never_run_is_refused_before_any_leaf(mode, case):
    inject, budget, message = REFUSED[case]
    rt, handle = _compute(mode)
    m = rt.machine
    m.trace = []
    counters = dict(m.counters)
    with pytest.raises(ModelError, match=re.escape(message)):
        rt.ecall(handle, 0, 0, 40, inject_at=inject, step_budget=budget)
    assert m.counters == counters and m.trace == []
    assert not m.vcpus[0].in_enclave
    assert rt.ecall(handle, 0, 0, 40, inject_at=[5, 5]) == fixtures.compute_expected(40)
