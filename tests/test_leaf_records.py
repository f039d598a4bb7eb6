"""Trace records: one per leaf invocation, written by the dispatch, one per
exit, one per fault and one per eviction the runtime chooses, kept only where
a reader puts a list in ``Machine.trace``."""

import json

import pytest

from ccxsim import cli, fixtures
from ccxsim.errors import SgxError, SgxErrorCode as E
from ccxsim.machine import ALL_LEAF_NAMES, Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.memory import GRANULE_SIZE
from ccxsim.runtime import AEP_GATE, EnclaveFault, HostRuntime
from ccxsim.structs import Attributes

from helpers import build_raw_enclave, fold_trace, small_config

# Records for facts that are not leaf invocations.
OTHER_KINDS = {"aex", "evict", "gpf", "measured", "pagefault"}
LEAF_KINDS = {name.lower(): name for name in ALL_LEAF_NAMES}


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("demo")
    fixtures.write_demo_tree(d)
    return d


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("demo", ["lifecycle", "mode_diff", "attest", "seal_unseal",
                                  "interrupts"])
def test_demo_trace_holds_one_leaf_record_per_counter_increment(demo_dir, tmp_path, capsys,
                                                                demo, mode):
    """The trace folds to the summary: leaf records by kind to ``counters``,
    their costs to ``cost_tally``, and evictions and successful ELDUs to the
    swap events."""
    trace = tmp_path / "trace.jsonl"
    rc = cli.main(["run", str(demo_dir / f"{demo}.scenario"), "--mode", mode, "--json",
                   "--trace", str(trace)])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
    assert rc == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["seq"] for r in records] == list(range(len(records)))
    leaves = [r for r in records if r["kind"] in LEAF_KINDS]
    assert {r["kind"] for r in records} - set(LEAF_KINDS) <= OTHER_KINDS
    folded = fold_trace(records)
    assert folded == {key: summary[key] for key in folded}
    m = Machine()
    for r in leaves:
        assert set(r) == {"seq", "kind", "vcpu", "outcome", "cost"}
        assert r["cost"] == m.leaf_cost[LEAF_KINDS[r["kind"]]]


def _recording_runtime(demo_dir, **config):
    m = Machine(small_config(**config))
    m.trace = []
    rt = HostRuntime(m)
    return m, rt, rt.load_enclave(EnclaveManifest.load(demo_dir / "standard.manifest"))


def test_refused_eremove_is_recorded_with_its_code(demo_dir):
    m, rt, _ = _recording_runtime(demo_dir)
    g = rt.take_epc_granule()
    with pytest.raises(SgxError) as exc:
        m.leaf("EREMOVE", g)
    assert exc.value.code == E.PAGE_INVALID
    assert m.trace[-1] == {"seq": len(m.trace) - 1, "kind": "eremove", "vcpu": None,
                           "outcome": "PAGE_INVALID", "cost": m.leaf_cost["EREMOVE"]}


def test_eenter_from_enclave_mode_is_recorded_with_its_code(demo_dir):
    m, rt, h = _recording_runtime(demo_dir)
    tcs = m.memory.find_page(h.eid, h.tcs_vaddrs[0])
    with rt.entered(h) as vcpu:
        with pytest.raises(SgxError) as exc:
            m.leaf("EENTER", tcs, AEP_GATE, vcpu=vcpu)
        assert exc.value.code == E.INVALID_MODE
        assert m.trace[-1] == {"seq": len(m.trace) - 1, "kind": "eenter", "vcpu": vcpu.id,
                               "outcome": "INVALID_MODE", "cost": m.leaf_cost["EENTER"]}
    assert [r["outcome"] for r in m.trace if r["kind"] == "eenter"] == ["ok", "INVALID_MODE"]


def test_bare_machine_keeps_no_records(demo_dir):
    m = Machine(small_config(mode="ccx", audit_after_leaf=False))
    rt = HostRuntime(m)
    h = rt.load_enclave(EnclaveManifest.load(demo_dir / "standard.manifest"))
    for i in range(2000):
        assert rt.ecall(h, 0, fixtures.SEL_ADD, i, 1) == i + 1
    assert m.counters["EENTER"] >= 2000
    assert len(m.trace) == 0


@pytest.mark.parametrize("kind", ["pagefault", "gpf"])
def test_enclave_fault_is_recorded_just_before_its_exit(demo_dir, kind):
    m, rt, h = _recording_runtime(demo_dir)
    if kind == "pagefault":
        addr = h.base + m.enclaves[h.eid].size - GRANULE_SIZE  # in range, never mapped
        assert m.memory.find_page(h.eid, addr) is None
    else:
        addr = build_raw_enclave(m).granule(0x1000) * GRANULE_SIZE  # another enclave's page
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(h, 0, fixtures.SEL_PEEK, addr)
    assert exc.value.report.kind == kind
    at = [i for i, r in enumerate(m.trace) if r["kind"] == kind]
    assert len(at) == 1
    fault, exit_ = m.trace[at[0]], m.trace[at[0] + 1]
    assert fault["addr"] == addr and fault["vcpu"] == exit_["vcpu"]
    assert exit_["kind"] == "aex" and exit_["reason"] == kind and exit_["payload"] == addr
    assert not exit_["fatal"]


def test_fatal_exit_is_an_aex_record_marked_fatal(demo_dir):
    """Notify re-entries pin the save-state index, so the exit after the
    last one finds no free frame and crashes the enclave."""
    m = Machine(small_config())
    enc = build_raw_enclave(
        m,
        attributes=Attributes(debug=True, aexnotify_allowed=True),
        page_specs=[(0x0000, "rx", b"\x11" * GRANULE_SIZE), (0x1000, "rw", b"")],
        tcs_specs=[{"vaddr": 0x2000, "ossa": 0x1000, "nssa": 1, "aexnotify": True}],
    )
    m.trace = []
    tcs, vcpu = enc.pages[0x2000], m.vcpus[0]
    m.leaf("EENTER", tcs, AEP_GATE, vcpu=vcpu)
    m.inject_interrupt(vcpu)
    m.leaf("ERESUME", tcs, AEP_GATE, vcpu=vcpu)  # the notify handler, still at cssa 1
    m.inject_interrupt(vcpu)
    assert m.enclaves[enc.eid].crashed
    exits = [r for r in m.trace if r["kind"] == "aex"]
    assert [r["fatal"] for r in exits] == [False, True]
    assert exits[-1]["eid"] == enc.eid and exits[-1]["reason"] == "irq"
    assert {r["kind"] for r in m.trace} - set(LEAF_KINDS) == {"aex"}


def test_each_eviction_names_its_victim_just_before_blocking_it(demo_dir, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc = cli.main(["run", str(demo_dir / "mode_diff.scenario"), "--mode", "sgx", "--json",
                   "--trace", str(trace)])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
    assert rc == 0 and summary["swap_out_events"] > 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    evicts = [i for i, r in enumerate(records) if r["kind"] == "evict"]
    assert len(evicts) == summary["swap_out_events"]
    for i in evicts:
        assert set(records[i]) == {"seq", "kind", "eid", "vaddr"}
        assert records[i + 1]["kind"] == "eblock" and records[i + 1]["outcome"] == "ok"


def test_explicit_swap_out_writes_no_evict_record(demo_dir):
    m, rt, h = _recording_runtime(demo_dir)
    rt.swap_out(h, h.base + fixtures.SCRATCH_OFF)
    assert rt.swap_out_events == 1
    assert [r["kind"] for r in m.trace if r["kind"] in ("evict", "eblock")] == ["eblock"]
