"""Leaf records: one per invocation, written by the dispatch and kept only
where a reader puts a list in ``Machine.trace``."""

import json
from collections import Counter

import pytest

from ccxsim import cli, fixtures
from ccxsim.errors import SgxError, SgxErrorCode as E
from ccxsim.machine import ALL_LEAF_NAMES, Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.runtime import AEP_GATE, HostRuntime

from helpers import small_config

# Records for facts that are not leaf invocations.
OTHER_KINDS = {"aex", "enclave_crash", "measured"}
LEAF_KINDS = {name.lower(): name for name in ALL_LEAF_NAMES}


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("demo")
    fixtures.write_demo_tree(d)
    return d


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("demo", ["lifecycle", "mode_diff", "attest", "seal_unseal"])
def test_demo_trace_holds_one_leaf_record_per_counter_increment(demo_dir, tmp_path, capsys,
                                                                demo, mode):
    trace = tmp_path / "trace.jsonl"
    rc = cli.main(["run", str(demo_dir / f"{demo}.scenario"), "--mode", mode, "--json",
                   "--trace", str(trace)])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
    assert rc == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["seq"] for r in records] == list(range(len(records)))
    leaves = [r for r in records if r["kind"] in LEAF_KINDS]
    assert {r["kind"] for r in records} - set(LEAF_KINDS) <= OTHER_KINDS
    counted = {name: n for name, n in summary["counters"].items() if n}
    assert Counter(LEAF_KINDS[r["kind"]] for r in leaves) == counted
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
