"""Host runtime allocation: host granules, EPC granules, and the swap FIFO."""

from ccxsim import fixtures
from ccxsim.machine import Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.memory import PageType
from ccxsim.runtime import HostRuntime

from helpers import small_config


def load_standard(rt, fixture_dir):
    path = fixtures.write_standard_manifest(fixture_dir, "alloc")
    return rt.load_enclave(EnclaveManifest.load(path))


def test_sgx_host_allocation_skips_the_epc_window(runtime):
    lo, hi = runtime.machine.memory.epc_span()
    below = [runtime.take_host_granule() for _ in range(2, lo)]
    assert below == list(range(2, lo))
    assert runtime.take_host_granule() == hi


def test_host_cursor_wraps_to_a_freed_granule_below_it(fixture_dir):
    m = Machine(small_config(mode="ccx"))
    rt = HostRuntime(m)
    h = load_standard(rt, fixture_dir)
    low = min(m.memory.gpts.owned[h.eid])
    while rt.take_host_granule() != m.memory.granule_count - 1:
        pass  # run the cursor to the top of memory
    rt.destroy(h)
    assert rt.take_host_granule() == low
    # the wrapped search leaves the cursor at the top: it finds `low` again
    assert rt.take_host_granule() == low


def test_last_free_epc_granule_becomes_a_version_array(runtime, fixture_dir):
    m = runtime.machine
    h = load_standard(runtime, fixture_dir)
    lo, hi = m.memory.epc_span()
    free = [g for g in range(lo, hi) if m.memory.is_free(g)]
    for g in free[:-1]:
        m.leaf("EPA", g)  # version arrays the runtime holds no slots in
    last = free[-1]
    g = runtime.take_epc_granule()
    assert m.memory.epcm[last].page_type == PageType.VA
    assert runtime.swap_out_events == 1  # then one page made room
    assert m.memory.is_free(g) and g not in m.memory.gpts.owned[h.eid]
    m.audit()


def test_ccx_load_destroy_cycles_keep_the_fifo_bounded(fixture_dir):
    m = Machine(small_config(mode="ccx", audit_after_leaf=False))
    rt = HostRuntime(m)
    for _ in range(50):
        rt.destroy(load_standard(rt, fixture_dir))
    h = load_standard(rt, fixture_dir)
    assert len(rt._fifo) <= len(m.memory.epcm)
    rt.destroy(h)
    assert len(rt._fifo) <= len(m.memory.epcm) == 0


def test_sgx_fifo_holds_each_granule_once_in_latest_tracking_order(fixture_dir):
    m = Machine(small_config(audit_after_leaf=False))
    rt = HostRuntime(m)
    for _ in range(50):
        rt.destroy(load_standard(rt, fixture_dir))
    h = load_standard(rt, fixture_dir)
    assert len(rt._fifo) <= len(m.memory.epcm)
    # a re-tracked granule moves behind the others instead of being queued twice
    first, second = list(rt._fifo)[:2]
    rt._track_resident(first)
    assert list(rt._fifo)[-1] == first and list(rt._fifo)[0] == second
    assert len(rt._fifo) == len(set(rt._fifo)) == len(m.memory.gpts.owned[h.eid]) - 1
