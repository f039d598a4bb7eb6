"""Host runtime allocation: lowest free granule first, in both memory modes,
and the version array that keeps eviction possible."""

from ccxsim import fixtures
from ccxsim.machine import Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.memory import RESERVED_GRANULES, Pas, PageType
from ccxsim.runtime import HostRuntime

from helpers import small_config


def load_standard(rt, fixture_dir):
    path = fixtures.write_standard_manifest(fixture_dir, "alloc")
    return rt.load_enclave(EnclaveManifest.load(path))


def test_sgx_host_allocation_takes_the_lowest_free_granule_below_the_window(runtime):
    mem = runtime.machine.memory
    lo, hi = mem.epc_span()
    assert lo > RESERVED_GRANULES
    for g in range(RESERVED_GRANULES, lo):
        if g % 2:
            mem.gpts.set_entry(g, Pas.NO_ACCESS)  # put to use by something else
        else:
            assert runtime.take_host_granule() == g  # the host holds it from now on
    assert runtime.take_host_granule() == hi


def test_sgx_host_granule_comes_from_the_window_when_nothing_outside_is_free(
        runtime, fixture_dir):
    """A free window granule is ordinary normal-world memory, so with every
    granule outside the window taken the host gets one of those instead."""
    m = runtime.machine
    mem = m.memory
    lo, hi = mem.epc_span()
    outside = list(range(RESERVED_GRANULES, lo)) + list(range(hi, mem.granule_count))
    assert [runtime.take_host_granule() for _ in outside] == outside
    g = runtime.take_host_granule()
    assert g == lo and mem.is_free(g)
    m.host_write(g, 0, b"host data")
    h = load_standard(runtime, fixture_dir)
    assert g not in mem.gpts.owned[h.eid] and g not in mem.epcm
    assert m.host_read(g, 0, 9) == b"host data"
    m.audit()


def test_ccx_reload_leaves_a_host_granule_to_the_host(fixture_dir):
    m = Machine(small_config(mode="ccx"))
    rt = HostRuntime(m)
    load_standard(rt, fixture_dir)
    g = rt.take_host_granule()
    m.host_write(g, 0, b"host data")
    second = load_standard(rt, fixture_dir)
    assert g not in m.memory.gpts.owned[second.eid] and g not in m.memory.epcm
    assert m.host_read(g, 0, 9) == b"host data"
    assert rt.take_epc_granule() != g and rt.take_host_granule() != g


def test_ccx_host_granule_from_a_full_memory_evicts_an_enclave_page(fixture_dir):
    """Host data shares the span with enclave pages in ccx mode, so with
    every granule taken the host gets one by a writeback."""
    m = Machine(small_config(mode="ccx", granule_count=256))
    rt = HostRuntime(m)
    path = fixtures.write_toucher_manifest(fixture_dir, "overfull", size=1 << 23)
    h = rt.load_enclave(EnclaveManifest.load(path))
    assert rt.ecall(h, 0, 1, 300, step_budget=20_000_000) == fixtures.toucher_expected(300)
    assert m.memory.first_free(RESERVED_GRANULES, m.memory.granule_count) is None
    evictions = rt.swap_out_events
    g = rt.take_host_granule()
    assert rt.swap_out_events > evictions and g not in m.memory.epcm
    m.host_write(g, 0, b"host data")
    m.audit()
    assert rt.ecall(h, 0, 1, 0) == fixtures.toucher_expected(0)
    assert m.host_read(g, 0, 9) == b"host data"


def test_ccx_reload_after_destroy_gets_the_freed_granules(fixture_dir):
    m = Machine(small_config(mode="ccx"))
    rt = HostRuntime(m)
    first = load_standard(rt, fixture_dir)
    freed = set(m.memory.gpts.owned[first.eid])
    rt.destroy(first)
    second = load_standard(rt, fixture_dir)
    assert set(m.memory.gpts.owned[second.eid]) == freed


def test_ccx_load_destroy_cycles_stay_below_the_first_loads_top_granule(fixture_dir):
    m = Machine(small_config(mode="ccx", audit_after_leaf=False))
    rt = HostRuntime(m)
    h = load_standard(rt, fixture_dir)
    top = max(m.memory.gpts.owned[h.eid])
    for _ in range(50):
        rt.destroy(h)
        h = load_standard(rt, fixture_dir)
        assert max(m.memory.gpts.owned[h.eid]) <= top


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

