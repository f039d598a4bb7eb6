"""Granule protection tables, access checking, and the EPC page map."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ccxsim.errors import GranuleProtectionFault, ModelError
from ccxsim.machine import Machine
from ccxsim.memory import (
    GRANULE_SIZE,
    AccessContext,
    EpcmEntry,
    MachineMemory,
    PageType,
    Pas,
    Perms,
    SecurityState,
    access_allowed,
)
from ccxsim.microprograms import DEFAULT_ENCLAVE_BASE
from ccxsim.structs import Attributes, SecInfo

from helpers import build_raw_enclave, free_epc_granules, small_config
from oracles import ACCESS_TRUTH


def fresh_memory(granules=256, span=(16, 144)):
    return MachineMemory(granules, span)


# ---------------------------------------------------------------------------
# Access matrix


def test_access_matrix_matches_hand_transcription():
    for accessor in SecurityState:
        for pas in Pas:
            expected = ACCESS_TRUTH[accessor.name][pas.name]
            assert access_allowed(accessor, pas) == expected, (accessor, pas)


def test_check_access_over_all_pas_values():
    mem = fresh_memory()
    for pas in Pas:
        mem.gpts.set_entry(5, pas)
        for accessor in SecurityState:
            assert mem.check_access(accessor, 5, None) == ACCESS_TRUTH[accessor.name][pas.name]
    mem.gpts.set_entry(5, Pas.NORMAL)


def test_normal_accessor_denied_on_realm_page():
    mem = fresh_memory()
    mem.gpts.set_entry(7, Pas.REALM)
    assert mem.check_access(SecurityState.NORMAL, 7, None) is False


def test_root_accessor_always_allowed():
    mem = fresh_memory()
    for pas in Pas:
        mem.gpts.set_entry(9, pas)
        assert mem.check_access(SecurityState.ROOT, 9, None) is True


def test_out_of_range_granule_is_model_error_not_denial():
    mem = fresh_memory(64, (16, 48))
    with pytest.raises(ModelError):
        mem.check_access(SecurityState.NORMAL, 64, None)
    with pytest.raises(ModelError):
        mem.read_granule(AccessContext(SecurityState.ROOT, None), 9999, 0, 1)


# ---------------------------------------------------------------------------
# Reads, writes, faults


HOST = AccessContext(SecurityState.NORMAL, None)


def test_host_reads_own_world():
    mem = fresh_memory()
    mem.write_granule(HOST, 3, 10, b"hello")
    assert mem.read_granule(HOST, 3, 10, 5) == b"hello"


def test_fresh_machine_memory_reads_zero_until_stored():
    mem = Machine(small_config(mode="ccx")).memory
    last = mem.granule_count - 1
    assert mem.read_granule(HOST, last, 0, GRANULE_SIZE) == bytes(GRANULE_SIZE)
    page = bytes(range(256)) * (GRANULE_SIZE // 256)
    mem.write_granule(HOST, last, 0, page)
    mem.write_granule(HOST, last, 100, b"patch")
    expected = page[:100] + b"patch" + page[105:]
    assert mem.read_granule(HOST, last, 0, GRANULE_SIZE) == expected
    assert mem.read_granule(HOST, last - 1, 0, GRANULE_SIZE) == bytes(GRANULE_SIZE)


def test_offset_overflow_is_model_error():
    mem = fresh_memory()
    with pytest.raises(ModelError):
        mem.read_granule(HOST, 3, GRANULE_SIZE - 2, 4)


def test_host_read_of_assigned_granule_faults_and_is_recorded(machine):
    enc = build_raw_enclave(machine)
    g = enc.granule(0x1000)
    before = len(machine.memory.gpf_log)
    with pytest.raises(GranuleProtectionFault) as exc:
        machine.host_read(g, 0, 8)
    assert len(machine.memory.gpf_log) == before + 1
    record = machine.memory.gpf_log[-1]
    assert record.granule == g
    assert record.accessor == SecurityState.NORMAL
    assert record.pas == Pas.NO_ACCESS
    assert exc.value.granule == g


def test_every_cross_enclave_pair_faults(machine):
    enclaves = [build_raw_enclave(machine) for _ in range(3)]
    for reader in enclaves:
        ctx = AccessContext(SecurityState.REALM, reader.eid)
        for target in enclaves:
            g = target.granule(0x0)
            if target.eid == reader.eid:
                assert machine.memory.read_granule(ctx, g, 0, 4) == b"\x11" * 4
            else:
                with pytest.raises(GranuleProtectionFault):
                    machine.memory.read_granule(ctx, g, 0, 4)


def test_enclave_can_read_normal_world(machine):
    enc = build_raw_enclave(machine)
    machine.host_write(3, 0, b"shared")
    ctx = AccessContext(SecurityState.REALM, enc.eid)
    assert machine.memory.read_granule(ctx, 3, 0, 6) == b"shared"


# ---------------------------------------------------------------------------
# Assignment protocol


def open_table(mem, eid, granule):
    """Store enclave `eid`'s SECS entry at `granule`, which opens its table."""
    mem.epcm_update(granule, EpcmEntry(page_type=PageType.SECS, owner=eid))


def reg(eid, vaddr=0x1000, **fields):
    """A REG entry of enclave `eid` at linear address `vaddr`."""
    return EpcmEntry(page_type=PageType.REG, owner=eid, vaddr=vaddr, **fields)


def test_epcm_update_moves_a_granule_into_and_out_of_the_enclave_world():
    mem = fresh_memory()
    assert 1 not in mem.gpts.owned
    open_table(mem, 1, 16)
    assert mem.gpts.owned[1] == {16}
    assert mem.gpts.entry(None, 16) == Pas.NO_ACCESS
    mem.write_granule(HOST, 30, 0, b"in place")
    mem.epcm_update(30, reg(1, 0x3000))
    assert mem.gpts.entry(1, 30) == Pas.REALM
    assert mem.gpts.entry(None, 30) == Pas.NO_ACCESS
    assert mem.gpts.owned[1] == {16, 30}
    root = AccessContext(SecurityState.ROOT, None)
    assert mem.read_granule(root, 30, 0, 8) == b"in place"  # no copy, no scrub
    mem.audit()
    with pytest.raises(ModelError):
        mem.epcm_update(30, mem.epcm[30]._replace(page_type=PageType.SECS))
    with pytest.raises(ModelError):
        mem.epcm_update(16, mem.epcm[16]._replace(page_type=PageType.REG))
    mem.epcm_update(30, None)
    assert mem.gpts.entry(None, 30) == Pas.NORMAL
    assert mem.gpts.owned[1] == {16}
    assert mem.read_granule(HOST, 30, 0, GRANULE_SIZE) == bytes(GRANULE_SIZE)
    mem.epcm_update(16, None)
    assert 1 not in mem.gpts.owned
    assert mem.gpts.entry(None, 16) == Pas.NORMAL
    assert not mem.epcm
    mem.audit()


def test_assign_then_unassign_restores_host_access():
    mem = fresh_memory()
    open_table(mem, 1, 16)
    mem.write_granule(HOST, 20, 0, b"secret")
    mem.epcm_update(20, reg(1))
    with pytest.raises(GranuleProtectionFault):
        mem.read_granule(HOST, 20, 0, 6)
    mem.epcm_update(20, None)
    assert mem.read_granule(HOST, 20, 0, 6) == b"\0" * 6  # scrubbed


def test_unassign_scrubs_content():
    mem = fresh_memory()
    open_table(mem, 1, 16)
    mem.epcm_update(21, reg(1))
    mem.write_granule(AccessContext(SecurityState.ROOT, None), 21, 0, b"\xff" * GRANULE_SIZE)
    mem.epcm_update(21, None)
    assert mem.read_granule(HOST, 21, 0, GRANULE_SIZE) == bytes(GRANULE_SIZE)


def test_assign_twice_rejected():
    mem = fresh_memory()
    open_table(mem, 1, 16)
    open_table(mem, 2, 17)
    mem.epcm_update(22, reg(1))
    with pytest.raises(ModelError):
        mem.epcm_update(22, reg(2))  # a valid page keeps its owner
    assert mem.epcm[22].owner == 1 and mem.gpts.owned[2] == {17}
    with pytest.raises(ModelError):
        mem.gpts.assign(2, 22)
    with pytest.raises(ModelError):
        mem.gpts.assign(1, 22)
    mem.audit()


def test_unassign_never_assigned_rejected():
    mem = fresh_memory()
    open_table(mem, 1, 16)
    with pytest.raises(ModelError):
        mem.gpts.unassign(1, 30)
    system = bytes(mem.gpts.system)
    mem.epcm_update(30, None)  # clearing an invalid granule moves no table
    assert bytes(mem.gpts.system) == system and mem.gpts.owned[1] == {16}


def test_fixed_mode_rejects_out_of_epc_assignment():
    mem = fresh_memory(256, (16, 48))
    open_table(mem, 1, 16)
    with pytest.raises(ModelError):
        mem.epcm_update(100, reg(1))  # outside [16, 48)
    assert mem.epcm_lookup(100) is None and mem.gpts.entry(None, 100) == Pas.NORMAL
    with pytest.raises(ModelError):
        open_table(mem, 2, 100)
    assert 2 not in mem.gpts.owned
    mem.epcm_update(17, reg(1))
    mem.audit()


def test_random_assignment_storm_keeps_invariants_and_round_trips():
    mem = fresh_memory(256, (16, 216))
    for eid in (1, 2, 3):
        open_table(mem, eid, 15 + eid)
    initial_system = bytes(mem.gpts.system)
    rng = random.Random(7)
    owned = {}
    for _ in range(1000):
        if owned and rng.random() < 0.5:
            g = rng.choice(sorted(owned))
            del owned[g]
            mem.epcm_update(g, None)
        else:
            g = rng.randrange(19, 216)
            if g in owned:
                continue
            eid = rng.choice((1, 2, 3))
            mem.epcm_update(g, reg(eid, g * GRANULE_SIZE))
            owned[g] = eid
        for g2, eid2 in owned.items():
            assert mem.gpts.entry(eid2, g2) == Pas.REALM
            assert mem.gpts.entry(None, g2) == Pas.NO_ACCESS
    mem.audit()
    for g in sorted(owned):
        mem.epcm_update(g, None)
    assert bytes(mem.gpts.system) == initial_system
    for eid in (1, 2, 3):
        assert mem.gpts.enclave[eid].count(int(Pas.REALM)) == 1  # its SECS
    mem.audit()


def test_seclusion_round_trip():
    mem = fresh_memory()
    open_table(mem, 1, 16)
    mem.epcm_update(40, EpcmEntry(page_type=PageType.VA))
    assert mem.gpts.owned[1] == {16}
    for accessor in (SecurityState.NORMAL, SecurityState.REALM, SecurityState.SECURE):
        assert not mem.check_access(accessor, 40, None)
        assert not mem.check_access(accessor, 40, 1)
    assert mem.check_access(SecurityState.ROOT, 40, None)
    mem.write_granule(AccessContext(SecurityState.ROOT, None), 40, 0, b"version")
    mem.epcm_update(40, None)
    assert mem.check_access(SecurityState.NORMAL, 40, None)
    assert mem.read_granule(HOST, 40, 0, 7) == bytes(7)  # scrubbed


# ---------------------------------------------------------------------------
# EPCM


def test_lookup_of_never_added_granule_is_invalid():
    mem = fresh_memory()
    assert mem.epcm_lookup(50) is None


def test_epcm_update_rejects_invariant_violations():
    mem = fresh_memory()
    bad = EpcmEntry(page_type=PageType.REG, owner=1, vaddr=0,
                    perms=Perms.R, pending=True, modified=True)
    with pytest.raises(ModelError):
        mem.epcm_update(60, bad)
    for bad in (EpcmEntry(page_type=PageType.VA, owner=1),
                EpcmEntry(page_type=PageType.REG, owner=None)):
        with pytest.raises(ModelError):
            mem.epcm_update(60, bad)
    assert mem.epcm_lookup(60) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=20))
def test_fuzzed_epcm_updates_never_hold_pending_and_modified(flips):
    mem = fresh_memory()
    entry = EpcmEntry(page_type=PageType.REG, owner=1, vaddr=0x1000,
                      perms=Perms.R | Perms.W)
    open_table(mem, 1, 16)
    mem.epcm_update(70, entry)
    for set_pending, set_modified, clear in flips:
        e = mem.epcm_lookup(70)
        if clear:
            e = e._replace(pending=False, modified=False)
        if set_pending and not e.modified:
            e = e._replace(pending=True)
        if set_modified and not e.pending:
            e = e._replace(modified=True)
        mem.epcm_update(70, e)
        stored = mem.epcm_lookup(70)
        assert not (stored.pending and stored.modified)


def test_epcm_update_maintains_vaddr_index():
    mem = fresh_memory()
    open_table(mem, 1, 16)
    mem.epcm_update(80, EpcmEntry(page_type=PageType.REG, owner=1,
                                  vaddr=0x4000, perms=Perms.R))
    assert mem.find_page(1, 0x4000) == 80
    assert mem.find_page(1, 0x4008) == 80  # same page
    mem.epcm_update(80, None)
    assert mem.find_page(1, 0x4000) is None
    # a refused double mapping leaves both the entry and its index in place
    mem.epcm_update(81, EpcmEntry(page_type=PageType.REG, owner=1, vaddr=0x5000))
    mem.epcm_update(82, EpcmEntry(page_type=PageType.REG, owner=1, vaddr=0x6000))
    with pytest.raises(ModelError):
        mem.epcm_update(82, EpcmEntry(page_type=PageType.REG, owner=1, vaddr=0x5000))
    assert mem.find_page(1, 0x5000) == 81 and mem.find_page(1, 0x6000) == 82


def test_secs_has_no_linear_address():
    mem = fresh_memory()
    open_table(mem, 1, 16)
    assert mem.find_page(1, 0) is None
    mem.epcm_update(80, reg(1, 0))
    assert mem.find_page(1, 0) == 80
    # new metadata for the SECS leaves the page at address 0 where it is
    mem.epcm_update(16, mem.epcm[16]._replace(blocked=True))
    assert mem.find_page(1, 0) == 80
    mem.epcm_update(80, None)
    mem.epcm_update(16, None)
    assert mem.vaddr_index == {}


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_enclave_based_at_zero_builds_like_one_at_the_default_base(mode):
    def measure_one_page(base):
        m = Machine(small_config(mode=mode))
        secs_g, page_g = free_epc_granules(m, 2)
        eid = m.leaf("ECREATE", secs_g, 1 << 21, 1, Attributes(debug=True), base)
        assert m.memory.find_page(eid, base) is None
        content = b"\x5a" * GRANULE_SIZE
        secinfo = SecInfo(Perms.R | Perms.W, PageType.REG)
        m.leaf("EADD", eid, base, secinfo, page_g, content)
        assert m.memory.find_page(eid, base) == page_g
        for chunk in range(0, GRANULE_SIZE, 256):
            m.leaf("EEXTEND", eid, base + chunk)
        m.audit()
        return m.enclaves[eid].mrenclave_state.copy().final()

    assert measure_one_page(0) == measure_one_page(DEFAULT_ENCLAVE_BASE)


def test_epcm_keeps_valid_granules_in_the_order_they_became_valid():
    """Eviction takes the oldest resident page from the front of the map: a
    replaced entry keeps its granule's place, a cleared and revalidated
    granule goes to the end."""
    mem = fresh_memory()
    open_table(mem, 1, 16)
    for i, g in enumerate((90, 91, 92)):
        mem.epcm_update(g, reg(1, (i + 1) * 0x1000))
    mem.epcm_update(90, mem.epcm[90]._replace(blocked=True))
    assert list(mem.epcm) == [16, 90, 91, 92]
    mem.epcm_update(90, None)
    mem.epcm_update(90, reg(1))
    assert list(mem.epcm) == [16, 91, 92, 90]


def test_audit_catches_planted_inconsistency(machine):
    enc = build_raw_enclave(machine)
    machine.audit()
    g = enc.granule(0x0)
    machine.memory.gpts.set_entry(g, Pas.NORMAL)  # host window onto enclave page
    with pytest.raises(ModelError):
        machine.audit()


def test_audit_catches_owned_granule_without_epcm_entry(machine):
    enc = build_raw_enclave(machine)
    machine.audit()
    stray = free_epc_granules(machine, 1)[0]
    machine.memory.gpts.owned[enc.eid].add(stray)  # realm view of a free granule
    assert machine.memory.gpts.entry(enc.eid, stray) == Pas.REALM
    with pytest.raises(ModelError):
        machine.audit()


def test_audit_catches_granule_in_two_owned_sets(machine):
    a = build_raw_enclave(machine)
    b = build_raw_enclave(machine)
    machine.audit()
    g = a.granule(0x0)
    machine.memory.gpts.owned[b.eid].add(g)  # b's view now reaches a's page
    assert machine.memory.gpts.entry(b.eid, g) == Pas.REALM
    with pytest.raises(ModelError):
        machine.audit()


@pytest.mark.parametrize("fault", ["stale", "missing"])
def test_audit_catches_a_page_address_index_out_of_step_with_the_epcm(machine, fault):
    enc = build_raw_enclave(machine)
    machine.audit()
    index = machine.memory.vaddr_index
    if fault == "stale":  # a key no EPCM entry gives
        index[(enc.eid, enc.base + enc.size - GRANULE_SIZE)] = enc.granule(0x0)
    else:
        del index[(enc.eid, enc.base)]
    with pytest.raises(ModelError, match="page-address index"):
        machine.audit()


def test_enclave_views_derive_from_system_table_and_owned_set():
    mem = fresh_memory()
    open_table(mem, 1, 16)
    open_table(mem, 2, 17)
    mem.epcm_update(20, reg(1))
    mem.epcm_update(21, EpcmEntry(page_type=PageType.VA))
    view = mem.gpts.enclave[1]
    assert view == mem.gpts.table(1)
    assert Pas(view[20]) == Pas.REALM and Pas(view[21]) == Pas.NO_ACCESS
    assert Pas(mem.gpts.enclave[2][20]) == Pas.NO_ACCESS
    with pytest.raises(ModelError):
        mem.gpts.entry(3, 20)  # no such table
    with pytest.raises(ModelError):
        mem.gpts.drop_enclave_table(1)  # still owns granule 20
    assert 1 in mem.gpts.enclave
    mem.epcm_update(20, None)
    assert 1 in mem.gpts.enclave  # its SECS keeps the table open
    mem.epcm_update(16, None)
    assert set(mem.gpts.enclave) == {2}


def test_mode_confinement_audit():
    m = Machine(small_config(audit_after_leaf=False))
    enc = build_raw_enclave(m)
    m.audit()
    # Teleport an EPCM entry outside the fixed window: audit must object.
    g = enc.granule(0x1000)
    entry = m.memory.epcm.pop(g)
    m.memory.epcm[300] = entry
    with pytest.raises(ModelError):
        m.memory.audit()


# ---------------------------------------------------------------------------
# Free-granule search


@settings(max_examples=80, deadline=None)
@given(
    fixed=st.booleans(),
    ops=st.lists(
        st.tuples(st.sampled_from(["assign", "unassign", "seclude", "unseclude"]),
                  st.integers(0, 63)),
        max_size=60,
    ),
    bounds=st.lists(st.tuples(st.integers(0, 64), st.integers(0, 64)), max_size=6),
)
def test_first_free_matches_scan_over_is_free(fixed, ops, bounds):
    mem = MachineMemory(64, (16, 40) if fixed else (2, 64))
    secs = mem.epc_span()[0]
    open_table(mem, 1, secs)
    for op, g in ops:
        entry = mem.epcm.get(g)
        usable = mem.is_free(g) and mem.epc_admissible(g)
        if op == "assign" and usable:
            mem.epcm_update(g, reg(1, g * GRANULE_SIZE, perms=Perms.R))
        elif op == "seclude" and usable:
            mem.epcm_update(g, EpcmEntry(page_type=PageType.VA))
        elif (
            op in ("unassign", "unseclude") and g != secs and entry is not None
            and (entry.owner is None) == (op == "unseclude")
        ):
            mem.epcm_update(g, None)
    mem.audit()
    for lo, hi in bounds + [mem.epc_span(), (0, 64)]:
        scan = next((g for g in range(lo, hi) if mem.is_free(g)), None)
        assert mem.first_free(lo, hi) == scan, (lo, hi)


@pytest.mark.parametrize("span", [(20, 20), (30, 20), (0, 40), (1, 40), (16, 257)])
def test_memory_refuses_an_empty_span_or_one_outside_the_unreserved_granules(span):
    with pytest.raises(ModelError, match="EPC span"):
        MachineMemory(256, span)


def test_epc_span_bounds_admissibility():
    fixed = fresh_memory()
    assert fixed.epc_span() == (16, 144)
    assert [fixed.epc_admissible(g) for g in (15, 16, 143, 144)] == [
        False, True, True, False]
    dynamic = fresh_memory(span=(2, 256))
    assert dynamic.epc_span() == (2, 256)
    assert [dynamic.epc_admissible(g) for g in (1, 2, 255, 256)] == [
        False, True, True, False]
