"""Blocking, tracking, version arrays, and the swap protocol."""

import hashlib

import pytest

from ccxsim.errors import ModelError, PageAccessFault, SgxError, SgxErrorCode as E
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE, PageType, Perms
from ccxsim.runtime import AEP_GATE, RECLAIM_BATCH, EnclaveFault, HostRuntime, RETURN_GATE
from ccxsim.structs import EMPTY_SLOT, EXIT_IRQ, Pcmd, VA_SLOT_COUNT, VA_SLOT_SIZE

from helpers import (BASE, build_raw_enclave, check_paging_records, free_epc_granules, refusing,
                     small_config)


def _swap_env(machine):
    enc = build_raw_enclave(machine, tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000}],
                            page_specs=[
                                (0x0000, "rx", b"\x11" * GRANULE_SIZE),
                                (0x1000, "rw", b"\x22" * GRANULE_SIZE),
                                (0x2000, "rw", b""),
                                (0x3000, "rw", b""),
                            ])
    va = free_epc_granules(machine, 1)[0]
    machine.leaf("EPA", va)
    return machine, enc, va


@pytest.fixture
def swap_env(machine):
    """Initialized enclave with a data page, plus a version array."""
    return _swap_env(machine)


@pytest.fixture(params=["sgx", "ccx"])
def swap_env_both(request):
    """``swap_env`` in each memory mode."""
    return _swap_env(Machine(small_config(mode=request.param)))


def swap_out(machine, enc, off, va, slot):
    g = enc.pages[off]
    machine.leaf("EBLOCK", g)
    machine.leaf("ETRACK", enc.eid)
    return machine.leaf("EWB", g, va, slot)


# ---------------------------------------------------------------------------
# EBLOCK


def test_eblock_then_double_block(swap_env):
    machine, enc, _ = swap_env
    g = enc.granule(0x1000)
    machine.leaf("EBLOCK", g)
    assert machine.memory.epcm_lookup(g).blocked
    with pytest.raises(SgxError) as exc:
        machine.leaf("EBLOCK", g)
    assert exc.value.code == E.ALREADY_BLOCKED


def test_eblock_invalid_page(machine):
    with pytest.raises(SgxError) as exc:
        machine.leaf("EBLOCK", 50)
    assert exc.value.code == E.PAGE_INVALID


def test_eblock_rejects_secs(swap_env):
    machine, enc, _ = swap_env
    with pytest.raises(SgxError) as exc:
        machine.leaf("EBLOCK", enc.secs_granule)
    assert exc.value.code == E.PAGE_INVALID


# ---------------------------------------------------------------------------
# ETRACK gating


def test_etrack_requires_initialized_enclave(machine):
    enc = build_raw_enclave(machine, init=False)
    with pytest.raises(SgxError) as exc:
        machine.leaf("ETRACK", enc.eid)
    assert exc.value.code == E.NOT_INITIALIZED


def test_ewb_without_block_rejected(swap_env):
    machine, enc, va = swap_env
    with pytest.raises(SgxError) as exc:
        machine.leaf("EWB", enc.granule(0x1000), va, 0)
    assert exc.value.code == E.NOT_BLOCKED


def test_ewb_without_track_rejected(swap_env):
    machine, enc, va = swap_env
    g = enc.granule(0x1000)
    machine.leaf("EBLOCK", g)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EWB", g, va, 0)
    assert exc.value.code == E.NOT_TRACKED


def test_ewb_draws_again_a_version_that_reads_as_an_empty_slot(swap_env, monkeypatch):
    """A filed version never reads as an empty slot: EWB draws again when
    the random stream gives one (``microprograms.py:343``)."""
    machine, enc, va = swap_env
    draws = [EMPTY_SLOT]
    real = machine.rand_bytes
    monkeypatch.setattr(machine, "rand_bytes",
                        lambda n: draws.pop() if draws and n == VA_SLOT_SIZE else real(n))
    swap_out(machine, enc, 0x1000, va, 0)
    assert not draws
    assert machine.memory.load(va, 0, VA_SLOT_SIZE) != EMPTY_SLOT


def test_ewb_gated_until_pre_track_threads_exit(swap_env):
    machine, enc, va = swap_env
    rt = HostRuntime(machine)
    vcpu = machine.vcpus[0]
    tcs_g = enc.pages[0x4000]
    g = enc.granule(0x1000)

    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)  # thread enters
    machine.leaf("EBLOCK", g)
    machine.leaf("ETRACK", enc.eid)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EWB", g, va, 0)
    assert exc.value.code == E.NOT_TRACKED
    machine.enclu(vcpu, 0x4, RETURN_GATE)  # thread exits
    machine.leaf("EWB", g, va, 0)  # now permitted


def test_etrack_with_undrained_previous_epoch_rejected(swap_env):
    machine, enc, va = swap_env
    vcpu = machine.vcpus[0]
    tcs_g = enc.pages[0x4000]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    machine.leaf("ETRACK", enc.eid)  # thread is now in a previous epoch
    with pytest.raises(SgxError) as exc:
        machine.leaf("ETRACK", enc.eid)
    assert exc.value.code == E.PREV_TRK_INCMPL
    machine.enclu(vcpu, 0x4, RETURN_GATE)
    machine.leaf("ETRACK", enc.eid)


def test_hand_traced_two_thread_epoch_table(swap_env):
    """Interleaving traced by hand:
    t0 enters (epoch 0) / block / track (-> epoch 1): writeback is gated on
    t0 alone.  After t0 exits, a thread entering in the current epoch does
    not re-gate the writeback.
    """
    machine, enc, va = swap_env
    t0, t1 = machine.vcpus[0], machine.vcpus[1]
    g = enc.granule(0x1000)
    secs = machine.enclaves[enc.eid]
    tcs_g = enc.pages[0x4000]

    machine.enclu(t0, 0x2, tcs_g, AEP_GATE)  # t0 inside, epoch 0
    machine.leaf("EBLOCK", g)
    machine.leaf("ETRACK", enc.eid)  # epoch 1; t0 counted in epoch 0
    assert secs.threads_before(secs.track_epoch) == 1
    with pytest.raises(SgxError):
        machine.leaf("EWB", g, va, 0)
    machine.enclu(t0, 0x4, RETURN_GATE)
    # t1 enters in the current epoch: must not block the writeback
    machine.enclu(t1, 0x2, tcs_g, AEP_GATE)
    assert secs.threads_before(secs.track_epoch) == 0
    machine.leaf("EWB", g, va, 0)
    machine.enclu(t1, 0x4, RETURN_GATE)


def test_epoch_table_keeps_only_live_epochs(swap_env):
    """Drained epochs leave no entry, however many ETRACKs a run issues."""
    machine, enc, _va = swap_env
    vcpu = machine.vcpus[0]
    secs = machine.enclaves[enc.eid]
    tcs_g = enc.pages[0x4000]
    for _ in range(100):
        machine.leaf("ETRACK", enc.eid)
        machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
        machine.leaf("ETRACK", enc.eid)
        machine.inject_interrupt(vcpu)  # AEX leaves, ERESUME re-enters
        machine.enclu(vcpu, 0x3, tcs_g, AEP_GATE)
        assert len(secs.entered_counts) <= 1
        machine.enclu(vcpu, 0x4, RETURN_GATE)
        assert len(secs.entered_counts) <= 1
    assert secs.entered_counts == {}
    assert secs.threads_before(secs.track_epoch) == 0


# ---------------------------------------------------------------------------
# EPA / version arrays


def test_epa_creates_unowned_va_page(machine):
    g = free_epc_granules(machine, 1)[0]
    machine.leaf("EPA", g)
    entry = machine.memory.epcm_lookup(g)
    assert entry is not None and entry.page_type == PageType.VA and entry.owner is None
    machine.audit()


def test_epa_occupied_granule_rejected(machine):
    g = free_epc_granules(machine, 1)[0]
    machine.leaf("EPA", g)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EPA", g)
    assert exc.value.code == E.OCCUPIED


def test_va_slot_exhaustion_512_then_513th_fails():
    cfg = small_config(granule_count=2048, epc_base=32, epc_size=1024,
                       audit_after_leaf=False)
    m = Machine(cfg)
    specs = [(0x1000 * i, "rw", bytes([i & 0xFF]) * 64) for i in range(513)]
    enc = build_raw_enclave(m, size=1 << 22, page_specs=specs, measure=False)
    va = free_epc_granules(m, 1)[0]
    m.leaf("EPA", va)
    for off in sorted(enc.pages):
        m.leaf("EBLOCK", enc.pages[off])
    m.leaf("ETRACK", enc.eid)
    for slot, off in enumerate(sorted(enc.pages)[:VA_SLOT_COUNT]):
        m.leaf("EWB", enc.pages[off], va, slot)
    leftover = sorted(enc.pages)[VA_SLOT_COUNT]
    for slot in range(VA_SLOT_COUNT):
        with pytest.raises(SgxError) as exc:
            m.leaf("EWB", enc.pages[leftover], va, slot)
        assert exc.value.code == E.VA_SLOT_OCCUPIED
    m.audit()


# ---------------------------------------------------------------------------
# EWB / ELDU round trips


def test_swap_round_trip_restores_page_bit_exact(swap_env):
    machine, enc, va = swap_env
    g = enc.granule(0x1000)
    machine.leaf("EDBGWR", g, 0, b"precious data")
    original = machine.leaf("EDBGRD", g, 0, GRANULE_SIZE)
    blob = swap_out(machine, enc, 0x1000, va, 0)
    assert machine.memory.epcm_lookup(g) is None
    assert machine.host_read(g, 0, 16) == b"\0" * 16  # scrubbed
    target = free_epc_granules(machine, 1)[0]
    machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 0, target, enc.eid)
    assert machine.leaf("EDBGRD", target, 0, GRANULE_SIZE) == original
    entry = machine.memory.epcm_lookup(target)
    assert entry.vaddr == BASE + 0x1000 and entry.perms == (Perms.R | Perms.W)
    assert not entry.blocked


def test_a_reload_checks_its_address_before_its_granule(swap_env):
    """ELDU places a page by the rule EADD and EAUG follow: a reload whose
    address is taken again and whose target granule is in use reads
    VADDR_COLLISION; with the address free, the used granule reads OCCUPIED."""
    machine, enc, va = swap_env
    blob = swap_out(machine, enc, 0x1000, va, 0)
    used = enc.granule(0x0000)
    machine.leaf("EAUG", enc.eid, BASE + 0x1000, free_epc_granules(machine, 1)[0])
    with pytest.raises(SgxError) as exc:
        machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 0, used, enc.eid)
    assert exc.value.code == E.VADDR_COLLISION
    machine.leaf("EREMOVE", machine.memory.find_page(enc.eid, BASE + 0x1000))
    with pytest.raises(SgxError) as exc:
        machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 0, used, enc.eid)
    assert exc.value.code == E.OCCUPIED
    machine.audit()


def test_ciphertext_is_not_plaintext(swap_env):
    machine, enc, va = swap_env
    g = enc.granule(0x1000)
    plaintext = machine.leaf("EDBGRD", g, 0, GRANULE_SIZE)
    blob = swap_out(machine, enc, 0x1000, va, 0)
    differing = sum(1 for a, b in zip(plaintext, blob.ciphertext) if a != b)
    assert differing / GRANULE_SIZE > 0.95


def test_ewb_wire_format_is_pinned(swap_env):
    """A round trip cannot see a reordered PCMD field or a changed AEAD input;
    these bytes can.  PCMD: type REG, perms rw, not pending, not modified, no
    staged type (0xFF), three pad bytes, owner 1, page address BASE + 0x1000,
    then the 16-byte MAC."""
    machine, enc, va = swap_env
    machine.leaf("EDBGWR", enc.granule(0x1000), 0, bytes(range(256)) * 16)
    blob = swap_out(machine, enc, 0x1000, va, 5)
    assert blob.pcmd.pack().hex() == (
        "02030000ff000000" "0100000000000000" "0010000002000000"
        "c1cb3f3b3dae020999d0d1c3f58aa51b"
    )
    assert hashlib.sha256(blob.ciphertext).hexdigest() == (
        "97ee0c1b97444020ad0c9ad0308aa694c2d7af2d6595c42fe8422e7a13b3d083"
    )


def test_tampered_ciphertext_fails_mac(swap_env):
    machine, enc, va = swap_env
    blob = swap_out(machine, enc, 0x1000, va, 0)
    target = free_epc_granules(machine, 1)[0]
    bad = bytearray(blob.ciphertext)
    bad[123] ^= 1
    with pytest.raises(SgxError) as exc:
        machine.leaf("ELDU", bytes(bad), blob.pcmd, va, 0, target, enc.eid)
    assert exc.value.code == E.MAC_COMPARE_FAIL


def test_tampered_metadata_fails_mac(swap_env):
    machine, enc, va = swap_env
    blob = swap_out(machine, enc, 0x1000, va, 0)
    target = free_epc_granules(machine, 1)[0]
    raw = bytearray(blob.pcmd.pack())
    raw[0] ^= 0x4  # page type byte on the wire
    with pytest.raises(SgxError) as exc:
        machine.leaf("ELDU", blob.ciphertext, Pcmd.unpack(bytes(raw)), va, 0,
                     target, enc.eid)
    assert exc.value.code == E.MAC_COMPARE_FAIL


def test_replay_after_consume_fails_version_check(swap_env):
    machine, enc, va = swap_env
    blob = swap_out(machine, enc, 0x1000, va, 0)
    t1, t2 = free_epc_granules(machine, 2)
    machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 0, t1, enc.eid)
    machine.leaf("EREMOVE", t1)  # make room at the same address
    with pytest.raises(SgxError) as exc:
        machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 0, t2, enc.eid)
    assert exc.value.code == E.VERSION_MISMATCH


def test_stale_blob_against_reused_slot_fails(swap_env):
    machine, enc, va = swap_env
    old = swap_out(machine, enc, 0x1000, va, 0)
    t1 = free_epc_granules(machine, 1)[0]
    machine.leaf("ELDU", old.ciphertext, old.pcmd, va, 0, t1, enc.eid)
    # same slot now versions a different page
    fresh = swap_out(machine, enc, 0x3000, va, 0)
    machine.leaf("EREMOVE", machine.memory.find_page(enc.eid, BASE + 0x1000))
    t2 = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("ELDU", old.ciphertext, old.pcmd, va, 0, t2, enc.eid)
    assert exc.value.code == E.MAC_COMPARE_FAIL


def test_eldb_reloads_blocked(swap_env):
    machine, enc, va = swap_env
    blob = swap_out(machine, enc, 0x1000, va, 0)
    target = free_epc_granules(machine, 1)[0]
    machine.leaf("ELDB", blob.ciphertext, blob.pcmd, va, 0, target, enc.eid)
    entry = machine.memory.epcm_lookup(target)
    assert entry.blocked
    # a further writeback needs a fresh track epoch
    with pytest.raises(SgxError) as exc:
        machine.leaf("EWB", target, va, 0)
    assert exc.value.code == E.NOT_TRACKED
    machine.leaf("ETRACK", enc.eid)
    blob2 = machine.leaf("EWB", target, va, 0)
    target2 = free_epc_granules(machine, 1)[0]
    machine.leaf("ELDU", blob2.ciphertext, blob2.pcmd, va, 0, target2, enc.eid)
    assert not machine.memory.epcm_lookup(target2).blocked


def test_eld_into_dead_enclave_rejected(swap_env):
    machine, enc, va = swap_env
    blob = swap_out(machine, enc, 0x1000, va, 0)
    for off in sorted(enc.pages):
        g = machine.memory.find_page(enc.eid, BASE + off)
        if g is not None:
            machine.leaf("EREMOVE", g)
    machine.leaf("EREMOVE", enc.secs_granule)
    target = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 0, target, enc.eid)
    assert exc.value.code == E.UNKNOWN_ENCLAVE


def test_swapped_pending_page_keeps_its_flags(swap_env):
    """A grown-but-unaccepted page survives eviction still pending."""
    machine, enc, va = swap_env
    g = free_epc_granules(machine, 1)[0]
    machine.leaf("EAUG", enc.eid, BASE + 0x9000, g)
    machine.leaf("EBLOCK", g)
    machine.leaf("ETRACK", enc.eid)
    blob = machine.leaf("EWB", g, va, 7)
    target = free_epc_granules(machine, 1)[0]
    machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 7, target, enc.eid)
    entry = machine.memory.epcm_lookup(target)
    assert entry.pending and entry.page_type == PageType.REG
    # acceptance proceeds exactly as if the page never left
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    from ccxsim.structs import SecInfo

    machine.enclu(vcpu, 0x5, target, SecInfo(Perms.R | Perms.W, PageType.REG))
    machine.enclu(vcpu, 0x4, RETURN_GATE)
    assert not machine.memory.epcm_lookup(target).pending


def test_tcs_exit_notification_needs_enclave_permission(machine):
    from ccxsim.errors import SgxErrorCode
    from ccxsim.structs import Attributes

    with pytest.raises(SgxError) as exc:
        build_raw_enclave(
            machine,
            attributes=Attributes(debug=True, aexnotify_allowed=False),
            page_specs=[(0x0000, "rx", b"\x11" * GRANULE_SIZE),
                        (0x2000, "rw", b""), (0x3000, "rw", b"")],
            tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000, "aexnotify": True}],
        )
    assert exc.value.code == SgxErrorCode.BAD_TCS_LAYOUT


def test_swapped_tcs_preserves_thread_state(swap_env):
    machine, enc, va = swap_env
    tcs_g = enc.pages[0x4000]
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    machine.inject_interrupt(vcpu)  # cssa -> 1 on an aex
    assert machine.read_tcs(tcs_g).cssa == 1
    machine.leaf("EBLOCK", tcs_g)
    machine.leaf("ETRACK", enc.eid)
    blob = machine.leaf("EWB", tcs_g, va, 0)
    target = free_epc_granules(machine, 1)[0]
    machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 0, target, enc.eid)
    assert machine.read_tcs(target).cssa == 1
    machine.enclu(vcpu, 0x3, target, AEP_GATE)  # resume through the moved TCS
    assert vcpu.in_enclave
    machine.enclu(vcpu, 0x4, RETURN_GATE)


def test_eenter_refuses_a_blocked_tcs(swap_env_both):
    machine, enc, _ = swap_env_both
    tcs_g, vcpu = enc.pages[0x4000], machine.vcpus[0]
    machine.leaf("EBLOCK", tcs_g)
    with pytest.raises(SgxError, match="TCS page is blocked") as exc:
        machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    assert exc.value.code == E.PAGE_INVALID
    assert vcpu.cur_eid is None and machine.read_tcs(tcs_g).cssa == 0


def test_eresume_refuses_a_thread_whose_saved_frame_was_written_back(swap_env_both):
    """The frame an AEX saved to is written back while its thread is out:
    ERESUME faults on that frame before it switches in, is not counted, and
    the thread keeps its state."""
    machine, enc, va = swap_env_both
    tcs_g, vcpu = enc.pages[0x4000], machine.vcpus[0]
    machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
    machine.inject_interrupt(vcpu)  # frame 0, at 0x2000, holds the context
    swap_out(machine, enc, 0x2000, va, 0)
    resumes = machine.counters["ERESUME"]
    with pytest.raises(PageAccessFault) as fault:
        machine.enclu(vcpu, 0x3, tcs_g, AEP_GATE)
    assert fault.value.vaddr == BASE + 0x2000
    assert fault.value.why == "save-state page is not resident"
    assert vcpu.cur_eid is None and machine.read_tcs(tcs_g).cssa == 1
    assert machine.counters["ERESUME"] == resumes


def test_ewb_refuses_a_secs_page(swap_env_both):
    machine, enc, va = swap_env_both
    entry = machine.memory.epcm_lookup(enc.secs_granule)
    with pytest.raises(SgxError, match="SECS pages are not swappable here") as exc:
        machine.leaf("EWB", enc.secs_granule, va, 0)
    assert exc.value.code == E.PAGE_INVALID
    assert machine.memory.epcm_lookup(enc.secs_granule) == entry
    swap_out(machine, enc, 0x1000, va, 0)  # the refusal left slot 0 free


def test_block_swap_reload_restores_enclave_access(machine):
    """The full round trip through a running program: a blocked page faults,
    the reloaded page serves reads again."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import HostRuntime

    rt = HostRuntime(machine)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = fixtures.write_standard_manifest(tmp)
        h = rt.load_enclave(EnclaveManifest.load(path))
    scratch = h.base + fixtures.SCRATCH_OFF
    assert rt.ecall(h, 0, fixtures.SEL_POKE, scratch + 64, 777) == 777
    rt.swap_out(h, scratch)
    assert machine.memory.find_page(h.eid, scratch) is None
    # access faults, the driver demand-pages it back in, value intact
    assert rt.ecall(h, 0, fixtures.SEL_PEEK, scratch + 64) == 777
    assert rt.swap_in_events >= 1


def test_swap_out_inside_a_page_files_the_blob_under_the_page(machine, fixture_dir):
    """An offset into the page evicts that page, and demand paging finds it."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    rt = HostRuntime(machine)
    path = fixtures.write_standard_manifest(fixture_dir, "midpage")
    h = rt.load_enclave(EnclaveManifest.load(path))
    scratch = h.base + fixtures.SCRATCH_OFF
    assert rt.ecall(h, 0, fixtures.SEL_POKE, scratch + 64, 555) == 555
    rt.swap_out(h, scratch + 8)
    assert rt.store.keys_for(h.eid) == [scratch]
    assert rt.ecall(h, 0, fixtures.SEL_PEEK, scratch + 64) == 555
    assert rt.swap_in_events == 1
    assert rt.store.keys_for(h.eid) == []


def test_entry_pages_in_the_frame_the_next_aex_saves_to(machine, fixture_dir):
    """With save-state frame 0 swapped out, an interrupted ecall still saves
    its context there instead of crashing the enclave."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    rt = HostRuntime(machine)
    path = fixtures.write_compute_manifest(fixture_dir, "ssa0")
    h = rt.load_enclave(EnclaveManifest.load(path))
    frame0 = h.base + fixtures.SSA_OFF
    rt.swap_out(h, frame0)
    assert rt.ecall(h, 0, 0, 40, inject_at={30}) == fixtures.compute_expected(40)
    assert machine.memory.find_page(h.eid, frame0) is not None


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("filed, leaves", [
    (["frame0"], ["eldu", "eenter", "eexit"]),
    (["tcs"], ["eldu", "eenter", "eexit"]),
    (["tcs", "frame0"], ["eldu", "eldu", "eenter", "eexit"]),
    (["frame1"], ["eenter", "eexit"]),
])
def test_the_leaves_an_entry_issues_with_thread_pages_filed(mode, filed, leaves, fixture_dir):
    """An entry of a plain thread at cssa 0 reloads its filed TCS, then its
    filed frame 0, the one its next AEX writes, once EENTER faults on it (a
    faulted leaf writes no record), and then enters; frame 1 it leaves
    filed, and an EPC with room writes nothing back."""
    from ccxsim import fixtures
    from ccxsim.machine import ALL_LEAF_NAMES
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(mode=mode))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir)))
    frame0 = h.base + fixtures.SSA_OFF
    pages = {"tcs": h.tcs_vaddrs[0], "frame0": frame0, "frame1": frame0 + GRANULE_SIZE}
    for name in filed:
        rt.swap_out(h, pages[name])
    machine.trace = []
    assert rt.ecall(h, 0, 0, 5) == fixtures.compute_expected(5)
    names = {name.lower() for name in ALL_LEAF_NAMES}
    assert [r["kind"] for r in machine.trace if r["kind"] in names] == leaves
    assert rt.store.keys_for(h.eid) == ([pages["frame1"]] if filed == ["frame1"] else [])


def test_the_victim_filter_keeps_no_page_of_an_interrupted_thread(fixture_dir):
    """No thread page is pinned: while a plain thread of nssa 2 is
    interrupted, the victim filter admits every page of its enclave, its TCS
    and both save-state frames included.  While the resumed thread runs in
    the enclave it admits none, and once the thread exits, all again."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config())
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir)))
    pages = {
        entry.vaddr: g for g, entry in machine.memory.epcm.items()
        if entry.owner == h.eid and entry.page_type in (PageType.REG, PageType.TCS)
    }

    def kept():
        return {vaddr for vaddr, g in pages.items() if not rt.victim_filter(g)}

    with rt.entered(h) as vcpu:
        machine.inject_interrupt(vcpu)
    frame0 = h.base + fixtures.SSA_OFF
    assert {h.tcs_vaddrs[0], frame0, frame0 + GRANULE_SIZE} <= set(pages)
    assert kept() == set()
    machine.leaf("ERESUME", pages[h.tcs_vaddrs[0]], AEP_GATE, vcpu=vcpu)
    assert kept() == set(pages)
    machine.leaf("EEXIT", RETURN_GATE, vcpu=vcpu)
    assert kept() == set()


def test_an_ecall_of_an_enclave_with_nothing_swapped_out_reads_its_tcs_once(
        machine, fixture_dir, monkeypatch):
    """Only the entry leaf reads the TCS, whether or not a page of the
    enclave is swapped out: the runtime never reads it to find the frames."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir, "once")))
    reads = []
    read_tcs = Machine.read_tcs
    monkeypatch.setattr(Machine, "read_tcs", lambda m, g: reads.append(g) or read_tcs(m, g))
    assert rt.ecall(h, 0, 0, 5) == fixtures.compute_expected(5)
    assert len(reads) == 1
    rt.swap_out(h, h.base + fixtures.SCRATCH_OFF)
    reads.clear()
    assert rt.ecall(h, 0, 0, 5) == fixtures.compute_expected(5)
    assert len(reads) == 1


def test_a_warm_ecall_with_nothing_swapped_out_looks_its_tcs_up_once(
        machine, fixture_dir, monkeypatch):
    """The runtime looks the TCS up once, and EENTER then looks up the frame
    its next AEX writes: two page lookups, one for each."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.memory import MachineMemory

    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir, "look")))
    assert rt.ecall(h, 0, 0, 5) == fixtures.compute_expected(5)
    lookups = []
    find_page = MachineMemory.find_page
    monkeypatch.setattr(MachineMemory, "find_page",
                        lambda mem, eid, vaddr: lookups.append(vaddr) or find_page(mem, eid, vaddr))
    assert rt.ecall(h, 0, 0, 5) == fixtures.compute_expected(5)
    assert lookups == [h.tcs_vaddrs[0], h.base + fixtures.SSA_OFF]


def _interrupted(rt, h, arg: int = 40):
    """A compute call on ``h`` advanced to its interrupt at step 50 and then
    to the halt at the async exit gate, where the host serves the exit."""
    calling = rt.call(h, 0, 1, arg, inject_at={50})
    assert next(calling).stop == "limit" and next(calling).stop == "halt"
    assert rt.machine.vcpus[0].last_exit == (EXIT_IRQ, 0)
    return calling


def _finish(calling) -> int:
    with pytest.raises(StopIteration) as done:
        while True:
            next(calling)
    return done.value.value


def test_eviction_may_write_back_an_interrupted_thread_and_its_resume_reloads_it(fixture_dir):
    """Loads that press the EPC while a thread is interrupted write back
    every page of its enclave, its TCS and saved frame included; the resume
    reloads the TCS and the frame it reads back, and the call returns."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(epc_size=16))
    rt = HostRuntime(machine)
    manifest = EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir, "held"))
    h = rt.load_enclave(manifest)
    calling = _interrupted(rt, h)
    for _ in range(3):
        rt.load_enclave(manifest)
    frame0 = h.base + fixtures.SSA_OFF
    assert {h.tcs_vaddrs[0], frame0} <= set(rt.store.keys_for(h.eid))
    assert _finish(calling) == fixtures.compute_expected(40)


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_resume_finds_the_tcs_a_host_wrote_back_after_the_exit(mode, fixture_dir):
    """A host that writes back an interrupted thread's TCS and saved frame
    between the exit and the resume: the resume reloads both and ERESUMEs
    the TCS where it now is, not at the granule the exit left in x2."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    rt = HostRuntime(Machine(small_config(mode=mode)))
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir)))
    calling = _interrupted(rt, h)
    rt.swap_out(h, h.tcs_vaddrs[0])
    rt.swap_out(h, h.base + fixtures.SSA_OFF)
    assert _finish(calling) == fixtures.compute_expected(40)
    assert not rt.store.keys_for(h.eid)


def test_an_entry_keeps_its_tcs_from_the_victim_filter_while_it_reloads_a_frame(fixture_dir):
    """With the TCS and frame 0 filed, the entry reloads the TCS first, and
    frame 0 once EENTER faults on it; while it reloads the frame, the victim
    filter passes over the TCS, so no reclaim there could write it back.
    Once the call is back, the filter admits the TCS again."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    rt = HostRuntime(Machine(small_config()))
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir)))
    tcs, frame0 = h.tcs_vaddrs[0], h.base + fixtures.SSA_OFF
    rt.swap_out(h, tcs)
    rt.swap_out(h, frame0)
    reloads = []
    reload = rt._reload

    def watched(eid, page):
        tcs_granule = rt.machine.memory.find_page(h.eid, tcs)
        reloads.append((page, None if tcs_granule is None else rt.victim_filter(tcs_granule)))
        return reload(eid, page)

    rt._reload = watched
    assert rt.ecall(h, 0, 1, 5) == fixtures.compute_expected(5)
    assert reloads == [(tcs, None), (frame0, False)]
    assert rt.victim_filter(rt.machine.memory.find_page(h.eid, tcs))


def test_an_entry_on_a_tcs_that_is_neither_resident_nor_filed_is_refused(fixture_dir):
    """A TCS that the machine removed behind the runtime's back is neither
    resident nor filed: the entry ends with a ModelError that names it
    before any leaf, with or without a page of the enclave filed."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config())
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir)))
    machine.leaf("EREMOVE", machine.memory.find_page(h.eid, h.tcs_vaddrs[0]))
    for filed in (False, True):
        if filed:
            rt.swap_out(h, h.base + fixtures.SSA_OFF)
        with pytest.raises(ModelError, match=f"swap store holds no page {h.tcs_vaddrs[0]:#x} "):
            rt.ecall(h, 0, 1, 5)
        assert not machine.vcpus[0].in_enclave and machine.counters["EENTER"] == 0


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("leaf", ["EENTER", "ERESUME"])
def test_an_entry_on_a_frame_that_is_neither_resident_nor_filed_is_refused(mode, leaf,
                                                                           fixture_dir):
    """A save-state frame that the machine removed behind the runtime's back
    is neither resident nor filed: the leaf faults on it, and the entry ends
    with a ModelError that names it, with no thread inside."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(mode=mode))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir)))
    frame0 = h.base + fixtures.SSA_OFF
    calling = _interrupted(rt, h) if leaf == "ERESUME" else None
    machine.leaf("EREMOVE", machine.memory.find_page(h.eid, frame0))
    counts = dict(machine.counters)
    with pytest.raises(ModelError, match=f"swap store holds no page {frame0:#x} "):
        if calling is None:
            rt.ecall(h, 0, 1, 5)
        else:
            _finish(calling)
    assert not any(vcpu.in_enclave for vcpu in machine.vcpus)
    assert machine.counters == counts


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("refusal", ["TCS_BUSY", "CSSA_FULL", "NO_SAVED_STATE"])
def test_a_refused_entry_reloads_nothing_even_with_its_frame_filed(mode, refusal, fixture_dir,
                                                                   monkeypatch):
    """EENTER and ERESUME refuse a busy TCS, a full save-state stack and a
    thread with no saved state before they look at a frame: an AEX-Notify
    entry needs every frame, yet with frame 1 written back the refused entry
    reloads nothing, and the frame stays filed."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import EENTER_LEAF, ERESUME_LEAF

    machine = Machine(small_config(mode=mode))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_notify_manifest(fixture_dir)))
    tcs_vaddr, frame1 = h.tcs_vaddrs[0], h.base + fixtures.SSA_OFF + GRANULE_SIZE
    tcs, vcpu = machine.memory.find_page(h.eid, tcs_vaddr), machine.vcpus[0]
    if refusal == "CSSA_FULL":  # two exits, the second in the notify handler
        machine.leaf("EENTER", tcs, AEP_GATE, vcpu=vcpu)
        machine.inject_interrupt(vcpu)
        machine.leaf("ERESUME", tcs, AEP_GATE, vcpu=vcpu)
        machine.inject_interrupt(vcpu)
        assert machine.read_tcs(tcs).cssa == 2
    rt.swap_out(h, frame1)
    if refusal == "TCS_BUSY":  # as if a thread ran on the TCS from another vCPU
        monkeypatch.setattr(machine, "tcs_busy", lambda granule: granule == tcs)
    leaf = ERESUME_LEAF if refusal == "NO_SAVED_STATE" else EENTER_LEAF
    reloads = machine.counters["ELDU"]
    with pytest.raises(SgxError) as exc:
        rt._issue_entry(h, vcpu, leaf, tcs_vaddr)
    assert exc.value.code == E[refusal]
    assert rt.store.keys_for(h.eid) == [frame1] and machine.counters["ELDU"] == reloads
    assert not vcpu.in_enclave


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("filed", [0, 1])
def test_an_aex_notify_eenter_faults_on_either_filed_frame(mode, filed, fixture_dir):
    """An AEX-Notify thread's EENTER needs every frame: with either one
    written back it faults on that frame, uncounted and with no thread
    inside, and the runtime's entry reloads it and the call returns."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(mode=mode))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_notify_manifest(fixture_dir)))
    frame = h.base + fixtures.SSA_OFF + filed * GRANULE_SIZE
    rt.swap_out(h, frame)
    tcs, vcpu = machine.memory.find_page(h.eid, h.tcs_vaddrs[0]), machine.vcpus[0]
    with pytest.raises(PageAccessFault) as fault:
        machine.leaf("EENTER", tcs, AEP_GATE, vcpu=vcpu)
    assert (fault.value.vaddr, fault.value.why) == (frame, "save-state page is not resident")
    assert machine.counters["EENTER"] == 0 and not vcpu.in_enclave
    assert rt.ecall(h, 0, 1, 5) == fixtures.compute_expected(5)
    assert machine.counters["EENTER"] == 1 and rt.store.keys_for(h.eid) == []


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_traced_eenter_that_faults_on_a_filed_frame_records_the_fault(mode, fixture_dir):
    """A driver's leaf that faults writes a ``pagefault`` record naming the
    leaf, then the runtime's ELDU reloads the frame and EENTER runs."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(mode=mode))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir)))
    frame = h.base + fixtures.SSA_OFF
    rt.swap_out(h, frame)
    machine.trace = []
    assert rt.ecall(h, 0, 1, 5) == fixtures.compute_expected(5)
    kinds = [r["kind"] for r in machine.trace]
    assert kinds == ["pagefault", "eldu", "eenter", "eexit"]
    assert machine.trace[0] == {"seq": 0, "kind": "pagefault", "vcpu": 0, "leaf": "eenter",
                                "addr": frame, "why": "save-state page is not resident"}


def test_eviction_after_a_core_leaves_an_enclave_takes_its_oldest_page(fixture_dir):
    """The pages a reclaim passed over keep their place: while a core is in
    the enclave, loads that press the EPC write back none of its pages; once
    the core exits, the first EPCM entry the filter admits is its first
    page, and the next reclaim writes it back."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(epc_size=16))
    rt = HostRuntime(machine)
    manifest = EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir, "aged"))
    h = rt.load_enclave(manifest)
    with rt.entered(h):
        for _ in range(3):
            rt.load_enclave(manifest)
    assert rt.swap_out_events > 0 and not rt.store.keys_for(h.eid)
    first = h.base + manifest.pages[0].vaddr
    oldest = next(g for g in machine.memory.epcm if rt.victim_filter(g))
    entry = machine.memory.epcm[oldest]
    assert (entry.owner, entry.vaddr) == (h.eid, first)
    rt._reclaim()
    assert oldest not in machine.memory.epcm
    assert first in rt.store.keys_for(h.eid)


def _reclaims(records):
    """Split the ``evict`` records and the ``writeback`` records of
    :func:`test_a_reclaim_blocks_a_batch_then_tracks_each_owner_once` into
    reclaims: (pages named, pages blocked, owners tracked, pages written
    back), each page as (eid, vaddr)."""
    out = []
    for r in records:
        if r["kind"] == "evict" and (not out or out[-1][3]):
            out.append(([], [], [], []))
        named, blocked, tracked, written = out[-1]
        if r["kind"] == "evict":
            named.append((r["eid"], r["vaddr"]))
        elif r["leaf"] == "EBLOCK":
            blocked.append((r["eid"], r["vaddr"]))
        elif r["leaf"] == "ETRACK":
            tracked.append(r["eid"])
        else:
            written.append((r["eid"], r["vaddr"]))
    return out


def test_a_reclaim_blocks_a_batch_then_tracks_each_owner_once(fixture_dir):
    """Four enclaves take turns in an EPC of 16 granules.  Each reclaim
    names at most ``RECLAIM_BATCH`` pages, each ``evict`` record just before
    its page's EBLOCK; then it runs one ETRACK for each owner among them,
    and then one EWB per page, in the same order."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(epc_size=16))
    machine.trace = []
    rt = HostRuntime(machine)
    leaf = machine.leaf

    def recording_leaf(name, *args, **kwargs):
        if name in ("EBLOCK", "EWB"):
            entry = machine.memory.epcm[args[0]]
            machine.trace_event("writeback", leaf=name, eid=entry.owner, vaddr=entry.vaddr)
        elif name == "ETRACK":
            machine.trace_event("writeback", leaf=name, eid=args[0])
        return leaf(name, *args, **kwargs)

    machine.leaf = recording_leaf
    manifest = EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir, "batch"))
    handles = [rt.load_enclave(manifest) for _ in range(4)]
    for _ in range(3):
        for h in handles:
            assert rt.ecall(h, 0, 0, 5) == fixtures.compute_expected(5)

    kinds = [r["kind"] for r in machine.trace]
    for i, kind in enumerate(kinds):
        if kind == "evict":
            assert kinds[i + 1: i + 3] == ["writeback", "eblock"]
    reclaims = _reclaims([r for r in machine.trace if r["kind"] in ("evict", "writeback")])
    for named, blocked, tracked, written in reclaims:
        assert 1 <= len(named) <= RECLAIM_BATCH
        assert blocked == named and written == named
        assert tracked == list(dict.fromkeys(eid for eid, _ in named))
    assert sum(len(named) for named, _, _, _ in reclaims) == rt.swap_out_events
    assert max(len(tracked) for _, _, tracked, _ in reclaims) > 1
    assert len(reclaims) < rt.swap_out_events


def test_eviction_passes_over_an_enclave_the_runtime_did_not_load(fixture_dir):
    """The runtime pages back in only through its own handles, so an enclave
    built with raw leaves stays resident while loads press the EPC."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(epc_size=16))
    raw = build_raw_enclave(machine)
    resident = set(machine.memory.gpts.owned[raw.eid])
    rt = HostRuntime(machine)
    manifest = EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir, "beside"))
    for _ in range(3):
        rt.load_enclave(manifest)
    assert rt.swap_out_events > 0
    assert set(machine.memory.gpts.owned[raw.eid]) == resident


def test_ccx_mode_writes_back_once_all_of_memory_is_full(fixture_dir):
    """In ccx mode the EPC span is all of memory.  A workload larger than
    that evicts through the same writeback protocol as sgx mode and still
    gets its answer."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(mode="ccx", granule_count=256))
    rt = HostRuntime(machine)
    path = fixtures.write_toucher_manifest(fixture_dir, "overfull", size=1 << 23)
    h = rt.load_enclave(EnclaveManifest.load(path))
    assert rt.ecall(h, 0, 1, 300, step_budget=20_000_000) == fixtures.toucher_expected(300)
    assert rt.swap_out_events > 0
    machine.audit()


# ---------------------------------------------------------------------------
# The runtime's paging records: the swap store and the free version slots


def _standard(mode, fixture_dir):
    machine = Machine(small_config(mode=mode))
    rt = HostRuntime(machine)
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_standard_manifest(fixture_dir)))
    return machine, rt, h, h.base + fixtures.SCRATCH_OFF


def _slots(rt):
    """(free version slots, slots of every version array in the EPC)."""
    arrays = sum(e.page_type == PageType.VA for e in rt.machine.memory.epcm.values())
    return len(rt._free_slots), arrays * VA_SLOT_COUNT


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_destroy_reloads_each_filed_page_and_removes_every_page(mode, fixture_dir):
    """Destroying an enclave with two pages filed, in an EPC with room,
    reloads those two and writes nothing back: every page of the enclave is
    removed, the store holds none of its blobs and every slot is free."""
    machine, rt, h, scratch = _standard(mode, fixture_dir)
    rt.swap_out(h, scratch)
    rt.swap_out(h, h.base)
    assert rt.store.keys_for(h.eid) == [h.base, scratch]
    pages = len(machine.memory.gpts.owned[h.eid]) + 2
    before = dict(machine.counters)
    rt.destroy(h)
    delta = {k: machine.counters[k] - before.get(k, 0) for k in ("ELDU", "EWB", "EREMOVE")}
    assert delta == {"ELDU": 2, "EWB": 0, "EREMOVE": pages}
    assert not rt.store.keys_for(h.eid)
    assert not any(e.owner == h.eid for e in machine.memory.epcm.values())
    free, total = _slots(rt)
    assert free == total == VA_SLOT_COUNT


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_refused_writeback_leaves_the_store_and_the_slots_as_they_were(mode, fixture_dir):
    """A refused EWB files no blob and uses no slot: the same slot is first in
    line for the next writeback.  The page stays blocked, and destroy still
    removes it and frees every slot."""
    machine, rt, h, scratch = _standard(mode, fixture_dir)
    rt.swap_out(h, scratch)
    filed, free = rt.store.keys_for(h.eid), list(rt._free_slots)
    code = machine.memory.find_page(h.eid, h.base)
    with refusing(machine, "EWB"), pytest.raises(SgxError):
        rt.swap_out(h, h.base)
    assert rt.store.keys_for(h.eid) == filed and list(rt._free_slots) == free
    assert machine.memory.epcm[code].blocked
    rt.destroy(h)
    assert not any(e.owner == h.eid for e in machine.memory.epcm.values())
    free, total = _slots(rt)
    assert free == total


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_later_reclaim_skips_a_page_a_refused_writeback_left_blocked(mode, fixture_dir):
    """The victim filter passes over a blocked page (``runtime.py:353``):
    after a refused EWB, a reclaim writes other pages back, never the blocked
    one, which EBLOCK would refuse."""
    machine, rt, h, scratch = _standard(mode, fixture_dir)
    code = machine.memory.find_page(h.eid, h.base)
    with refusing(machine, "EWB"), pytest.raises(SgxError):
        rt.swap_out(h, h.base)
    machine.trace = []
    rt._reclaim()
    evicted = [record["vaddr"] for record in machine.trace if record["kind"] == "evict"]
    assert evicted and h.base not in evicted
    assert rt.store.keys_for(h.eid) == sorted(evicted)
    assert machine.memory.epcm[code].blocked
    rt.destroy(h)
    free, total = _slots(rt)
    assert free == total


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_enclave_software_faults_on_a_page_a_refused_writeback_left_blocked(mode, fixture_dir):
    """A PEEK of the page that a refused EWB left blocked is refused by the
    software access rule (``memory.py:235``): the call ends in a page fault
    at that address, and the page stays blocked."""
    from ccxsim import fixtures

    machine, rt, h, scratch = _standard(mode, fixture_dir)
    with refusing(machine, "EWB"), pytest.raises(SgxError):
        rt.swap_out(h, scratch)
    machine.trace = []
    with pytest.raises(EnclaveFault, match=f"pagefault at {scratch:#x}"):
        rt.ecall(h, 0, fixtures.SEL_PEEK, scratch)
    faults = [record for record in machine.trace if record["kind"] == "pagefault"]
    assert [(f["addr"], f["why"]) for f in faults] == [(scratch, "page is blocked")]
    assert machine.memory.epcm[machine.memory.find_page(h.eid, scratch)].blocked


def test_a_reclaim_skips_an_enclave_a_core_is_inside(tmp_path):
    """The victim filter passes over every page of an enclave that a core
    runs in (``runtime.py:364``): a toucher call on vCPU 1 pages in a 24
    granule EPC while a compute call on vCPU 0 is suspended inside its
    enclave, files none of the compute enclave's pages, and the compute call
    then ends with its result."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    rt = HostRuntime(Machine(small_config(epc_size=24)))
    compute = rt.load_enclave(EnclaveManifest.parse(
        fixtures.build_manifest_text(fixtures.compute_program(), name="compute")))
    toucher = rt.load_enclave(EnclaveManifest.load(fixtures.write_toucher_manifest(tmp_path)))
    calling = rt.call(compute, 0, 1, 30, vcpu_index=0, inject_at={5})
    next(calling)
    assert rt.machine.vcpus[0].cur_eid == compute.eid
    assert rt.ecall(toucher, 0, 1, 12, vcpu_index=1) == fixtures.toucher_expected(12)
    assert rt.swap_out_events > 0 and not rt.store.keys_for(compute.eid)
    with pytest.raises(StopIteration) as done:
        while True:
            next(calling)
    assert done.value.value == fixtures.compute_expected(30)


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_refused_reload_keeps_the_blob_filed_and_its_slot_in_use(mode, fixture_dir):
    """A refused ELDU loses nothing: the blob stays filed and its slot in
    use, a later access pages the data back in, and destroy frees every
    slot."""
    from ccxsim import fixtures

    machine, rt, h, scratch = _standard(mode, fixture_dir)
    assert rt.ecall(h, 0, fixtures.SEL_POKE, scratch + 64, 777) == 777
    rt.swap_out(h, scratch)
    slots = _slots(rt)
    with refusing(machine, "ELDU"), pytest.raises(SgxError):
        rt.swap_in(h, scratch)
    assert rt.store.keys_for(h.eid) == [scratch] and _slots(rt) == slots
    assert machine.memory.find_page(h.eid, scratch) is None
    assert rt.ecall(h, 0, fixtures.SEL_PEEK, scratch + 64) == 777
    assert rt.swap_in_events == 1 and not rt.store.keys_for(h.eid)
    rt.destroy(h)
    free, total = _slots(rt)
    assert free == total


def test_destroy_in_a_full_epc_writes_none_of_the_enclaves_pages_back(tmp_path):
    """Destroying the toucher after it touched twice the fixed EPC: in sgx
    mode each filed page is reloaded once and nothing more is written back,
    every page is removed, as in ccx mode, and no blob or slot is left held."""
    from ccxsim import fixtures
    from ccxsim.config import Config
    from ccxsim.scenario import ScenarioRunner

    fixtures.write_toucher_manifest(tmp_path)
    text = "create t toucher.manifest\necall t 0 1 1024 0\ndestroy t\n"
    results = {mode: ScenarioRunner(Config(mode=mode), tmp_path).run_text(text)
               for mode in ("sgx", "ccx")}
    sgx, ccx = (results[mode] for mode in ("sgx", "ccx"))
    assert sgx.ok and ccx.ok
    assert sgx.summary["counters"]["EWB"] == 1556
    assert sgx.summary["counters"]["EREMOVE"] == ccx.summary["counters"]["EREMOVE"] == 1030
    assert all(r.summary["swap_in_events"] == r.summary["swap_out_events"] for r in (sgx, ccx))
    assert sgx.summary["counters"]["ECREATE"] == ccx.summary["counters"]["ECREATE"]
    rt = sgx.runtime
    assert not rt.store._blobs
    free, total = _slots(rt)
    assert free == total > 0
    assert not any(e.owner is not None for e in sgx.machine.memory.epcm.values())


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_version_array_is_written_back_and_reloaded_with_its_versions(mode, fixture_dir):
    """A data page written back into slot 3 of version array A survives A's
    own round trip: A, blocked, cannot version itself, goes out into array B
    and comes back with no enclave id, and then the data page reloads from
    A's slot 3 with its value."""
    from ccxsim import fixtures

    machine, rt, h, scratch = _standard(mode, fixture_dir)
    assert rt.ecall(h, 0, fixtures.SEL_POKE, scratch + 64, 4242) == 4242
    va_a, va_b = free_epc_granules(machine, 2)
    machine.leaf("EPA", va_a)
    machine.leaf("EPA", va_b)
    data = machine.memory.find_page(h.eid, scratch)
    machine.leaf("EBLOCK", data)
    machine.leaf("ETRACK", h.eid)
    page = machine.leaf("EWB", data, va_a, 3)

    machine.leaf("EBLOCK", va_a)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EWB", va_a, va_a, 0)
    assert exc.value.code == E.VA_SLOT_INVALID
    array = machine.leaf("EWB", va_a, va_b, 0)
    assert machine.memory.epcm_lookup(va_a) is None

    va_back = free_epc_granules(machine, 1)[0]
    machine.leaf("ELDU", array.ciphertext, array.pcmd, va_b, 0, va_back, None)
    entry = machine.memory.epcm_lookup(va_back)
    assert entry.page_type == PageType.VA and entry.owner is None and not entry.blocked
    target = free_epc_granules(machine, 1)[0]
    machine.leaf("ELDU", page.ciphertext, page.pcmd, va_back, 3, target, h.eid)
    assert rt.ecall(h, 0, fixtures.SEL_PEEK, scratch + 64) == 4242
    machine.audit()


# ---------------------------------------------------------------------------
# The thread pages an entry needs, and EAUG over a filed page


def _both_modes(tmp_path, text):
    """Run scenario ``text`` over the demo manifests in both modes, with the
    default config, and return the two results by mode."""
    from ccxsim import fixtures
    from ccxsim.config import Config
    from ccxsim.scenario import ScenarioRunner

    fixtures.write_demo_tree(tmp_path)
    return {mode: ScenarioRunner(Config(mode=mode), tmp_path).run_text(text)
            for mode in ("sgx", "ccx")}


@pytest.mark.parametrize("text", [
    # the toucher's paging writes back the idle notify thread's frames
    "create n notify.manifest\ncreate t toucher.manifest\n"
    "ecall t 0 1 1024 0\necall n 0 1 40 0\n",
    # frame 1 filed by hand; the handler's nested exit writes it
    "create n notify.manifest\nswap_out n 0x6000\n"
    "inject_irq vcpu=0 at=3,9,27\necall n 0 1 40 0\n",
], ids=["after_the_toucher", "frame1_filed"])
def test_an_aex_notify_thread_enters_with_every_frame_resident(text, tmp_path):
    """An AEX-Notify handler runs at the current save-state index, and an
    exit inside it writes the next frame, so the entry pages in all of
    them: the call returns the same value in both modes, where sgx mode
    crashed the enclave once a frame the handler needed was filed."""
    from ccxsim import fixtures

    results = _both_modes(tmp_path, text)
    assert results["sgx"].ok and results["ccx"].ok
    assert results["sgx"].events == results["ccx"].events
    assert results["sgx"].events[-1]["result"] == fixtures.compute_expected(40)


def test_eaug_over_a_filed_page_is_refused_as_over_a_resident_one(tmp_path):
    """The toucher's second call asks to augment pages its first call added.
    In sgx mode some of them are filed; the runtime reloads such a page, so
    EAUG refuses it as ccx mode does, with the same error.  No page is then
    both resident and filed, and destroy frees every version slot."""
    text = "create t toucher.manifest\necall t 0 1 1024 0\necall t 0 1 1024 0\n"
    results = _both_modes(tmp_path, text)
    sgx, ccx = results["sgx"], results["ccx"]
    assert sgx.events == ccx.events
    assert sgx.events[-1]["error"] == (
        "SgxError: VADDR_COLLISION: vaddr 0x200100000 already mapped")
    rt, machine = sgx.runtime, sgx.machine
    h = rt.handles[1]
    filed = rt.store.keys_for(h.eid)
    assert filed and not any(machine.memory.find_page(h.eid, page) for page in filed)
    rt.destroy(h)
    assert not rt.store._blobs
    free, total = _slots(rt)
    assert free == total > 0


def test_the_swap_store_refuses_to_file_a_page_it_already_holds():
    """Filing one page twice would lose a blob and its version slot: the
    store refuses the second and keeps the first."""
    import re

    from ccxsim.runtime import SwapStore, _StoredBlob

    store = SwapStore()
    first, second = (_StoredBlob(None, 5, slot) for slot in (0, 1))
    store.put(1, BASE, first)
    with pytest.raises(ModelError, match=re.escape(f"swap store already holds {(1, BASE)}")):
        store.put(1, BASE, second)
    assert store.get(1, BASE) is first and store.keys_for(1) == [BASE]


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_second_swap_of_a_page_leaves_it_as_the_first_did(mode, fixture_dir):
    """A swap_out of a filed page and a swap_in of a resident one run no
    leaf: doing each twice gives the records and swap counts of once."""
    traces = []
    for times in (1, 2):
        machine, rt, h, scratch = _standard(mode, fixture_dir)
        machine.trace = []
        for swap in (rt.swap_out, rt.swap_in):
            for _ in range(times):
                swap(h, scratch)
        assert (rt.swap_out_events, rt.swap_in_events) == (1, 1)
        traces.append(machine.trace)
    assert traces[0] == traces[1]


def test_a_crashed_enclaves_pages_are_written_back_and_its_destroy_frees_them(fixture_dir):
    """No core runs in a crashed enclave, so reclaim takes its pages as any
    other's; its destroy then reloads and removes each, and every version
    slot is free once the enclaves are gone."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(epc_size=10))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_notify_manifest(
        fixture_dir, "notify_one_frame", nssa=1)))
    tcs, vcpu = machine.memory.find_page(h.eid, h.tcs_vaddrs[0]), machine.vcpus[0]
    machine.leaf("EENTER", tcs, AEP_GATE, vcpu=vcpu)
    machine.inject_interrupt(vcpu)
    # the notify re-entry keeps frame 0, the one frame, so the next exit finds none
    machine.leaf("ERESUME", tcs, AEP_GATE, vcpu=vcpu)
    machine.inject_interrupt(vcpu)
    assert machine.enclaves[h.eid].crashed and not vcpu.in_enclave
    other = rt.load_enclave(EnclaveManifest.load(fixtures.write_standard_manifest(fixture_dir)))
    assert rt.store.keys_for(h.eid)
    rt.destroy(h)
    assert not rt.store.keys_for(h.eid) and h.eid not in machine.memory.gpts.owned
    check_paging_records(rt)
    rt.destroy(other)
    free, total = _slots(rt)
    assert free == total > 0


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_an_eaccept_of_a_page_written_back_after_its_eaug_is_retried(mode, fixture_dir):
    """A host that writes back each page right after its EAUG: the
    toucher's EACCEPT then names a filed page.  As in SGX, the leaf faults,
    the host reloads the page and the EACCEPT runs again, so the call
    succeeds, with each EACCEPT counted once."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import OCALL_EAUG, _ocall_eaug

    machine = Machine(small_config(mode=mode))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(fixtures.write_toucher_manifest(fixture_dir)))

    def eaug_then_write_back(rt, handle, vaddr, arg2):
        result = _ocall_eaug(rt, handle, vaddr, arg2)
        rt.swap_out(handle, vaddr)
        return result

    rt.register_ocall(OCALL_EAUG, eaug_then_write_back)
    assert rt.ecall(h, 0, 1, 3) == fixtures.toucher_expected(3)
    assert machine.counters["EACCEPT"] == 3
    assert rt.swap_out_events == rt.swap_in_events == 3
