"""Blocking, tracking, version arrays, and the swap protocol."""

import pytest

from ccxsim.errors import SgxError, SgxErrorCode as E
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE, PageType, Perms
from ccxsim.runtime import AEP_GATE, RECLAIM_BATCH, HostRuntime, RETURN_GATE
from ccxsim.structs import EXIT_IRQ, Pcmd, VA_SLOT_COUNT

from helpers import BASE, build_raw_enclave, free_epc_granules, small_config


@pytest.fixture
def swap_env(machine):
    """Initialized enclave with a data page, plus a version array."""
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


def test_ciphertext_is_not_plaintext(swap_env):
    machine, enc, va = swap_env
    g = enc.granule(0x1000)
    plaintext = machine.leaf("EDBGRD", g, 0, GRANULE_SIZE)
    blob = swap_out(machine, enc, 0x1000, va, 0)
    differing = sum(1 for a, b in zip(plaintext, blob.ciphertext) if a != b)
    assert differing / GRANULE_SIZE > 0.95


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


def test_an_ecall_of_an_enclave_with_nothing_swapped_out_reads_its_tcs_once(
        machine, fixture_dir, monkeypatch):
    """Only the entry leaf reads the TCS when no page of the enclave is
    swapped out; with one out, the runtime reads it to find the frames."""
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
    assert len(reads) == 2


def test_a_warm_ecall_with_nothing_swapped_out_looks_its_tcs_up_once(
        machine, fixture_dir, monkeypatch):
    """The runtime asks the swap store, not memory, whether the TCS is
    swapped out, so finding its granule is the one page lookup."""
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
    assert lookups == [h.tcs_vaddrs[0]]


def test_eviction_keeps_an_interrupted_thread_resident(fixture_dir):
    """A runtime thread left interrupted (one saved context) keeps its TCS and
    save-state frames resident while loads press the EPC; the enclave's other
    pages are still evicted, and the thread resumes afterwards."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(epc_size=16))
    rt = HostRuntime(machine)
    manifest = EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir, "held"))
    h = rt.load_enclave(manifest)
    with rt.entered(h) as vcpu:
        machine.inject_interrupt(vcpu)
    assert vcpu.last_exit == (EXIT_IRQ, 0) and not vcpu.in_enclave
    ssa = h.base + manifest.tcs[0].ossa
    held = [h.tcs_vaddrs[0]] + [
        ssa + i * GRANULE_SIZE for i in range(manifest.nssa * manifest.ssa_frame_size)
    ]
    for _ in range(3):
        rt.load_enclave(manifest)
    assert rt.swap_out_events > 0
    assert rt.store.keys_for(h.eid)  # pages outside the SSA range went out
    for vaddr in held:
        assert machine.memory.find_page(h.eid, vaddr) is not None
    tcs_g = machine.memory.find_page(h.eid, h.tcs_vaddrs[0])
    machine.leaf("ERESUME", tcs_g, AEP_GATE, vcpu=vcpu)
    assert vcpu.in_enclave
    machine.leaf("EEXIT", RETURN_GATE, vcpu=vcpu)


def test_eviction_after_an_interrupted_thread_exits_takes_the_oldest_admitted_page(fixture_dir):
    """The pages eviction skipped while a thread was interrupted keep their
    place; once the thread exits, the next eviction writes back the first
    EPCM entry the filter admits, the thread's own save-state frame."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    machine = Machine(small_config(epc_size=16))
    rt = HostRuntime(machine)
    manifest = EnclaveManifest.load(fixtures.write_compute_manifest(fixture_dir, "aged"))
    h = rt.load_enclave(manifest)
    with rt.entered(h) as vcpu:
        machine.inject_interrupt(vcpu)
    for _ in range(3):
        rt.load_enclave(manifest)
    tcs_g = machine.memory.find_page(h.eid, h.tcs_vaddrs[0])
    machine.leaf("ERESUME", tcs_g, AEP_GATE, vcpu=vcpu)
    machine.leaf("EEXIT", RETURN_GATE, vcpu=vcpu)
    oldest = next(g for g in machine.memory.epcm if rt.victim_filter(g))
    entry = machine.memory.epcm[oldest]
    assert (entry.owner, entry.vaddr) == (h.eid, h.base + fixtures.SSA_OFF)
    rt._reclaim()
    assert oldest not in machine.memory.epcm
    assert h.base + fixtures.SSA_OFF in rt.store.keys_for(h.eid)


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
