"""Enclave build lifecycle: create, add, measure, initialize, tear down."""

import pytest

from ccxsim import fixtures
from ccxsim.errors import GranuleProtectionFault, SgxError, SgxErrorCode as E
from ccxsim.machine import Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.memory import GRANULE_SIZE, PageType, Pas, Perms
from ccxsim.runtime import AEP_GATE, LoadError
from ccxsim.structs import Attributes, SecInfo, Tcs

from helpers import BASE, build_raw_enclave, free_epc_granules, free_host_granule, small_config


def sign_for(m, eid, signer="default", prod=1, svn=1, attributes=None, enclavehash=None):
    secs = m.enclaves[eid]
    return m.crypto.sign_sigstruct(
        enclavehash or secs.mrenclave_state.copy().final(),
        attributes if attributes is not None else secs.attributes.signed_view(),
        prod,
        svn,
        signer,
    )


# ---------------------------------------------------------------------------
# ECREATE


def test_ecreate_establishes_secs_and_table(machine):
    g = free_epc_granules(machine, 1)[0]
    eid = machine.leaf("ECREATE", g, 1 << 21, 1, Attributes(), BASE)
    entry = machine.memory.epcm_lookup(g)
    assert entry is not None and entry.page_type == PageType.SECS and entry.owner == eid
    assert eid in machine.memory.gpts.enclave
    assert not machine.enclaves[eid].initialized


def test_ecreate_rejects_non_power_of_two(machine):
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("ECREATE", g, 3 * (1 << 20), 1, Attributes(), BASE)
    assert exc.value.code == E.BAD_GEOMETRY


def test_ecreate_rejects_zero_ssa_frames(machine):
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("ECREATE", g, 1 << 21, 0, Attributes(), BASE)
    assert exc.value.code == E.BAD_GEOMETRY


def test_ecreate_rejects_occupied_granule(machine):
    g = free_epc_granules(machine, 1)[0]
    machine.leaf("ECREATE", g, 1 << 21, 1, Attributes(), BASE)
    with pytest.raises(SgxError) as exc:
        machine.leaf("ECREATE", g, 1 << 21, 1, Attributes(), BASE)
    assert exc.value.code == E.OCCUPIED


def test_ecreate_rejects_misaligned_base(machine):
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("ECREATE", g, 1 << 21, 1, Attributes(), BASE + GRANULE_SIZE)
    assert exc.value.code == E.BAD_GEOMETRY


def test_ecreate_rejects_a_free_granule_outside_the_epc(machine):
    g = free_host_granule(machine)
    with pytest.raises(SgxError) as exc:
        machine.leaf("ECREATE", g, 1 << 21, 1, Attributes(), BASE)
    assert exc.value.code == E.NOT_IN_EPC
    assert machine.memory.is_free(g)


def test_ecreate_refuses_to_create_an_initialized_enclave(machine):
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError, match="cannot request INIT") as exc:
        machine.leaf("ECREATE", g, 1 << 21, 1, Attributes(init=True), BASE)
    assert exc.value.code == E.BAD_GEOMETRY
    assert machine.memory.is_free(g) and not machine.enclaves


def test_two_enclaves_get_distinct_ids_and_tables(machine):
    g1, g2 = free_epc_granules(machine, 2)
    e1 = machine.leaf("ECREATE", g1, 1 << 21, 1, Attributes(), BASE)
    e2 = machine.leaf("ECREATE", g2, 1 << 21, 1, Attributes(), BASE)
    assert e1 != e2
    assert set(machine.memory.gpts.enclave) >= {e1, e2}
    machine.audit()


# ---------------------------------------------------------------------------
# EADD


def test_eadd_makes_page_host_inaccessible(machine):
    enc = build_raw_enclave(machine, init=False)
    with pytest.raises(GranuleProtectionFault):
        machine.host_read(enc.granule(0x0), 0, 8)


def test_eadd_after_einit_rejected(machine):
    enc = build_raw_enclave(machine)
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("EADD", enc.eid, BASE + 0x8000,
                     SecInfo(Perms.R, PageType.REG), g, b"\0" * GRANULE_SIZE)
    assert exc.value.code == E.ALREADY_INITIALIZED


def test_eadd_same_vaddr_twice_collides(machine):
    enc = build_raw_enclave(machine, init=False)
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("EADD", enc.eid, BASE + 0x1000,
                     SecInfo(Perms.R, PageType.REG), g, b"\0" * GRANULE_SIZE)
    assert exc.value.code == E.VADDR_COLLISION


def test_eadd_outside_enclave_range_rejected(machine):
    enc = build_raw_enclave(machine, init=False, size=1 << 21)
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("EADD", enc.eid, BASE + (1 << 21),
                     SecInfo(Perms.R, PageType.REG), g, b"\0" * GRANULE_SIZE)
    assert exc.value.code == E.BAD_VADDR


def test_eadd_rejects_an_unaligned_vaddr(machine):
    enc = build_raw_enclave(machine, init=False)
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError, match="not page aligned") as exc:
        machine.leaf("EADD", enc.eid, BASE + 0x8010,
                     SecInfo(Perms.R, PageType.REG), g, b"\0" * GRANULE_SIZE)
    assert exc.value.code == E.BAD_VADDR
    assert machine.memory.is_free(g)


def test_eadd_checks_the_page_type_before_the_address(machine):
    enc = build_raw_enclave(machine, init=False, size=1 << 21)
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("EADD", enc.eid, BASE + (1 << 21),
                     SecInfo(Perms.NONE, PageType.VA), g, b"\0" * GRANULE_SIZE)
    assert exc.value.code == E.PAGE_INVALID


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_eadd_bad_tcs_layout_rejected(mode):
    machine = Machine(small_config(mode=mode))
    enc = build_raw_enclave(machine, init=False)
    g = free_epc_granules(machine, 1)[0]
    bad = Tcs(oentry=1 << 22, ossa=0x2000, nssa=2)  # entry point outside
    with pytest.raises(SgxError) as exc:
        machine.leaf("EADD", enc.eid, BASE + 0x8000,
                     SecInfo(Perms.NONE, PageType.TCS), g, bad.pack())
    assert exc.value.code == E.BAD_TCS_LAYOUT
    assert machine.memory.is_free(g)
    with pytest.raises(SgxError) as exc:  # no thread was added
        machine.leaf("EENTER", g, AEP_GATE, vcpu=machine.vcpus[0])
    assert exc.value.code == E.PAGE_INVALID
    machine.audit()


def test_eadd_in_dynamic_mode_assigns_in_place(ccx_machine):
    m = ccx_machine
    enc = build_raw_enclave(m, init=False)
    g = enc.granule(0x0)
    # the target granule itself turns realm in the enclave table and holds
    # the copied source page
    assert m.memory.gpts.entry(enc.eid, g) == Pas.REALM
    assert m.memory.load(g, 0, 4) == b"\x11" * 4


# ---------------------------------------------------------------------------
# EEXTEND and the measurement


def test_eextend_requires_alignment(machine):
    enc = build_raw_enclave(machine, init=False, measure=False)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EEXTEND", enc.eid, BASE + 0x10)
    assert exc.value.code == E.MISALIGNED


def test_eextend_unmapped_page_unmeasurable(machine):
    enc = build_raw_enclave(machine, init=False, measure=False)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EEXTEND", enc.eid, BASE + 0x9000)
    assert exc.value.code == E.UNMEASURABLE_PAGE


def test_eextend_after_init_rejected(machine):
    enc = build_raw_enclave(machine)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EEXTEND", enc.eid, BASE + 0x0)
    assert exc.value.code == E.ALREADY_INITIALIZED


def _eblock_second_page(m, eid, pages):
    m.leaf("EBLOCK", pages[0x1000])


def _add_other_enclaves_page(m, eid, pages):
    # a second enclave at the same base, with a page where the first has none
    secs_granule, g = free_epc_granules(m, 2)
    other = m.leaf("ECREATE", secs_granule, 1 << 21, 1, Attributes(debug=True), BASE)
    m.leaf("EADD", other, BASE + 0x5000, SecInfo(Perms.R, PageType.REG), g,
           b"\x55" * GRANULE_SIZE)


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("setup, eid_delta, chunk, code", [
    (_eblock_second_page, 0, 0x1100, E.UNMEASURABLE_PAGE),
    (None, 1000, 0x1000, E.UNKNOWN_ENCLAVE),
    (_add_other_enclaves_page, 0, 0x5200, E.UNMEASURABLE_PAGE),
], ids=["blocked-page", "unknown-eid", "other-enclaves-page"])
def test_refused_eextend_leaves_the_measurement_alone(mode, setup, eid_delta, chunk, code):
    """A refused EEXTEND between two measured pages absorbs nothing: the
    final MRENCLAVE is that of the same build without the refused leaf."""

    def build(refuse: bool) -> bytes:
        m = Machine(small_config(mode=mode))
        secs_granule = free_epc_granules(m, 1)[0]
        eid = m.leaf("ECREATE", secs_granule, 1 << 21, 1, Attributes(debug=True), BASE)
        pages = {}
        for off, perms, fill in ((0x0, "rwx", 0x11), (0x1000, "rw", 0x22)):
            pages[off] = free_epc_granules(m, 1)[0]
            m.leaf("EADD", eid, BASE + off, SecInfo(Perms.parse(perms), PageType.REG),
                   pages[off], bytes([fill]) * GRANULE_SIZE)
        for chunk_off in range(0, GRANULE_SIZE, 256):
            m.leaf("EEXTEND", eid, BASE + chunk_off)
        if setup is not None:
            setup(m, eid, pages)
        if refuse:
            before = m.counters["EEXTEND"]
            with pytest.raises(SgxError) as exc:
                m.leaf("EEXTEND", eid + eid_delta, BASE + chunk)
            assert exc.value.code == code
            assert m.counters["EEXTEND"] == before + 1
        g = free_epc_granules(m, 1)[0]
        m.leaf("EADD", eid, BASE + 0x2000, SecInfo(Perms.R, PageType.REG), g,
               b"\x33" * GRANULE_SIZE)
        for chunk_off in range(0, GRANULE_SIZE, 256):
            m.leaf("EEXTEND", eid, BASE + 0x2000 + chunk_off)
        m.leaf("EINIT", eid, sign_for(m, eid))
        m.audit()
        return m.enclaves[eid].mrenclave

    assert build(refuse=True) == build(refuse=False)


def test_measurement_depends_on_content(machine):
    a = build_raw_enclave(machine, page_specs=[(0x0, "rx", b"\x01" * GRANULE_SIZE)])
    b = build_raw_enclave(machine, page_specs=[(0x0, "rx", b"\x01" * GRANULE_SIZE)])
    flipped = bytearray(b"\x01" * GRANULE_SIZE)
    flipped[100] ^= 0x10
    c = build_raw_enclave(machine, page_specs=[(0x0, "rx", bytes(flipped))])
    m1 = machine.enclaves[a.eid].mrenclave
    m2 = machine.enclaves[b.eid].mrenclave
    m3 = machine.enclaves[c.eid].mrenclave
    assert m1 == m2
    assert m1 != m3


def test_measurement_depends_on_order_and_offsets(machine):
    pages = [(0x0, "rx", b"\xaa" * GRANULE_SIZE), (0x1000, "rw", b"\xbb" * GRANULE_SIZE)]
    swapped = [(0x0, "rx", b"\xbb" * GRANULE_SIZE), (0x1000, "rw", b"\xaa" * GRANULE_SIZE)]
    a = build_raw_enclave(machine, page_specs=pages)
    b = build_raw_enclave(machine, page_specs=swapped)
    assert machine.enclaves[a.eid].mrenclave != machine.enclaves[b.eid].mrenclave


def test_unmeasured_pages_do_not_contribute_content(machine):
    a = build_raw_enclave(machine, page_specs=[(0x0, "rw", b"\x01" * GRANULE_SIZE)],
                          measure=False)
    b = build_raw_enclave(machine, page_specs=[(0x0, "rw", b"\x02" * GRANULE_SIZE)],
                          measure=False)
    assert machine.enclaves[a.eid].mrenclave == machine.enclaves[b.eid].mrenclave


# ---------------------------------------------------------------------------
# EINIT


def test_einit_enables_entry_flag(machine):
    enc = build_raw_enclave(machine, init=False)
    machine.leaf("EINIT", enc.eid, sign_for(machine, enc.eid, prod=7, svn=2))
    secs = machine.enclaves[enc.eid]
    assert secs.initialized
    assert secs.isv_prod_id == 7 and secs.isv_svn == 2
    assert secs.mrenclave is not None and secs.mrsigner is not None


def test_einit_rejects_flipped_signature(machine):
    enc = build_raw_enclave(machine, init=False)
    sig = sign_for(machine, enc.eid)
    sig.signature = bytes([sig.signature[5] ^ 1 if i == 5 else b
                           for i, b in enumerate(sig.signature)])
    with pytest.raises(SgxError) as exc:
        machine.leaf("EINIT", enc.eid, sig)
    assert exc.value.code == E.SIG_INVALID
    assert not machine.enclaves[enc.eid].initialized


def test_einit_refuses_a_forged_sigstruct_after_a_good_load_of_the_same_manifest(
    runtime, tmp_path, monkeypatch
):
    """The good load leaves its signature in both memos; a forged copy of it
    still fails EINIT, and the good one is signed again untouched."""
    manifest = EnclaveManifest.load(fixtures.write_compute_manifest(tmp_path))
    good = runtime.load_enclave(manifest)
    crypto = runtime.machine.crypto
    sign = crypto.sign_sigstruct

    def forged(*args):
        sig = sign(*args)
        sig.signature = bytes([sig.signature[0] ^ 1]) + sig.signature[1:]
        return sig

    monkeypatch.setattr(crypto, "sign_sigstruct", forged)
    with pytest.raises(LoadError) as exc:
        runtime.load_enclave(manifest)
    assert exc.value.step == "einit" and exc.value.cause.code == E.SIG_INVALID
    monkeypatch.undo()
    again = runtime.load_enclave(manifest)
    assert (again.mrenclave, again.mrsigner) == (good.mrenclave, good.mrsigner)


def test_einit_rejects_swapped_sigstructs(machine):
    a = build_raw_enclave(machine, init=False,
                          page_specs=[(0x0, "rx", b"\x0a" * GRANULE_SIZE)])
    b = build_raw_enclave(machine, init=False,
                          page_specs=[(0x0, "rx", b"\x0b" * GRANULE_SIZE)])
    sig_b = sign_for(machine, b.eid)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EINIT", a.eid, sig_b)
    assert exc.value.code == E.MEASUREMENT_MISMATCH


def test_einit_rejects_attribute_mismatch(machine):
    enc = build_raw_enclave(machine, init=False, attributes=Attributes(debug=True))
    sig = sign_for(machine, enc.eid, attributes=Attributes(debug=False).signed_view())
    with pytest.raises(SgxError) as exc:
        machine.leaf("EINIT", enc.eid, sig)
    assert exc.value.code == E.ATTRIBUTE_MISMATCH


def test_einit_twice_rejected(machine):
    enc = build_raw_enclave(machine, init=False)
    sig = sign_for(machine, enc.eid)
    machine.leaf("EINIT", enc.eid, sig)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EINIT", enc.eid, sig)
    assert exc.value.code == E.ALREADY_INITIALIZED


def test_mrenclave_immutable_after_init(machine):
    enc = build_raw_enclave(machine)
    secs = machine.enclaves[enc.eid]
    frozen = secs.mrenclave
    for leaf, args in (
        ("EEXTEND", (enc.eid, BASE)),
        ("EADD", (enc.eid, BASE + 0x8000, SecInfo(Perms.R, PageType.REG),
                  free_epc_granules(machine, 1)[0], b"\0" * GRANULE_SIZE)),
    ):
        with pytest.raises(SgxError):
            machine.leaf(leaf, *args)
    assert secs.mrenclave == frozen


# ---------------------------------------------------------------------------
# EREMOVE


def test_remove_reg_page(machine):
    enc = build_raw_enclave(machine)
    g = enc.granule(0x1000)
    machine.leaf("EREMOVE", g)
    assert machine.memory.epcm_lookup(g) is None
    assert machine.host_read(g, 0, 8) == b"\0" * 8  # scrubbed and reachable


def test_remove_secs_with_children_rejected(machine):
    enc = build_raw_enclave(machine)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EREMOVE", enc.secs_granule)
    assert exc.value.code == E.CHILD_PRESENT


def test_full_teardown_returns_machine_to_initial_state(machine):
    system_before = bytes(machine.memory.gpts.system)
    tables_before = set(machine.memory.gpts.enclave)
    enc = build_raw_enclave(machine)
    for off in sorted(enc.pages):
        machine.leaf("EREMOVE", enc.pages[off])
    machine.leaf("EREMOVE", enc.secs_granule)
    assert bytes(machine.memory.gpts.system) == system_before
    assert set(machine.memory.gpts.enclave) == tables_before
    assert enc.eid not in machine.enclaves
    machine.audit()


def test_remove_invalid_page_rejected(machine):
    with pytest.raises(SgxError) as exc:
        machine.leaf("EREMOVE", 40)
    assert exc.value.code == E.PAGE_INVALID


# ---------------------------------------------------------------------------
# Debug access


def test_edbgrd_reads_what_host_cannot(machine):
    enc = build_raw_enclave(machine, attributes=Attributes(debug=True))
    g = enc.granule(0x0)
    with pytest.raises(GranuleProtectionFault):
        machine.host_read(g, 0, 16)
    assert machine.leaf("EDBGRD", g, 0, 16) == b"\x11" * 16


def test_edbgrd_non_debug_enclave_rejected(machine):
    enc = build_raw_enclave(machine, attributes=Attributes(debug=False))
    with pytest.raises(SgxError) as exc:
        machine.leaf("EDBGRD", enc.granule(0x0), 0, 16)
    assert exc.value.code == E.NON_DEBUG_ENCLAVE


def test_edbgwr_round_trip(machine):
    enc = build_raw_enclave(machine, attributes=Attributes(debug=True))
    g = enc.granule(0x1000)
    machine.leaf("EDBGWR", g, 32, b"patched!")
    assert machine.leaf("EDBGRD", g, 32, 8) == b"patched!"


def test_debug_access_rejects_va_pages(machine):
    g = free_epc_granules(machine, 1)[0]
    machine.leaf("EPA", g)
    with pytest.raises(SgxError) as exc:
        machine.leaf("EDBGRD", g, 0, 8)
    assert exc.value.code == E.PAGE_INVALID
