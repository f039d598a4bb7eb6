"""Dynamic page management: grow, accept, permission and type changes."""

import itertools

import pytest

from ccxsim.errors import SgxError, SgxErrorCode as E
from ccxsim.execution import _PageAccessFault, mem_read
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE, PageType, Perms
from ccxsim.runtime import AEP_GATE, HostRuntime, RETURN_GATE
from ccxsim.structs import Attributes, SecInfo, Tcs

from helpers import BASE, build_raw_enclave, free_epc_granules, small_config

DYN = 0x8000

ALL_PERMS = [Perms(bits) for bits in range(8)]


def dyn_enclave(machine):
    return build_raw_enclave(
        machine,
        page_specs=[
            (0x0000, "rx", b"\x11" * GRANULE_SIZE),
            (0x1000, "rw", b"\x22" * GRANULE_SIZE),
            (0x2000, "rw", b""),
            (0x3000, "rw", b""),
        ],
        tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000}],
    )


@pytest.fixture
def env(machine):
    return machine, dyn_enclave(machine), HostRuntime(machine)


def augment(machine, enc, vaddr=BASE + DYN):
    g = free_epc_granules(machine, 1)[0]
    machine.leaf("EAUG", enc.eid, vaddr, g)
    return g


def accept(machine, enc, rt, granule, secinfo):
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    try:
        machine.enclu(vcpu, 0x5, granule, secinfo)
    finally:
        machine.enclu(vcpu, 0x4, RETURN_GATE)


# ---------------------------------------------------------------------------
# EAUG / EACCEPT


def test_eaug_requires_initialized_enclave(machine):
    enc = build_raw_enclave(machine, init=False)
    g = free_epc_granules(machine, 1)[0]
    with pytest.raises(SgxError) as exc:
        machine.leaf("EAUG", enc.eid, BASE + DYN, g)
    assert exc.value.code == E.NOT_INITIALIZED


def test_permission_and_type_changes_need_initialized_enclave(machine):
    enc = build_raw_enclave(machine, init=False)
    g = enc.granule(0x1000)
    for leaf, arg in (("EMODPR", Perms.R), ("EMODT", PageType.TRIM)):
        with pytest.raises(SgxError) as exc:
            machine.leaf(leaf, g, arg)
        assert exc.value.code == E.NOT_INITIALIZED, leaf


def test_eaug_vaddr_collision(env):
    machine, enc, rt = env
    with pytest.raises(SgxError) as exc:
        machine.leaf("EAUG", enc.eid, BASE + 0x1000, free_epc_granules(machine, 1)[0])
    assert exc.value.code == E.VADDR_COLLISION


def test_eaug_page_pending_until_accept(env):
    machine, enc, rt = env
    g = augment(machine, enc)
    entry = machine.memory.epcm_lookup(g)
    assert entry.pending and entry.page_type == PageType.REG
    accept(machine, enc, rt, g, SecInfo(Perms.R | Perms.W, PageType.REG))
    entry = machine.memory.epcm_lookup(g)
    assert not entry.pending
    assert machine.leaf("EDBGRD", g, 0, 8) == b"\0" * 8  # zero-filled


def test_pending_page_faults_in_enclave_until_accept(machine, fixture_dir):
    """Through a running program: the augmented page faults on access until
    the enclave accepts it, then reads back zero."""
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import EnclaveFault

    rt = HostRuntime(machine)
    path = fixtures.write_standard_manifest(fixture_dir, "sgx2")
    h = rt.load_enclave(EnclaveManifest.load(path))
    vaddr = h.base + 0x10000
    g = free_epc_granules(machine, 1)[0]
    machine.leaf("EAUG", h.eid, vaddr, g)
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(h, 0, fixtures.SEL_PEEK, vaddr)
    assert exc.value.report.kind == "pagefault"
    with rt.entered(h) as vcpu:
        machine.enclu(vcpu, 0x5, g, SecInfo(Perms.R | Perms.W, PageType.REG))
    assert rt.ecall(h, 0, fixtures.SEL_PEEK, vaddr) == 0


def test_accept_with_wrong_expectation_mismatches(env):
    machine, enc, rt = env
    g = augment(machine, enc)
    with pytest.raises(SgxError) as exc:
        accept(machine, enc, rt, g, SecInfo(Perms.R, PageType.REG))
    assert exc.value.code == E.SECINFO_MISMATCH


def test_accept_without_pending_change(env):
    machine, enc, rt = env
    with pytest.raises(SgxError) as exc:
        accept(machine, enc, rt, enc.granule(0x1000),
               SecInfo(Perms.R | Perms.W, PageType.REG))
    assert exc.value.code == E.NOT_PENDING


def test_accept_from_host_mode_is_mode_fault(env):
    machine, enc, rt = env
    g = augment(machine, enc)
    vcpu = machine.vcpus[0]
    with pytest.raises(SgxError) as exc:
        machine.enclu(vcpu, 0x5, g, SecInfo(Perms.R | Perms.W, PageType.REG))
    assert exc.value.code == E.INVALID_MODE


def test_accept_foreign_page_rejected(env):
    machine, enc, rt = env
    g = augment(machine, enc)
    vcpu = machine.vcpus[0]
    # enter a *different* enclave and try to accept enc's page
    enc2 = build_raw_enclave(machine, tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000}],
                             page_specs=[
                                 (0x0000, "rx", b"\x11" * GRANULE_SIZE),
                                 (0x1000, "rw", b"\x22" * GRANULE_SIZE),
                                 (0x2000, "rw", b""),
                                 (0x3000, "rw", b""),
                             ])
    machine.enclu(vcpu, 0x2, enc2.pages[0x4000], AEP_GATE)
    try:
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, 0x5, g, SecInfo(Perms.R | Perms.W, PageType.REG))
        assert exc.value.code == E.PAGE_INVALID
    finally:
        machine.enclu(vcpu, 0x4, RETURN_GATE)


# ---------------------------------------------------------------------------
# EMODPR: the full permission-pair matrix


@pytest.mark.parametrize("current,requested", list(itertools.product(ALL_PERMS, ALL_PERMS)))
def test_emodpr_matrix(machine, current, requested):
    enc = build_raw_enclave(
        machine,
        page_specs=[
            (0x0000, "rx", b"\x11" * GRANULE_SIZE),
            (0x1000, "rw", b"\x22" * GRANULE_SIZE),
            (0x2000, "rw", b""),
            (0x3000, "rw", b""),
        ],
        tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000}],
    )
    g = free_epc_granules(machine, 1)[0]
    machine.leaf("EAUG", enc.eid, BASE + DYN, g)
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    machine.enclu(vcpu, 0x5, g, SecInfo(Perms.R | Perms.W, PageType.REG))
    # shape the page to `current` (restrict from rw, then extend as needed)
    machine.enclu(vcpu, 0x4, RETURN_GATE)
    machine.leaf("EMODPR", g, Perms.NONE)
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    machine.enclu(vcpu, 0x5, g, SecInfo(Perms.NONE, PageType.REG))
    if current != Perms.NONE:
        machine.enclu(vcpu, 0x6, g, current)
    machine.enclu(vcpu, 0x4, RETURN_GATE)
    assert machine.memory.epcm_lookup(g).perms == current

    if requested & ~current:
        with pytest.raises(SgxError) as exc:
            machine.leaf("EMODPR", g, requested)
        assert exc.value.code == E.PERM_EXPANSION_ATTEMPT
        assert machine.memory.epcm_lookup(g).perms == current
    else:
        machine.leaf("EMODPR", g, requested)
        entry = machine.memory.epcm_lookup(g)
        assert entry.perms == requested and entry.modified
        machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
        machine.enclu(vcpu, 0x5, g, SecInfo(requested, PageType.REG))
        machine.enclu(vcpu, 0x4, RETURN_GATE)
        assert not machine.memory.epcm_lookup(g).modified


def test_emodpr_restriction_enforced_after_accept(machine, fixture_dir):
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import EnclaveFault

    rt = HostRuntime(machine)
    path = fixtures.write_standard_manifest(fixture_dir, "modpr")
    h = rt.load_enclave(EnclaveManifest.load(path))
    scratch = h.base + fixtures.SCRATCH_OFF
    assert rt.ecall(h, 0, fixtures.SEL_POKE, scratch + 256, 41) == 41
    g = machine.memory.find_page(h.eid, scratch)
    machine.leaf("EMODPR", g, Perms.R)
    with rt.entered(h) as vcpu:
        machine.enclu(vcpu, 0x5, g, SecInfo(Perms.R, PageType.REG))
    with pytest.raises(EnclaveFault) as exc:
        rt.ecall(h, 0, fixtures.SEL_POKE, scratch + 256, 42)  # write now faults
    assert exc.value.report.kind == "pagefault"
    assert rt.ecall(h, 0, fixtures.SEL_PEEK, scratch + 256) == 41  # reads stay fine


# ---------------------------------------------------------------------------
# EMODT


def test_emodt_reg_to_trim_then_remove(env):
    machine, enc, rt = env
    g = augment(machine, enc)
    accept(machine, enc, rt, g, SecInfo(Perms.R | Perms.W, PageType.REG))
    machine.leaf("EMODT", g, PageType.TRIM)
    entry = machine.memory.epcm_lookup(g)
    assert entry.modified and entry.staged_type == PageType.TRIM
    accept(machine, enc, rt, g, SecInfo(Perms.R | Perms.W, PageType.TRIM))
    assert machine.memory.epcm_lookup(g).page_type == PageType.TRIM
    machine.leaf("EREMOVE", g)
    assert machine.memory.epcm_lookup(g) is None


def test_emodt_illegal_transitions(env):
    machine, enc, rt = env
    with pytest.raises(SgxError) as exc:
        machine.leaf("EMODT", enc.pages[0x4000], PageType.REG)  # TCS source
    assert exc.value.code == E.PAGE_INVALID
    g = augment(machine, enc)
    accept(machine, enc, rt, g, SecInfo(Perms.R | Perms.W, PageType.REG))
    for target in (PageType.REG, PageType.SECS, PageType.VA):
        with pytest.raises(SgxError) as exc:
            machine.leaf("EMODT", g, target)
        assert exc.value.code == E.ILLEGAL_TRANSITION


def test_emodt_reg_to_tcs_then_enter(env):
    """A dynamic thread: the enclave materializes a TCS in a data page.  A bad
    TCS image is refused at EACCEPT and leaves the staged change in place."""
    machine, enc, rt = env
    g = augment(machine, enc)
    accept(machine, enc, rt, g, SecInfo(Perms.R | Perms.W, PageType.REG))
    # debug writes model the enclave runtime preparing the structure; the
    # first image's entry point lies outside the enclave
    bad = Tcs(oentry=1 << 22, ossa=0x3000, nssa=1, tls_base=0x1000)
    machine.leaf("EDBGWR", g, 0, bad.pack()[:64])
    machine.leaf("EMODT", g, PageType.TCS)
    staged = machine.memory.epcm_lookup(g)
    with pytest.raises(SgxError) as exc:
        accept(machine, enc, rt, g, SecInfo(Perms.R | Perms.W, PageType.TCS))
    assert exc.value.code == E.BAD_TCS_LAYOUT
    entry = machine.memory.epcm_lookup(g)
    assert entry == staged
    assert entry.page_type == PageType.REG and entry.staged_type == PageType.TCS
    assert entry.modified
    with pytest.raises(SgxError) as exc:  # still no thread to enter
        machine.enclu(machine.vcpus[0], 0x2, g, AEP_GATE)
    assert exc.value.code == E.PAGE_INVALID
    with pytest.raises(AttributeError):  # entries are immutable
        entry.modified = False
    tcs = Tcs(oentry=0x0, ossa=0x3000, nssa=1, tls_base=0x1000)
    machine.leaf("EDBGWR", g, 0, tcs.pack()[:64])
    accept(machine, enc, rt, g, SecInfo(Perms.R | Perms.W, PageType.TCS))
    entry = machine.memory.epcm_lookup(g)
    assert entry.page_type == PageType.TCS and entry.perms == Perms.NONE
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, g, AEP_GATE)  # enter through the new thread
    assert vcpu.in_enclave and vcpu.pc == BASE + 0x0
    machine.enclu(vcpu, 0x4, RETURN_GATE)


# ---------------------------------------------------------------------------
# EACCEPTCOPY


def test_acceptcopy_initializes_from_existing_page(env):
    machine, enc, rt = env
    g = augment(machine, enc)
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    machine.enclu(vcpu, 0x7, g, BASE + 0x1000, SecInfo(Perms.R | Perms.W, PageType.REG))
    machine.enclu(vcpu, 0x4, RETURN_GATE)
    assert machine.leaf("EDBGRD", g, 0, 32) == b"\x22" * 32
    assert not machine.memory.epcm_lookup(g).pending


def test_acceptcopy_source_outside_enclave_faults(env):
    machine, enc, rt = env
    g = augment(machine, enc)
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    try:
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, 0x7, g, BASE + 0x70000,
                          SecInfo(Perms.R, PageType.REG))
        assert exc.value.code == E.BAD_VADDR
    finally:
        machine.enclu(vcpu, 0x4, RETURN_GATE)


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_acceptcopy_refuses_a_source_that_an_enclave_load_refuses(mode):
    """The source is read by the rule enclave loads follow: a page with a
    type change in flight faults a load and fails the copy, and the target
    stays pending and empty."""
    machine = Machine(small_config(mode=mode))
    enc = dyn_enclave(machine)
    machine.leaf("EMODT", enc.granule(0x1000), PageType.TRIM)
    g = augment(machine, enc)
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    try:
        with pytest.raises(_PageAccessFault) as fault:
            mem_read(machine, vcpu, BASE + 0x1000, 8)
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, 0x7, g, BASE + 0x1000, SecInfo(Perms.R | Perms.W, PageType.REG))
    finally:
        machine.enclu(vcpu, 0x4, RETURN_GATE)
    assert fault.value.why == "page has a type change in flight"
    assert exc.value.code == E.BAD_VADDR and fault.value.why in exc.value.detail
    assert machine.memory.epcm_lookup(g).pending
    assert machine.leaf("EDBGRD", g, 0, GRANULE_SIZE) == bytes(GRANULE_SIZE)
    machine.audit()


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_acceptcopy_refuses_an_unaligned_source(mode):
    """A source address inside a page names no page to copy: it is refused
    before anything changes, as EADD and EAUG refuse an unaligned page."""
    machine = Machine(small_config(mode=mode))
    enc = dyn_enclave(machine)
    g = augment(machine, enc)
    vcpu = machine.vcpus[0]
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    try:
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, 0x7, g, BASE + 0x1234, SecInfo(Perms.R | Perms.W, PageType.REG))
    finally:
        machine.enclu(vcpu, 0x4, RETURN_GATE)
    assert exc.value.code == E.BAD_VADDR
    assert machine.memory.epcm_lookup(g).pending
    assert machine.leaf("EDBGRD", g, 0, GRANULE_SIZE) == bytes(GRANULE_SIZE)
    machine.audit()


def test_acceptcopy_dynamic_loading_scenario(env):
    """Grow a region, copy code/data into it page by page, verify contents."""
    machine, enc, rt = env
    sources = {0x0000: b"\x11" * GRANULE_SIZE, 0x1000: b"\x22" * GRANULE_SIZE}
    vcpu = machine.vcpus[0]
    for i, (src, content) in enumerate(sorted(sources.items())):
        vaddr = BASE + DYN + i * GRANULE_SIZE
        g = augment(machine, enc, vaddr)
        machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
        machine.enclu(vcpu, 0x7, g, BASE + src, SecInfo(Perms.R | Perms.W, PageType.REG))
        machine.enclu(vcpu, 0x4, RETURN_GATE)
        assert machine.leaf("EDBGRD", g, 0, GRANULE_SIZE) == content
    machine.audit()


# ---------------------------------------------------------------------------
# EMODPE


def test_emodpe_extends_and_write_succeeds(machine, fixture_dir):
    from ccxsim import fixtures
    from ccxsim.manifest import EnclaveManifest

    rt = HostRuntime(machine)
    path = fixtures.write_standard_manifest(fixture_dir, "modpe")
    h = rt.load_enclave(EnclaveManifest.load(path))
    scratch = h.base + fixtures.SCRATCH_OFF
    g = machine.memory.find_page(h.eid, scratch)
    machine.leaf("EMODPR", g, Perms.R)
    with rt.entered(h) as vcpu:
        machine.enclu(vcpu, 0x5, g, SecInfo(Perms.R, PageType.REG))
        machine.enclu(vcpu, 0x6, g, Perms.W)  # extend back, no accept needed
    assert machine.memory.epcm_lookup(g).perms == (Perms.R | Perms.W)
    assert rt.ecall(h, 0, fixtures.SEL_POKE, scratch + 512, 5) == 5


def test_emodpe_beyond_signed_ceiling_denied(machine):
    enc = build_raw_enclave(
        machine,
        attributes=Attributes(debug=True, max_page_perms=Perms.R | Perms.W),
        page_specs=[
            (0x0000, "rw", b"\x11" * GRANULE_SIZE),
            (0x1000, "rw", b"\x22" * GRANULE_SIZE),
            (0x2000, "rw", b""),
            (0x3000, "rw", b""),
        ],
        tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000}],
    )
    vcpu = machine.vcpus[0]
    g = enc.granule(0x1000)
    machine.enclu(vcpu, 0x2, enc.pages[0x4000], AEP_GATE)
    try:
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, 0x6, g, Perms.X)
        assert exc.value.code == E.PERM_POLICY_DENIED
    finally:
        machine.enclu(vcpu, 0x4, RETURN_GATE)


def test_emodpe_from_host_is_mode_fault(env):
    machine, enc, rt = env
    with pytest.raises(SgxError) as exc:
        machine.enclu(machine.vcpus[0], 0x6, enc.granule(0x1000), Perms.X)
    assert exc.value.code == E.INVALID_MODE
