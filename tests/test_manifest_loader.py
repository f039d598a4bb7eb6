"""Manifest parsing and the enclave loader."""

import gc
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ccxsim import fixtures, runtime as runtime_module
from ccxsim.errors import SgxError
from ccxsim.machine import ENCLS_TABLE, Machine
from ccxsim.manifest import EnclaveManifest, ManifestError
from ccxsim.memory import GRANULE_SIZE, Perms
from ccxsim.runtime import HostRuntime, LoadError

from helpers import small_config
from oracles import reference_geometry_refusal, reference_measurement

MINIMAL = """
name mini
size 0x100000
nssa 2
page vaddr=0x0 perms=rx content=hex:{code}
page vaddr=0x1000 perms=rw content=zero
page vaddr=0x2000 perms=rw content=zero count=2
tcs vaddr=0x4000 oentry=0x0 ossa=0x2000 tls=0x1000
sigstruct test-key
"""


def minimal_text():
    return MINIMAL.format(code=(b"\x0c" + bytes(15)).hex())  # one abort op


# ---------------------------------------------------------------------------
# Parsing


def test_parse_minimal_manifest():
    m = EnclaveManifest.parse(minimal_text())
    assert m.name == "mini"
    assert m.size == 0x100000
    assert len(m.pages) == 3 and len(m.tcs) == 1
    assert m.pages[2].page_count == 2
    assert m.pages[0].perms == (Perms.R | Perms.X)


def test_parse_reports_line_numbers():
    bad = minimal_text().replace("size 0x100000", "size banana")
    with pytest.raises(ManifestError) as exc:
        EnclaveManifest.parse(bad)
    assert exc.value.line_no == 3


def test_unknown_directive_rejected():
    with pytest.raises(ManifestError):
        EnclaveManifest.parse("frobnicate yes\n" + minimal_text())


@pytest.mark.parametrize("line, name, value", [
    ("size", "size", ""),
    ("size 0x", "size", "0x"),
    ("ssa_frame_size", "ssa_frame_size", ""),
    ("nssa two", "nssa", "two"),
    ("isv_prod_id", "isv_prod_id", ""),
    ("isv_svn 1.5", "isv_svn", "1.5"),
    ("page vaddr=", "vaddr=", ""),
    ("page vaddr=0 count=", "count=", ""),
    ("page vaddr=0 count=many", "count=", "many"),
    ("tcs vaddr=x oentry=0 ossa=0", "vaddr=", "x"),
    ("tcs vaddr=0 oentry= ossa=0", "oentry=", ""),
    ("tcs vaddr=0 oentry=0 ossa=0x1g", "ossa=", "0x1g"),
    ("tcs vaddr=0 oentry=0 ossa=0 tls=", "tls=", ""),
])
def test_a_missing_or_bad_number_names_its_directive_or_field(line, name, value):
    with pytest.raises(ManifestError) as exc:
        EnclaveManifest.parse(f"name x\n{line}\n")
    assert str(exc.value) == f"manifest line 2: {name} needs a number, got {value!r}"


def test_overlapping_pages_rejected():
    text = minimal_text().replace(
        "page vaddr=0x1000 perms=rw content=zero",
        "page vaddr=0x0 perms=rw content=zero",
    )
    with pytest.raises(ManifestError):
        EnclaveManifest.parse(text)


def test_tcs_needs_declared_ssa_pages():
    text = minimal_text().replace("page vaddr=0x2000 perms=rw content=zero count=2\n", "")
    with pytest.raises(ManifestError):
        EnclaveManifest.parse(text)


def test_non_power_of_two_size_rejected():
    with pytest.raises(ManifestError):
        EnclaveManifest.parse(minimal_text().replace("0x100000", "0x180000"))


@pytest.mark.parametrize("size", ["0x400000000", "0x4000000000000000"])
def test_a_size_the_loader_cannot_place_is_refused_on_its_line(size):
    """The loader bases every enclave at 2**33, aligned to its size, so a
    larger size is refused on the size line, before the page runs."""
    text = minimal_text().replace("size 0x100000", f"size {size}").replace(
        "content=zero count=2", "content=zero count=4096")
    with pytest.raises(ManifestError, match=f"size {size} exceeds 0x200000000") as exc:
        EnclaveManifest.parse(text)
    assert exc.value.line_no == 3


def test_the_largest_placeable_size_loads():
    rt = HostRuntime(Machine(small_config()))
    handle = rt.load_enclave(EnclaveManifest.parse(minimal_text().replace(
        "size 0x100000", "size 0x200000000")))
    assert rt.machine.enclaves[handle.eid].size == 1 << 33


def test_the_largest_placeable_run_validates_without_walking_its_pages():
    """A one-line run of 2**21 pages fills the largest placeable enclave; it
    is checked by interval, so parsing it holds well under 1 MB (a dict of
    every page took about 167 MB)."""
    text = "size 0x200000000\npage vaddr=0 perms=rw content=zero count=2097152\n"
    tracemalloc.start()
    try:
        manifest = EnclaveManifest.parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert manifest.pages[0].page_count == 1 << 21
    assert peak < 1 << 20


_PAGE_LINE = st.builds(
    lambda vaddr, count: f"page vaddr={vaddr * GRANULE_SIZE:#x} perms=rw count={count}",
    st.integers(0, 18), st.integers(1, 4))
_TCS_LINE = st.builds(
    lambda vaddr, oentry, ossa: f"tcs vaddr={vaddr:#x} oentry={oentry:#x} ossa={ossa:#x}",
    st.integers(0, 17).map(lambda n: n * GRANULE_SIZE),
    st.integers(0, 0x11000),
    st.sampled_from([0, 0x8, 0x1000, 0x3000, 0x8000, 0xE000, 0xF000, 0x10000]))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(_PAGE_LINE, _TCS_LINE), max_size=8),
       nssa=st.integers(1, 3), frame=st.integers(1, 2))
def test_interval_checks_refuse_what_a_page_walk_refuses(lines, nssa, frame):
    """Every page and TCS refusal keeps its line and message: the first
    misfit is the one a walk over every page finds."""
    text = "\n".join(["size 0x10000", f"nssa {nssa}", f"ssa_frame_size {frame}"] + lines)
    manifest = EnclaveManifest(size=0x10000, nssa=nssa, ssa_frame_size=frame)
    manifest.pages = [EnclaveManifest._parse_page(line[5:], None, n)
                      for n, line in enumerate(lines, start=4) if line.startswith("page")]
    manifest.tcs = [EnclaveManifest._parse_tcs(line[4:], n)
                    for n, line in enumerate(lines, start=4) if line.startswith("tcs")]
    expected = reference_geometry_refusal(manifest)
    if expected is None:
        EnclaveManifest.parse(text)
    else:
        with pytest.raises(ManifestError) as exc:
            EnclaveManifest.parse(text)
        assert (exc.value.line_no, str(exc.value)) == (
            expected[0], f"manifest line {expected[0]}: {expected[1]}")


def test_the_attribute_directives_commute():
    """``attributes`` sets the flags and ``max_page_perms`` the ceiling, in
    either order: a read-only ceiling is not widened by a later flag line."""
    words = {EnclaveManifest.parse(minimal_text() + lines).attributes.encode()
             for lines in ("max_page_perms r\nattributes debug\n",
                           "attributes debug\nmax_page_perms r\n")}
    assert words == {0x101}


@pytest.mark.parametrize("value", ["Yes", "true", "1", ""])
@pytest.mark.parametrize("line, directive_end", [(6, "content=zero\n"), (8, "tls=0x1000\n")],
                         ids=["page", "tcs"])
def test_measured_takes_only_yes_or_no(line, directive_end, value):
    """Any other word would silently leave the page out of MRENCLAVE."""
    text = minimal_text().replace(directive_end, f"{directive_end[:-1]} measured={value}\n", 1)
    with pytest.raises(ManifestError, match=f"measured={value} must be yes or no") as exc:
        EnclaveManifest.parse(text)
    assert exc.value.line_no == line


def test_the_loader_refuses_an_unknown_sigstruct_source_before_any_leaf(runtime):
    """A source set in code is checked by the same validation as a parsed one."""
    manifest = EnclaveManifest.parse(minimal_text())
    manifest.sigstruct_source = "bogus"
    with pytest.raises(ManifestError, match="manifest line 9: unknown sigstruct source 'bogus'"):
        runtime.load_enclave(manifest)
    assert runtime.machine.counters["ECREATE"] == 0


@pytest.mark.parametrize("count", ["1099511627776", "0"])
def test_a_page_count_that_cannot_fit_is_refused_on_its_line(count):
    """A run of zero pages is checked against the enclave size before any
    page of it is built: a count of 2**40 ends in a ManifestError, not a
    MemoryError, and so does an empty run."""
    text = minimal_text().replace("content=zero count=2", f"content=zero count={count}")
    with pytest.raises(ManifestError) as exc:
        EnclaveManifest.parse(text)
    assert exc.value.line_no == 7


@pytest.mark.parametrize("content", ["hex:00", "file:code.bin"])
def test_a_count_with_content_other_than_zero_is_refused(content):
    text = minimal_text().replace("content=zero count=2", f"content={content} count=1")
    with pytest.raises(ManifestError, match="count repeats zero pages") as exc:
        EnclaveManifest.parse(text)
    assert exc.value.line_no == 7


def test_a_zero_run_yields_its_pages_without_building_them():
    page = EnclaveManifest.parse(minimal_text()).pages[2]
    assert (page.page_count, len(page.content)) == (2, GRANULE_SIZE)
    assert page.page(0) == page.page(1) == bytes(GRANULE_SIZE)


@pytest.mark.parametrize("old, new, line, message", [
    # a run past the end of the enclave names its page line
    ("size 0x100000", "size 0x1000", 6, "run of 1 pages at 0x1000"),
    # a size that is no power of two names the size line
    ("size 0x100000", "size 0x180000", 3, "power-of-two"),
    # a TCS whose save-state pages are not declared names the tcs line
    ("page vaddr=0x2000 perms=rw content=zero count=2\n", "", 7, "save-state page 0x2000"),
    # a TCS that lands on a page names the tcs line
    ("tcs vaddr=0x4000", "tcs vaddr=0x1000", 8, "collides with a page"),
    # a TCS that EADD would refuse is refused on its line, before ECREATE
    ("tls=0x1000", "tls=0x100000", 8, "tcs TLS base outside enclave"),
    ("tls=0x1000", "tls=0x1000 flags=aexnotify", 8, "tcs exit notification needs"),
    ("nssa 2", "nssa 0", 8, "tcs nssa must be >= 1"),
    # a line without a required field names the line and the field
    ("page vaddr=0x1000 perms=rw", "page perms=rw", 6, "missing required field vaddr="),
    ("tcs vaddr=0x4000 ", "tcs ", 8, "missing required field vaddr="),
    ("oentry=0x0 ", "", 8, "missing required field oentry="),
    ("ossa=0x2000 ", "", 8, "missing required field ossa="),
], ids=["page-past-size", "size", "tcs-save-state", "tcs-collision", "tcs-tls",
        "tcs-aexnotify", "tcs-nssa-0", "page-no-vaddr", "tcs-no-vaddr", "tcs-no-oentry",
        "tcs-no-ossa"])
def test_a_geometry_error_names_the_line_of_its_directive(old, new, line, message):
    text = minimal_text().replace(old, new)
    assert text != minimal_text()
    with pytest.raises(ManifestError) as exc:
        EnclaveManifest.parse(text)
    assert exc.value.line_no == line
    assert str(exc.value).startswith(f"manifest line {line}: ")
    assert message in str(exc.value)


@pytest.mark.parametrize("change", [
    lambda manifest: setattr(manifest.tcs[0], "tls_base", manifest.size),
    lambda manifest: setattr(manifest.tcs[0], "aexnotify", True),
    lambda manifest: setattr(manifest, "nssa", 0),
], ids=["tls", "aexnotify", "nssa-0"])
def test_the_loader_refuses_a_tcs_that_eadd_would_refuse_before_any_leaf(runtime, change):
    """A TCS changed in code after parsing meets the same rule on its line."""
    manifest = EnclaveManifest.parse(minimal_text())
    change(manifest)
    with pytest.raises(ManifestError, match="manifest line 8: tcs "):
        runtime.load_enclave(manifest)
    assert runtime.machine.counters["ECREATE"] == 0


def test_file_content_source(tmp_path):
    (tmp_path / "code.bin").write_bytes(b"\x0c" + bytes(15))
    inline = "content=hex:" + (b"\x0c" + bytes(15)).hex()
    text = minimal_text().replace(inline, "content=file:code.bin")
    (tmp_path / "m.manifest").write_text(text)
    m = EnclaveManifest.load(tmp_path / "m.manifest")
    assert m.pages[0].content[:1] == b"\x0c"
    assert len(m.pages[0].content) == GRANULE_SIZE


@pytest.mark.parametrize("source", ["nonexist.bin", "bindir"])
def test_unreadable_content_file_is_reported_with_its_line(tmp_path, source):
    (tmp_path / "bindir").mkdir()
    inline = "content=hex:" + (b"\x0c" + bytes(15)).hex()
    text = minimal_text().replace(inline, f"content=file:{source}")
    (tmp_path / "m.manifest").write_text(text)
    with pytest.raises(ManifestError, match=f"cannot read content file {source!r}") as exc:
        EnclaveManifest.load(tmp_path / "m.manifest")
    assert exc.value.line_no == 5  # the first page line


# ---------------------------------------------------------------------------
# Loading


def test_load_minimal_manifest_initializes(runtime):
    h = runtime.load_enclave(EnclaveManifest.parse(minimal_text()))
    assert runtime.machine.enclaves[h.eid].initialized
    assert h.mrenclave == runtime.machine.enclaves[h.eid].mrenclave


def test_loader_measurement_matches_reference_oracle(runtime, fixture_dir):
    for writer, name in (
        (fixtures.write_standard_manifest, "ld_std"),
        (fixtures.write_compute_manifest, "ld_cmp"),
        (fixtures.write_notify_manifest, "ld_ntf"),
    ):
        manifest = EnclaveManifest.load(writer(fixture_dir, name))
        h = runtime.load_enclave(manifest)
        assert h.mrenclave == reference_measurement(manifest), name


def test_same_manifest_twice_same_measurement_distinct_ids(runtime):
    manifest = EnclaveManifest.parse(minimal_text())
    h1 = runtime.load_enclave(manifest)
    h2 = runtime.load_enclave(manifest)
    assert h1.eid != h2.eid
    assert h1.mrenclave == h2.mrenclave


def test_measurement_identical_in_both_modes(fixture_dir):
    path = fixtures.write_standard_manifest(fixture_dir, "modes")
    results = {}
    for mode in ("sgx", "ccx"):
        machine = Machine(small_config(mode=mode))
        rt = HostRuntime(machine)
        results[mode] = rt.load_enclave(EnclaveManifest.load(path)).mrenclave
    assert results["sgx"] == results["ccx"]


def test_unmeasured_page_changes_nothing(runtime):
    base = EnclaveManifest.parse(minimal_text())
    text2 = minimal_text().replace(
        "page vaddr=0x1000 perms=rw content=zero",
        "page vaddr=0x1000 perms=rw content=zero measured=no",
    )
    with_hole = EnclaveManifest.parse(text2)
    h1 = runtime.load_enclave(base)
    h2 = runtime.load_enclave(with_hole)
    assert h1.mrenclave != h2.mrenclave  # the add record itself is... still equal?
    # the add record is always measured; only content blocks are skipped, so
    # the two measurements must differ exactly because content was skipped
    assert reference_measurement(with_hole) == h2.mrenclave


def test_load_walks_the_build_plan_once(runtime, monkeypatch):
    walks = []
    build_plan = runtime_module._build_plan

    def counted(manifest):
        walks.append(manifest)
        return build_plan(manifest)

    monkeypatch.setattr(runtime_module, "_build_plan", counted)
    manifest = EnclaveManifest.parse(minimal_text())
    runtime.load_enclave(manifest)
    assert walks == [manifest]


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_load_issues_one_eadd_a_page_and_16_eextends_a_measured_page(mode, monkeypatch):
    text = minimal_text().replace(
        "page vaddr=0x1000 perms=rw content=zero",
        "page vaddr=0x1000 perms=rw content=zero measured=no",
    ).replace("sigstruct test-key", "") + (
        "page vaddr=0x5000 perms=rw content=zero count=3 measured=no\n"
        "page vaddr=0x8000 perms=r content=hex:0102\n"
        "tcs vaddr=0x9000 oentry=0x0 ossa=0x2000 tls=0x1000 measured=no\n"
        "sigstruct test-key\n"
    )
    # (page offset, measured) in build order: pages in file order, then TCSs
    plan = [(0x0, True), (0x1000, False), (0x2000, True), (0x3000, True),
            (0x5000, False), (0x6000, False), (0x7000, False), (0x8000, True),
            (0x4000, True), (0x9000, False)]
    rt = HostRuntime(Machine(small_config(mode=mode)))
    leaves = []
    encls = Machine.encls

    def recorded(machine, leaf, *args, **kwargs):
        name = ENCLS_TABLE[leaf][0]
        leaves.append((name, args[1]) if name in ("EADD", "EEXTEND") else (name,))
        return encls(machine, leaf, *args, **kwargs)

    monkeypatch.setattr(Machine, "encls", recorded)
    before = dict(rt.machine.counters)
    handle = rt.load_enclave(EnclaveManifest.parse(text))
    expected = [("ECREATE",)]
    for off, measured in plan:
        expected.append(("EADD", handle.base + off))
        if measured:
            expected += [("EEXTEND", handle.base + off + chunk)
                         for chunk in range(0, GRANULE_SIZE, 256)]
    expected.append(("EINIT",))
    assert leaves == expected
    # every leaf the load counted entered through Machine.encls
    counted = {name: n - before[name] for name, n in rt.machine.counters.items()
               if n != before[name]}
    assert counted == {"ECREATE": 1, "EADD": 10, "EEXTEND": 16 * 5, "EINIT": 1}


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_signed_hash_of_partly_measured_manifest_matches_oracle(mode, monkeypatch):
    # unmeasured pages before and after measured ones, and an unmeasured TCS
    # next to a measured one
    text = minimal_text().replace(
        "page vaddr=0x1000 perms=rw content=zero",
        "page vaddr=0x1000 perms=rw content=hex:5a5a measured=no",
    ) + (
        "page vaddr=0x5000 perms=r content=hex:0102 measured=no\n"
        "page vaddr=0x6000 perms=rw content=hex:0304\n"
        "tcs vaddr=0x7000 oentry=0x0 ossa=0x2000 tls=0x1000 measured=no\n"
    )
    manifest = EnclaveManifest.parse(text)
    rt = HostRuntime(Machine(small_config(mode=mode)))
    signed = []
    sign = rt.machine.crypto.sign_sigstruct

    def recording_sign(enclavehash, *args):
        signed.append(enclavehash)
        return sign(enclavehash, *args)

    monkeypatch.setattr(rt.machine.crypto, "sign_sigstruct", recording_sign)
    handle = rt.load_enclave(manifest)
    assert signed == [reference_measurement(manifest)]
    assert signed == [rt.predict_measurement(manifest)]
    assert handle.mrenclave == signed[0]


def test_signer_label_selects_identity(runtime):
    t1 = minimal_text()
    t2 = minimal_text().replace("sigstruct test-key", "sigstruct test-key:vendor-b")
    h1 = runtime.load_enclave(EnclaveManifest.parse(t1))
    h2 = runtime.load_enclave(EnclaveManifest.parse(t2))
    assert h1.mrenclave == h2.mrenclave
    assert h1.mrsigner != h2.mrsigner


def test_loaded_enclave_keeps_no_reference_to_its_manifest(runtime):
    manifest = EnclaveManifest.parse(minimal_text())
    ref = weakref.ref(manifest)
    handle = runtime.load_enclave(manifest)
    del manifest
    gc.collect()
    assert ref() is None
    assert runtime.handles[handle.eid] is handle


def test_sigstruct_from_file(runtime, tmp_path):
    manifest = EnclaveManifest.parse(minimal_text())
    sig = runtime.machine.crypto.sign_sigstruct(
        runtime.predict_measurement(manifest),
        manifest.attributes.signed_view(),
        manifest.isv_prod_id,
        manifest.isv_svn,
    )
    (tmp_path / "identity.sig").write_bytes(sig.to_bytes())
    text = minimal_text().replace("sigstruct test-key", "sigstruct file:identity.sig")
    (tmp_path / "m.manifest").write_text(text)
    h = runtime.load_enclave(EnclaveManifest.load(tmp_path / "m.manifest"))
    assert runtime.machine.enclaves[h.eid].initialized


@pytest.mark.parametrize("source, fed_pages", [("test-key", 5), ("file:identity.sig", 0)])
def test_only_a_test_key_load_feeds_the_signer_hash(runtime, tmp_path, monkeypatch, source,
                                                    fed_pages):
    """A file SIGSTRUCT was signed elsewhere, so its load computes no
    signer-side page measurement."""
    manifest = EnclaveManifest.parse(minimal_text())
    sig = runtime.machine.crypto.sign_sigstruct(
        runtime.predict_measurement(manifest), manifest.attributes.signed_view(), 0, 0)
    (tmp_path / "identity.sig").write_bytes(sig.to_bytes())
    (tmp_path / "m.manifest").write_text(
        minimal_text().replace("sigstruct test-key", f"sigstruct {source}"))
    fed = []
    page_measurement = runtime_module.page_measurement

    def counted(*args):
        fed.append(args[0])
        return page_measurement(*args)

    monkeypatch.setattr(runtime_module, "page_measurement", counted)
    handle = runtime.load_enclave(EnclaveManifest.load(tmp_path / "m.manifest"))
    assert runtime.machine.enclaves[handle.eid].initialized
    assert len(fed) == fed_pages


def failed_load(runtime, manifest) -> LoadError:
    """Load `manifest`, which must fail, and check that the half-built
    enclave left nothing behind."""
    machine = runtime.machine
    system_before = bytes(machine.memory.gpts.system)
    with pytest.raises(LoadError) as exc:
        runtime.load_enclave(manifest)
    assert not machine.enclaves
    assert bytes(machine.memory.gpts.system) == system_before
    machine.audit()
    return exc.value


def test_wrong_file_sigstruct_fails_at_einit_step(tmp_path):
    text = minimal_text().replace("sigstruct test-key", "sigstruct file:identity.sig")
    (tmp_path / "m.manifest").write_text(text)
    for mode in ("sgx", "ccx"):
        runtime = HostRuntime(Machine(small_config(mode=mode)))
        manifest = EnclaveManifest.load(tmp_path / "m.manifest")
        sig = runtime.machine.crypto.sign_sigstruct(
            b"\x13" * 32, manifest.attributes.signed_view(), 0, 0
        )
        (tmp_path / "identity.sig").write_bytes(sig.to_bytes())
        err = failed_load(runtime, manifest)
        assert err.step == "einit", mode
        assert isinstance(err.cause, SgxError)


@pytest.mark.parametrize("source", ["nonexist.sig", "sigdir"])
def test_unreadable_sigstruct_file_fails_at_sigstruct_step(tmp_path, source):
    (tmp_path / "sigdir").mkdir()
    text = minimal_text().replace("sigstruct test-key", f"sigstruct file:{source}")
    (tmp_path / "m.manifest").write_text(text)
    for mode in ("sgx", "ccx"):
        runtime = HostRuntime(Machine(small_config(mode=mode)))
        err = failed_load(runtime, EnclaveManifest.load(tmp_path / "m.manifest"))
        assert err.step == "sigstruct", mode
        assert f"cannot read sigstruct file {source!r}" in str(err.cause)


def test_load_failure_identifies_failing_step(runtime):
    # 200 pages exceed the 128-granule EPC of the small config and nothing
    # is initialized yet, so eviction cannot help; the failing add step is
    # named in the error, and no version array is made for the lost cause
    big = minimal_text().replace("size 0x100000", "size 0x200000")
    big += "page vaddr=0x10000 perms=rw content=zero count=200\n"
    err = failed_load(runtime, EnclaveManifest.parse(big))
    assert "eadd page" in err.step
    assert "no evictable page" in str(err.cause)


def test_destroy_releases_everything(runtime):
    machine = runtime.machine
    system_before = bytes(machine.memory.gpts.system)
    h = runtime.load_enclave(EnclaveManifest.parse(minimal_text()))
    runtime.destroy(h)
    assert bytes(machine.memory.gpts.system) == system_before
    assert h.eid not in machine.enclaves
    machine.audit()
