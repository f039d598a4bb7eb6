"""Manifest parsing and the enclave loader."""

import gc
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ccxsim import fixtures, manifest as manifest_module, runtime as runtime_module
from ccxsim.crypto import SIGNATURE_MEMO_SIZE
from ccxsim.errors import SgxError
from ccxsim.machine import ENCLS_TABLE, Machine
from ccxsim.manifest import EnclaveManifest, ManifestError
from ccxsim.memory import GRANULE_SIZE, Perms
from ccxsim.runtime import HostRuntime, LoadError

from helpers import refusing, small_config
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


def _replaced(manifest, kind, i, **changes):
    """``manifest`` with ``changes`` made to its spec ``manifest.<kind>[i]``,
    ``kind`` being ``pages`` or ``tcs``; the variant is validated."""
    specs = getattr(manifest, kind)
    return replace(manifest, **{kind: specs[:i] + (replace(specs[i], **changes),) + specs[i + 1:]})


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


def _number_case(line, name, value, refusal=None):
    """A manifest line whose number the parser refuses, by default as
    missing or not a number; the id reads ``<line>-<name>-<value>``."""
    return pytest.param(line, refusal or f"{name} needs a number, got {value!r}",
                        id=f"{line}-{name}-{value}")


@pytest.mark.parametrize("line, refusal", [
    _number_case("size", "size", ""),
    _number_case("size 0x", "size", "0x"),
    _number_case("ssa_frame_size", "ssa_frame_size", ""),
    _number_case("nssa two", "nssa", "two"),
    _number_case("isv_prod_id", "isv_prod_id", ""),
    _number_case("isv_svn 1.5", "isv_svn", "1.5"),
    _number_case("page vaddr=", "vaddr=", ""),
    _number_case("page vaddr=0 count=", "count=", ""),
    _number_case("page vaddr=0 count=many", "count=", "many"),
    _number_case("tcs vaddr=x oentry=0 ossa=0", "vaddr=", "x"),
    _number_case("tcs vaddr=0 oentry= ossa=0", "oentry=", ""),
    _number_case("tcs vaddr=0 oentry=0 ossa=0x1g", "ossa=", "0x1g"),
    _number_case("tcs vaddr=0 oentry=0 ossa=0 tls=", "tls=", ""),
    _number_case("size -1", "size", "-1", "size -1 is not a 64-bit unsigned number"),
    _number_case("nssa -1", "nssa", "-1", "nssa -1 is not a 64-bit unsigned number"),
    _number_case("ssa_frame_size 0x10000000000000000", "ssa_frame_size", "0x10000000000000000",
                 "ssa_frame_size 0x10000000000000000 is not a 64-bit unsigned number"),
    _number_case("isv_prod_id 65536", "isv_prod_id", "65536",
                 "isv_prod_id 65536 is not a 16-bit unsigned number"),
    _number_case("isv_svn 0x10000", "isv_svn", "0x10000",
                 "isv_svn 0x10000 is not a 16-bit unsigned number"),
    _number_case("page vaddr=-4096", "vaddr=", "-4096",
                 "vaddr=-4096 is not a 64-bit unsigned number"),
    _number_case("page vaddr=0 count=-1", "count=", "-1", "count=-1 is not a 64-bit unsigned number"),
    _number_case("tcs vaddr=0 oentry=-8 ossa=0", "oentry=", "-8",
                 "oentry=-8 is not a 64-bit unsigned number"),
    _number_case("tcs vaddr=0 oentry=0 ossa=0 tls=-1", "tls=", "-1",
                 "tls=-1 is not a 64-bit unsigned number"),
])
def test_a_missing_or_bad_number_names_its_directive_or_field(line, refusal):
    with pytest.raises(ManifestError) as exc:
        EnclaveManifest.parse(f"name x\n{line}\n")
    assert str(exc.value) == f"manifest line 2: {refusal}"


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
    image = SimpleNamespace(
        size=0x10000, nssa=nssa, ssa_frame_size=frame,
        pages=[EnclaveManifest._parse_page(line[5:], None, n)
               for n, line in enumerate(lines, start=4) if line.startswith("page")],
        tcs=[EnclaveManifest._parse_tcs(line[4:], n)
             for n, line in enumerate(lines, start=4) if line.startswith("tcs")])
    expected = reference_geometry_refusal(image)
    if expected is None:
        EnclaveManifest.parse(text)
    else:
        with pytest.raises(ManifestError) as exc:
            EnclaveManifest.parse(text)
        assert (exc.value.line_no, str(exc.value)) == (
            expected[0], f"manifest line {expected[0]}: {expected[1]}")


@pytest.mark.parametrize("line, first", [
    ("name other", 2), ("size 0x100000", 3), ("ssa_frame_size 1", 10), ("nssa 2", 4),
    ("attributes debug", 10), ("max_page_perms rw", 10), ("isv_prod_id 1", 10),
    ("isv_svn 1", 10), ("sigstruct test-key", 9),
], ids=lambda value: str(value).split()[0])
def test_a_directive_given_twice_is_refused_on_its_second_line(line, first):
    """Appended twice to the minimal manifest, which gives some of them on
    line ``first``: the second giving is refused, naming the first."""
    second = 10 if first < 10 else 11
    with pytest.raises(ManifestError) as exc:
        EnclaveManifest.parse(minimal_text() + f"{line}\n{line}\n")
    assert str(exc.value) == (f"manifest line {second}: {line.split()[0]} given twice, "
                              f"first on line {first}")


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
    """A source set in code is checked by the same validation as a parsed
    one, when the variant is made, so no loader ever receives it."""
    manifest = EnclaveManifest.parse(minimal_text())
    with pytest.raises(ManifestError, match="manifest line 9: unknown sigstruct source 'bogus'"):
        runtime.load_enclave(replace(manifest, sigstruct_source="bogus"))
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
    # a save-state frame of no pages names its line, by the rule ECREATE applies
    ("nssa 2", "nssa 2\nssa_frame_size 0", 5, "ssa_frame_size must be at least 1"),
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
    # a word the grammar does not know names its line
    ("nssa 2", "nssa 2\nfrobnicate yes", 5, "unknown directive 'frobnicate'"),
    ("page vaddr=0x1000 perms=rw", "page vaddr=0x1000 perms=rq", 6, "bad permission char 'q'"),
    ("nssa 2", "nssa 2\nattributes debug,turbo", 5, "unknown attribute 'turbo'"),
    ("tls=0x1000", "tls=0x1000 aexnotify", 8, "expected key=value, got 'aexnotify'"),
    ("page vaddr=0x1000 perms=rw", "page vaddr=0x1000 perms=rw color=red", 6,
     "unknown page fields ['color']"),
    ("vaddr=0x1000 perms=rw content=zero", "vaddr=0x1000 perms=rw content=ram", 6,
     "unknown content source 'ram'"),
    ("tls=0x1000", "tls=0x1000 stack=0x3000", 8, "unknown tcs fields ['stack']"),
    # a file needs the manifest's directory, which a parsed text has not
    ("vaddr=0x1000 perms=rw content=zero", "vaddr=0x1000 perms=rw content=file:data.bin", 6,
     "file content needs a manifest directory"),
    ("sigstruct test-key", "sigstruct file:identity.sig", 9,
     "sigstruct file needs a manifest directory"),
    # a field given twice is refused, not taken at its last value
    ("vaddr=0x0 perms=rx", "vaddr=0x0 perms=r perms=rwx", 5, "perms= given twice"),
    ("ossa=0x2000", "ossa=0x9000 ossa=0x2000", 8, "ossa= given twice"),
], ids=["page-past-size", "size", "ssa-frame-size-0", "tcs-save-state", "tcs-collision", "tcs-tls",
        "tcs-aexnotify", "tcs-nssa-0", "page-no-vaddr", "tcs-no-vaddr", "tcs-no-oentry",
        "tcs-no-ossa", "unknown-directive", "bad-perms", "unknown-attribute", "no-equals",
        "unknown-page-field", "unknown-content", "unknown-tcs-field", "content-file-no-dir",
        "sigstruct-file-no-dir", "page-field-twice", "tcs-field-twice"])
def test_a_geometry_error_names_the_line_of_its_directive(old, new, line, message):
    text = minimal_text().replace(old, new)
    assert text != minimal_text()
    with pytest.raises(ManifestError) as exc:
        EnclaveManifest.parse(text)
    assert exc.value.line_no == line
    assert str(exc.value).startswith(f"manifest line {line}: ")
    assert message in str(exc.value)


@pytest.mark.parametrize("change", [
    lambda manifest: _replaced(manifest, "tcs", 0, tls_base=manifest.size),
    lambda manifest: _replaced(manifest, "tcs", 0, aexnotify=True),
    lambda manifest: replace(manifest, nssa=0),
], ids=["tls", "aexnotify", "nssa-0"])
def test_the_loader_refuses_a_tcs_that_eadd_would_refuse_before_any_leaf(runtime, change):
    """A TCS changed in code after parsing meets the same rule on its line,
    when the variant is made, so no loader ever receives it."""
    manifest = EnclaveManifest.parse(minimal_text())
    with pytest.raises(ManifestError, match="manifest line 8: tcs "):
        runtime.load_enclave(change(manifest))
    assert runtime.machine.counters["ECREATE"] == 0


def test_file_content_source(tmp_path):
    (tmp_path / "code.bin").write_bytes(b"\x0c" + bytes(15))
    inline = "content=hex:" + (b"\x0c" + bytes(15)).hex()
    text = minimal_text().replace(inline, "content=file:code.bin")
    (tmp_path / "m.manifest").write_text(text)
    m = EnclaveManifest.load(tmp_path / "m.manifest")
    assert m.pages[0].content[:1] == b"\x0c"
    assert len(m.pages[0].content) == GRANULE_SIZE


@pytest.mark.parametrize("content", ["hex:", "file:empty.bin"])
def test_empty_content_is_one_zero_page(tmp_path, content):
    """Empty content pads to one zero page, as a short content pads to whole
    pages: the directive measures and loads a page."""
    (tmp_path / "empty.bin").write_bytes(b"")
    (tmp_path / "m.manifest").write_text(f"name x\npage vaddr=0 content={content}\n")
    (page,) = EnclaveManifest.load(tmp_path / "m.manifest").pages
    assert (page.page_count, page.content) == (1, bytes(GRANULE_SIZE))


def test_the_offset_of_an_empty_content_page_cannot_be_declared_again():
    with pytest.raises(ManifestError) as exc:
        EnclaveManifest.parse("name x\npage vaddr=0 content=hex:\npage vaddr=0\n")
    assert str(exc.value) == "manifest line 3: page offset 0x0 specified twice"


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
# The parse memo


def test_a_spec_is_a_frozen_value():
    manifest = EnclaveManifest.parse(minimal_text())
    with pytest.raises(FrozenInstanceError):
        manifest.pages[0].perms = Perms.R
    with pytest.raises(FrozenInstanceError):
        manifest.tcs[0].aexnotify = True


@pytest.mark.parametrize("name", [f.name for f in fields(EnclaveManifest)])
def test_every_manifest_field_is_frozen(name):
    manifest = EnclaveManifest.parse(minimal_text())
    with pytest.raises(FrozenInstanceError):
        setattr(manifest, name, getattr(manifest, name))
    assert isinstance(manifest.pages, tuple) and isinstance(manifest.tcs, tuple)


def test_a_text_parsed_again_is_the_same_manifest():
    first, again = (EnclaveManifest.parse(minimal_text()) for _ in range(2))
    assert first is again


@pytest.mark.parametrize("edit", [
    lambda m: replace(m, name="edited"),
    lambda m: replace(m, pages=m.pages + (replace(m.pages[0], vaddr=0x8000),)),
    lambda m: _replaced(m, "pages", 0, perms=Perms.R),
], ids=["field", "append", "replace"])
def test_editing_a_parsed_manifest_leaves_the_next_parse_of_its_text_unchanged(edit):
    """A variant derived from a parsed manifest is a new manifest: the next
    parse of the text still returns the one it parsed to."""
    text = minimal_text().replace("name mini", "name edit-me")
    untouched = EnclaveManifest.parse(text)
    edited = edit(untouched)
    assert edited != untouched
    assert EnclaveManifest.parse(text) is untouched


def test_a_refused_text_is_refused_on_every_parse_naming_its_line():
    text = minimal_text().replace("tls=0x1000", "tls=0x1000 flags=bogus")
    for _ in range(2):
        with pytest.raises(ManifestError, match="manifest line 8: unknown tcs flag 'bogus'"):
            EnclaveManifest.parse(text)
    assert not any(key[1] == text for key in manifest_module._PARSED)


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_content_file_is_read_again_on_every_parse(mode, tmp_path):
    """A page with file: content is never kept: a second parse of the same
    text reads the file as it is now, and loads to a new MRENCLAVE."""
    rt = HostRuntime(Machine(small_config(mode=mode)))
    code = tmp_path / "code.bin"
    text = minimal_text().replace("perms=rx content=hex:", "perms=rx content=file:code.bin #")
    code.write_bytes(b"\x0c" + bytes(15))
    first = EnclaveManifest.parse(text, base_dir=tmp_path)
    code.write_bytes(b"\x0c" + bytes(14) + b"\x01")
    again = EnclaveManifest.parse(text, base_dir=tmp_path)
    assert first.pages[0].content[15] == 0 and again.pages[0].content[15] == 1
    assert rt.load_enclave(first).mrenclave != rt.load_enclave(again).mrenclave
    assert not any(key[1] == text for key in manifest_module._PARSED)


def test_the_parse_memo_stays_at_its_bound():
    """After 65 new texts the memo holds the last 64 of them, oldest out first."""
    texts = [minimal_text().replace("name mini", f"name bound{i}")
             for i in range(SIGNATURE_MEMO_SIZE + 1)]
    for text in texts:
        EnclaveManifest.parse(text)
    assert len(manifest_module._PARSED) == SIGNATURE_MEMO_SIZE
    assert [key[1] for key in manifest_module._PARSED] == texts[1:]
    assert EnclaveManifest.parse(texts[0]).name == "bound0"


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


def test_a_dbgoptin_tcs_is_measured_with_its_flag(runtime, fixture_dir):
    """``tcs flags=dbgoptin`` sets the flag in the TCS page the loader adds,
    and so in the measurement, which the reference oracle reproduces."""
    plain = fixtures.write_standard_manifest(fixture_dir, "plain").read_text()
    text = plain.replace(" tls=", " flags=dbgoptin tls=")
    assert text != plain
    manifest = EnclaveManifest.parse(text)
    h = runtime.load_enclave(manifest)
    tcs = runtime.machine.read_tcs(runtime.machine.memory.find_page(h.eid, h.tcs_vaddrs[0]))
    assert tcs.dbgoptin and not tcs.aexnotify
    assert h.mrenclave == reference_measurement(manifest)
    assert h.mrenclave != runtime.load_enclave(EnclaveManifest.parse(plain)).mrenclave


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
    """A variant no parse memo keeps is freed once the caller drops it."""
    manifest = replace(EnclaveManifest.parse(minimal_text()), name="unkept")
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
    signer-side page measurement; the first test-key load of an image feeds
    each of its pages.  The file is signed over the oracle's measurement, so
    nothing has measured the image on this runtime before the load."""
    manifest = EnclaveManifest.parse(minimal_text())
    sig = runtime.machine.crypto.sign_sigstruct(
        reference_measurement(manifest), manifest.attributes.signed_view(), 0, 0)
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


def _signing_loads(rt, monkeypatch):
    """Record, from now on, each digest ``rt``'s loads sign and the offset of
    each page they feed the signer-side measurement: (signed, fed)."""
    signed, fed = [], []
    sign = rt.machine.crypto.sign_sigstruct
    page_measurement = runtime_module.page_measurement
    monkeypatch.setattr(rt.machine.crypto, "sign_sigstruct",
                        lambda enclavehash, *args: signed.append(enclavehash)
                        or sign(enclavehash, *args))
    monkeypatch.setattr(runtime_module, "page_measurement",
                        lambda *args: fed.append(args[0]) or page_measurement(*args))
    return signed, fed


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_second_load_of_an_image_signs_the_same_digest_and_measures_nothing(mode, monkeypatch):
    """The signer-side measurement is computed once per image: a second
    load, from a text whose every line a comment moves down one, feeds it
    no page, yet issues and counts every build leaf the first did and signs
    the same digest, which EINIT checks against the machine's own
    measurement.  A spec's line is no input of the image."""
    rt = HostRuntime(Machine(small_config(mode=mode)))
    signed, fed = _signing_loads(rt, monkeypatch)
    leaves, feeds = [], []
    for text in (minimal_text(), "# moved\n" + minimal_text()):
        before = dict(rt.machine.counters)
        handle = rt.load_enclave(EnclaveManifest.parse(text))
        assert rt.machine.enclaves[handle.eid].initialized
        leaves.append({name: n - before.get(name, 0) for name, n in rt.machine.counters.items()
                       if n != before.get(name, 0)})
        feeds.append(list(fed))
        fed.clear()
    assert feeds == [[0x0, 0x1000, 0x2000, 0x3000, 0x4000], []]
    assert signed == [reference_measurement(EnclaveManifest.parse(minimal_text()))] * 2
    assert leaves[0] == leaves[1] == {"ECREATE": 1, "EADD": 5, "EEXTEND": 80, "EINIT": 1}


# The memo test's image: one save-state frame per thread in two pages, so
# either nssa or ssa_frame_size can double, and a zero run whose count can grow.
MEMO_IMAGE = minimal_text().replace("nssa 2", "nssa 1") + \
    "page vaddr=0x5000 perms=rw content=zero count=2\n"


def _flip_first_byte(manifest):
    content = manifest.pages[1].content
    return _replaced(manifest, "pages", 1, content=bytes([content[0] ^ 1]) + content[1:])


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("change", [
    _flip_first_byte,
    lambda m: _replaced(m, "pages", 1, perms=Perms.R),
    lambda m: _replaced(m, "pages", 3, count=3),
    lambda m: _replaced(m, "pages", 1, measured=False),
    lambda m: _replaced(m, "tcs", 0, oentry=0x10),
    lambda m: _replaced(m, "tcs", 0, tls_base=0x2000),
    lambda m: _replaced(m, "tcs", 0, measured=False),
    lambda m: replace(m, nssa=2),
    lambda m: replace(m, ssa_frame_size=2),
    lambda m: replace(m, size=0x200000),
], ids=["content", "perms", "count", "measured", "tcs.oentry", "tcs.tls", "tcs.measured",
        "nssa", "ssa_frame_size", "size"])
def test_a_change_to_any_measured_input_misses_the_memo(mode, change, monkeypatch):
    """An image that differs from one loaded before in a single input of the
    signer-side measurement is measured afresh, page by page, and signs its
    own digest."""
    rt = HostRuntime(Machine(small_config(mode=mode)))
    first = rt.load_enclave(EnclaveManifest.parse(MEMO_IMAGE))
    signed, fed = _signing_loads(rt, monkeypatch)
    manifest = change(EnclaveManifest.parse(MEMO_IMAGE))
    handle = rt.load_enclave(manifest)
    assert len(fed) == sum(spec.page_count for spec in manifest.pages) + len(manifest.tcs)
    assert signed == [reference_measurement(manifest)] == [handle.mrenclave]
    assert handle.mrenclave != first.mrenclave


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_a_content_file_changed_between_two_parses_misses_the_memo(mode, tmp_path, monkeypatch):
    rt = HostRuntime(Machine(small_config(mode=mode)))
    (tmp_path / "code.bin").write_bytes(b"\x0c" + bytes(15))
    text = minimal_text().replace("perms=rx content=hex:", "perms=rx content=file:code.bin #")
    (tmp_path / "m.manifest").write_text(text)
    first = rt.load_enclave(EnclaveManifest.load(tmp_path / "m.manifest"))
    assert first.mrenclave == reference_measurement(EnclaveManifest.parse(minimal_text()))
    (tmp_path / "code.bin").write_bytes(b"\x0c" + bytes(14) + b"\x01")
    signed, fed = _signing_loads(rt, monkeypatch)
    manifest = EnclaveManifest.load(tmp_path / "m.manifest")
    handle = rt.load_enclave(manifest)
    assert len(fed) == 5
    assert signed == [reference_measurement(manifest)] == [handle.mrenclave]
    assert handle.mrenclave != first.mrenclave


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
def test_the_measurement_memo_stays_at_its_bound(mode):
    """Loads of ever new images keep at most ``SIGNATURE_MEMO_SIZE``
    measurements, the oldest out first, and an image the memo dropped still
    measures and loads as before."""
    rt = HostRuntime(Machine(small_config(mode=mode)))
    manifests = []
    for i in range(SIGNATURE_MEMO_SIZE + 20):
        manifest = EnclaveManifest.parse(MEMO_IMAGE)
        content = i.to_bytes(8, "little") + manifest.pages[1].content[8:]
        manifest = _replaced(manifest, "pages", 1, content=content)
        manifests.append(manifest)
        rt.destroy(rt.load_enclave(manifest))
        assert len(rt._measurements) == min(i + 1, SIGNATURE_MEMO_SIZE)
    assert rt.predict_measurement(manifests[0]) == reference_measurement(manifests[0])
    assert len(rt._measurements) == SIGNATURE_MEMO_SIZE
    assert rt.load_enclave(manifests[0]).mrenclave == reference_measurement(manifests[0])


def test_predicting_a_measurement_serves_the_next_load(runtime, monkeypatch):
    """``predict_measurement`` and the loader share the memo both ways."""
    manifest = EnclaveManifest.parse(minimal_text())
    predicted = runtime.predict_measurement(manifest)
    signed, fed = _signing_loads(runtime, monkeypatch)
    runtime.load_enclave(EnclaveManifest.parse(minimal_text()))
    assert fed == [] and signed == [predicted] == [reference_measurement(manifest)]
    other = EnclaveManifest.parse(MEMO_IMAGE)
    runtime.load_enclave(other)
    fed.clear()
    assert runtime.predict_measurement(other) == reference_measurement(other) and fed == []


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


def test_a_huge_zero_run_fails_its_load_without_building_a_key_per_page():
    """A 2,097,150-page zero run in the largest placeable enclave fills the
    sgx EPC and fails its load; the measurement memo's key holds the run's
    one zero page by reference, so the load stays within a few MB."""
    rt = HostRuntime(Machine(small_config()))
    text = "size 0x200000000\npage vaddr=0 perms=rw content=zero count=2097150\n"
    manifest = EnclaveManifest.parse(text)
    tracemalloc.start()
    try:
        err = failed_load(rt, manifest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "eadd page[0]" in err.step and "no evictable page" in str(err.cause)
    assert peak < 4 << 20


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


def test_an_ecreate_refusal_fails_the_load_at_its_step(runtime):
    """A manifest given INIT in code passes validation; ECREATE refuses it."""
    manifest = EnclaveManifest.parse(minimal_text())
    err = failed_load(runtime, replace(manifest, attributes=manifest.attributes._replace(init=True)))
    assert err.step == "ecreate"
    assert "cannot request INIT" in str(err.cause)
    assert runtime.machine.counters["ECREATE"] == 1 and runtime.machine.counters["EADD"] == 0


def test_an_eextend_refusal_names_the_directive_and_the_page_of_its_run(runtime):
    """Pages 0 and 1 take 16 EEXTENDs each and the run at 0x2000 16 more for
    its first page, so the 49th EEXTEND measures page 1 of directive 2."""
    manifest = EnclaveManifest.parse(minimal_text())
    with refusing(runtime.machine, "EEXTEND", after=48):
        err = failed_load(runtime, manifest)
    assert err.step == "eextend page[2]+1"
    assert "EEXTEND refused by injection" in str(err.cause)


def test_an_eadd_refusal_at_a_tcs_names_the_tcs(runtime, fixture_dir):
    """A failed step names a TCS page by its place among the TCS directives
    (``runtime.py:262``): the standard manifest adds its code, scratch and
    two save-state pages first, so the fifth EADD is its TCS."""
    manifest = EnclaveManifest.load(fixtures.write_standard_manifest(fixture_dir))
    with refusing(runtime.machine, "EADD", after=4):
        err = failed_load(runtime, manifest)
    assert err.step == f"eadd tcs[0] at {fixtures.SSA_OFF + 2 * GRANULE_SIZE:#x}"
    assert "EADD refused by injection" in str(err.cause)


def test_destroy_releases_everything(runtime):
    machine = runtime.machine
    system_before = bytes(machine.memory.gpts.system)
    h = runtime.load_enclave(EnclaveManifest.parse(minimal_text()))
    runtime.destroy(h)
    assert bytes(machine.memory.gpts.system) == system_before
    assert h.eid not in machine.enclaves
    machine.audit()
