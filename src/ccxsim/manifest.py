"""Enclave manifests: the text format the loader builds enclaves from.

Line-oriented, diffable, self-contained.  Grammar (one directive per line,
'#' starts a comment):

    name <ident>
    size <int>                      enclave linear size, power of two, at most 2**33
    ssa_frame_size <int>            save-state frame size in pages, at least 1 (default 1)
    nssa <int>                      save-state slots per thread (default 2)
    attributes <flag>[,<flag>...]   debug, aexnotify_allowed, provision_key
    max_page_perms <rwx>            ceiling for permission extension (default rwx),
                                    in either order with attributes
    isv_prod_id <int>               product id signed into the identity
    isv_svn <int>                   security version signed into the identity
    page vaddr=<off> [perms=<rwx>] [content=<src>] [measured=yes|no] [count=<n>]
    tcs vaddr=<off> oentry=<off> ossa=<off> [tls=<off>] [flags=<f,f>] [measured=yes|no]
    sigstruct test-key[:<label>] | file:<relpath>

Bracketed fields are optional (perms default to rw, content to zero); a line
without a required field is refused.  The size and ssa_frame_size lines are
checked by the rule ECREATE applies at the loader's base
(:func:`ccxsim.microprograms.geometry_fault`), and a TCS line by the rule EADD
applies to the TCS it builds (:meth:`ccxsim.structs.Tcs.validate`), each on
its line.
Content sources: ``zero`` (zero-filled), ``hex:<hexbytes>`` (inline, padded to
a page multiple), ``file:<relpath>`` (raw bytes, padded).  Multi-page content
spreads across consecutive pages; ``count`` repeats a zero page, ``zero``
only.  Numbers accept 0x-prefixed hex.  Pages and TCS entries are measured in
file order.

A manifest is a frozen value, validated whenever one is made, and a text is
parsed once: parsing it again returns the same manifest, unless a page reads
``file:`` content (:meth:`EnclaveManifest.parse`).  A directive other than
``page`` and ``tcs``, or a field of one line, given twice is refused.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Dict, Optional, Tuple

from .crypto import SIGNATURE_MEMO_SIZE, remember
from .errors import ModelError, SgxError, read_input
from .memory import GRANULE_SIZE, Perms
from .microprograms import DEFAULT_ENCLAVE_BASE, geometry_fault
from .structs import Attributes, Tcs


class ManifestError(ModelError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"manifest line {line_no}: {message}")


def _measured(fields: dict) -> bool:
    """A ``measured=`` field, ``yes`` when absent; any other word than yes
    or no is refused, as taking it for no drops the page from MRENCLAVE."""
    value = fields.pop("measured", "yes")
    if value not in ("yes", "no"):
        raise ValueError(f"measured={value} must be yes or no")
    return value == "yes"


def _required(fields: dict, key: str) -> str:
    """The value of a field the directive cannot do without."""
    if key not in fields:
        raise ValueError(f"missing required field {key}=")
    return fields.pop(key)


def _num(text: str, name: str, bits: int = 64) -> int:
    """An unsigned number of at most `bits` bits, the widest field it fills;
    `name` is the directive or field it is the value of, and a refusal
    names it."""
    try:
        value = int(text, 0)
    except ValueError:
        raise ValueError(f"{name} needs a number, got {text!r}") from None
    if not 0 <= value < 1 << bits:
        shown = name + text if name.endswith("=") else f"{name} {text}"
        raise ValueError(f"{shown} is not a {bits}-bit unsigned number")
    return value


@dataclass(frozen=True)
class PageSpec:
    vaddr: int  # enclave-relative offset
    perms: Perms
    content: bytes  # padded to a page multiple
    measured: bool = True
    count: int = 1  # copies of the content laid end to end
    line: int = field(default=0, compare=False)  # the directive's manifest line; 0 in code

    @property
    def page_count(self) -> int:
        return self.count * len(self.content) // GRANULE_SIZE

    def page(self, i: int) -> bytes:
        at = i * GRANULE_SIZE % len(self.content)
        return self.content[at : at + GRANULE_SIZE]


@dataclass(frozen=True)
class TcsSpec:
    vaddr: int
    oentry: int
    ossa: int
    tls_base: int = 0
    aexnotify: bool = False
    dbgoptin: bool = False
    measured: bool = True
    line: int = field(default=0, compare=False)

    def build(self, nssa: int) -> Tcs:
        return Tcs(
            oentry=self.oentry,
            ossa=self.ossa,
            nssa=nssa,
            tls_base=self.tls_base,
            aexnotify=self.aexnotify,
            dbgoptin=self.dbgoptin,
        )


# Validation keeps the pages declared so far as sorted, disjoint (start,
# end) spans, so a run is checked by interval and never page by page.
_START = itemgetter(0)


def _first_used(spans: list, start: int, end: int) -> Optional[int]:
    """The lowest address of ``[start, end)`` that a span holds, or None."""
    i = bisect_right(spans, start, key=_START)
    if i and spans[i - 1][1] > start:
        return start
    return spans[i][0] if i < len(spans) and spans[i][0] < end else None


def _first_free(spans: list, start: int, end: int) -> Optional[int]:
    """The lowest address of ``[start, end)`` that no span holds, or None."""
    while start < end:
        i = bisect_right(spans, start, key=_START)
        if not i or spans[i - 1][1] <= start:
            return start
        start = spans[i - 1][1]
    return None


# Each text parsed before, keyed with its class and directory, as its
# manifest; bounded as the signature memos are, oldest out first.  A parse
# that reads no file is a pure function of that key, and a manifest is
# frozen, so one memo serves every caller in the process.
_PARSED: Dict[tuple, "EnclaveManifest"] = {}


# The directives given at most once: the field each sets (max_page_perms the
# ceiling in attributes) and its parser of the rest of the line.  A directive
# given twice is refused, not overwritten.
_ONCE = {
    "name": ("name", lambda rest, key: rest),
    "size": ("size", _num),
    "ssa_frame_size": ("ssa_frame_size", _num),
    "nssa": ("nssa", _num),
    "attributes": ("attributes", lambda rest, key: Attributes.parse(rest)),
    "max_page_perms": ("max_page_perms", lambda rest, key: Perms.parse(rest)),
    "isv_prod_id": ("isv_prod_id", lambda rest, key: _num(rest, key, 16)),
    "isv_svn": ("isv_svn", lambda rest, key: _num(rest, key, 16)),
    "sigstruct": ("sigstruct_source", lambda rest, key: rest),
}


@dataclass(frozen=True)
class EnclaveManifest:
    """An enclave image, validated whenever one is made: a variant made with
    :func:`dataclasses.replace` is refused as a parsed text would be."""

    name: str = "enclave"
    size: int = 1 << 21
    ssa_frame_size: int = 1
    nssa: int = 2
    attributes: Attributes = Attributes()
    isv_prod_id: int = 0
    isv_svn: int = 0
    pages: Tuple[PageSpec, ...] = ()
    tcs: Tuple[TcsSpec, ...] = ()
    sigstruct_source: str = "test-key"
    base_dir: Optional[Path] = None
    size_line: int = 0  # the line of the size directive, as PageSpec.line
    ssa_frame_line: int = 0  # the line of the ssa_frame_size directive
    sigstruct_line: int = 0  # the line of the sigstruct directive

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Refuse a misfit naming the line of the directive at fault."""
        fault = geometry_fault(self.size, self.ssa_frame_size, DEFAULT_ENCLAVE_BASE)
        if fault is not None:  # the rule ECREATE applies at the loader's base
            field_name, detail = fault
            raise ManifestError(self.size_line if field_name == "size" else self.ssa_frame_line,
                                detail)
        used: list = []  # the spans of the pages and TCS pages checked so far
        for spec in self.pages:
            end = spec.vaddr + spec.page_count * GRANULE_SIZE
            if spec.vaddr % GRANULE_SIZE or end > self.size:
                raise ManifestError(spec.line, f"run of {spec.page_count} pages at {spec.vaddr:#x}"
                                    f" is unaligned or exceeds size {self.size:#x}")
            off = _first_used(used, spec.vaddr, end)
            if off is not None:
                raise ManifestError(spec.line, f"page offset {off:#x} specified twice")
            insort(used, (spec.vaddr, end))
        for spec in self.tcs:
            if spec.vaddr % GRANULE_SIZE or spec.vaddr + GRANULE_SIZE > self.size:
                raise ManifestError(spec.line, f"tcs offset {spec.vaddr:#x} invalid")
            if _first_used(used, spec.vaddr, spec.vaddr + GRANULE_SIZE) is not None:
                raise ManifestError(spec.line, f"tcs offset {spec.vaddr:#x} collides with a page")
            insort(used, (spec.vaddr, spec.vaddr + GRANULE_SIZE))
            try:  # the rule EADD applies to the TCS this line builds
                spec.build(self.nssa).validate(self)
            except SgxError as exc:
                raise ManifestError(spec.line, f"tcs {exc.detail}") from None
            ssa_bytes = self.nssa * self.ssa_frame_size * GRANULE_SIZE
            off = _first_free(used, spec.ossa, spec.ossa + ssa_bytes)
            if off is not None:
                raise ManifestError(spec.line, f"tcs at {spec.vaddr:#x}: save-state page "
                                    f"{off:#x} is not declared")
        source = self.sigstruct_source
        if source != "test-key" and not source.startswith(("test-key:", "file:")):
            raise ManifestError(self.sigstruct_line, f"unknown sigstruct source {source!r}")
        if source.startswith("file:") and self.base_dir is None:
            raise ManifestError(self.sigstruct_line, "sigstruct file needs a manifest directory")

    # -- parsing ---------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, base_dir: Optional[Path] = None) -> "EnclaveManifest":
        """The manifest ``text`` describes, refused naming the line at fault.

        A text is parsed once: parsing it again returns the same manifest.  A
        text with a page that reads ``file:`` content is parsed every time,
        since the file can change, and a refused text is never kept, so it is
        refused every time."""
        key = (cls, text, base_dir)
        manifest = _PARSED.get(key)
        if manifest is None:
            manifest, reads_files = cls._parse(text, base_dir)
            if not reads_files:
                remember(_PARSED, key, manifest, SIGNATURE_MEMO_SIZE)
        return manifest

    @classmethod
    def _parse(cls, text: str, base_dir: Optional[Path]) -> Tuple["EnclaveManifest", bool]:
        """A validated manifest, and whether any of its pages reads a file."""
        values: dict = {}  # each _ONCE field given, by name
        lines: dict = {}  # each _ONCE directive given, by the line it is on
        pages, tcs, reads_files = [], [], False
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            try:
                if key == "page":
                    pages.append(cls._parse_page(rest, base_dir, line_no))
                    # a parsed page line names file: only as its content source
                    reads_files = reads_files or "content=file:" in rest
                elif key == "tcs":
                    tcs.append(cls._parse_tcs(rest, line_no))
                elif key in lines:
                    raise ValueError(f"{key} given twice, first on line {lines[key]}")
                elif key in _ONCE:
                    field_name, parse = _ONCE[key]
                    values[field_name], lines[key] = parse(rest, key), line_no
                else:
                    raise ValueError(f"unknown directive {key!r}")
            except (ValueError, ModelError) as exc:
                raise ManifestError(line_no, str(exc)) from None
        if "max_page_perms" in values:  # the ceiling, whichever line came first
            values["attributes"] = values.get("attributes", Attributes())._replace(
                max_page_perms=values.pop("max_page_perms"))
        return cls(**values, pages=tuple(pages), tcs=tuple(tcs), base_dir=base_dir,
                   size_line=lines.get("size", 0), ssa_frame_line=lines.get("ssa_frame_size", 0),
                   sigstruct_line=lines.get("sigstruct", 0)), reads_files

    @classmethod
    def load(cls, path) -> "EnclaveManifest":
        path = Path(path)
        return cls.parse(read_input(path, f"manifest {path}"), base_dir=path.parent)

    @staticmethod
    def _fields(rest: str) -> dict:
        out = {}
        for token in rest.split():
            k, eq, v = token.partition("=")
            if not eq:
                raise ValueError(f"expected key=value, got {token!r}")
            if k in out:
                raise ValueError(f"{k}= given twice")
            out[k] = v
        return out

    @classmethod
    def _parse_page(cls, rest: str, base_dir: Optional[Path], line: int) -> PageSpec:
        f = cls._fields(rest)
        vaddr = _num(_required(f, "vaddr"), "vaddr=")
        perms = Perms.parse(f.pop("perms", "rw"))
        content_src = f.pop("content", "zero")
        measured = _measured(f)
        count = f.pop("count", None)
        if f:
            raise ValueError(f"unknown page fields {sorted(f)}")
        if count is not None and content_src != "zero":
            raise ValueError(f"count repeats zero pages, not content {content_src!r}")
        count = _num("1" if count is None else count, "count=")
        if count < 1:
            raise ValueError("count must be at least 1")

        if content_src == "zero":
            content = bytes(GRANULE_SIZE)
        elif content_src.startswith("hex:"):
            content = bytes.fromhex(content_src[4:])
        elif content_src.startswith("file:"):
            if base_dir is None:
                raise ValueError("file content needs a manifest directory")
            content = read_input(base_dir / content_src[5:],
                                 f"content file {content_src[5:]!r}", binary=True)
        else:
            raise ValueError(f"unknown content source {content_src!r}")
        # pad to whole pages; empty content is one zero page
        content += bytes(-len(content) % GRANULE_SIZE if content else GRANULE_SIZE)
        return PageSpec(vaddr, perms, content, measured, count, line)

    @classmethod
    def _parse_tcs(cls, rest: str, line: int) -> TcsSpec:
        f = cls._fields(rest)
        vaddr = _num(_required(f, "vaddr"), "vaddr=")
        oentry = _num(_required(f, "oentry"), "oentry=")
        ossa = _num(_required(f, "ossa"), "ossa=")
        tls_base = _num(f.pop("tls", "0"), "tls=")
        measured = _measured(f)
        flags = set()
        for flag in f.pop("flags", "").split(","):
            flag = flag.strip()
            if flag and flag not in ("aexnotify", "dbgoptin"):
                raise ValueError(f"unknown tcs flag {flag!r}")
            flags.add(flag)
        if f:
            raise ValueError(f"unknown tcs fields {sorted(f)}")
        return TcsSpec(vaddr, oentry, ossa, tls_base, aexnotify="aexnotify" in flags,
                       dbgoptin="dbgoptin" in flags, measured=measured, line=line)
