"""Simulated faults and errors.

Three families are deliberately kept apart:

* ``GranuleProtectionFault``, ``PageAccessFault`` and ``SgxError`` are
  *simulated* outcomes, what the machine would report to software, and part
  of normal operation (tests assert on them, programs receive them as codes).
* ``ModelError`` means the simulator itself was driven incorrectly (out of
  range granule, invariant violation, bad dispatch plumbing).  It is a bug in
  the caller or in the model, never an architectural event.
"""

from __future__ import annotations

import enum
import json
from pathlib import Path


class SgxErrorCode(enum.IntEnum):
    """Stable numeric codes for microprogram failures.

    The numeric value is what an in-simulation program sees in x0 after a
    failed gadget call, so the values must stay stable.
    """

    OK = 0

    INVALID_LEAF = 1
    INVALID_MODE = 2
    INVALID_SERVICE = 3

    OCCUPIED = 10
    NOT_IN_EPC = 11
    BAD_GEOMETRY = 12

    UNKNOWN_ENCLAVE = 20
    ALREADY_INITIALIZED = 21
    NOT_INITIALIZED = 22
    ENCLAVE_CRASHED = 23

    BAD_VADDR = 30
    VADDR_COLLISION = 31
    BAD_TCS_LAYOUT = 32
    MISALIGNED = 33
    UNMEASURABLE_PAGE = 34

    SIG_INVALID = 40
    MEASUREMENT_MISMATCH = 41
    ATTRIBUTE_MISMATCH = 42

    CHILD_PRESENT = 50
    PAGE_IN_USE = 51
    PAGE_INVALID = 52
    NON_DEBUG_ENCLAVE = 53

    ALREADY_BLOCKED = 60
    NOT_BLOCKED = 61
    PREV_TRK_INCMPL = 62
    NOT_TRACKED = 63

    VA_SLOT_OCCUPIED = 70
    VERSION_MISMATCH = 71
    MAC_COMPARE_FAIL = 72
    VA_SLOT_INVALID = 73

    PERM_EXPANSION_ATTEMPT = 80
    ILLEGAL_TRANSITION = 81
    SECINFO_MISMATCH = 82
    NOT_PENDING = 83
    PERM_POLICY_DENIED = 84

    TCS_BUSY = 90
    CSSA_FULL = 91
    NO_SAVED_STATE = 92

    POLICY_DENIED = 100


class SgxError(Exception):
    """A microprogram refused the operation for an architectural reason."""

    def __init__(self, code: SgxErrorCode, detail: str = ""):
        self.code = code
        self.detail = detail
        msg = code.name if not detail else f"{code.name}: {detail}"
        super().__init__(msg)


class GranuleProtectionFault(Exception):
    """Access denied by the active granule protection table.

    Carries the fault record; the machine additionally appends the record to
    its GPF log so tests can audit every denial.
    """

    def __init__(self, granule: int, accessor, pas, gpt):
        self.granule = granule
        self.accessor = accessor
        self.pas = pas
        self.gpt = gpt
        super().__init__(
            f"GPF: accessor={accessor.name} pas={pas.name} "
            f"granule={granule} gpt={'sys' if gpt is None else gpt}"
        )


class PageAccessFault(Exception):
    """An enclave page that an access or a leaf needs is missing, blocked,
    pending, trimmed or lacks the permission; it has not run, and runs again
    once the host has served the fault."""

    def __init__(self, vaddr: int, why: str):
        self.vaddr, self.why = vaddr, why


class AuthenticationFailure(Exception):
    """AEAD or MAC verification failed inside the crypto engine."""


class ModelError(Exception):
    """The simulation was driven outside its contract; not a simulated fault."""


def read_input(path, what: str, binary: bool = False):
    """The contents of an input file, as text unless `binary`.  A file that
    is missing, is a directory or is not UTF-8 text is a ModelError that
    names it as `what`."""
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text()
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise ModelError(f"cannot read {what}: {reason}")


def json_object(text: str, what: str) -> dict:
    """``text`` parsed as one JSON object: anything else, or a key given twice
    in an object (not taken at its last value), is a ModelError naming `what`."""

    def unique_keys(pairs) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ModelError(f"{what}: JSON key {key!r} given twice")
            obj[key] = value
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:
        raise ModelError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ModelError(f"{what} is not a JSON object")
    return data
