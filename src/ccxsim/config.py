"""Machine configuration: geometry, mode, seed, and the abstract cost model.

Configs serialize to JSON and round-trip losslessly.  All fields default, so
an empty file (or no file) yields the standard desk-scale machine: 16384
granules (64 MiB) with a 512-granule fixed EPC in sgx mode, small enough that
memory-hungry scenarios actually swap.  ``cost_factors`` is the one cost
knob: a leaf's base cost and charges are columns of its ``LEAVES`` row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from .errors import ModelError, json_object, read_input
from .memory import RESERVED_GRANULES

# Abstract cost units per primitive a leaf pays on top of its base cost.
DEFAULT_COST_FACTORS: Dict[str, int] = {
    # one granule of a fresh enclave table, paid for every granule of memory
    "gpt_per_granule": 1,
    # one 64-byte block absorbed into a measurement
    "hash_block": 1,
    # one signature verification
    "sig_verify": 500,
    # one full-page authenticated encryption or decryption
    "aead_page": 400,
    # one key derivation
    "kdf": 40,
    # one report MAC
    "mac": 30,
}


# Upper bounds that keep a config from asking for more host memory than a
# desk-scale run needs: 65,536 granules are 256 MiB of simulated memory.
MAX_GRANULE_COUNT = 1 << 16
MAX_VCPU_COUNT = 64

# Integer fields -> (lowest, highest) accepted value; None leaves a side open.
# The crypto seed takes any integer: it is masked to 64 bits.
_INT_RANGES = {
    "granule_count": (16, MAX_GRANULE_COUNT),
    "epc_base": (0, None),
    "epc_size": (0, None),
    "crypto_seed": (None, None),
    "vcpu_count": (1, MAX_VCPU_COUNT),
    "max_ecall_steps": (1, None),
}


def _check_int(name: str, value, lo: Optional[int], hi: Optional[int]) -> None:
    if type(value) is not int:
        raise ModelError(f"config field {name!r} must be an integer, not {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f"{'' if lo is None else lo}..{'' if hi is None else hi}"
        raise ModelError(f"config field {name!r} is {value}, outside {bounds}")


def _check_table(name: str, table, known: Dict[str, int]) -> None:
    if not isinstance(table, Mapping):
        raise ModelError(f"config field {name!r} must be an object, not {table!r}")
    for key, value in table.items():
        if key not in known:
            raise ModelError(f"config field {name!r} has unknown entry {key!r}")
        _check_int(f"{name}.{key}", value, 0, None)


@dataclass(frozen=True)
class Config:
    """One platform's settings.  Every instance, ``dataclasses.replace``'s
    included, is validated as it is built, and none changes afterwards:
    setting a field or a ``cost_factors`` entry raises."""

    granule_count: int = 16384
    mode: str = "sgx"  # "sgx" (fixed EPC) or "ccx" (dynamic)
    epc_base: int = 1024
    epc_size: int = 512
    crypto_seed: int = 2024
    vcpu_count: int = 4
    max_ecall_steps: int = 1_000_000
    audit_after_leaf: bool = False
    cost_factors: Mapping[str, int] = field(default_factory=DEFAULT_COST_FACTORS.copy)

    def __post_init__(self) -> None:
        self.validate()
        # a read-only copy, which the caller's table cannot change either
        object.__setattr__(self, "cost_factors", MappingProxyType(dict(self.cost_factors)))

    def validate(self) -> None:
        """Check every field's type and range; a bad one is a ModelError that
        names it."""
        if self.mode not in ("sgx", "ccx"):
            raise ModelError(f"mode must be 'sgx' or 'ccx', not {self.mode!r}")
        for name, (lo, hi) in _INT_RANGES.items():
            _check_int(name, getattr(self, name), lo, hi)
        if type(self.audit_after_leaf) is not bool:
            raise ModelError("config field 'audit_after_leaf' must be true or false,"
                             f" not {self.audit_after_leaf!r}")
        _check_table("cost_factors", self.cost_factors, DEFAULT_COST_FACTORS)
        for name in DEFAULT_COST_FACTORS:  # from_dict merges; a table built in code must be whole
            if name not in self.cost_factors:
                raise ModelError(f"config field 'cost_factors' lacks factor {name!r}")
        if self.mode == "sgx":
            if self.epc_size == 0:
                raise ModelError("config field 'epc_size' is 0, and sgx mode needs an EPC")
            if self.epc_base < RESERVED_GRANULES:
                raise ModelError(f"config field 'epc_base' is {self.epc_base}, inside the"
                                 f" {RESERVED_GRANULES} reserved granules")
            if self.epc_base + self.epc_size > self.granule_count:
                raise ModelError(f"config field 'epc_size' is {self.epc_size}: the EPC"
                                 f" window from {self.epc_base} runs past granule_count"
                                 f" {self.granule_count}")

    def epc_span(self) -> Tuple[int, int]:
        """The granules [lo, hi) that may become enclave pages: the fixed
        window in sgx mode, every unreserved granule in ccx mode."""
        if self.mode == "sgx":
            return self.epc_base, self.epc_base + self.epc_size
        return RESERVED_GRANULES, self.granule_count

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {**vars(self), "cost_factors": dict(self.cost_factors)}

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        for key in data:
            if key not in cls.__dataclass_fields__:
                raise ModelError(f"unknown config field {key!r}")
        if "cost_factors" in data:  # a partial table merges over the defaults
            _check_table("cost_factors", data["cost_factors"], DEFAULT_COST_FACTORS)
            data = {**data, "cost_factors": {**DEFAULT_COST_FACTORS, **data["cost_factors"]}}
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Config":
        return cls.from_dict(json_object(text, "config"))

    @classmethod
    def load(cls, path: Optional[str]) -> "Config":
        if path is None:
            return cls()
        return cls.from_json(read_input(path, f"config {path}"))
