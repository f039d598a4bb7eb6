"""Shared test plumbing: raw enclave builders and common constants."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ccxsim.config import Config
from ccxsim.errors import SgxError, SgxErrorCode
from ccxsim.machine import ALL_LEAF_NAMES, Machine
from ccxsim.memory import GRANULE_SIZE, RESERVED_GRANULES, PageType, Perms
from ccxsim.structs import VA_SLOT_COUNT, Attributes, SecInfo, Tcs

BASE = 1 << 33

SMALL = dict(granule_count=512, epc_base=32, epc_size=128)


def small_config(**overrides) -> Config:
    params = dict(SMALL)
    params.setdefault("audit_after_leaf", True)
    params.update(overrides)
    return Config(**params)


def free_epc_granules(m: Machine, n: int) -> List[int]:
    mem = m.memory
    out = [g for g in range(*mem.epc_span()) if mem.is_free(g)][:n]
    assert len(out) == n, "fixture ran out of EPC granules"
    return out


def free_host_granule(m: Machine) -> int:
    mem = m.memory
    for g in range(RESERVED_GRANULES, mem.granule_count):
        if mem.is_free(g) and not (m.config.mode == "sgx" and mem.epc_admissible(g)):
            return g
    raise AssertionError("no free host granule")


def host_scratch_granules(m: Machine, n: int) -> List[int]:
    """Free host granules from the top of memory down, clear of the granules
    ``free_epc_granules`` and ``free_host_granule`` hand out from the bottom."""
    mem = m.memory
    out = [
        g for g in range(mem.granule_count - 1, RESERVED_GRANULES - 1, -1)
        if mem.is_free(g) and not (m.config.mode == "sgx" and mem.epc_admissible(g))
    ][:n]
    assert len(out) == n, "fixture ran out of host granules"
    return out


@contextmanager
def refusing(m: Machine, name: str, code: SgxErrorCode = SgxErrorCode.PAGE_INVALID,
             after: int = 0):
    """Inside the block, the first leaf ``name`` that ``m`` dispatches after
    ``after`` of them is refused with ``code`` before it runs, so it changes
    nothing: a whole-leaf refusal, injected by wrapping the machine's dispatch."""
    dispatch = m._dispatch
    armed = [True]
    passed = [0]

    def refuse(rows, vcpu, leaf, *rest):
        row = rows.get(leaf)
        if armed and row is not None and row.name == name:
            passed[0] += 1
            if passed[0] > after:
                armed.clear()
                raise SgxError(code, f"{name} refused by injection")
        return dispatch(rows, vcpu, leaf, *rest)

    m._dispatch = refuse
    try:
        yield
    finally:
        del m._dispatch
    assert not armed, f"no {name} was dispatched"


def reloads(rt, handle, vaddr: int) -> bool:
    """Whether ``rt.swap_in(handle, vaddr)`` reloads a page, as it does when
    the swap store holds it; a resident page stays and reloads nothing."""
    return rt.store.has(handle.eid, vaddr & ~(GRANULE_SIZE - 1))


def check_paging_records(rt) -> None:
    """Assert that a runtime's paging records agree with its machine: no
    page is both resident and filed, the free version slots and the slots
    of the filed blobs are, between them, every slot of every version array
    once, no core is inside an enclave, and no blob is left for an enclave
    the runtime does not hold."""
    m = rt.machine
    filed = [(eid, vaddr, stored) for eid, pages in rt.store._blobs.items()
             for vaddr, stored in pages.items()]
    for eid, vaddr, _ in filed:
        assert m.memory.find_page(eid, vaddr) is None, f"{vaddr:#x} of {eid} resident and filed"
    slots = list(rt._free_slots) + [(stored.va_granule, stored.slot) for _, _, stored in filed]
    arrays = [g for g, e in m.memory.epcm.items() if e.page_type == PageType.VA]
    assert sorted(slots) == [(g, s) for g in sorted(arrays) for s in range(VA_SLOT_COUNT)]
    assert all(vcpu.cur_eid is None for vcpu in m.vcpus)
    assert {eid for eid, _, _ in filed} <= set(rt.handles)


def fold_trace(records: List[dict]) -> dict:
    """The run summary's fields that its trace records add up to: the leaf
    records counted, and their costs summed, per leaf; and the ``ewb`` and
    the ``eldu`` records that succeeded, a reclaim's and an explicit swap's
    alike."""
    counters = dict.fromkeys(ALL_LEAF_NAMES, 0)
    cost_tally = dict.fromkeys(ALL_LEAF_NAMES, 0)
    for record in records:
        name = record["kind"].upper()
        if name in counters:
            counters[name] += 1
            cost_tally[name] += record["cost"]
    return {
        "counters": counters,
        "cost_tally": cost_tally,
        "swap_out_events": sum(r["kind"] == "ewb" and r["outcome"] == "ok" for r in records),
        "swap_in_events": sum(r["kind"] == "eldu" and r["outcome"] == "ok" for r in records),
    }


@dataclass
class RawEnclave:
    """An enclave built directly through the leaf interface."""

    eid: int
    base: int
    size: int
    secs_granule: int
    pages: Dict[int, int]  # enclave-relative offset -> granule
    tcs_offsets: List[int] = field(default_factory=list)

    def granule(self, offset: int) -> int:
        return self.pages[offset]


def build_raw_enclave(
    m: Machine,
    *,
    size: int = 1 << 21,
    page_specs: Optional[List[Tuple[int, str, bytes]]] = None,
    tcs_specs: Optional[List[dict]] = None,
    attributes: Optional[Attributes] = None,
    init: bool = True,
    measure: bool = True,
    signer: str = "default",
    isv_prod_id: int = 1,
    isv_svn: int = 1,
) -> RawEnclave:
    """Assemble an enclave with explicit leaf calls; defaults give one rwx
    page at 0x0 and one rw page at 0x1000 with deterministic content."""
    if page_specs is None:
        page_specs = [
            (0x0000, "rwx", b"\x11" * GRANULE_SIZE),
            (0x1000, "rw", b"\x22" * GRANULE_SIZE),
        ]
    attributes = attributes or Attributes(debug=True)
    needed = 1 + len(page_specs) + len(tcs_specs or [])
    granules = free_epc_granules(m, needed)
    secs_granule = granules.pop(0)
    eid = m.leaf("ECREATE", secs_granule, size, 1, attributes, BASE)

    def add(off: int, secinfo: SecInfo, content: bytes) -> int:
        g = granules.pop(0)
        m.leaf("EADD", eid, BASE + off, secinfo, g, content)
        pages[off] = g
        if measure:
            for chunk in range(0, GRANULE_SIZE, 256):
                m.leaf("EEXTEND", eid, BASE + off + chunk)
        return g

    pages: Dict[int, int] = {}
    for off, perms, content in page_specs:
        content = content.ljust(GRANULE_SIZE, b"\0")[:GRANULE_SIZE]
        add(off, SecInfo(Perms.parse(perms), PageType.REG), content)

    tcs_offsets = []
    for spec in tcs_specs or []:
        tcs = Tcs(
            oentry=spec.get("oentry", 0x0),
            ossa=spec["ossa"],
            nssa=spec.get("nssa", 2),
            tls_base=spec.get("tls_base", 0),
            aexnotify=spec.get("aexnotify", False),
        )
        add(spec["vaddr"], SecInfo(Perms.NONE, PageType.TCS), tcs.pack())
        tcs_offsets.append(spec["vaddr"])

    if init:
        secs = m.enclaves[eid]
        sig = m.crypto.sign_sigstruct(
            secs.mrenclave_state.copy().final(),
            secs.attributes.signed_view(),
            isv_prod_id,
            isv_svn,
            signer,
        )
        m.leaf("EINIT", eid, sig)

    return RawEnclave(
        eid=eid, base=BASE, size=size, secs_granule=secs_granule,
        pages=pages, tcs_offsets=tcs_offsets,
    )
