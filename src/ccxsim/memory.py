"""Physical memory, granule protection tables, and the EPC page map.

Physical memory is a flat array of 4 KiB granules in a private anonymous
memory map: it reads as zeros, and a granule takes host memory only once it
is written.  Isolation is enforced by granule protection tables: one stored
system table, plus one view per live enclave that is derived from the system
table and the set of granules the enclave owns.  Software accesses (programs,
the host driver, ocall handlers) go through :meth:`MachineMemory.read_granule`
or :meth:`MachineMemory.write_granule`, which consult the active table for the
accessing context.  Microcode runs as the root world, which every table
admits: a leaf bounds its granule and offset and uses the unchecked
:meth:`MachineMemory.load` and :meth:`MachineMemory.store`.  Enclave page
metadata lives in the EPCM, which is modeled as simulator-private state
outside the addressable granule space (equivalent to keeping it in root-world
memory: no non-root accessor could ever reach it).  EPCM entries are
immutable and exist only for valid pages: a granule is EPCM-valid exactly
when the map holds an entry for it, and a leaf changes an entry by storing a
new one.  The map keeps valid pages in the order they became valid (a new
entry for a valid granule keeps its place); eviction relies on this order.

:meth:`MachineMemory.epcm_update` is the one page-state transition, and the
tables follow the entry.  An invalid granule that gets an entry leaves the
normal world: it becomes realm for the entry's owner (a SECS entry first
opens the owner's table), or microcode-only for an entry with no owner (a
version array).  A valid granule whose entry is cleared is scrubbed and
returned to the normal world (clearing a SECS entry also closes its owner's
table).  A valid granule that gets a new entry only changes metadata, and no
table moves.  So a granule enters and leaves an enclave's table only with
its EPCM entry, and :meth:`MachineMemory.audit` checks that they agree.

Allocation reads the same state: free granules are found in the system
table, and an enclave's page list is its owned set.  Memory knows no memory
mode: it is given the EPC span, the granules that may become enclave pages
(a fixed window in sgx, every unreserved granule in ccx), and
:meth:`MachineMemory.epcm_update` admits a first entry only inside it.

The enclave interpreter caches its work in two places here, and neither may
change anything but wall time.  The translation cache (``tlb``) maps an
accessor, a page address and an access kind to the granule that a full
checked access of that kind reached and the EPCM entry that granule held
then; only a successful checked access fills it, through
:meth:`MachineMemory.cache_translation`, and a hit counts only while the
granule still holds the entry it was filled with.  That is sound because
every input of a checked translation (the page-address index, the entry's
fields, the system-table byte and the owned sets) changes only through
:meth:`MachineMemory.epcm_update` of that granule, which stores a new entry
object or clears the entry.  A miss is never cached.  Clearing a SECS drops
every translation its enclave made, so that those of a dead enclave do not
pile up (enclave ids are never reused); the raw test poke
``GptSet.set_entry``, which moves a table behind the EPCM, empties the whole
cache.  The decode cache (``decoded``) holds each granule's blocks by the
address they start at: a block is the decoded run of ALU ops from there plus
the instruction that ends it, kept next to the function that the
interpreter compiled it into (see :mod:`ccxsim.execution`), which for a
self-loop depends on that address.  A block never crosses its page, so a
granule holds at most one entry per instruction start of each page address
it is fetched at, 256 for code at 16-byte offsets.  Any write to the granule
drops its blocks: :meth:`MachineMemory.store` is the only byte writer.
Blocks are shared by page address and bytes: ``page_blocks``, a memo
bounded by :data:`ccxsim.execution.BLOCK_MEMO_SIZE`, oldest out first, maps
a page address and the page's bytes to one dict of blocks, which the
interpreter hands to each granule fetched there with those bytes.  A block
depends only on those bytes and its address, so all granules that hold the
dict agree on every block, and a write drops only the written granule's
entry in ``decoded``, not the dict its twins still hold.  The
functions themselves come from ``compiled``, a memo keyed by what is
compiled (the decoded instructions, a self-loop's target as None) and
bounded by :data:`ccxsim.execution.BLOCK_MEMO_SIZE`, oldest out first; it
depends on no granule, so no write or EPCM update has to touch it.
"""

from __future__ import annotations

import enum
import mmap
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from .errors import GranuleProtectionFault, ModelError

GRANULE_SIZE = 4096
_ZERO_GRANULE = bytes(GRANULE_SIZE)

# Granules 0 and 1 are never handed out: 0 catches null-ish addresses, 1 is
# the host runtime's gate page (return / ocall / aep landing addresses).
RESERVED_GRANULES = 2


class Pas(enum.IntEnum):
    """Protection attribute state of a granule (its world assignment)."""

    NORMAL = 0
    SECURE = 1
    REALM = 2
    ROOT = 3
    NO_ACCESS = 4


# Pas members by value, so a table byte maps to its member without a call.
_PAS = tuple(Pas)
_NORMAL, _NO_ACCESS = int(Pas.NORMAL), int(Pas.NO_ACCESS)


class SecurityState(enum.IntEnum):
    """Security state of an accessing core."""

    NORMAL = 0
    SECURE = 1
    REALM = 2
    ROOT = 3


class Perms(enum.IntFlag):
    NONE = 0
    R = 1
    W = 2
    X = 4

    @classmethod
    def parse(cls, text: str) -> "Perms":
        bits = 0  # an int until the end: a flag | is a Python-level call
        for ch in text.lower():
            bit = _PERM_BITS.get(ch)
            if bit is None:
                raise ValueError(f"bad permission char {ch!r}")
            bits |= bit
        return cls(bits)

    def text(self) -> str:
        return "".join(
            c if self & f else "-"
            for c, f in (("r", Perms.R), ("w", Perms.W), ("x", Perms.X))
        )


_PERM_BITS = {"r": 1, "w": 2, "x": 4, "-": 0, "n": 0}


class PageType(enum.IntEnum):
    SECS = 0
    TCS = 1
    REG = 2
    VA = 3
    TRIM = 4


# Members the build path tests, bound once: on Python 3.11 the enum metaclass
# has a __getattr__, so a lookup like ``PageType.SECS`` takes about 0.15 us.
SECS_PAGE, TCS_PAGE, REG_PAGE, VA_PAGE = PageType.SECS, PageType.TCS, PageType.REG, PageType.VA


def access_allowed(accessor: SecurityState, pas: Pas) -> bool:
    """World access check: may a core in `accessor` state touch a `pas` page?

    Root access is universal.  Every state may touch normal memory; secure and
    realm states may additionally touch their own world.  NO_ACCESS pages deny
    everyone except root.
    """
    if accessor == SecurityState.ROOT:
        return True
    if pas == Pas.NORMAL:
        return True
    if pas == Pas.SECURE:
        return accessor == SecurityState.SECURE
    if pas == Pas.REALM:
        return accessor == SecurityState.REALM
    # ROOT and NO_ACCESS pages: root only.
    return False


@dataclass(frozen=True)
class AccessContext:
    """Who is accessing: a security state plus the active table selector.

    ``gpt`` is ``None`` for the system table or an enclave id for that
    enclave's table.  Only software accesses carry one: microcode passes
    every check, so it reads and writes unchecked.
    """

    accessor: SecurityState
    gpt: Optional[int]


HOST = AccessContext(SecurityState.NORMAL, None)


@dataclass(frozen=True)
class GpfRecord:
    granule: int
    accessor: SecurityState
    pas: Pas
    gpt: Optional[int]


class EpcmEntry(NamedTuple):
    """EPC metadata of one valid granule.

    Entries are immutable and stored only for valid pages, so a looked-up
    entry can be shared without a copy.  Leaves build a new entry with the
    constructor or ``_replace`` and store it with
    :meth:`MachineMemory.epcm_update`; a leaf refused before that store leaves
    the EPCM as it was.  ``staged_type`` and ``blocked_epoch`` are
    microprogram bookkeeping for type changes in flight and for blocked-page
    tracking.  Swap metadata (:func:`ccxsim.structs.pcmd_meta`) carries every
    field but ``blocked`` and ``blocked_epoch``, so a reloaded page resumes
    with its type, owner, address, permissions, pending, modified and staged
    type; ELDU reloads it unblocked, and ELDB blocks it in the current track
    epoch.
    """

    page_type: PageType
    owner: Optional[int] = None
    vaddr: int = 0
    perms: Perms = Perms.NONE
    blocked: bool = False
    pending: bool = False
    modified: bool = False
    staged_type: Optional[PageType] = None
    blocked_epoch: Optional[int] = None

    def validate(self) -> None:
        if self.pending and self.modified:
            raise ModelError("EPCM entry has pending and modified both set")
        if self.page_type == VA_PAGE and self.owner is not None:
            raise ModelError("VA pages are not enclave-owned")
        if self.page_type != VA_PAGE and self.owner is None:
            raise ModelError("non-VA EPCM entry needs an owner")


def software_access_refusal(entry: EpcmEntry, kind: str) -> Optional[str]:
    """Why enclave software may not make a ``kind`` access ("r", "w" or "x")
    to the page of ``entry``, or None if it may.  Enclave loads, stores and
    fetches and EACCEPTCOPY's source all apply this one rule."""
    if entry.blocked:
        return "page is blocked"
    if entry.pending:
        return "page is pending acceptance"
    if entry.staged_type is not None:
        return "page has a type change in flight"
    if entry.page_type != REG_PAGE:
        return f"{entry.page_type.name} pages are not software-addressable"
    if not entry.perms & _PERM_BITS[kind]:
        return f"missing {kind} permission"
    return None


def _page_key(entry: Optional[EpcmEntry]) -> Optional[Tuple[int, int]]:
    """The (owner, page address) under which :meth:`MachineMemory.find_page`
    finds the entry's page, or None for no entry or a page with no linear
    address: a version array has no owner, and a SECS is not mapped into its
    enclave."""
    if entry is None or entry.owner is None or entry.page_type == SECS_PAGE:
        return None
    return (entry.owner, entry.vaddr)


class GptSet:
    """The system granule protection table plus each live enclave's owned set.

    The system table is a dense byte array of :class:`Pas` values covering
    every granule.  An enclave's table is not stored: it is derived as the
    system table with that enclave's ``owned`` granules marked realm.  An
    assigned granule is NO_ACCESS in the system table and sits in exactly one
    owned set, so it is realm for its owner and unreachable from every other
    view by construction.

    The methods that change a table are primitives of
    :meth:`MachineMemory.epcm_update`, which calls them as an EPCM entry is
    stored or cleared; ``set_entry`` is a raw poke for tests.
    ``tlb`` is the translation cache that :class:`MachineMemory` reads and
    :meth:`MachineMemory.cache_translation` fills.  The primitives leave it
    alone: each translation carries the EPCM entry it was made under, so an
    entry that changes makes it miss; ``epcm_update`` drops only the keys of
    an enclave whose SECS it clears, and ``set_entry``, which changes a
    table without an EPCM update, empties the cache.
    """

    def __init__(self, granule_count: int):
        self.granule_count = granule_count
        self.system: bytearray = bytearray(granule_count)  # Pas.NORMAL == 0
        # live enclave id -> granules it owns; also the registry of tables
        self.owned: Dict[int, Set[int]] = {}
        # (cur_eid, page address, access kind) -> (granule, its EPCM entry then)
        self.tlb: Dict[Tuple[Optional[int], int, str], Tuple[int, Optional[EpcmEntry]]] = {}

    def drop_translations_of(self, eid: int) -> None:
        """Drop the translations made by enclave ``eid``: the keys whose
        first field is ``eid``."""
        for key in [key for key in self.tlb if key[0] == eid]:
            del self.tlb[key]

    # -- table lifecycle ---------------------------------------------------

    def create_enclave_table(self, eid: int) -> None:
        if eid in self.owned:
            raise ModelError(f"enclave {eid} already has a table")
        self.owned[eid] = set()

    def drop_enclave_table(self, eid: int) -> None:
        if self._owned(eid):
            raise ModelError(f"dropping table of enclave {eid} with realm pages")
        del self.owned[eid]

    def _owned(self, eid: int) -> Set[int]:
        try:
            return self.owned[eid]
        except KeyError:
            raise ModelError(f"no such GPT: {eid}") from None

    def entry(self, selector: Optional[int], granule: int) -> Pas:
        if not 0 <= granule < self.granule_count:
            raise ModelError(f"granule {granule} out of range")
        if selector is not None and granule in self._owned(selector):
            return Pas.REALM
        return _PAS[self.system[granule]]

    def set_entry(self, granule: int, pas: Pas) -> None:
        """Raw system-table poke; for fixture setup and tests, not the normal path."""
        if not 0 <= granule < self.granule_count:
            raise ModelError(f"granule {granule} out of range")
        self.system[granule] = int(pas)
        self.tlb.clear()

    def table(self, eid: int) -> bytes:
        """Enclave `eid`'s derived table as dense :class:`Pas` bytes."""
        view = bytearray(self.system)
        for granule in self._owned(eid):
            view[granule] = Pas.REALM
        return bytes(view)

    @property
    def enclave(self) -> Dict[int, bytes]:
        """Read-only dense views of every live enclave's table."""
        return {eid: self.table(eid) for eid in self.owned}

    # -- protocol operations ----------------------------------------------

    def assign(self, eid: int, granule: int) -> None:
        owned = self._owned(eid)
        if self.system[granule] != _NORMAL:
            raise ModelError(f"granule {granule} not normal in system table")
        owned.add(granule)
        self.system[granule] = _NO_ACCESS

    def unassign(self, eid: int, granule: int) -> None:
        owned = self._owned(eid)
        if granule not in owned:
            raise ModelError(f"granule {granule} not realm in table of {eid}")
        owned.remove(granule)
        self.system[granule] = _NORMAL

    def seclude(self, granule: int) -> None:
        """Make a granule microcode-only (used for version-array pages)."""
        if self.system[granule] != _NORMAL:
            raise ModelError(f"granule {granule} not normal in system table")
        self.system[granule] = _NO_ACCESS

    def unseclude(self, granule: int) -> None:
        if self.system[granule] != _NO_ACCESS:
            raise ModelError(f"granule {granule} was not secluded")
        self.system[granule] = _NORMAL

    def snapshot_counts(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for name, table in [("system", self.system)] + [
            (f"enclave:{eid}", self.table(eid)) for eid in sorted(self.owned)
        ]:
            out[name] = {
                pas.name: table.count(int(pas)) for pas in Pas if table.count(int(pas))
            }
        return out


class MachineMemory:
    """Granule-array memory with protection-table checked access.

    ``epc_span`` is the EPC span [lo, hi): a non-empty range of unreserved
    granules, the only ones that may take a first EPCM entry.  All state
    mutation happens inside microprogram execution which the machine
    serializes; this class itself does no locking.
    """

    def __init__(self, granule_count: int, epc_span: Tuple[int, int]):
        if granule_count <= RESERVED_GRANULES:
            raise ModelError("granule count too small")
        lo, hi = epc_span
        if not RESERVED_GRANULES <= lo < hi <= granule_count:
            raise ModelError(f"EPC span [{lo}, {hi}) is empty or outside"
                             f" [{RESERVED_GRANULES}, {granule_count})")
        self.granule_count = granule_count
        self._epc_span = (lo, hi)
        # zero-filled lazily by the host; a slice write must keep its length
        self.data = mmap.mmap(-1, granule_count * GRANULE_SIZE, flags=mmap.MAP_PRIVATE)
        self.gpts = GptSet(granule_count)
        self.epcm: Dict[int, EpcmEntry] = {}
        # (owner eid, page-aligned vaddr) -> granule, kept in sync by epcm_update
        self.vaddr_index: Dict[Tuple[int, int], int] = {}
        self.gpf_log: List[GpfRecord] = []
        self.tlb = self.gpts.tlb  # one dict, so set_entry empties it too
        # granule -> {address: block starting there}
        self.decoded: Dict[int, Dict[int, tuple]] = {}
        # (page address, page bytes) -> the blocks of code fetched there with
        # those bytes, oldest first; shared by every granule in ``decoded``
        # that holds them
        self.page_blocks: Dict[Tuple[int, bytes], Dict[int, tuple]] = {}
        # (ALU run, ending branch or None) -> its compiled function, oldest
        # first; a self-loop's branch has None for its target
        self.compiled: Dict[tuple, Callable] = {}

    # -- access checking ----------------------------------------------------

    def _check_range(self, granule: int, offset: int = 0, length: int = 0) -> None:
        if not 0 <= granule < self.granule_count:
            raise ModelError(f"granule {granule} out of range")
        if offset < 0 or length < 0 or offset + length > GRANULE_SIZE:
            raise ModelError(f"access [{offset}, {offset}+{length}) exceeds granule")

    def check_access(
        self, accessor: SecurityState, granule: int, gpt: Optional[int]
    ) -> bool:
        self._check_range(granule)
        return access_allowed(accessor, self.gpts.entry(gpt, granule))

    def _checked(self, ctx: AccessContext, granule: int, offset: int, length: int) -> None:
        self._check_range(granule, offset, length)
        pas = self.gpts.entry(ctx.gpt, granule)
        if not access_allowed(ctx.accessor, pas):
            record = GpfRecord(granule, ctx.accessor, pas, ctx.gpt)
            self.gpf_log.append(record)
            raise GranuleProtectionFault(granule, ctx.accessor, pas, ctx.gpt)

    def read_granule(self, ctx: AccessContext, granule: int, offset: int, length: int) -> bytes:
        self._checked(ctx, granule, offset, length)
        return self.load(granule, offset, length)

    def write_granule(self, ctx: AccessContext, granule: int, offset: int, data: bytes) -> None:
        self._checked(ctx, granule, offset, len(data))
        self.store(granule, offset, data)

    def load(self, granule: int, offset: int, length: int) -> bytes:
        """Read bytes unchecked: a microcode access, or one already checked."""
        base = granule * GRANULE_SIZE + offset
        return self.data[base : base + length]

    def store(self, granule: int, offset: int, data: bytes) -> None:
        """Write bytes unchecked, as :meth:`load` reads; drops the granule's blocks."""
        self.decoded.pop(granule, None)
        base = granule * GRANULE_SIZE + offset
        self.data[base : base + len(data)] = data

    def cache_translation(self, key: Tuple[Optional[int], int, str], granule: int) -> None:
        """Remember that a checked access keyed ``key`` reached ``granule``
        while the granule held its current EPCM entry (or none); the
        translation counts only as long as it still holds that entry."""
        self.tlb[key] = (granule, self.epcm.get(granule))

    def zero_granule(self, granule: int) -> None:
        self._check_range(granule)
        self.store(granule, 0, _ZERO_GRANULE)

    # -- EPC window and free granules ---------------------------------------

    def epc_span(self) -> Tuple[int, int]:
        """EPC-capable granules [lo, hi), as given at construction."""
        return self._epc_span

    def epc_admissible(self, granule: int) -> bool:
        lo, hi = self._epc_span
        return lo <= granule < hi

    def first_free(self, lo: int, hi: int) -> Optional[int]:
        """Lowest free granule in [lo, hi), or None: one normal in the system
        table, where every EPCM-valid granule is NO_ACCESS (the audit checks)."""
        g = self.gpts.system.find(_NORMAL, max(lo, RESERVED_GRANULES), hi)
        return None if g < 0 else g

    # -- EPCM ----------------------------------------------------------------

    def epcm_lookup(self, granule: int) -> Optional[EpcmEntry]:
        """The granule's stored entry, or None if it is not EPCM-valid."""
        self._check_range(granule)
        return self.epcm.get(granule)

    def epcm_update(self, granule: int, entry: Optional[EpcmEntry]) -> None:
        """Store ``entry`` for the granule, or clear the granule with None.

        The granule's tables move with its entry, as the module docstring
        sets out: a first entry takes it out of the normal world, clearing
        scrubs it and gives it back, and a SECS entry opens and closes its
        owner's table.  A new entry for a valid granule changes metadata
        only, so it must keep the owner and the SECS role.  Any other page
        content is the caller's to write.
        """
        self._check_range(granule)
        old = self.epcm.get(granule)
        gpts = self.gpts
        key = _page_key(entry)
        if entry is not None:
            entry.validate()
            if key is not None:
                mapped = self.vaddr_index.get(key, granule)
                if mapped != granule:
                    raise ModelError(f"vaddr {entry.vaddr:#x} double-mapped in {entry.owner}")
            if old is None:
                if not self.epc_admissible(granule):
                    raise ModelError(f"granule {granule} not admissible as EPC")
                if entry.owner is None:
                    gpts.seclude(granule)
                else:
                    if entry.page_type == SECS_PAGE:
                        gpts.create_enclave_table(entry.owner)
                    gpts.assign(entry.owner, granule)
            elif entry.owner != old.owner or (entry.page_type == SECS_PAGE) != (
                old.page_type == SECS_PAGE
            ):
                raise ModelError(f"granule {granule} cannot change owner or SECS role")
        elif old is not None:
            # Scrub before the granule becomes reachable again: no data residue.
            self.store(granule, 0, _ZERO_GRANULE)
            if old.owner is None:
                gpts.unseclude(granule)
            else:
                gpts.unassign(old.owner, granule)
                if old.page_type == SECS_PAGE:
                    gpts.drop_enclave_table(old.owner)
                    # enclave ids are never reused: its translations go too
                    gpts.drop_translations_of(old.owner)
        old_key = _page_key(old)
        if old_key is not None:
            self.vaddr_index.pop(old_key, None)
        if entry is None:
            self.epcm.pop(granule, None)
            return
        self.epcm[granule] = entry
        if key is not None:
            self.vaddr_index[key] = granule

    def find_page(self, eid: int, vaddr: int) -> Optional[int]:
        return self.vaddr_index.get((eid, vaddr & ~(GRANULE_SIZE - 1)))

    def valid_pages(self) -> List[int]:
        """EPCM-valid granules, ascending; one enclave's are ``gpts.owned[eid]``."""
        return sorted(self.epcm)

    def is_free(self, granule: int) -> bool:
        if granule < RESERVED_GRANULES or granule in self.epcm:
            return False
        return self.gpts.entry(None, granule) == _NORMAL

    # -- invariants -----------------------------------------------------------

    def audit(self) -> None:
        """Cross-check the tables against the EPCM; raises ModelError on breakage.

        Checks: every EPCM-valid page is inaccessible in the system table and,
        if enclave-owned, in its owner's set; the system table marks no
        granule outside the EPCM; owned sets hold only granules the EPCM gives
        their enclave; every EPCM-valid granule lies in the EPC span; the
        page-address index is the one the EPCM entries give.  Per-enclave
        views need no check of their own: they are derived from the system
        table and the owned sets.
        """
        owned = self.gpts.owned
        index = {}
        for granule, entry in self.epcm.items():
            key = _page_key(entry)
            if key is not None:
                index[key] = granule
            if not self.epc_admissible(granule):
                raise ModelError(f"EPCM-valid granule {granule} outside the EPC span")
            if self.gpts.system[granule] != Pas.NO_ACCESS:
                raise ModelError(f"granule {granule} reachable from system table")
            if entry.owner is not None and granule not in owned.get(entry.owner, ()):
                raise ModelError(
                    f"granule {granule} not realm in owner table {entry.owner}"
                )
        n_special = self.granule_count - self.gpts.system.count(int(Pas.NORMAL))
        if n_special != len(self.epcm):
            raise ModelError(
                f"system table has {n_special} non-normal granules, expected {len(self.epcm)}"
            )
        for eid, granules in owned.items():
            for granule in granules:
                entry = self.epcm.get(granule)
                if entry is None or entry.owner != eid:
                    raise ModelError(f"table {eid} holds granule {granule} it does not own")
        if index != self.vaddr_index:
            wrong = sorted(set(index.items()) ^ set(self.vaddr_index.items()))
            raise ModelError(f"page-address index disagrees with the EPCM at {wrong[0]}")
