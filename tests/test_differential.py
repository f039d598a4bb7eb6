"""A seeded cross-mode differential of the host runtime.

Each seed draws one sequence of runtime operations (load, ecall with and
without interrupts, explicit swap-out and swap-in, seal and unseal, attest,
destroy) over the standard, compute, toucher and notify fixtures, and runs
it twice: in sgx mode with an EPC of 24, 40 or 64 granules, which pages, and
in ccx mode, which has room.  After every operation the machine audit and
the runtime's paging records must hold, and the two runs must give the same
outcome for each operation.

Two outcomes are not compared.  An explicit ``swap_out`` or ``swap_in``
refused with a ``ModelError`` names the paging state of its mode, which is
the one thing the modes do not share.  An operation on a notify enclave is
checked for the invariants only: its handler restores frame 0 and retires
one slot, so a nested exit, which only sgx paging makes, changes its result.
"""

from __future__ import annotations

import random

import pytest

from ccxsim import fixtures
from ccxsim.errors import ModelError, SgxError
from ccxsim.machine import Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.memory import GRANULE_SIZE
from ccxsim.runtime import EnclaveFault, HostRuntime, LoadError
from ccxsim.structs import KeyPolicy

from helpers import check_paging_records, small_config

SEEDS = range(100)
EPC_SIZES = (24, 40, 64)
OPS_PER_SEQUENCE = 24
KINDS = ("standard", "compute", "toucher", "notify")
DYN_PAGES = 12  # most pages one toucher call adds
# Ample for every call drawn here, paging included.  A notify call whose
# interrupt lands between its handler's EDECCSSA and its jump back loops
# until the budget, in both modes, and the default budget is 10**6 steps.
STEP_BUDGET = 20_000

# Pages an explicit swap names, by enclave offset: code, scratch, both
# save-state frames and the TCS; for the toucher also its first added pages.
_PAGES = (fixtures.CODE_OFF, fixtures.SCRATCH_OFF, fixtures.SSA_OFF,
          fixtures.SSA_OFF + GRANULE_SIZE, fixtures.SSA_OFF + 2 * GRANULE_SIZE)
_DYN_OFF = 0x100000


def _draw(rng: random.Random):
    """One sequence of operations.  An operation names an enclave by the
    index of the load that made it, so the same sequence runs in both modes."""
    kinds = []
    ops = []
    for _ in range(OPS_PER_SEQUENCE):
        if not kinds or rng.random() < 0.15:
            kinds.append(rng.choice(KINDS))
            ops.append(("load", kinds[-1]))
            continue
        slot = rng.randrange(len(kinds))
        kind = kinds[slot]
        pick = rng.random()
        if pick < 0.5:
            inject = None
            if rng.random() < 0.4:
                inject = frozenset(rng.randrange(1, 200) for _ in range(rng.randint(1, 3)))
            ops.append(("ecall", slot, _call_args(rng, kind), inject))
        elif pick < 0.7:
            pages = _PAGES + ((_DYN_OFF, _DYN_OFF + GRANULE_SIZE) if kind == "toucher" else ())
            ops.append((rng.choice(("swap_out", "swap_in")), slot, rng.choice(pages)))
        elif pick < 0.8:
            policy = rng.choice((KeyPolicy.MRENCLAVE, KeyPolicy.MRSIGNER))
            ops.append(("seal", slot, policy, rng.randbytes(rng.randint(1, 40))))
        elif pick < 0.88:
            ops.append(("unseal", slot))
        elif pick < 0.95:
            ops.append(("attest", slot, rng.randrange(len(kinds))))
        else:
            ops.append(("destroy", slot))
    return ops


def _call_args(rng: random.Random, kind: str):
    """(selector, arg1, arg2) of one call into an enclave of ``kind``."""
    if kind == "toucher":
        return 1, rng.randint(1, DYN_PAGES), 0
    if kind in ("compute", "notify"):
        return 1, rng.randint(1, 60), 0
    scratch = fixtures.BASE + fixtures.SCRATCH_OFF + 8 * rng.randrange(32, 64)
    selector = rng.choice((fixtures.SEL_ECHO, fixtures.SEL_ADD, fixtures.SEL_OCALL_ROUNDTRIP,
                           fixtures.SEL_PEEK, fixtures.SEL_POKE))
    if selector == fixtures.SEL_PEEK:
        return selector, rng.choice((scratch, fixtures.BASE + fixtures.CODE_OFF)), 0
    if selector == fixtures.SEL_POKE:
        return selector, scratch, rng.getrandbits(64)
    return selector, rng.getrandbits(32), rng.getrandbits(32)


class _Run:
    """One mode's run of a sequence: the runtime, the handle of each load
    (None once destroyed or if the load failed) and the last sealed blob."""

    def __init__(self, config, manifests):
        self.machine = Machine(config)
        self.rt = HostRuntime(self.machine)
        self.manifests = manifests
        self.handles = []
        self.sealed = None

    def apply(self, op):
        """The outcome of ``op``, as a value equal across modes."""
        try:
            return "ok", self._apply(op)
        except (SgxError, ModelError, LoadError, EnclaveFault) as exc:
            return type(exc).__name__, str(exc)

    def _apply(self, op):
        rt = self.rt
        if op[0] == "load":
            self.handles.append(None)
            self.handles[-1] = rt.load_enclave(self.manifests[op[1]])
            return self.handles[-1].eid
        h = self.handles[op[1]]
        if h is None:
            return "absent"
        base = h.base
        if op[0] == "ecall":
            selector, a, b = op[2]
            return rt.ecall(h, 0, selector, a, b, inject_at=op[3], step_budget=STEP_BUDGET)
        if op[0] == "swap_out":
            return rt.swap_out(h, base + op[2])
        if op[0] == "swap_in":
            return rt.swap_in(h, base + op[2])
        if op[0] == "seal":
            self.sealed = rt.seal(h, op[2], op[3])
            return "sealed"
        if op[0] == "unseal":
            return None if self.sealed is None else rt.unseal(h, self.sealed)
        if op[0] == "attest":
            other = self.handles[op[2]]
            if other is None:
                return "absent"
            outcome = rt.attest(h, other)
            return outcome.a_to_b, outcome.b_to_a
        rt.destroy(h)
        self.handles[op[1]] = None
        return "destroyed"

    def check(self):
        self.machine.audit()
        check_paging_records(self.rt)

    def teardown(self):
        """Destroy every live enclave: then no enclave page is valid and
        every version slot is free."""
        for h in self.handles:
            if h is not None:
                self.rt.destroy(h)
        self.check()
        assert not any(e.owner is not None for e in self.machine.memory.epcm.values())


def _compared(op, kinds, outcomes) -> bool:
    """Whether the outcomes of ``op`` must be equal across modes."""
    slots = [op[1]] if op[0] != "load" else []
    if op[0] == "attest":
        slots.append(op[2])
    if any(kinds[slot] == "notify" for slot in slots):
        return False
    if op[0] in ("swap_out", "swap_in"):
        return not any(kind == "ModelError" for kind, _ in outcomes)
    return True


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    directory = tmp_path_factory.mktemp("differential")
    fixtures.write_demo_tree(directory)
    return {kind: EnclaveManifest.load(directory / f"{kind}.manifest") for kind in KINDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_sgx_and_ccx_give_equal_outcomes_and_keep_the_paging_records(seed, manifests):
    rng = random.Random(seed)
    epc = EPC_SIZES[seed % len(EPC_SIZES)]
    ops = _draw(rng)
    kinds = [op[1] for op in ops if op[0] == "load"]
    sgx = _Run(small_config(mode="sgx", epc_size=epc, audit_after_leaf=False), manifests)
    ccx = _Run(small_config(mode="ccx", audit_after_leaf=False), manifests)
    for i, op in enumerate(ops):
        outcomes = [run.apply(op) for run in (sgx, ccx)]
        for run in (sgx, ccx):
            run.check()
        if _compared(op, kinds, outcomes):
            assert outcomes[0] == outcomes[1], f"op {i} {op}: sgx {outcomes[0]}, ccx {outcomes[1]}"
    for run in (sgx, ccx):
        run.teardown()
