"""The ETRACK/EWB epoch rule against a model of who entered when.

Two initialized enclaves with two threads each run on four vCPUs in any order
of EENTER, EEXIT, AEX, ERESUME, ETRACK, and EBLOCK followed by EWB of a data
page.  The model keeps its own table of which vCPU is inside which enclave
since which track epoch; after every step the outcomes of ETRACK and EWB, and
the count of threads inside from before the current epoch, must match it.
"""

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from ccxsim import EnclaveManifest, fixtures
from ccxsim.errors import SgxError, SgxErrorCode as E
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE
from ccxsim.runtime import AEP_GATE, RETURN_GATE, HostRuntime

from helpers import free_epc_granules, small_config

EENTER, ERESUME, EEXIT = 0x2, 0x3, 0x4
NSSA = 2
VCPUS = 4
DATA_OFF = 0x10000
DATA_PAGES = 2

# A second thread with save-state pages of its own, and data pages to write back.
SECOND_SSA_OFF = 0x8000
SECOND_TCS_OFF = SECOND_SSA_OFF + NSSA * GRANULE_SIZE
EXTRA_LINES = [
    f"page vaddr={SECOND_SSA_OFF:#x} perms=rw content=zero count={NSSA} measured=yes",
    f"tcs vaddr={SECOND_TCS_OFF:#x} oentry={fixtures.CODE_OFF:#x} ossa={SECOND_SSA_OFF:#x}"
    f" tls={fixtures.SCRATCH_OFF:#x}",
    f"page vaddr={DATA_OFF:#x} perms=rw content=zero count={DATA_PAGES} measured=no",
]

enclaves = st.integers(0, 1)
pages = st.integers(0, DATA_PAGES - 1)


class EpochRule(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rt = HostRuntime(Machine(small_config(vcpu_count=VCPUS)))
        self.m = self.rt.machine
        assert self.m.config.audit_after_leaf
        self.handles = [
            self.rt.load_enclave(EnclaveManifest.parse(fixtures.build_manifest_text(
                fixtures.compute_program(), name=f"e{i}", nssa=NSSA, extra_lines=EXTRA_LINES)))
            for i in range(2)
        ]
        self.va = free_epc_granules(self.m, 1)[0]
        self.m.leaf("EPA", self.va)
        # The model: vcpu -> (enclave, thread, entry epoch), each enclave's
        # track epoch, each thread's save-state index, and each blocked data
        # page's epoch at blocking.
        self.inside = {}
        self.epoch = [0, 0]
        self.cssa = {(e, t): 0 for e in range(2) for t in range(2)}
        self.blocked = {}

    def _tcs_granule(self, enclave, thread):
        handle = self.handles[enclave]
        return self.m.memory.find_page(handle.eid, handle.tcs_vaddrs[thread])

    def _before_track(self, enclave):
        return sum(1 for e, _, epoch in self.inside.values()
                   if e == enclave and epoch < self.epoch[enclave])

    def _switch_in(self, vcpu, enclave, thread, leaf):
        self.m.enclu(self.m.vcpus[vcpu], leaf, self._tcs_granule(enclave, thread), AEP_GATE)
        self.inside[vcpu] = (enclave, thread, self.epoch[enclave])

    def _idle(self, ready):
        """Every (vcpu, enclave, thread) with the vCPU in host mode and the
        thread free and ``ready``."""
        busy = {where[:2] for where in self.inside.values()}
        return [(vcpu, enclave, thread) for vcpu in range(VCPUS) if vcpu not in self.inside
                for (enclave, thread), cssa in self.cssa.items()
                if (enclave, thread) not in busy and ready(cssa)]

    @precondition(lambda self: self._idle(lambda cssa: cssa < NSSA))
    @rule(data=st.data())
    def eenter(self, data):
        vcpu, enclave, thread = data.draw(st.sampled_from(self._idle(lambda cssa: cssa < NSSA)))
        self._switch_in(vcpu, enclave, thread, EENTER)

    @precondition(lambda self: self._idle(lambda cssa: cssa > 0))
    @rule(data=st.data())
    def eresume(self, data):
        vcpu, enclave, thread = data.draw(st.sampled_from(self._idle(lambda cssa: cssa > 0)))
        self._switch_in(vcpu, enclave, thread, ERESUME)
        self.cssa[enclave, thread] -= 1

    @precondition(lambda self: self.inside)
    @rule(data=st.data())
    def eexit(self, data):
        vcpu = data.draw(st.sampled_from(sorted(self.inside)))
        self.m.enclu(self.m.vcpus[vcpu], EEXIT, RETURN_GATE)
        del self.inside[vcpu]

    @precondition(lambda self: self.inside)
    @rule(data=st.data())
    def aex(self, data):
        vcpu = data.draw(st.sampled_from(sorted(self.inside)))
        self.m.inject_interrupt(self.m.vcpus[vcpu])
        enclave, thread, _ = self.inside.pop(vcpu)
        self.cssa[enclave, thread] += 1

    @rule(enclave=enclaves)
    def etrack(self, enclave):
        drained = self._before_track(enclave) == 0
        try:
            self.m.leaf("ETRACK", self.handles[enclave].eid)
        except SgxError as err:
            assert not drained and err.code == E.PREV_TRK_INCMPL
        else:
            assert drained
            self.epoch[enclave] += 1

    @rule(enclave=enclaves, page=pages)
    def eblock_then_ewb(self, enclave, page):
        handle = self.handles[enclave]
        vaddr = handle.base + DATA_OFF + page * GRANULE_SIZE
        granule = self.m.memory.find_page(handle.eid, vaddr)
        if (enclave, page) not in self.blocked:
            self.m.leaf("EBLOCK", granule)
            self.blocked[enclave, page] = self.epoch[enclave]
        tracked = self.epoch[enclave] > self.blocked[enclave, page]
        drained = self._before_track(enclave) == 0
        try:
            blob = self.m.leaf("EWB", granule, self.va, 0)
        except SgxError as err:
            assert not (tracked and drained) and err.code == E.NOT_TRACKED
            return
        assert tracked and drained
        del self.blocked[enclave, page]
        # Load the page back, unblocked, so it can be written back again.
        target = free_epc_granules(self.m, 1)[0]
        self.m.leaf("ELDU", blob.ciphertext, blob.pcmd, self.va, 0, target, handle.eid)

    @invariant()
    def cores_match_the_model(self):
        for enclave, handle in enumerate(self.handles):
            secs = self.m.enclaves[handle.eid]
            assert secs.track_epoch == self.epoch[enclave]
            assert secs.threads_before(secs.track_epoch) == self._before_track(enclave)
            assert secs.entered_counts == dict(Counter(
                epoch for e, _, epoch in self.inside.values() if e == enclave))
        for vcpu in self.m.vcpus:
            where = self.inside.get(vcpu.id)
            assert vcpu.cur_eid == (None if where is None else self.handles[where[0]].eid)
            assert vcpu.entry_epoch == (None if where is None else where[2])


EpochRule.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
test_epoch_rule_matches_the_model = EpochRule.TestCase
