"""Leaf refusals that change nothing.  Each case prepares an enclave, then
issues one leaf through ``Machine.leaf`` that must be refused; the test
checks the refusal's code and that the EPCM holds the same entries in the
same order as before.  Each case's id is its function's name, which names
the refusal."""

import pytest

from ccxsim.errors import SgxError, SgxErrorCode as E
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE, PageType, Perms
from ccxsim.runtime import AEP_GATE, RETURN_GATE
from ccxsim.structs import VA_SLOT_COUNT, KeyName, KeyRequest, SecInfo, Tcs

from helpers import BASE, build_raw_enclave, free_epc_granules, small_config

RW_REG = SecInfo(Perms.R | Perms.W, PageType.REG)


def _enclave(m, **kwargs):
    return build_raw_enclave(m, page_specs=[
        (0x0000, "rx", b"\x11" * GRANULE_SIZE),
        (0x1000, "rw", b"\x22" * GRANULE_SIZE),
        (0x2000, "rw", b""),
        (0x3000, "rw", b""),
    ], tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000}], **kwargs)


def _free(m):
    return free_epc_granules(m, 1)[0]


def _blocked_and_tracked(m, enc):
    g = enc.pages[0x1000]
    m.leaf("EBLOCK", g)
    m.leaf("ETRACK", enc.eid)
    return g


def _written_back(m, enc):
    """Write ``enc``'s page at 0x1000 back into slot 0 of a new version
    array: (blob, version array)."""
    va = _free(m)
    m.leaf("EPA", va)
    return m.leaf("EWB", _blocked_and_tracked(m, enc), va, 0), va


def _augmented(m, enc):
    g = _free(m)
    m.leaf("EAUG", enc.eid, BASE + 0x8000, g)
    return g


# Each case prepares ``enc`` and returns the leaf, its arguments, whether a
# core must be inside ``enc`` to issue it, and the code that refuses it.

def _ewb_into_a_page_that_is_no_version_array(m, enc):
    return "EWB", (_blocked_and_tracked(m, enc), enc.pages[0x0], 0), False, E.VA_SLOT_INVALID


def _eldu_from_a_slot_out_of_range(m, enc):
    blob, va = _written_back(m, enc)
    args = (blob.ciphertext, blob.pcmd, va, VA_SLOT_COUNT, _free(m), enc.eid)
    return "ELDU", args, False, E.VA_SLOT_INVALID


def _eldu_into_another_enclave(m, enc):
    blob, va = _written_back(m, enc)
    other = _enclave(m)
    return "ELDU", (blob.ciphertext, blob.pcmd, va, 0, _free(m), other.eid), False, E.PAGE_INVALID


def _eacceptcopy_onto_a_page_that_is_not_pending(m, enc):
    return "EACCEPTCOPY", (enc.pages[0x3000], BASE + 0x1000, RW_REG), True, E.NOT_PENDING


def _eacceptcopy_asking_for_a_tcs(m, enc):
    secinfo = SecInfo(Perms.NONE, PageType.TCS)
    return "EACCEPTCOPY", (_augmented(m, enc), BASE + 0x1000, secinfo), True, E.SECINFO_MISMATCH


def _emodpe_of_a_tcs(m, enc):
    return "EMODPE", (enc.pages[0x4000], Perms.R), True, E.PAGE_INVALID


def _emodpe_of_a_pending_page(m, enc):
    return "EMODPE", (_augmented(m, enc), Perms.X), True, E.PAGE_INVALID


def _egetkey_of_an_unknown_key_name(m, enc):
    return "EGETKEY", (KeyRequest(9),), True, E.POLICY_DENIED


def _egetkey_under_an_unknown_policy(m, enc):
    return "EGETKEY", (KeyRequest(KeyName.SEAL, policy=3),), True, E.POLICY_DENIED


def _eadd_of_a_tcs_with_saved_state(m, enc):
    building = build_raw_enclave(m, init=False)
    tcs = Tcs(oentry=0x0, ossa=0x2000, nssa=1, cssa=1)
    args = (building.eid, BASE + 0x5000, SecInfo(Perms.NONE, PageType.TCS), _free(m), tcs.pack())
    return "EADD", args, False, E.BAD_TCS_LAYOUT


REFUSALS = (
    _ewb_into_a_page_that_is_no_version_array,
    _eldu_from_a_slot_out_of_range,
    _eldu_into_another_enclave,
    _eacceptcopy_onto_a_page_that_is_not_pending,
    _eacceptcopy_asking_for_a_tcs,
    _emodpe_of_a_tcs,
    _emodpe_of_a_pending_page,
    _egetkey_of_an_unknown_key_name,
    _egetkey_under_an_unknown_policy,
    _eadd_of_a_tcs_with_saved_state,
)


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("case", REFUSALS, ids=lambda case: case.__name__.lstrip("_"))
def test_a_refused_leaf_leaves_the_epcm_as_it_was(case, mode):
    m = Machine(small_config(mode=mode))
    enc = _enclave(m)
    name, args, inside, code = case(m, enc)
    vcpu = m.vcpus[0] if inside else None
    if inside:
        m.leaf("EENTER", enc.pages[0x4000], AEP_GATE, vcpu=vcpu)
    before = list(m.memory.epcm.items())
    try:
        with pytest.raises(SgxError) as exc:
            m.leaf(name, *args, vcpu=vcpu)
    finally:
        if inside:
            m.leaf("EEXIT", RETURN_GATE, vcpu=vcpu)
    assert exc.value.code == code, exc.value
    assert list(m.memory.epcm.items()) == before
    m.audit()
