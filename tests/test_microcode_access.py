"""Leaves touch memory as microcode, which every protection table admits: no
leaf goes through the checked software accessors
``MachineMemory.read_granule``/``write_granule``.  Software (programs and
the host driver) still does, and still takes protection faults."""

import pytest

from ccxsim import execution, isa
from ccxsim.errors import GranuleProtectionFault, SgxError, SgxErrorCode as E
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE, MachineMemory, PageType, Perms
from ccxsim.runtime import AEP_GATE, RETURN_GATE
from ccxsim.structs import (
    Attributes,
    KeyName,
    KeyRequest,
    PageInfo,
    REPORT_SIZE,
    Report,
    SecInfo,
    SecsImage,
    TargetInfo,
    VA_SLOT_SIZE,
)

from helpers import BASE, build_raw_enclave, free_epc_granules, host_scratch_granules, small_config

MODES = pytest.mark.parametrize("mode", ["sgx", "ccx"])


@pytest.fixture
def checked(monkeypatch):
    """The names of the checked accessors called, in call order."""
    calls = []
    for name in ("read_granule", "write_granule"):
        def spy(self, *args, _real=getattr(MachineMemory, name), _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(MachineMemory, name, spy)
    return calls


def _leaf_only(checked, call, *args):
    """Run one leaf-side call and assert it made no checked access."""
    checked.clear()
    result = call(*args)
    assert checked == []
    return result


def _thread_enclave(m, notify=False):
    return build_raw_enclave(
        m,
        attributes=Attributes(debug=True, aexnotify_allowed=notify),
        page_specs=[
            (0x0000, "rx", b"\x11" * GRANULE_SIZE),
            (0x1000, "rw", b"\x22" * GRANULE_SIZE),
            (0x2000, "rw", b""),
            (0x3000, "rw", b""),
        ],
        tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000, "aexnotify": notify}],
    )


def _gadget(service):
    def call(m, leaf, a1=0, a2=0, a3=0):
        execution.gadget_trap(m, m.vcpus[0], execution.TrapFrame(service, leaf, a1, a2, a3))
    return call


_encls = _gadget(execution.SMC_ID_ENCLS)
_enclu = _gadget(execution.SMC_ID_ENCLU)


@MODES
def test_version_array_and_swap_leaves_make_no_checked_access(mode, checked):
    m = Machine(small_config(mode=mode))
    enc = build_raw_enclave(m)
    page_g = enc.granule(0x1000)
    va_g, target, again = free_epc_granules(m, 3)
    checked.clear()
    m.leaf("EPA", va_g)
    m.leaf("EBLOCK", page_g)
    m.leaf("ETRACK", enc.eid)
    blob = m.leaf("EWB", page_g, va_g, 0)
    m.leaf("ELDB", blob.ciphertext, blob.pcmd, va_g, 0, target, enc.eid)
    m.leaf("ETRACK", enc.eid)
    blob = m.leaf("EWB", target, va_g, 1)
    m.leaf("ELDU", blob.ciphertext, blob.pcmd, va_g, 1, again, enc.eid)
    assert m.leaf("EDBGRD", again, 0, 8) == b"\x22" * 8
    assert checked == []
    m.audit()


@MODES
def test_exit_resume_and_save_state_retire_make_no_checked_access(mode, checked):
    m = Machine(small_config(mode=mode))
    vcpu = m.vcpus[0]
    for notify in (False, True):
        enc = _thread_enclave(m, notify)
        tcs_g = enc.granule(0x4000)
        checked.clear()
        m.enclu(vcpu, 0x2, tcs_g, AEP_GATE)  # EENTER
        vcpu.regs[7] = 0x77
        m.inject_interrupt(vcpu)  # AEX: the frame is stored, CSSA goes to 1
        m.enclu(vcpu, 0x3, tcs_g, AEP_GATE)  # ERESUME
        if notify:  # the handler runs at CSSA 1 and retires the frame
            assert m.read_tcs(tcs_g).cssa == 1
            m.enclu(vcpu, 0x9)  # EDECCSSA
        else:  # the frame is loaded back
            assert vcpu.regs[7] == 0x77
        assert m.read_tcs(tcs_g).cssa == 0
        m.enclu(vcpu, 0x4, RETURN_GATE)  # EEXIT
        assert checked == []
    m.audit()


@MODES
def test_debug_access_and_copy_accept_make_no_checked_access(mode, checked):
    m = Machine(small_config(mode=mode))
    vcpu = m.vcpus[0]
    enc = _thread_enclave(m)
    (g,) = free_epc_granules(m, 1)
    checked.clear()
    m.leaf("EDBGWR", enc.granule(0x1000), 8, b"debugged")
    assert m.leaf("EDBGRD", enc.granule(0x1000), 8, 8) == b"debugged"
    m.leaf("EAUG", enc.eid, BASE + 0x8000, g)
    m.enclu(vcpu, 0x2, enc.granule(0x4000), AEP_GATE)
    m.enclu(vcpu, 0x7, g, BASE + 0x1000, SecInfo(Perms.R | Perms.W, PageType.REG))
    m.enclu(vcpu, 0x4, RETURN_GATE)
    assert m.leaf("EDBGRD", g, 8, 8) == b"debugged"
    assert checked == []
    m.audit()


@MODES
def test_gadget_report_and_key_buffers_make_no_checked_access(mode, checked):
    m = Machine(small_config(mode=mode))
    vcpu = m.vcpus[0]
    enc = _thread_enclave(m)
    scratch_g, scratch = enc.granule(0x1000), BASE + 0x1000
    mrenclave = m.enclaves[enc.eid].mrenclave
    m.leaf("EDBGWR", scratch_g, 0, TargetInfo(mrenclave).pack())
    m.leaf("EDBGWR", scratch_g, 512, bytes(range(64)))
    m.enclu(vcpu, 0x2, enc.granule(0x4000), AEP_GATE)
    _leaf_only(checked, _enclu, m, 0x0, scratch, scratch + 512, scratch + 1024)  # EREPORT
    report = Report.from_bytes(m.leaf("EDBGRD", scratch_g, 1024, REPORT_SIZE))
    m.leaf("EDBGWR", scratch_g, 2048, KeyRequest(KeyName.REPORT, keyid=report.keyid).pack())
    _leaf_only(checked, _enclu, m, 0x1, scratch + 2048, scratch + 3072)  # EGETKEY
    m.enclu(vcpu, 0x4, RETURN_GATE)
    key = m.leaf("EDBGRD", scratch_g, 3072, 16)
    assert report.reportdata == bytes(range(64))
    assert m.crypto.report_mac(key, report.body_bytes()) == report.mac


@MODES
def test_encls_with_host_structures_makes_no_checked_access(mode, checked):
    """The gadget reads PAGEINFO, SECS image, source page and PCMD from host
    memory and writes the sealed page back there, all unchecked: each
    structure was found reachable from the normal world before the leaf ran."""
    m = Machine(small_config(mode=mode))
    params, source, sealed = host_scratch_granules(m, 3)
    info_at = params * GRANULE_SIZE
    secs_at, pcmd_at = info_at + 64, info_at + 512
    secs_g, page_g, va_g, target = free_epc_granules(m, 4)
    m.host_write(params, 0, PageInfo(0, secs_at, 0, 0).pack())
    m.host_write(params, 64, SecsImage(1 << 21, BASE, 1, Attributes(debug=True).encode()).pack())
    _leaf_only(checked, _encls, m, 0x0, info_at, secs_g)  # ECREATE
    eid = m.vcpus[0].regs[1]
    m.host_write(source, 0, b"\x5c" * GRANULE_SIZE)
    m.host_write(params, 0, PageInfo(BASE, source * GRANULE_SIZE,
                                     SecInfo(Perms.R | Perms.W, PageType.REG).word(), eid).pack())
    _leaf_only(checked, _encls, m, 0x1, info_at, page_g)  # EADD
    _leaf_only(checked, _encls, m, 0x6, eid, BASE)  # EEXTEND
    sig = m.crypto.sign_sigstruct(m.enclaves[eid].mrenclave_state.copy().final(),
                                  m.enclaves[eid].attributes.signed_view(), 0, 0)
    m.host_write(params, 1024, sig.to_bytes())
    _leaf_only(checked, _encls, m, 0x2, eid, info_at + 1024)  # EINIT
    m.leaf("EPA", va_g)
    m.leaf("EBLOCK", page_g)
    m.leaf("ETRACK", eid)
    m.host_write(params, 0, PageInfo(0, sealed * GRANULE_SIZE, pcmd_at, 0).pack())
    slot = va_g * GRANULE_SIZE + 2 * VA_SLOT_SIZE
    _leaf_only(checked, _encls, m, 0xB, info_at, page_g, slot)  # EWB
    m.host_write(params, 0, PageInfo(0, sealed * GRANULE_SIZE, pcmd_at, eid).pack())
    _leaf_only(checked, _encls, m, 0x8, info_at, target, slot)  # ELDU
    assert m.leaf("EDBGRD", target, 0, 8) == b"\x5c" * 8
    m.audit()


@MODES
def test_software_accesses_stay_checked_and_fault(mode, checked):
    m = Machine(small_config(mode=mode))
    enc = build_raw_enclave(m)
    code, data = host_scratch_granules(m, 2)
    secret = enc.granule(0x0) * GRANULE_SIZE
    m.host_write(code, 0, isa.assemble([
        ("movi", 5, data * GRANULE_SIZE), ("movi", 6, 42), ("store", 6, 5, 0),
        ("load", 7, 5, 0), ("movi", 5, secret), ("load", 8, 5, 0), ("halt",),
    ], origin=code * GRANULE_SIZE))
    vcpu = m.vcpus[0]
    vcpu.pc = code * GRANULE_SIZE
    checked.clear()
    report = m.step(vcpu, 10)
    assert vcpu.regs[7] == 42
    assert report.stop == "fault" and report.fault["kind"] == "gpf"
    assert m.memory.gpf_log[-1].granule == enc.granule(0x0)
    assert "write_granule" in checked and "read_granule" in checked
    faults = len(m.memory.gpf_log)
    checked.clear()
    with pytest.raises(GranuleProtectionFault):
        m.host_read(enc.granule(0x0), 0, 8)
    assert checked == ["read_granule"]
    assert len(m.memory.gpf_log) == faults + 1


@pytest.mark.parametrize("offset, length", [(-8, 8), (GRANULE_SIZE - 4, 8), (8, -1)])
def test_a_debug_read_leaving_its_page_is_refused_by_the_leaf(machine, checked, offset, length):
    """The leaf's own bound stands where the checked read's range check was:
    a negative length is refused as well as an offset off the page."""
    enc = build_raw_enclave(machine)
    checked.clear()
    with pytest.raises(SgxError) as exc:
        machine.leaf("EDBGRD", enc.granule(0x1000), offset, length)
    assert exc.value.code == E.BAD_VADDR
    assert checked == []
