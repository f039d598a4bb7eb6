"""Reports, key derivation policies, and sealed storage."""

import dataclasses

import pytest

from ccxsim import fixtures
from ccxsim.errors import ModelError, SgxError, SgxErrorCode as E
from ccxsim.machine import Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.runtime import HostRuntime
from ccxsim.structs import (
    KeyName,
    KeyPolicy,
    KeyRequest,
    Report,
    TargetInfo,
)

from helpers import small_config


@pytest.fixture
def attest_env(fixture_dir):
    machine = Machine(small_config(granule_count=1024, epc_base=32, epc_size=512))
    rt = HostRuntime(machine)

    def load(name, **kw):
        path = fixtures.write_standard_manifest(fixture_dir, name, **kw)
        return rt.load_enclave(EnclaveManifest.load(path))

    a = load("att_a", salt=b"enclave a")
    b = load("att_b", salt=b"enclave b")
    return machine, rt, a, b, load


# ---------------------------------------------------------------------------
# Reports


def test_mutual_reports_verify(attest_env):
    machine, rt, a, b, _ = attest_env
    outcome = rt.attest(a, b)
    assert outcome.a_to_b and outcome.b_to_a and outcome.mutual
    assert outcome.report_ab.mrenclave == a.mrenclave
    assert outcome.report_ab.mrsigner == a.mrsigner


def test_report_requires_enclave_mode(attest_env):
    machine, rt, a, b, _ = attest_env
    with pytest.raises(SgxError) as exc:
        machine.enclu(machine.vcpus[0], 0x0, TargetInfo(b.mrenclave), bytes(64))
    assert exc.value.code == E.INVALID_MODE


@pytest.mark.parametrize("call", ["seal", "unseal", "get_report", "ecall"])
def test_every_driver_entry_refuses_a_busy_vcpu_before_any_leaf(attest_env, call):
    """A vCPU that is already inside an enclave is refused with a ModelError
    by each driver entry, and no EENTER is counted: unseal does not pass the
    refusal off as a key policy that said no."""
    machine, rt, a, b, _ = attest_env
    blob = rt.seal(b, KeyPolicy.MRENCLAVE, b"payload")
    entries = {
        "seal": lambda: rt.seal(b, KeyPolicy.MRENCLAVE, b"payload"),
        "unseal": lambda: rt.unseal(b, blob),
        "get_report": lambda: rt.get_report(b, a, bytes(64)),
        "ecall": lambda: rt.ecall(b, 0, 0),
    }
    with rt.entered(a) as vcpu:
        entered = dict(machine.counters)
        with pytest.raises(ModelError, match=f"vcpu {vcpu.id} is already inside an enclave"):
            entries[call]()
        assert machine.counters == entered
    assert rt.unseal(b, blob) == b"payload"


@pytest.mark.parametrize("call", ["destroy", "ecall", "seal", "unseal", "attest", "get_report",
                                  "verify_report", "entered"])
def test_every_driver_entry_refuses_a_destroyed_enclave(attest_env, call):
    """A handle whose enclave was destroyed is refused with a ModelError that
    names the enclave, before any leaf runs."""
    machine, rt, a, b, _ = attest_env
    blob = rt.seal(b, KeyPolicy.MRENCLAVE, b"payload")
    report = rt.get_report(a, b, bytes(64))
    rt.destroy(b)

    def entered():
        with rt.entered(b):
            pass

    entries = {
        "destroy": lambda: rt.destroy(b),
        "ecall": lambda: rt.ecall(b, 0, 0),
        "seal": lambda: rt.seal(b, KeyPolicy.MRENCLAVE, b"payload"),
        "unseal": lambda: rt.unseal(b, blob),
        "attest": lambda: rt.attest(b, a),
        "get_report": lambda: rt.get_report(b, a, bytes(64)),
        "verify_report": lambda: rt.verify_report(b, report),
        "entered": entered,
    }
    before = dict(machine.counters)
    with pytest.raises(ModelError, match=f"enclave {b.name} .* is not loaded"):
        entries[call]()
    assert machine.counters == before


def test_any_tampered_report_field_fails(attest_env):
    machine, rt, a, b, _ = attest_env
    report = rt.get_report(a, b, bytes(64))
    assert rt.verify_report(b, report)
    mutations = {
        "mrenclave": b"\x99" * 32,
        "mrsigner": b"\x98" * 32,
        "isv_prod_id": report.isv_prod_id + 1,
        "isv_svn": report.isv_svn + 1,
        "attributes": report.attributes ^ 1,
        "reportdata": b"\x01" + bytes(63),
        "keyid": b"\x97" * 32,
        "mac": bytes([report.mac[0] ^ 1]) + report.mac[1:],
    }
    for field, value in mutations.items():
        tampered = dataclasses.replace(report, **{field: value})
        assert not rt.verify_report(b, tampered), field


def test_report_to_self_verifies(attest_env):
    machine, rt, a, b, _ = attest_env
    report = rt.get_report(a, a, bytes(64))
    assert rt.verify_report(a, report)


def test_report_to_wrong_target_fails(attest_env):
    machine, rt, a, b, load = attest_env
    c = load("att_c", salt=b"enclave c")
    report = rt.get_report(a, b, bytes(64))
    assert not rt.verify_report(c, report)


def test_reportdata_round_trips(attest_env):
    machine, rt, a, b, _ = attest_env
    data = bytes(range(64))
    report = rt.get_report(a, b, data)
    assert report.reportdata == data
    assert Report.from_bytes(report.to_bytes()).reportdata == data


# ---------------------------------------------------------------------------
# Key derivation policies


def test_same_request_same_key(attest_env):
    machine, rt, a, b, _ = attest_env
    request = KeyRequest(KeyName.SEAL, KeyPolicy.MRENCLAVE, 1, b"\x01" * 32)
    with rt.entered(a) as vcpu:
        k1 = machine.enclu(vcpu, 0x1, request)
        k2 = machine.enclu(vcpu, 0x1, request)
    assert k1 == k2 and len(k1) == 16


def test_mrenclave_policy_separates_enclaves(attest_env):
    machine, rt, a, b, _ = attest_env
    request = KeyRequest(KeyName.SEAL, KeyPolicy.MRENCLAVE, 1, b"\x01" * 32)
    with rt.entered(a) as vcpu:
        ka = machine.enclu(vcpu, 0x1, request)
    with rt.entered(b) as vcpu:
        kb = machine.enclu(vcpu, 0x1, request)
    assert ka != kb


def test_mrsigner_policy_shared_by_same_signer(attest_env):
    machine, rt, a, b, load = attest_env
    v = load("att_v", salt=b"vendor enclave", signer="vendor-b")
    request = KeyRequest(KeyName.SEAL, KeyPolicy.MRSIGNER, 1, b"\x02" * 32)
    keys = {}
    for name, h in (("a", a), ("b", b), ("v", v)):
        with rt.entered(h) as vcpu:
            keys[name] = machine.enclu(vcpu, 0x1, request)
    assert keys["a"] == keys["b"]
    assert keys["a"] != keys["v"]


def test_svn_above_enclave_svn_denied(attest_env):
    machine, rt, a, b, _ = attest_env
    svn = machine.enclaves[a.eid].isv_svn
    with rt.entered(a) as vcpu:
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, 0x1, KeyRequest(KeyName.SEAL, KeyPolicy.MRENCLAVE,
                                                svn + 1, bytes(32)))
        assert exc.value.code == E.POLICY_DENIED


def test_svn_lattice_older_keys_derivable(fixture_dir):
    machine = Machine(small_config(granule_count=1024, epc_base=32, epc_size=512))
    rt = HostRuntime(machine)
    path = fixtures.write_standard_manifest(fixture_dir, "svn3", isv_svn=3)
    h = rt.load_enclave(EnclaveManifest.load(path))
    keys = {}
    with rt.entered(h) as vcpu:
        for svn in range(4):
            keys[svn] = machine.enclu(
                vcpu, 0x1, KeyRequest(KeyName.SEAL, KeyPolicy.MRENCLAVE, svn, bytes(32))
            )
        with pytest.raises(SgxError):
            machine.enclu(vcpu, 0x1, KeyRequest(KeyName.SEAL, KeyPolicy.MRENCLAVE, 4, bytes(32)))
    assert len(set(keys.values())) == 4  # distinct key per floor


def test_provisioning_keys_gated_on_attribute(attest_env, fixture_dir):
    machine, rt, a, b, load = attest_env
    with rt.entered(a) as vcpu:
        with pytest.raises(SgxError) as exc:
            machine.enclu(vcpu, 0x1, KeyRequest(KeyName.PROVISION, KeyPolicy.MRSIGNER, 0, bytes(32)))
        assert exc.value.code == E.POLICY_DENIED
    p = load("att_prov", salt=b"provisioning", provision_key=True)
    with rt.entered(p) as vcpu:
        key = machine.enclu(vcpu, 0x1, KeyRequest(KeyName.PROVISION, KeyPolicy.MRSIGNER, 0, bytes(32)))
        seal = machine.enclu(vcpu, 0x1, KeyRequest(KeyName.PROVISION_SEAL, KeyPolicy.MRSIGNER, 0, bytes(32)))
    assert len(key) == 16 and key != seal


def test_report_key_ignores_request_svn(attest_env):
    machine, rt, a, b, _ = attest_env
    keyid = b"\x0c" * 32
    with rt.entered(a) as vcpu:
        k1 = machine.enclu(vcpu, 0x1, KeyRequest(KeyName.REPORT, KeyPolicy.MRENCLAVE, 0, keyid))
        k2 = machine.enclu(vcpu, 0x1, KeyRequest(KeyName.REPORT, KeyPolicy.MRSIGNER, 1, keyid))
    assert k1 == k2


# ---------------------------------------------------------------------------
# Sealed storage


def test_seal_unseal_round_trip_same_enclave(attest_env):
    machine, rt, a, b, _ = attest_env
    blob = rt.seal(a, KeyPolicy.MRENCLAVE, b"secret payload")
    assert rt.unseal(a, blob) == b"secret payload"


def test_mrenclave_sealed_blob_stays_home(attest_env):
    machine, rt, a, b, _ = attest_env
    blob = rt.seal(a, KeyPolicy.MRENCLAVE, b"only for a")
    assert rt.unseal(b, blob) is None
    assert rt.unseal(a, blob) == b"only for a"


def test_unseal_is_refused_by_egetkey_below_the_blobs_svn(attest_env, monkeypatch):
    """A blob sealed at SVN 2 asks for a key that EGETKEY refuses in a
    same-signer enclave at SVN 1, so unseal returns None before it tries the
    blob (``runtime.py:798``); the enclave at SVN 2 unseals it."""
    machine, rt, a, b, load = attest_env
    newer = load("att_svn2", salt=b"svn 2", isv_svn=2)
    blob = rt.seal(newer, KeyPolicy.MRSIGNER, b"for svn 2 and up")
    assert (blob.isv_svn, machine.enclaves[a.eid].isv_svn) == (2, 1)
    with monkeypatch.context() as patch:
        patch.setattr(machine.crypto, "blob_unseal",
                      lambda *args: pytest.fail("a refused key reached the blob"))
        assert rt.unseal(a, blob) is None
    assert rt.unseal(newer, blob) == b"for svn 2 and up"


def test_mrsigner_sealed_blob_moves_to_sibling(attest_env):
    machine, rt, a, b, load = attest_env
    v = load("att_v2", salt=b"foreign vendor", signer="vendor-b")
    blob = rt.seal(a, KeyPolicy.MRSIGNER, b"vendor data")
    assert rt.unseal(b, blob) == b"vendor data"
    assert rt.unseal(v, blob) is None


def test_a_refused_seal_leaves_the_random_stream_alone(attest_env):
    """A seal that a busy vCPU refuses draws no key id: the stream that later
    seals and swap versions read is where it was."""
    machine, rt, a, b, _ = attest_env
    with rt.entered(a):
        state = machine._rng.getstate()
        with pytest.raises(ModelError, match="already inside an enclave"):
            rt.seal(b, KeyPolicy.MRENCLAVE, b"x")
        assert machine._rng.getstate() == state


def test_tampered_sealed_blob_fails(attest_env):
    machine, rt, a, b, _ = attest_env
    blob = rt.seal(a, KeyPolicy.MRENCLAVE, b"payload")
    bad = dataclasses.replace(
        blob, ciphertext=bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:]
    )
    assert rt.unseal(a, bad) is None
