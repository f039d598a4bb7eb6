"""Crypto engine: hashing, signing, derivation, sealing, MACs."""

import hashlib
import hmac

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ccxsim.crypto import SIGNATURE_MEMO_SIZE, CryptoEngine, DeviceSecrets, RunningHash
from ccxsim.errors import AuthenticationFailure, ModelError
from ccxsim.structs import SigStruct

# Published digest of the empty input for the chosen hash function.
SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


@pytest.fixture
def engine() -> CryptoEngine:
    return CryptoEngine(DeviceSecrets.from_seed_int(2024))


# ---------------------------------------------------------------------------
# Measurement hash


def test_empty_finalize_matches_reference_vector(engine):
    assert engine.hash_init().final() == SHA256_EMPTY


def test_absorb_order_matters(engine):
    a, b = b"A" * 64, b"B" * 64
    h1 = engine.hash_init().absorb(a).absorb(b).final()
    h2 = engine.hash_init().absorb(b).absorb(a).final()
    assert h1 != h2


def test_copied_state_finalizes_like_original(engine):
    state = engine.hash_init().absorb(b"X" * 64)
    peeked = state.copy().final()
    state.absorb(b"Y" * 64)
    assert peeked == engine.hash_init().absorb(b"X" * 64).final()
    assert state.final() != peeked


def test_blocks_must_be_exactly_64_bytes(engine):
    with pytest.raises(ModelError):
        engine.hash_init().absorb(b"short")


def test_one_absorb_of_five_blocks_equals_five_absorbs(engine):
    blocks = [bytes([i]) * 64 for i in range(5)]
    state = engine.hash_init()
    for block in blocks:
        state.absorb(block)
    assert engine.hash_init().absorb(b"".join(blocks)).final() == state.final()


@pytest.mark.parametrize("size", [0, 65, 100])
def test_absorb_refuses_anything_but_whole_blocks(engine, size):
    with pytest.raises(ModelError):
        engine.hash_init().absorb(bytes(size))


def test_running_hash_equals_one_shot_sha256():
    blocks = [bytes([i]) * 64 for i in range(10)]
    state = RunningHash()
    for block in blocks:
        state.absorb(block)
    assert state.final() == hashlib.sha256(b"".join(blocks)).digest()


# ---------------------------------------------------------------------------
# Identity statements


def test_sign_then_verify(engine):
    sig = engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3)
    ok, signer = engine.verify_sigstruct(sig)
    assert ok
    assert signer == hashlib.sha256(sig.public_key).digest()


def test_verify_fails_after_body_mutation(engine):
    sig = engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3)
    tampered = SigStruct.from_bytes(sig.to_bytes())
    tampered.isv_svn ^= 1
    ok, _ = engine.verify_sigstruct(tampered)
    assert not ok


def test_verify_fails_on_flipped_signature_byte(engine):
    sig = engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3)
    sig.signature = bytes([sig.signature[0] ^ 1]) + sig.signature[1:]
    ok, _ = engine.verify_sigstruct(sig)
    assert not ok


def test_distinct_signer_labels_have_distinct_identities(engine):
    assert engine.mrsigner("default") != engine.mrsigner("vendor-b")
    assert engine.mrsigner("default") == engine.mrsigner()


def test_sigstruct_serialization_round_trip(engine):
    sig = engine.sign_sigstruct(b"\x17" * 32, 0x705, 19, 4)
    again = SigStruct.from_bytes(sig.to_bytes())
    assert again == sig


# A good SIGSTRUCT verified once sits in the verify memo; each of these
# changes one input, which must miss the memo and fail the full check.
def _flip_signature(sig, _engine):
    sig.signature = bytes([sig.signature[0] ^ 1]) + sig.signature[1:]


def _change_body(sig, _engine):
    sig.isv_svn ^= 1


def _other_signer(sig, engine):
    sig.public_key = engine.secrets.public_bytes("vendor-b")


@pytest.mark.parametrize("tamper", [_flip_signature, _change_body, _other_signer])
def test_a_tampered_sigstruct_fails_after_the_good_one_was_verified(engine, tamper):
    good = engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3)
    assert engine.verify_sigstruct(good)[0]
    assert engine.verify_sigstruct(SigStruct.from_bytes(good.to_bytes()))[0]
    bad = SigStruct.from_bytes(good.to_bytes())
    tamper(bad, engine)
    for _ in range(2):  # a failure is not remembered either
        ok, signer = engine.verify_sigstruct(bad)
        assert not ok and signer == hashlib.sha256(bad.public_key).digest()
    assert engine.verify_sigstruct(good)[0]


def test_a_remembered_signature_equals_a_fresh_one(engine):
    first = engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3, "vendor-a")
    fresh = CryptoEngine(DeviceSecrets.from_seed_int(2024))
    assert engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3, "vendor-a") == first
    assert fresh.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3, "vendor-a") == first
    # the same body under another signer is signed by that signer
    other = engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3, "vendor-b")
    assert other.public_key != first.public_key and other.signature != first.signature
    assert engine.verify_sigstruct(other)[0]


def test_mutating_a_returned_sigstruct_leaves_the_next_signing_alone(engine):
    first = engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3)
    signature = first.signature
    first.signature = bytes(64)
    first.enclavehash = b"\x00" * 32
    again = engine.sign_sigstruct(b"\x42" * 32, 0x5, 7, 3)
    assert again.signature == signature and again.enclavehash == b"\x42" * 32
    assert engine.verify_sigstruct(again)[0]


def test_neither_signature_memo_outgrows_its_bound(engine):
    for i in range(SIGNATURE_MEMO_SIZE + 20):
        sig = engine.sign_sigstruct(i.to_bytes(32, "little"), 0x5, 7, 3)
        assert engine.verify_sigstruct(sig)[0]
        assert len(engine._signed) <= SIGNATURE_MEMO_SIZE
        assert len(engine._verified) <= SIGNATURE_MEMO_SIZE
    assert len(engine._signed) == len(engine._verified) == SIGNATURE_MEMO_SIZE
    # a body the memos dropped still signs and verifies
    oldest = engine.sign_sigstruct((0).to_bytes(32, "little"), 0x5, 7, 3)
    assert engine.verify_sigstruct(oldest)[0]


# ---------------------------------------------------------------------------
# Key derivation


def test_derivation_changes_with_every_component(engine):
    base = dict(name=1, identity=b"\x01" * 32, svn=2, keyid=b"\x02" * 32)
    k0 = engine.derive_key(**base)
    assert engine.derive_key(**{**base, "name": 2}) != k0
    assert engine.derive_key(**{**base, "identity": b"\x03" * 32}) != k0
    assert engine.derive_key(**{**base, "svn": 3}) != k0
    assert engine.derive_key(**{**base, "keyid": b"\x04" * 32}) != k0
    assert engine.derive_key(**{**base, "owner_epoch": b"\x05" * 16}) != k0
    assert engine.derive_key(**base) == k0
    assert len(k0) == 16


def test_derived_keys_equal_the_per_call_formula(engine):
    """The KDF root key is built once; every key is still the HMAC of the
    message under the root key derived for the purpose ``kdf``."""
    for name, identity, svn, keyid, epoch in [
        (1, b"\x01" * 32, 2, b"\x02" * 32, None),
        (4, b"\xff" * 32, 0xFFFF, b"\x00" * 32, b"\x05" * 16),
        (0, bytes(range(32)), 7, bytes(range(32, 64)), None),
    ]:
        msg = (b"ccx-kdf-v1" + (name | svn << 16).to_bytes(4, "little") + identity + keyid
               + (engine.secrets.owner_epoch if epoch is None else epoch))
        root = engine.secrets.root_mac_key(b"kdf")
        expected = hmac.new(root, msg, hashlib.sha256).digest()[:16]
        assert engine.derive_key(name, identity, svn, keyid, epoch) == expected


def test_ten_thousand_derivations_no_collisions(engine):
    seen = set()
    for i in range(10_000):
        keyid = i.to_bytes(32, "little")
        seen.add(engine.derive_key(1, b"\0" * 32, 0, keyid))
    assert len(seen) == 10_000


# ---------------------------------------------------------------------------
# Page sealing


def test_page_seal_round_trip(engine):
    key = engine.swap_key()
    page = bytes(range(256)) * 16
    ct, mac = engine.page_seal(key, page, b"aad|version1")
    assert engine.page_unseal(key, ct, b"aad|version1", mac) == page


def test_page_seal_with_the_kept_swap_cipher_equals_a_fresh_cipher(engine):
    """The swap key's cipher is built once; what it seals and opens is what a
    cipher built for the call gives."""
    key = engine.swap_key()
    page = bytes(range(256)) * 16
    aad = b"aad|version1"
    ct, mac = engine.page_seal(key, page, aad)
    assert ct + mac == AESGCM(key).encrypt(engine._page_iv(aad), page, aad)
    assert engine.page_unseal(key, ct, aad, mac) == page
    other, nonce = bytes(16), bytes(12)
    assert b"".join(engine.blob_seal(other, nonce, page, aad)) == AESGCM(other).encrypt(nonce, page, aad)


def test_flipped_aad_version_byte_fails_authentication(engine):
    key = engine.swap_key()
    page = b"\x5a" * 4096
    ct, mac = engine.page_seal(key, page, b"aad|version1")
    with pytest.raises(AuthenticationFailure):
        engine.page_unseal(key, ct, b"aad|version2", mac)


def test_same_page_two_versions_gives_different_ciphertexts(engine):
    key = engine.swap_key()
    page = b"\x77" * 4096
    ct1, _ = engine.page_seal(key, page, b"meta" + b"\x01" * 8)
    ct2, _ = engine.page_seal(key, page, b"meta" + b"\x02" * 8)
    assert ct1 != ct2


def test_ciphertext_does_not_leak_plaintext_bytes(engine):
    key = engine.swap_key()
    page = bytes(4096)
    ct, _ = engine.page_seal(key, page, b"aad")
    differing = sum(1 for a, b in zip(page, ct) if a != b)
    assert differing / 4096 > 0.95
    # bit-level distance should look like random noise
    bits = sum(bin(a ^ b).count("1") for a, b in zip(page, ct))
    assert 0.45 < bits / (4096 * 8) < 0.55


def test_blob_seal_round_trip_and_tamper(engine):
    key = engine.derive_key(1, b"\0" * 32, 0, b"\0" * 32)
    ct, mac = engine.blob_seal(key, b"\x01" * 12, b"payload", b"aad")
    assert engine.blob_unseal(key, b"\x01" * 12, ct, b"aad", mac) == b"payload"
    with pytest.raises(AuthenticationFailure):
        engine.blob_unseal(key, b"\x01" * 12, ct, b"aad!", mac)


# ---------------------------------------------------------------------------
# Report MAC


def test_report_mac_golden_vector(engine):
    key = b"\x0f" * 16
    body = b"report body bytes"
    # independently computed with the documented construction
    expected = hmac.new(key, body, hashlib.sha256).digest()[:16]
    assert engine.report_mac(key, body) == expected


def test_report_mac_flip_detected(engine):
    key, body = b"\x0f" * 16, b"report body bytes"
    mac = engine.report_mac(key, body)
    assert engine.report_mac(key, body + b"!") != mac
    assert engine.report_mac(b"\x0e" + key[1:], body) != mac


# ---------------------------------------------------------------------------
# Determinism


def test_same_seed_reproduces_everything():
    e1 = CryptoEngine(DeviceSecrets.from_seed_int(99))
    e2 = CryptoEngine(DeviceSecrets.from_seed_int(99))
    assert e1.swap_key() == e2.swap_key()
    assert e1.secrets.owner_epoch == e2.secrets.owner_epoch
    assert e1.secrets.public_bytes() == e2.secrets.public_bytes()
    s1 = e1.sign_sigstruct(b"\x01" * 32, 0, 1, 1)
    s2 = e2.sign_sigstruct(b"\x01" * 32, 0, 1, 1)
    assert s1.to_bytes() == s2.to_bytes()
    assert e1.derive_key(4, b"\x02" * 32, 1, b"\x03" * 32) == e2.derive_key(
        4, b"\x02" * 32, 1, b"\x03" * 32
    )


def test_different_seed_changes_secrets():
    e1 = CryptoEngine(DeviceSecrets.from_seed_int(1))
    e2 = CryptoEngine(DeviceSecrets.from_seed_int(2))
    assert e1.swap_key() != e2.swap_key()
    assert e1.secrets.public_bytes() != e2.secrets.public_bytes()
