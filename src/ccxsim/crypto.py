"""Deterministic cryptography for the simulator.

Measurement hashing, identity signing, key derivation, page sealing, and
report MACs all live here.  Every operation is a pure function of its inputs
plus the device secrets, and the device secrets themselves derive from a
config seed, so a whole simulated run replays bit-exactly.

Primitive choices (fixed in this module):
  hash  sha256            (measurement digests, signer digests)
  sign  ed25519           (enclave identity statements)
  kdf   hmac-sha256/16    (key derivation, domain-separated)
  aead  aes-128-gcm       (page sealing; version nonce folded into the IV)
  mac   hmac-sha256/16    (report MACs)
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Dict, Optional, Tuple

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives import serialization

from .errors import AuthenticationFailure, ModelError
from .structs import MEASURE_BLOCK, SigStruct

KEY_SIZE = 16
MAC_SIZE = 16
GCM_IV_SIZE = 12

SIGNATURE_MEMO_SIZE = 64
"""Most entries each of :class:`CryptoEngine`'s two signature memos holds;
the oldest goes first.  A host builds the same few signed enclaves again and
again (``sgx_sign`` signs once, at build time), so a few distinct SIGSTRUCTs
make up nearly every load: the ``enclave_churn`` benchmark loads 8.  A bound
keeps a long run that signs ever new bodies from growing the memos."""


def _remember(memo: Dict, key, value) -> None:
    """Store ``value`` under ``key``, dropping the oldest entry past the bound."""
    memo[key] = value
    if len(memo) > SIGNATURE_MEMO_SIZE:
        del memo[next(iter(memo))]


class RunningHash:
    """Incremental measurement hash over whole 64-byte blocks.

    One absorb takes any non-empty run of whole blocks in one update, so a
    record and the content that follows it can go in together.  Copies are
    independent: finalizing a copy does not disturb the original, which keeps
    the running enclave measurement extendable after peeking.
    """

    def __init__(self, _state=None):
        self._h = _state if _state is not None else hashlib.sha256()

    def absorb(self, blocks: bytes) -> "RunningHash":
        n = len(blocks)
        if not n or n % MEASURE_BLOCK:
            raise ModelError(f"measurement input is whole 64-byte blocks, got {n} bytes")
        self._h.update(blocks)
        return self

    def copy(self) -> "RunningHash":
        return RunningHash(self._h.copy())

    def final(self) -> bytes:
        return self._h.digest()


def _expand(seed: bytes, label: bytes, n: int) -> bytes:
    """Deterministic byte expansion for provisioning secrets from a seed."""
    out = b""
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(seed + label + struct.pack("<I", counter)).digest()
        counter += 1
    return out[:n]


class DeviceSecrets:
    """Per-machine root-of-trust material, derived from a config seed.

    The root seal secret never leaves this module.  Signing keys are test
    fixtures standing in for enclave vendors; distinct labels model distinct
    vendors so signer-bound policies can be exercised.
    """

    def __init__(self, seed: bytes):
        if not seed:
            raise ModelError("device secrets need a non-empty seed")
        self._seed = bytes(seed)
        self._root_seal = _expand(self._seed, b"root-seal", 32)
        self.owner_epoch = _expand(self._seed, b"owner-epoch", 16)
        # label -> (signing key, raw public key), both made on first use
        self._signers: Dict[str, Tuple[ed25519.Ed25519PrivateKey, bytes]] = {}

    @classmethod
    def from_seed_int(cls, seed: int) -> "DeviceSecrets":
        return cls(struct.pack("<Q", seed & ((1 << 64) - 1)))

    def root_mac_key(self, label: bytes) -> bytes:
        # Internal per-purpose keys; still never exported raw.
        return hmac.new(self._root_seal, b"purpose:" + label, hashlib.sha256).digest()

    def _signer(self, label: str) -> Tuple[ed25519.Ed25519PrivateKey, bytes]:
        signer = self._signers.get(label)
        if signer is None:
            raw = _expand(self._seed, b"signer:" + label.encode(), 32)
            key = ed25519.Ed25519PrivateKey.from_private_bytes(raw)
            public = key.public_key().public_bytes(
                serialization.Encoding.Raw, serialization.PublicFormat.Raw
            )
            signer = self._signers[label] = (key, public)
        return signer

    def signing_key(self, label: str = "default") -> ed25519.Ed25519PrivateKey:
        return self._signer(label)[0]

    def public_bytes(self, label: str = "default") -> bytes:
        return self._signer(label)[1]


class CryptoEngine:
    """All measurement, signing, derivation, sealing, and MAC operations.

    Signing and verifying a SIGSTRUCT are pure functions of their inputs
    (ed25519 signatures are deterministic), so each keeps a bounded memo.
    The sign memo maps a signer label and body to the signature bytes, never
    to a mutable :class:`SigStruct`.  The verify memo holds only the exact
    (public key, signature, body) triples that verified, so a signature that
    fails always pays the full check.
    """

    def __init__(self, secrets: DeviceSecrets):
        self.secrets = secrets
        # Every EWB and ELDU seals with this key, so it and its cipher are
        # built once; so is the root key of every EREPORT and EGETKEY.
        self._swap_key = secrets.root_mac_key(b"page-swap")[:KEY_SIZE]
        self._swap_cipher = AESGCM(self._swap_key)
        self._kdf_key = secrets.root_mac_key(b"kdf")
        self._signed: Dict[Tuple[str, bytes], bytes] = {}
        self._verified: Dict[Tuple[bytes, bytes, bytes], bytes] = {}

    # -- measurement hashing -------------------------------------------------

    def hash_init(self) -> RunningHash:
        return RunningHash()

    def digest(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    # -- identity statements ---------------------------------------------------

    def sign_sigstruct(
        self,
        enclavehash: bytes,
        attributes: int,
        isv_prod_id: int,
        isv_svn: int,
        signer_label: str = "default",
    ) -> SigStruct:
        sig = SigStruct(
            enclavehash=enclavehash,
            attributes=attributes,
            isv_prod_id=isv_prod_id,
            isv_svn=isv_svn,
            public_key=self.secrets.public_bytes(signer_label),
            signature=b"",
        )
        key = (signer_label, sig.body_bytes())
        signature = self._signed.get(key)
        if signature is None:
            signature = self.secrets.signing_key(signer_label).sign(key[1])
            _remember(self._signed, key, signature)
        sig.signature = signature
        return sig

    def verify_sigstruct(self, sig: SigStruct) -> Tuple[bool, bytes]:
        """Returns (ok, signer digest); the digest is valid either way."""
        key = (bytes(sig.public_key), bytes(sig.signature), sig.body_bytes())
        signer_digest = self._verified.get(key)
        if signer_digest is not None:
            return True, signer_digest
        signer_digest = self.digest(sig.public_key)
        try:
            pub = ed25519.Ed25519PublicKey.from_public_bytes(sig.public_key)
            pub.verify(sig.signature, key[2])
        except (InvalidSignature, ValueError):
            return False, signer_digest
        _remember(self._verified, key, signer_digest)
        return True, signer_digest

    def mrsigner(self, signer_label: str = "default") -> bytes:
        return self.digest(self.secrets.public_bytes(signer_label))

    # -- key derivation ---------------------------------------------------------

    def derive_key(
        self,
        name: int,
        identity: bytes,
        svn: int,
        keyid: bytes,
        owner_epoch: Optional[bytes] = None,
    ) -> bytes:
        if len(identity) != 32 or len(keyid) != 32:
            raise ModelError("identity and keyid must be 32 bytes")
        epoch = self.secrets.owner_epoch if owner_epoch is None else owner_epoch
        msg = (
            b"ccx-kdf-v1"
            + struct.pack("<HH", name, svn)
            + identity
            + keyid
            + epoch
        )
        return hmac.new(self._kdf_key, msg, hashlib.sha256).digest()[:KEY_SIZE]

    def swap_key(self) -> bytes:
        return self._swap_key

    # -- authenticated encryption -------------------------------------------------

    def blob_seal(
        self, key: bytes, nonce: bytes, plaintext: bytes, aad: bytes
    ) -> Tuple[bytes, bytes]:
        if len(nonce) != GCM_IV_SIZE:
            raise ModelError("GCM nonce must be 12 bytes")
        sealed = self._cipher(key).encrypt(nonce, plaintext, aad)
        return sealed[:-MAC_SIZE], sealed[-MAC_SIZE:]

    def blob_unseal(
        self, key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes, mac: bytes
    ) -> bytes:
        try:
            return self._cipher(key).decrypt(nonce, ciphertext + mac, aad)
        except InvalidTag:
            raise AuthenticationFailure("AEAD authentication failed") from None

    def _cipher(self, key: bytes) -> AESGCM:
        return self._swap_cipher if key == self._swap_key else AESGCM(key)

    def _page_iv(self, aad: bytes) -> bytes:
        # The version nonce rides at the tail of the aad, so distinct versions
        # give distinct IVs even for identical page content.
        return hashlib.sha256(b"ccx-page-iv" + aad).digest()[:GCM_IV_SIZE]

    def page_seal(self, key: bytes, plaintext: bytes, aad: bytes) -> Tuple[bytes, bytes]:
        if len(plaintext) != 4096:
            raise ModelError("page sealing works on whole 4096-byte pages")
        return self.blob_seal(key, self._page_iv(aad), plaintext, aad)

    def page_unseal(self, key: bytes, ciphertext: bytes, aad: bytes, mac: bytes) -> bytes:
        return self.blob_unseal(key, self._page_iv(aad), ciphertext, aad, mac)

    # -- report MACs -------------------------------------------------------------

    def report_mac(self, report_key: bytes, body: bytes) -> bytes:
        return hmac.new(report_key, body, hashlib.sha256).digest()[:MAC_SIZE]
