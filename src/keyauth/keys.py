"""Key material, fingerprints, and identity-key attestation of sub-keys.

Three key types form a two-level hierarchy: a long-term Ed25519 identity
key signs the X25519 chat key and the RSA-2048 sharing key, so only the
identity fingerprint needs out-of-band comparison. Fingerprints are the
first 20 octets of SHA-256 over a key's canonical public octets.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import astuple, dataclass, field
from enum import Enum
from typing import Callable, Iterable

from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from .errors import KeyGenerationError, MalformedKeyError, ParameterError

EntropySource = Callable[[int], bytes]

EC_KEY_OCTETS = 32
FINGERPRINT_OCTETS = 20
SIGNATURE_OCTETS = 64
RSA_KEY_BITS = 2048
RSA_MODULUS_OCTETS = RSA_KEY_BITS // 8
RSA_PUBLIC_EXPONENT = 65537

# Domain-separation prefix for sub-key attestation; the NUL stops any
# extension of the ASCII context string, the tag octet binds the key type.
SIGNED_PAYLOAD_PREFIX = b"MEGA_KEYAUTH_SIG"


class KeyType(Enum):
    """The three key types and every per-type fact the layers share.

    Each member carries its wire ``tag`` octet (the enum value, so
    ``KeyType(tag)`` looks it up), its ``label`` (file names and reports),
    its short CLI ``alias``, the store attribute holding its public key
    (``key_attribute``) and, for the two sub-keys, the one holding the
    identity key's attestation (``signature_attribute``, else None).
    """

    IDENTITY_ED25519 = (0x00, "identity-ed25519", "identity", "ed25519_pub", None)
    CHAT_X25519 = (0x01, "chat-x25519", "chat", "x25519_pub", "sig_x25519")
    SHARING_RSA = (0x02, "sharing-rsa", "sharing", "rsa_pub", "sig_rsa")

    def __new__(cls, tag, label, alias, key_attribute, signature_attribute):
        member = object.__new__(cls)
        member._value_ = member.tag = tag
        member.label = label
        member.alias = alias
        member.key_attribute = key_attribute
        member.signature_attribute = signature_attribute
        return member


# the key types the identity key attests, in report order
SUB_KEY_TYPES = (KeyType.CHAT_X25519, KeyType.SHARING_RSA)


@dataclass(frozen=True)
class Fingerprint:
    """First 20 octets of SHA-256 over a key's public octets."""

    digest: bytes

    def __post_init__(self):
        if not isinstance(self.digest, bytes) or len(self.digest) != FINGERPRINT_OCTETS:
            raise MalformedKeyError(
                f"fingerprint must be {FINGERPRINT_OCTETS} octets"
            )

    def hex(self) -> str:
        return self.digest.hex()

    @classmethod
    def from_hex(cls, text: str) -> "Fingerprint":
        if len(text) != 2 * FINGERPRINT_OCTETS:
            raise MalformedKeyError(
                f"fingerprint hex must be {2 * FINGERPRINT_OCTETS} characters"
            )
        try:
            return cls(bytes.fromhex(text))
        except ValueError:
            raise MalformedKeyError("fingerprint hex contains non-hex characters") from None


@dataclass(frozen=True)
class IdentityKeyPair:
    """Ed25519 signing pair from ``private``, the 32-octet seed. ``public``
    is derived from it (RFC 8032 §5.1.5), so the pair is always consistent."""

    private: bytes
    public: bytes = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "public", derive_ed25519_public(self.private))


@dataclass(frozen=True)
class ChatKeyPair:
    """X25519 agreement pair from ``private``, the clamped 32-octet scalar.
    ``public`` is derived from it (RFC 7748 §6.1), so the pair is always
    consistent."""

    private: bytes
    public: bytes = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "public", derive_x25519_public(self.private))


@dataclass(frozen=True)
class SharingKeyPair:
    """RSA-2048 pair as big-endian octet strings.

    ``modulus_n`` is always exactly 256 octets; the other components use
    minimal encodings (no leading zero octets). Construction checks only
    shapes; :func:`check_keypair_consistency` checks that the components
    form a valid key.
    """

    modulus_n: bytes
    public_exponent_e: bytes
    private_d: bytes
    prime_p: bytes
    prime_q: bytes

    def __post_init__(self):
        if len(self.modulus_n) != RSA_MODULUS_OCTETS:
            raise MalformedKeyError(
                f"modulus must be {RSA_MODULUS_OCTETS} octets, got {len(self.modulus_n)}"
            )
        n = int.from_bytes(self.modulus_n, "big")
        if n.bit_length() != RSA_KEY_BITS:
            raise MalformedKeyError("modulus bit length must be 2048")
        _require_minimal("public exponent", self.public_exponent_e)
        e = int.from_bytes(self.public_exponent_e, "big")
        if e < 3 or e >= n or e % 2 == 0:
            raise MalformedKeyError("public exponent must be odd and in [3, n)")
        for name, octets in (
            ("private exponent", self.private_d),
            ("prime p", self.prime_p),
            ("prime q", self.prime_q),
        ):
            _require_minimal(name, octets)

    def public_frame(self) -> bytes:
        return frame_rsa_public(self.modulus_n, self.public_exponent_e)


@dataclass(frozen=True)
class KeySignature:
    """Ed25519 signature by an identity key over a sub-key's payload."""

    sig: bytes
    signed_key_type: KeyType

    def __post_init__(self):
        _require_octets("signature", self.sig, SIGNATURE_OCTETS)
        if self.signed_key_type is KeyType.IDENTITY_ED25519:
            raise ParameterError("the identity key is never signed")


def _require_octets(name: str, value: bytes, length: int) -> None:
    if not isinstance(value, bytes) or len(value) != length:
        raise MalformedKeyError(f"{name} must be {length} octets")


def _require_minimal(name: str, value: bytes) -> None:
    """Reject empty or non-minimal (leading-zero) big-endian encodings."""
    if not isinstance(value, bytes) or len(value) == 0:
        raise MalformedKeyError(f"{name} must be a non-empty octet string")
    if value[0] == 0:
        raise MalformedKeyError(f"{name} must not have leading zero octets")


def _draw_entropy(rng: EntropySource | None, n: int) -> bytes:
    source = rng if rng is not None else secrets.token_bytes
    try:
        data = source(n)
    except Exception as exc:
        raise KeyGenerationError(f"entropy source failed: {exc}") from exc
    if not isinstance(data, bytes) or len(data) != n:
        raise KeyGenerationError(
            f"entropy source returned {type(data).__name__} of wrong size, wanted {n} octets"
        )
    return data


def derive_ed25519_public(private: bytes) -> bytes:
    """Recompute the Ed25519 public key from a 32-octet seed."""
    _require_octets("identity private seed", private, EC_KEY_OCTETS)
    return Ed25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()


def clamp_x25519_scalar(raw: bytes) -> bytes:
    """Clear the low 3 bits, clear bit 255, set bit 254."""
    _require_octets("chat private scalar", raw, EC_KEY_OCTETS)
    scalar = bytearray(raw)
    scalar[0] &= 0xF8
    scalar[31] &= 0x7F
    scalar[31] |= 0x40
    return bytes(scalar)


def derive_x25519_public(private: bytes) -> bytes:
    """Recompute the X25519 public key from a 32-octet scalar."""
    _require_octets("chat private scalar", private, EC_KEY_OCTETS)
    return X25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()


def generate_identity_keypair(rng: EntropySource | None = None) -> IdentityKeyPair:
    seed = _draw_entropy(rng, EC_KEY_OCTETS)
    return IdentityKeyPair(seed)


def generate_chat_keypair(rng: EntropySource | None = None) -> ChatKeyPair:
    return ChatKeyPair(clamp_x25519_scalar(_draw_entropy(rng, EC_KEY_OCTETS)))


def generate_sharing_keypair(rng: EntropySource | None = None) -> SharingKeyPair:
    """Generate an RSA-2048 pair.

    With the default entropy source the prime search is delegated to the
    backing library. A caller-supplied ``rng`` switches to an internal
    Miller-Rabin search that draws every candidate and witness from it,
    which keeps the entropy contract uniform across the three generators
    (and makes generation reproducible for tests).
    """
    if rng is None:
        key = rsa.generate_private_key(
            public_exponent=RSA_PUBLIC_EXPONENT, key_size=RSA_KEY_BITS
        )
        numbers = key.private_numbers()
        public = numbers.public_numbers
        return _sharing_pair_from_integers(
            public.n, public.e, numbers.d, numbers.p, numbers.q
        )
    return _generate_sharing_with_rng(rng)


def _sharing_pair_from_integers(n: int, e: int, d: int, p: int, q: int) -> SharingKeyPair:
    return SharingKeyPair(
        modulus_n=n.to_bytes(RSA_MODULUS_OCTETS, "big"),
        public_exponent_e=_minimal_octets(e),
        private_d=_minimal_octets(d),
        prime_p=_minimal_octets(p),
        prime_q=_minimal_octets(q),
    )


def _minimal_octets(value: int) -> bytes:
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


def _sieve_primes(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i, is_prime in enumerate(flags) if is_prime)


_SMALL_PRIMES = _sieve_primes(1000)
_MILLER_RABIN_ROUNDS = 30


def _is_probable_prime(candidate: int, witnesses: Iterable[int]) -> bool:
    """Trial division by the small primes, then one strong-probable-prime
    round per witness. Witnesses are consumed lazily, so a generator that
    draws them from an entropy source draws none after a failed round.
    ``candidate`` must be at least 2."""
    for small in _SMALL_PRIMES:
        if candidate % small == 0:
            return candidate == small
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in witnesses:
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: EntropySource, coprime_to: int) -> int:
    while True:
        candidate = int.from_bytes(_draw_entropy(rng, bits // 8), "big")
        # top two bits set so p*q is exactly 2*bits wide; low bit for oddness
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        candidate &= (1 << bits) - 1
        if math.gcd(coprime_to, candidate - 1) != 1:
            continue
        witnesses = (
            2 + int.from_bytes(_draw_entropy(rng, 128), "big") % (candidate - 3)
            for _ in range(_MILLER_RABIN_ROUNDS)
        )
        if _is_probable_prime(candidate, witnesses):
            return candidate


def _generate_sharing_with_rng(rng: EntropySource) -> SharingKeyPair:
    e = RSA_PUBLIC_EXPONENT
    while True:
        p = _random_prime(RSA_KEY_BITS // 2, rng, e)
        q = _random_prime(RSA_KEY_BITS // 2, rng, e)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != RSA_KEY_BITS:
            continue
        d = pow(e, -1, math.lcm(p - 1, q - 1))
        return _sharing_pair_from_integers(n, e, d, p, q)


def fingerprint_ec(public: bytes) -> Fingerprint:
    """Fingerprint of an Ed25519 or X25519 key: the raw 32 octets hashed."""
    _require_octets("EC public key", public, EC_KEY_OCTETS)
    return Fingerprint(hashlib.sha256(public).digest()[:FINGERPRINT_OCTETS])


def fingerprint_rsa(modulus_n: bytes, exponent_e: bytes) -> Fingerprint:
    """Fingerprint of an RSA key: minimal big-endian n and e concatenated.

    Both encodings must be minimal; otherwise distinct (n, e) pairs could
    collide on the concatenation fed to the hash.
    """
    _require_minimal("modulus", modulus_n)
    _require_minimal("public exponent", exponent_e)
    digest = hashlib.sha256(modulus_n + exponent_e).digest()
    return Fingerprint(digest[:FINGERPRINT_OCTETS])


def fingerprint_for(key_type: KeyType, public_octets: bytes) -> Fingerprint:
    """Fingerprint of a key's public octets as published in the store,
    where the RSA key is length-framed."""
    if key_type is KeyType.SHARING_RSA:
        return fingerprint_rsa(*unframe_rsa_public(public_octets))
    return fingerprint_ec(public_octets)


def frame_rsa_public(modulus_n: bytes, exponent_e: bytes) -> bytes:
    """Length-prefixed (n, e) encoding: 2-octet big-endian length per part."""
    _require_minimal("modulus", modulus_n)
    _require_minimal("public exponent", exponent_e)
    if len(modulus_n) > 0xFFFF or len(exponent_e) > 0xFFFF:
        raise MalformedKeyError("RSA component too large to frame")
    return (
        len(modulus_n).to_bytes(2, "big")
        + modulus_n
        + len(exponent_e).to_bytes(2, "big")
        + exponent_e
    )


def unframe_rsa_public(framed: bytes) -> tuple[bytes, bytes]:
    """Inverse of :func:`frame_rsa_public`; rejects trailing or short data."""
    if len(framed) < 2:
        raise MalformedKeyError("framed RSA key too short")
    n_len = int.from_bytes(framed[0:2], "big")
    if len(framed) < 2 + n_len + 2:
        raise MalformedKeyError("framed RSA key truncated")
    modulus = framed[2 : 2 + n_len]
    e_off = 2 + n_len
    e_len = int.from_bytes(framed[e_off : e_off + 2], "big")
    exponent = framed[e_off + 2 : e_off + 2 + e_len]
    if len(exponent) != e_len:
        raise MalformedKeyError("framed RSA key truncated")
    if e_off + 2 + e_len != len(framed):
        raise MalformedKeyError("framed RSA key has trailing octets")
    _require_minimal("modulus", modulus)
    _require_minimal("public exponent", exponent)
    return modulus, exponent


def canonical_payload(key_type: KeyType, public_octets: bytes) -> bytes:
    """Domain-separated octets that an identity key signs for a sub-key.

    The identity key type is rejected: nothing attests the trust root,
    it is pinned by fingerprint comparison instead.
    """
    if not isinstance(key_type, KeyType):
        raise ParameterError("key_type must be a KeyType")
    if key_type is KeyType.IDENTITY_ED25519:
        raise ParameterError("the identity key is never signed")
    if not isinstance(public_octets, bytes) or len(public_octets) == 0:
        raise MalformedKeyError("public octets must be a non-empty octet string")
    return SIGNED_PAYLOAD_PREFIX + b"\x00" + bytes([key_type.tag]) + public_octets


def sign_public_key(
    identity: IdentityKeyPair, key_type: KeyType, public_octets: bytes
) -> KeySignature:
    """Attest a sub-key's public octets with the identity key."""
    payload = canonical_payload(key_type, public_octets)
    signer = Ed25519PrivateKey.from_private_bytes(identity.private)
    return KeySignature(sig=signer.sign(payload), signed_key_type=key_type)


def verify_key_signature(
    identity_public: bytes,
    key_type: KeyType,
    public_octets: bytes,
    signature: KeySignature | bytes,
) -> bool:
    """Check a sub-key attestation; never raises on a bad signature.

    Malformed lengths raise :class:`MalformedKeyError`; any failure to
    verify (wrong key, perturbed octets, unparseable point) returns False.
    """
    raw = signature.sig if isinstance(signature, KeySignature) else signature
    _require_octets("signature", raw, SIGNATURE_OCTETS)
    _require_octets("identity public key", identity_public, EC_KEY_OCTETS)
    payload = canonical_payload(key_type, public_octets)
    try:
        Ed25519PublicKey.from_public_bytes(identity_public).verify(raw, payload)
    except Exception:
        return False
    return True


def check_keypair_consistency(
    pair: IdentityKeyPair | ChatKeyPair | SharingKeyPair,
) -> bool:
    """True iff the public half matches the private half.

    An EC pair derives its public half, so it is always consistent. For
    RSA the RFC 8017 §3.2 relations are checked: ``n == p*q`` with
    distinct factors above 1, ``e*d == 1 (mod lcm(p-1, q-1))``, and p and
    q prime. That relation makes every block round-trip only when p and q
    are prime, so each must pass trial division and a strong-probable-prime
    test to base 2. Inconsistency is reported, never raised.
    """
    if isinstance(pair, (IdentityKeyPair, ChatKeyPair)):
        return True
    if not isinstance(pair, SharingKeyPair):
        raise ParameterError(f"not a keypair type: {type(pair).__name__}")
    try:
        n, e, d, p, q = (int.from_bytes(octets, "big") for octets in astuple(pair))
        # the factor guards come first: the primality test needs p, q >= 2
        if not (1 < p and 1 < q and p != q and n == p * q):
            return False
        if e * d % math.lcm(p - 1, q - 1) != 1:
            return False
        return _is_probable_prime(p, (2,)) and _is_probable_prime(q, (2,))
    except Exception:
        return False
