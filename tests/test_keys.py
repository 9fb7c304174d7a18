"""Key generation, fingerprints, framing, and attestation signatures.

Derivations are checked against the independent curve implementations in
``oracles``; fingerprints against the from-scratch SHA-256. Constants that
were verified against those oracles are also frozen inline, so a change in
either route breaks loudly.
"""

from __future__ import annotations

import json
import math
import random
import secrets
import threading
import time
from dataclasses import astuple
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric import rsa
from hypothesis import given, settings
from hypothesis import strategies as st

from keyauth import (
    ChatKeyPair,
    Fingerprint,
    IdentityKeyPair,
    KeyGenerationError,
    KeySignature,
    KeyType,
    MalformedKeyError,
    ParameterError,
    SharingKeyPair,
    canonical_payload,
    check_keypair_consistency,
    clamp_x25519_scalar,
    derive_ed25519_public,
    derive_x25519_public,
    fingerprint_ec,
    fingerprint_rsa,
    frame_rsa_public,
    generate_chat_keypair,
    generate_identity_keypair,
    generate_sharing_keypair,
    sign_public_key,
    unframe_rsa_public,
    verify_key_signature,
)
from keyauth.keys import SIGNED_PAYLOAD_PREFIX

from conftest import make_entropy
from oracles import (
    ed25519_public_from_seed,
    fingerprint_oracle,
    x25519_public_from_scalar,
)

RSA_POOL_PATH = Path(__file__).resolve().parents[1] / "bench" / "rsa_pool.json"
PROBE_BLOCK = b"\x5a" * 190


def _rsa_integers(pair):
    """(n, e, d, p, q) of a sharing pair as integers."""
    return tuple(int.from_bytes(octets, "big") for octets in astuple(pair))


def _rsa_pair(n, e, d, p, q):
    def minimal(value):
        return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")

    return SharingKeyPair(
        n.to_bytes(256, "big"), minimal(e), minimal(d), minimal(p), minimal(q)
    )


# bits each single-bit flip may hit; bits 1..15 of e = 65537 keep it odd
# and in [3, n), so the flipped pair still constructs
FLIP_BITS = {"d": (0, 2047), "e": (1, 15), "p": (0, 1023), "q": (0, 1023)}


def _flip_bit(pair, component, bit):
    values = dict(zip("nedpq", _rsa_integers(pair)))
    values[component] ^= 1 << bit
    return _rsa_pair(*values.values())


def _raw_round_trip(pair, block):
    """Textbook RSA on the pair's integers, back to ``len(block)`` octets."""
    n, e, d, _, _ = _rsa_integers(pair)
    cipher = pow(int.from_bytes(block, "big"), e, n)
    return pow(cipher, d, n).to_bytes(len(block), "big")


def _probe_consistency(pair):
    """The RSA consistency check as it was before RFC 8017 §3.2: n == p*q
    and one fixed block survives a raw encrypt-decrypt round trip."""
    n, _, _, p, q = _rsa_integers(pair)
    try:
        return n == p * q and _raw_round_trip(pair, PROBE_BLOCK) == PROBE_BLOCK
    except OverflowError:
        return False


@pytest.fixture(scope="module")
def composite_factor_pair(rsa_pair):
    """n = p*q with p the product of two 512-bit primes, q a real prime,
    and d = e^-1 mod lcm(p-1, q-1)."""
    _, e, _, _, q = _rsa_integers(rsa_pair)
    while True:
        key = rsa.generate_private_key(public_exponent=e, key_size=1024)
        p = key.private_numbers().p * key.private_numbers().q
        lam = math.lcm(p - 1, q - 1)
        if (p * q).bit_length() == 2048 and math.gcd(e, lam) == 1:
            return _rsa_pair(p * q, e, pow(e, -1, lam), p, q)


@pytest.fixture(scope="module")
def equal_primes_pair(rsa_pair):
    """n = p*p, d = e^-1 mod (p-1): the relation holds but p == q."""
    _, e, _, p, _ = _rsa_integers(rsa_pair)
    return _rsa_pair(p * p, e, pow(e, -1, p - 1), p, p)


# verified against the independent oracles and frozen here
FP_ZERO_EC = "66687aadf862bd776c8fc18b8e9f8e2008971485"
FP_RSA_0BAD_11 = "9c5d818b5d1eb77cb81907317bc2ed09ab39b24c"
ED25519_PUB_SEED_42 = "2152f8d19b791d24453242e15f2eab6cb7cffa7b6a5ed30097960e069881db12"
X25519_PUB_SCALAR_77 = "1cf579aba45a10ba1d1ef06d91fca2aa9ed0a1150515653155405d0b18cb9a67"


class TestIdentityKeys:
    def test_public_rederivable_from_private(self):
        pair = generate_identity_keypair()
        assert derive_ed25519_public(pair.private) == pair.public
        assert len(pair.private) == 32 and len(pair.public) == 32

    def test_generations_are_distinct(self):
        assert generate_identity_keypair() != generate_identity_keypair()

    def test_fixed_seed_matches_independent_derivation(self):
        seed = bytes([0x42]) * 32
        pair = IdentityKeyPair(seed)
        assert pair.public == ed25519_public_from_seed(seed)
        assert pair.public.hex() == ED25519_PUB_SEED_42

    @settings(deadline=None, max_examples=20)
    @given(seed=st.binary(min_size=32, max_size=32))
    def test_random_seeds_match_oracle(self, seed):
        # the public half is derived, never supplied, so a pair cannot be
        # built with a public key that does not belong to its seed
        assert IdentityKeyPair(seed).public == ed25519_public_from_seed(seed)
        with pytest.raises(TypeError):
            IdentityKeyPair(seed, public=ed25519_public_from_seed(seed))

    def test_entropy_failure_raises(self):
        def broken(n):
            raise OSError("no entropy")

        with pytest.raises(KeyGenerationError):
            generate_identity_keypair(rng=broken)

    def test_short_entropy_raises(self):
        with pytest.raises(KeyGenerationError):
            generate_identity_keypair(rng=lambda n: b"\x00" * (n - 1))

    def test_bad_lengths_rejected(self):
        with pytest.raises(MalformedKeyError):
            IdentityKeyPair(private=b"\x00" * 31)
        with pytest.raises(MalformedKeyError):
            derive_ed25519_public(b"\x00" * 33)

    def test_consistency_check(self):
        pair = generate_identity_keypair()
        assert check_keypair_consistency(pair)


class TestChatKeys:
    def test_public_rederivable_from_private(self):
        pair = generate_chat_keypair()
        assert derive_x25519_public(pair.private) == pair.public

    def test_generated_scalar_is_clamped(self):
        for _ in range(8):
            pair = generate_chat_keypair()
            assert pair.private[0] & 0x07 == 0
            assert pair.private[31] & 0x80 == 0
            assert pair.private[31] & 0x40 == 0x40

    def test_clamp_bits(self):
        clamped = clamp_x25519_scalar(bytes([0xFF]) * 32)
        assert clamped[0] == 0xF8
        assert clamped[31] == 0x7F
        clamped = clamp_x25519_scalar(bytes(32))
        assert clamped[31] == 0x40

    def test_fixed_scalar_matches_independent_derivation(self):
        raw = bytes([0x77]) * 32
        pair = ChatKeyPair(clamp_x25519_scalar(raw))
        assert pair.public == x25519_public_from_scalar(raw)
        assert pair.public.hex() == X25519_PUB_SCALAR_77

    @settings(deadline=None, max_examples=20)
    @given(raw=st.binary(min_size=32, max_size=32))
    def test_random_scalars_match_oracle(self, raw):
        scalar = clamp_x25519_scalar(raw)
        assert ChatKeyPair(scalar).public == x25519_public_from_scalar(raw)
        with pytest.raises(TypeError):
            ChatKeyPair(scalar, public=x25519_public_from_scalar(raw))

    def test_consistency_check(self):
        pair = generate_chat_keypair()
        assert check_keypair_consistency(pair)


class TestSharingKeys:
    def test_shape(self, rsa_pair):
        assert len(rsa_pair.modulus_n) == 256
        assert rsa_pair.modulus_n[0] & 0x80  # exactly 2048 bits
        assert rsa_pair.public_exponent_e[0] != 0
        assert int.from_bytes(rsa_pair.public_exponent_e, "big") % 2 == 1

    def test_block_round_trip(self, rsa_pair):
        block = secrets.token_bytes(190)
        assert _raw_round_trip(rsa_pair, block) == block

    def test_block_round_trip_with_leading_zero(self, rsa_pair):
        block = b"\x00" + secrets.token_bytes(189)
        assert _raw_round_trip(rsa_pair, block) == block

    def test_consistency_check(self, rsa_pair, rsa_pair_alt):
        assert check_keypair_consistency(rsa_pair)
        mixed = SharingKeyPair(
            modulus_n=rsa_pair_alt.modulus_n,
            public_exponent_e=rsa_pair.public_exponent_e,
            private_d=rsa_pair.private_d,
            prime_p=rsa_pair.prime_p,
            prime_q=rsa_pair.prime_q,
        )
        assert not check_keypair_consistency(mixed)

    def test_seeded_keygen_matches_committed_pool(self):
        # bench/rsa_pool.json was written by this seeded path; matching it
        # shows the prime search still draws its witnesses in the same order
        pool = json.loads(RSA_POOL_PATH.read_text(encoding="ascii"))
        pair = generate_sharing_keypair(
            rng=random.Random("keyauth-bench-rsa-0").randbytes
        )
        assert _rsa_integers(pair) == tuple(
            int(pool[0][name], 16) for name in "nedpq"
        )

    def test_caller_entropy_is_deterministic(self):
        # the caller-supplied entropy path runs an internal prime search
        first = generate_sharing_keypair(rng=make_entropy(b"rsa-seed"))
        second = generate_sharing_keypair(rng=make_entropy(b"rsa-seed"))
        assert first == second
        assert check_keypair_consistency(first)
        assert len(first.modulus_n) == 256 and first.modulus_n[0] & 0x80

    def test_malformed_pairs_rejected(self, rsa_pair):
        with pytest.raises(MalformedKeyError):
            SharingKeyPair(
                modulus_n=rsa_pair.modulus_n[:-1],
                public_exponent_e=rsa_pair.public_exponent_e,
                private_d=rsa_pair.private_d,
                prime_p=rsa_pair.prime_p,
                prime_q=rsa_pair.prime_q,
            )
        with pytest.raises(MalformedKeyError):
            SharingKeyPair(
                modulus_n=rsa_pair.modulus_n,
                public_exponent_e=b"\x01\x00\x02",  # even
                private_d=rsa_pair.private_d,
                prime_p=rsa_pair.prime_p,
                prime_q=rsa_pair.prime_q,
            )


class TestSharingKeyConsistency:
    """The RSA check is RFC 8017 §3.2: n = p*q with distinct factors above
    1, e*d = 1 (mod lcm(p-1, q-1)), and p and q prime. The old check was a
    raw encrypt-decrypt round trip of one block; ``_probe_consistency``
    keeps it as the reference."""

    @settings(deadline=None)
    @given(component=st.sampled_from(sorted(FLIP_BITS)), data=st.data())
    def test_single_bit_flip_rejected(self, rsa_pair, component, data):
        bit = data.draw(st.integers(*FLIP_BITS[component]))
        assert not check_keypair_consistency(_flip_bit(rsa_pair, component, bit))

    def test_private_exponent_plus_lambda_accepted(self, rsa_pair):
        n, e, d, p, q = _rsa_integers(rsa_pair)
        lam = math.lcm(p - 1, q - 1)
        assert check_keypair_consistency(_rsa_pair(n, e, d + lam, p, q))

    def test_swapped_primes_accepted(self, rsa_pair):
        n, e, d, p, q = _rsa_integers(rsa_pair)
        assert check_keypair_consistency(_rsa_pair(n, e, d, q, p))

    def test_composite_factor_rejected(self, composite_factor_pair):
        # n = p*q and e*d = 1 (mod lcm(p-1, q-1)) both hold, so the relation
        # alone would accept this pair; only the primality test rejects it
        n, e, d, p, q = _rsa_integers(composite_factor_pair)
        assert n == p * q and e * d % math.lcm(p - 1, q - 1) == 1
        assert not check_keypair_consistency(composite_factor_pair)

    def test_equal_primes_rejected(self, equal_primes_pair):
        n, e, d, p, q = _rsa_integers(equal_primes_pair)
        assert n == p * q and e * d % math.lcm(p - 1, q - 1) == 1
        assert not check_keypair_consistency(equal_primes_pair)

    def test_unit_factor_rejected_quickly(self, rsa_pair):
        # p = 1 passes n == p*q; a Miller-Rabin split of p - 1 = 0 would
        # never end, so the factor guards must reject it first
        n, e, d, _, _ = _rsa_integers(rsa_pair)
        pair = _rsa_pair(n, e, d, 1, n)
        result = []
        worker = threading.Thread(
            target=lambda: result.append(check_keypair_consistency(pair)), daemon=True
        )
        start = time.perf_counter()
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive()
        assert result == [False]
        assert time.perf_counter() - start < 0.5

    def test_agrees_with_round_trip_probe(
        self, rsa_pair, composite_factor_pair, equal_primes_pair
    ):
        # p = 1, q = n is left out on purpose: the probe accepts it and the
        # new check does not, the one case where the check got stricter
        n, e, d, p, q = _rsa_integers(rsa_pair)
        corpus = [
            rsa_pair,
            _rsa_pair(n, e, d + math.lcm(p - 1, q - 1), p, q),
            _rsa_pair(n, e, d, q, p),
            composite_factor_pair,
            equal_primes_pair,
        ]
        rng = random.Random(3)
        for component, flips in (("d", 12), ("e", 4), ("p", 8), ("q", 8)):
            for _ in range(flips):
                bit = rng.randint(*FLIP_BITS[component])
                corpus.append(_flip_bit(rsa_pair, component, bit))
        verdicts = [
            (check_keypair_consistency(pair), _probe_consistency(pair))
            for pair in corpus
        ]
        assert all(new == old for new, old in verdicts), verdicts
        assert [new for new, _ in verdicts[:5]] == [True, True, True, False, False]


class TestFingerprints:
    def test_zero_ec_key_frozen_value(self):
        fp = fingerprint_ec(bytes(32))
        assert fp.hex() == FP_ZERO_EC
        assert fp.digest == fingerprint_oracle(bytes(32))

    def test_ec_matches_oracle_on_random_keys(self):
        for _ in range(20):
            public = secrets.token_bytes(32)
            assert fingerprint_ec(public).digest == fingerprint_oracle(public)

    def test_ec_is_deterministic(self):
        public = secrets.token_bytes(32)
        assert fingerprint_ec(public) == fingerprint_ec(public)

    def test_ec_length_enforced(self):
        with pytest.raises(MalformedKeyError):
            fingerprint_ec(bytes(31))
        with pytest.raises(MalformedKeyError):
            fingerprint_ec(bytes(33))

    def test_rsa_frozen_value(self):
        fp = fingerprint_rsa(b"\x0b\xad", b"\x11")
        assert fp.hex() == FP_RSA_0BAD_11
        assert fp.digest == fingerprint_oracle(b"\x0b\xad\x11")

    def test_rsa_hashes_concatenation(self):
        # the hash input is n || e, so different splits of the same octets
        # collide; minimal encodings are what keep real keys unambiguous
        assert fingerprint_rsa(b"\x0b\xad", b"\x11") == fingerprint_rsa(
            b"\x0b", b"\xad\x11"
        )

    def test_rsa_rejects_padded_encodings(self):
        with pytest.raises(MalformedKeyError):
            fingerprint_rsa(b"\x00\xad", b"\x11")
        with pytest.raises(MalformedKeyError):
            fingerprint_rsa(b"\x0b\xad", b"\x00\x11")
        with pytest.raises(MalformedKeyError):
            fingerprint_rsa(b"", b"\x11")

    def test_hex_rendering(self):
        assert Fingerprint(bytes(20)).hex() == "0" * 40
        assert Fingerprint(b"\xff" * 20).hex() == "f" * 40
        assert len(fingerprint_ec(secrets.token_bytes(32)).hex()) == 40

    def test_hex_round_trip(self):
        fp = fingerprint_ec(secrets.token_bytes(32))
        assert Fingerprint.from_hex(fp.hex()) == fp
        with pytest.raises(MalformedKeyError):
            Fingerprint.from_hex("ab" * 19)
        with pytest.raises(MalformedKeyError):
            Fingerprint.from_hex("g" * 40)


class TestFraming:
    def test_round_trip(self, rsa_pair):
        framed = frame_rsa_public(rsa_pair.modulus_n, rsa_pair.public_exponent_e)
        assert unframe_rsa_public(framed) == (
            rsa_pair.modulus_n,
            rsa_pair.public_exponent_e,
        )

    def test_layout(self):
        framed = frame_rsa_public(b"\x0b\xad", b"\x11")
        assert framed == b"\x00\x02\x0b\xad\x00\x01\x11"

    def test_malformed_frames_rejected(self):
        good = frame_rsa_public(b"\x0b\xad", b"\x11")
        for bad in (b"", b"\x00", good[:-1], good + b"\x00", b"\x00\xff" + b"\x00"):
            with pytest.raises(MalformedKeyError):
                unframe_rsa_public(bad)

    @given(
        n=st.binary(min_size=1, max_size=40).filter(lambda b: b[0] != 0),
        e=st.binary(min_size=1, max_size=8).filter(lambda b: b[0] != 0),
    )
    def test_round_trip_property(self, n, e):
        assert unframe_rsa_public(frame_rsa_public(n, e)) == (n, e)


class TestCanonicalPayload:
    def test_chat_payload_layout(self):
        payload = canonical_payload(KeyType.CHAT_X25519, bytes(32))
        assert payload == SIGNED_PAYLOAD_PREFIX + b"\x00" + b"\x01" + bytes(32)
        assert len(payload) == 50

    def test_sharing_payload_layout(self):
        framed = frame_rsa_public(b"\x0b\xad", b"\x11")
        payload = canonical_payload(KeyType.SHARING_RSA, framed)
        assert payload == SIGNED_PAYLOAD_PREFIX + b"\x00\x02" + framed

    def test_identity_type_rejected(self):
        with pytest.raises(ParameterError):
            canonical_payload(KeyType.IDENTITY_ED25519, bytes(32))

    def test_type_tag_separates_domains(self):
        octets = secrets.token_bytes(32)
        assert canonical_payload(KeyType.CHAT_X25519, octets) != canonical_payload(
            KeyType.SHARING_RSA, octets
        )

    @given(
        a=st.binary(min_size=1, max_size=64),
        b=st.binary(min_size=1, max_size=64),
    )
    def test_injective_in_key_octets(self, a, b):
        # same type, different octets -> different payloads (and vice versa)
        pa = canonical_payload(KeyType.CHAT_X25519, a)
        pb = canonical_payload(KeyType.CHAT_X25519, b)
        assert (pa == pb) == (a == b)


class TestSignatures:
    def test_round_trip_chat(self):
        identity = generate_identity_keypair()
        chat = generate_chat_keypair()
        signature = sign_public_key(identity, KeyType.CHAT_X25519, chat.public)
        assert signature.signed_key_type is KeyType.CHAT_X25519
        assert len(signature.sig) == 64
        assert verify_key_signature(
            identity.public, KeyType.CHAT_X25519, chat.public, signature
        )

    def test_round_trip_sharing(self, rsa_pair):
        identity = generate_identity_keypair()
        framed = rsa_pair.public_frame()
        signature = sign_public_key(identity, KeyType.SHARING_RSA, framed)
        assert verify_key_signature(
            identity.public, KeyType.SHARING_RSA, framed, signature
        )

    def test_identity_never_signed(self):
        identity = generate_identity_keypair()
        with pytest.raises(ParameterError):
            sign_public_key(identity, KeyType.IDENTITY_ED25519, identity.public)

    def test_wrong_signer_rejected(self):
        identity, other = generate_identity_keypair(), generate_identity_keypair()
        chat = generate_chat_keypair()
        signature = sign_public_key(identity, KeyType.CHAT_X25519, chat.public)
        assert not verify_key_signature(
            other.public, KeyType.CHAT_X25519, chat.public, signature
        )

    def test_wrong_type_tag_rejected(self, rsa_pair):
        identity = generate_identity_keypair()
        framed = rsa_pair.public_frame()
        signature = sign_public_key(identity, KeyType.SHARING_RSA, framed)
        assert not verify_key_signature(
            identity.public, KeyType.CHAT_X25519, framed, signature.sig
        )

    def test_garbage_signature_returns_false(self):
        identity = generate_identity_keypair()
        chat = generate_chat_keypair()
        assert not verify_key_signature(
            identity.public, KeyType.CHAT_X25519, chat.public, bytes(64)
        )

    def test_malformed_lengths_raise(self):
        identity = generate_identity_keypair()
        chat = generate_chat_keypair()
        with pytest.raises(MalformedKeyError):
            verify_key_signature(
                identity.public, KeyType.CHAT_X25519, chat.public, bytes(63)
            )
        with pytest.raises(MalformedKeyError):
            verify_key_signature(
                identity.public[:-1], KeyType.CHAT_X25519, chat.public, bytes(64)
            )
        with pytest.raises(MalformedKeyError):
            KeySignature(sig=bytes(63), signed_key_type=KeyType.CHAT_X25519)

    def test_signature_for_identity_type_rejected(self):
        with pytest.raises(ParameterError):
            KeySignature(sig=bytes(64), signed_key_type=KeyType.IDENTITY_ED25519)

    @settings(deadline=None, max_examples=60)
    @given(
        payload=st.binary(min_size=1, max_size=80),
        where=st.sampled_from(["payload", "signature", "signer"]),
        data=st.data(),
    )
    def test_any_single_bit_flip_fails(self, payload, where, data):
        identity = IdentityKeyPair(private=bytes([0x42]) * 32)
        signature = sign_public_key(identity, KeyType.CHAT_X25519, payload).sig
        target = {"payload": payload, "signature": signature, "signer": identity.public}[
            where
        ]
        bit = data.draw(st.integers(min_value=0, max_value=len(target) * 8 - 1))
        flipped = bytearray(target)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flipped = bytes(flipped)
        args = {
            "payload": (identity.public, flipped, signature),
            "signature": (identity.public, payload, flipped),
            "signer": (flipped, payload, signature),
        }[where]
        signer, octets, sig = args
        assert not verify_key_signature(signer, KeyType.CHAT_X25519, octets, sig)


class TestKeyTypes:
    def test_tags_and_labels(self):
        assert KeyType.IDENTITY_ED25519.tag == 0x00
        assert KeyType.CHAT_X25519.tag == 0x01
        assert KeyType.SHARING_RSA.tag == 0x02
        for key_type in KeyType:
            assert KeyType(key_type.tag) is key_type
        assert [key_type.label for key_type in KeyType] == [
            "identity-ed25519",
            "chat-x25519",
            "sharing-rsa",
        ]
