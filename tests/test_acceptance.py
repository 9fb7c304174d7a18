"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
per criterion (they are also shown on failure without -s).
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import secrets
import time

import pytest

from keyauth import (
    AttributeStore,
    AuthMethod,
    AuthRecord,
    AuthRing,
    ChecksumMismatchError,
    FingerprintConflictError,
    Fingerprint,
    IllegalMethodError,
    KeyType,
    OwnKeyMaterial,
    RepairAction,
    Session,
    fingerprint_ec,
    fingerprint_rsa,
    frame_rsa_public,
    generate_chat_keypair,
    generate_identity_keypair,
    init_own_keys,
    method_legal_for,
    sign_public_key,
    verify_key_signature,
)
from keyauth.cli import EXIT_OK, main
from keyauth.workflow import GENERATE, PUBLISH

from oracles import fingerprint_oracle


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")

        return wrapper

    return decorate


@criterion(1, "fingerprint oracle equivalence (1000 EC + 100 RSA, exact, <5s)")
def test_criterion_1_fingerprint_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(0xF1)
    for index in range(1000):
        public = (
            generate_identity_keypair().public
            if index % 2
            else generate_chat_keypair().public
        )
        assert fingerprint_ec(public).digest == fingerprint_oracle(public)
    for _ in range(100):
        modulus = bytes([rng.randrange(0x80, 0x100)]) + rng.randbytes(255)
        exponent = bytes([rng.randrange(1, 0x100)]) + rng.randbytes(
            rng.randrange(0, 4)
        )
        if exponent[-1] % 2 == 0:
            exponent = exponent[:-1] + bytes([exponent[-1] | 1])
        assert (
            fingerprint_rsa(modulus, exponent).digest
            == fingerprint_oracle(modulus + exponent)
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "signature soundness (200 round trips + 200 bit flips, zero tolerance, <10s)")
def test_criterion_2_signature_soundness():
    started = time.perf_counter()
    rng = random.Random(0xF2)
    identity = generate_identity_keypair()
    for _ in range(200):
        key_type = rng.choice((KeyType.CHAT_X25519, KeyType.SHARING_RSA))
        payload = rng.randbytes(rng.randrange(1, 300))
        signature = sign_public_key(identity, key_type, payload)
        assert verify_key_signature(identity.public, key_type, payload, signature.sig)
    for index in range(200):
        payload = rng.randbytes(rng.randrange(1, 300))
        signature = sign_public_key(identity, KeyType.CHAT_X25519, payload).sig
        target_name = ("payload", "signature", "signer")[index % 3]
        target = {
            "payload": payload,
            "signature": signature,
            "signer": identity.public,
        }[target_name]
        bit = rng.randrange(len(target) * 8)
        flipped = bytearray(target)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flipped = bytes(flipped)
        signer, octets, sig = {
            "payload": (identity.public, flipped, signature),
            "signature": (identity.public, payload, flipped),
            "signer": (flipped, payload, signature),
        }[target_name]
        assert not verify_key_signature(signer, KeyType.CHAT_X25519, octets, sig)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion(3, "detection matrix (5 CLI scenarios x 100 reps, 100% expected, <60s)")
def test_criterion_3_detection_matrix():
    started = time.perf_counter()
    scenarios = (
        "mitm-identity-pre",
        "mitm-identity-post",
        "mitm-subkey-pre",
        "mitm-subkey-post",
        "strip-signature",
    )
    for seed, scenario in enumerate(scenarios):
        transcript = io.StringIO()
        with contextlib.redirect_stdout(transcript):
            code = main(["simulate", scenario, "--reps", "100", "--seed", str(seed)])
        if code != EXIT_OK:
            print(transcript.getvalue())
        assert code == EXIT_OK, f"{scenario} exited {code}"
        assert "result: 100/100 repetitions matched" in transcript.getvalue()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@criterion(4, "upgrade path: seen-then-signed reload is exactly seen -> signature-verified")
def test_criterion_4_upgrade_path():
    store = AttributeStore()
    identity = generate_identity_keypair()
    chat = generate_chat_keypair()
    store.publish("bob", "ed25519_pub", identity.public)
    store.publish("bob", "x25519_pub", chat.public)
    alice = Session(store)

    alice.load_signed_key("bob", KeyType.CHAT_X25519)
    before = alice.ring(KeyType.CHAT_X25519).get("bob")
    assert before.method is AuthMethod.SEEN

    store.publish(
        "bob",
        "sig_x25519",
        sign_public_key(identity, KeyType.CHAT_X25519, chat.public).sig,
    )
    alice.load_signed_key("bob", KeyType.CHAT_X25519)
    after = alice.ring(KeyType.CHAT_X25519).get("bob")
    assert after.method is AuthMethod.SIGNATURE_VERIFIED
    assert after.fingerprint == before.fingerprint
    assert after.trust == before.trust


@criterion(5, "round-trip minimality: verified reload == 1 fetch, first signed load <= 3")
def test_criterion_5_round_trip_minimality(rsa_pair):
    store = AttributeStore()
    init_own_keys(store, "bob", existing=OwnKeyMaterial(sharing=rsa_pair))
    for key_type in (KeyType.CHAT_X25519, KeyType.SHARING_RSA):
        alice = Session(store)
        store.fetches.clear()
        alice.load_signed_key("bob", key_type)
        first_load = store.fetches.total()
        assert first_load <= 3, f"first load took {first_load} fetches"
        store.fetches.clear()
        alice.load_signed_key("bob", key_type)
        assert store.fetches.total() == 1, "verified reload must be one fetch"
    # tracked identity reload is also a single fetch
    store.fetches.clear()
    alice.load_identity_key("bob")
    assert store.fetches.total() == 1


@criterion(6, "init idempotence and repair: 3+2 publishes, 0-write rerun, single-attribute repairs")
def test_criterion_6_init_idempotence_and_repair(tmp_path, rsa_pair, rsa_pair_alt):
    path = tmp_path / "store.json"
    store = AttributeStore(path)
    material, report = init_own_keys(
        store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
    )
    publishes = [action for action in report if action.action == PUBLISH]
    assert [action.target for action in publishes] == [
        "ed25519_pub",
        "x25519_pub",
        "rsa_pub",
        "sig_x25519",
        "sig_rsa",
    ]
    store.save()
    snapshot = path.read_bytes()

    _, rerun = init_own_keys(store, "alice", existing=material)
    assert rerun == []
    store.save()
    assert path.read_bytes() == snapshot, "re-init must not rewrite anything"

    corruptions = {
        "ed25519_pub": generate_identity_keypair().public,
        "x25519_pub": generate_chat_keypair().public,
        "rsa_pub": frame_rsa_public(
            rsa_pair_alt.modulus_n, rsa_pair_alt.public_exponent_e
        ),
        "sig_x25519": secrets.token_bytes(64),
        "sig_rsa": secrets.token_bytes(64),
    }
    for attribute, corrupt in corruptions.items():
        store.publish("alice", attribute, corrupt)
        _, repairs = init_own_keys(store, "alice", existing=material)
        assert repairs == [RepairAction(PUBLISH, attribute)], attribute
        store.save()
        assert path.read_bytes() == snapshot, attribute


@criterion(7, "serialization: 1000 ring round trips, bit flips checksum-rejected, order-invariant")
def test_criterion_7_serialization():
    rng = random.Random(0xF7)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_é世"

    def random_ring() -> AuthRing:
        key_type = rng.choice(list(KeyType))
        ring = AuthRing(key_type)
        legal = [m for m in AuthMethod if method_legal_for(key_type, m)]
        for _ in range(rng.randrange(0, 8)):
            handle = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 20))
            )
            if ring.get(handle) is not None:
                continue
            ring.track(handle, Fingerprint(rng.randbytes(20)), rng.choice(legal))
        return ring

    for index in range(1000):
        ring = random_ring()
        encoded = ring.to_bytes()
        restored = AuthRing.from_bytes(encoded)
        assert restored.key_type is ring.key_type
        assert restored.records() == ring.records()
        # one random bit flip per ring must be a checksum rejection
        corrupted = bytearray(encoded)
        bit = rng.randrange(len(corrupted) * 8)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ChecksumMismatchError):
            AuthRing.from_bytes(bytes(corrupted))
        # canonical form does not depend on insertion order
        if index % 10 == 0:
            entries = ring.records()
            rng.shuffle(entries)
            rebuilt = AuthRing(ring.key_type)
            for handle, record in entries:
                rebuilt.track(handle, record.fingerprint, record.method)
            assert rebuilt.to_bytes() == encoded

    # exhaustively: every bit of a small ring and of an empty ring
    for ring_bytes in (
        AuthRing(KeyType.IDENTITY_ED25519).to_bytes(),
        _two_record_ring().to_bytes(),
    ):
        for bit in range(len(ring_bytes) * 8):
            corrupted = bytearray(ring_bytes)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ChecksumMismatchError):
                AuthRing.from_bytes(bytes(corrupted))


def _two_record_ring() -> AuthRing:
    ring = AuthRing(KeyType.CHAT_X25519)
    ring.track("ann", Fingerprint(bytes(20)), AuthMethod.SEEN)
    ring.track("bob", Fingerprint(bytes([1]) * 20), AuthMethod.SIGNATURE_VERIFIED)
    return ring


@criterion(8, "method lattice: 10,000 ops never downgrade or mutate without reset")
def test_criterion_8_method_lattice_monotonicity():
    rng = random.Random(0xF8)
    rings = {key_type: AuthRing(key_type) for key_type in KeyType}
    model: dict[tuple[KeyType, str], AuthRecord] = {}
    handles = ["ann", "bob", "cat", "dee", "eli", "fox"]
    fingerprints = [Fingerprint(bytes([seed]) * 20) for seed in range(4)]

    for _ in range(10_000):
        key_type = rng.choice(list(KeyType))
        ring = rings[key_type]
        handle = rng.choice(handles)
        op = rng.choice(("track", "track", "track", "compare", "reset"))
        if op == "reset":
            ring.reset_record(handle)
            model.pop((key_type, handle), None)
        elif op == "compare":
            ring.compare(handle, rng.choice(fingerprints))
        else:
            fingerprint = rng.choice(fingerprints)
            method = rng.choice(list(AuthMethod))
            before = model.get((key_type, handle))
            if not method_legal_for(key_type, method):
                with pytest.raises(IllegalMethodError):
                    ring.track(handle, fingerprint, method)
            elif before is not None and before.fingerprint != fingerprint:
                with pytest.raises(FingerprintConflictError):
                    ring.track(handle, fingerprint, method)
            else:
                record = ring.track(handle, fingerprint, method)
                if before is not None:
                    # no downgrade, no fingerprint mutation without reset
                    assert record.method >= before.method
                    assert record.fingerprint == before.fingerprint
                model[(key_type, handle)] = record
        # the ring never drifts from the model
        for (model_type, model_handle), expected in model.items():
            actual = rings[model_type].get(model_handle)
            assert actual == expected
        for model_type, ring_under_test in rings.items():
            tracked = {
                handle_
                for (type_, handle_) in model
                if type_ is model_type
            }
            assert len(ring_under_test.records()) == len(tracked)
