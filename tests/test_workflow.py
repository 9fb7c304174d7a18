"""Loading flows, manual verification, and own-key initialisation.

The expected alarm/no-alarm outcome for every tampering case is asserted
together with the exact number of store round trips, since fetch-minimality
is part of the contract.
"""

from __future__ import annotations

import dataclasses
import secrets

import pytest

from keyauth import (
    AdversaryConfig,
    AttributeStore,
    AuthMethod,
    ComparisonFailedError,
    FingerprintMismatchError,
    IdentityKeyPair,
    KeyChangedWarningError,
    KeyType,
    MissingKeyError,
    MissingRecordError,
    OwnKeyMaterial,
    ParameterError,
    RepairAction,
    Session,
    fingerprint_ec,
    fingerprint_rsa,
    generate_chat_keypair,
    generate_identity_keypair,
    init_own_keys,
    sign_public_key,
    unframe_rsa_public,
    SignatureInvalidError,
)
from keyauth.store import ADVERSARY_SUBSTITUTE_KEY
from keyauth.workflow import GENERATE, PUBLISH


@pytest.fixture
def world(rsa_pair):
    """An in-memory store with bob fully initialised and alice verifying."""
    store = AttributeStore()
    bob, _ = init_own_keys(store, "bob", existing=OwnKeyMaterial(sharing=rsa_pair))
    alice = Session(store, "alice")
    store.reset_stats()
    return store, bob, alice


def substitute(store, handle, attribute, replacement):
    store.set_adversary(
        AdversaryConfig(ADVERSARY_SUBSTITUTE_KEY, handle, attribute, replacement)
    )


class TestLoadIdentityKey:
    def test_first_sight_pins(self, world):
        store, bob, alice = world
        loaded = alice.load_identity_key("bob")
        assert loaded.key_type is KeyType.IDENTITY_ED25519
        assert loaded.public_octets == bob.identity.public
        assert loaded.method is AuthMethod.SEEN
        assert loaded.freshly_tracked
        assert store.stats().total == 1

    def test_reload_matches_in_one_fetch(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        store.reset_stats()
        loaded = alice.load_identity_key("bob")
        assert not loaded.freshly_tracked
        assert loaded.method is AuthMethod.SEEN
        assert store.stats().total == 1

    def test_substitution_after_contact_alarms(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        honest = fingerprint_ec(bob.identity.public)
        attacker = generate_identity_keypair().public
        substitute(store, "bob", "ed25519_pub", attacker)
        with pytest.raises(FingerprintMismatchError) as exc_info:
            alice.load_identity_key("bob")
        assert exc_info.value.tracked == honest
        assert exc_info.value.observed == fingerprint_ec(attacker)
        # the pin is untouched
        record = alice.ring(KeyType.IDENTITY_ED25519).get("bob")
        assert record.fingerprint == honest

    def test_missing_key(self, world):
        _, _, alice = world
        with pytest.raises(MissingKeyError):
            alice.load_identity_key("nobody")

    def test_method_strength_is_preserved(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        alice.verify_contact_fingerprint(
            "bob", fingerprint_ec(bob.identity.public).hex()
        )
        loaded = alice.load_identity_key("bob")
        assert loaded.method is AuthMethod.FINGERPRINT_COMPARISON


class TestLoadSignedKey:
    @pytest.mark.parametrize("key_type", [KeyType.CHAT_X25519, KeyType.SHARING_RSA])
    def test_first_load_verifies_in_three_fetches(self, world, key_type):
        store, bob, alice = world
        loaded = alice.load_signed_key("bob", key_type)
        assert loaded.method is AuthMethod.SIGNATURE_VERIFIED
        assert loaded.freshly_tracked
        assert store.stats().total == 3  # key, signature, identity
        # identity got pinned along the way
        assert (
            alice.ring(KeyType.IDENTITY_ED25519).get("bob").method is AuthMethod.SEEN
        )

    @pytest.mark.parametrize("key_type", [KeyType.CHAT_X25519, KeyType.SHARING_RSA])
    def test_verified_reload_is_one_fetch(self, world, key_type):
        store, bob, alice = world
        alice.load_signed_key("bob", key_type)
        store.reset_stats()
        loaded = alice.load_signed_key("bob", key_type)
        assert loaded.method is AuthMethod.SIGNATURE_VERIFIED
        assert not loaded.freshly_tracked
        assert store.stats().total == 1

    def test_identity_type_rejected(self, world):
        _, _, alice = world
        with pytest.raises(ParameterError):
            alice.load_signed_key("bob", KeyType.IDENTITY_ED25519)

    def test_missing_sub_key(self, world):
        _, _, alice = world
        with pytest.raises(MissingKeyError):
            alice.load_signed_key("nobody", KeyType.CHAT_X25519)

    def test_substituted_key_fails_signature(self, world):
        store, bob, alice = world
        attacker = generate_chat_keypair().public
        substitute(store, "bob", "x25519_pub", attacker)
        with pytest.raises(SignatureInvalidError):
            alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert alice.ring(KeyType.CHAT_X25519).get("bob") is None

    def test_substituted_rsa_key_fails_signature(self, world, rsa_pair_alt):
        store, bob, alice = world
        substitute(store, "bob", "rsa_pub", rsa_pair_alt.public_frame())
        with pytest.raises(SignatureInvalidError):
            alice.load_signed_key("bob", KeyType.SHARING_RSA)

    def test_tracked_key_resists_substitution(self, world):
        store, bob, alice = world
        alice.load_signed_key("bob", KeyType.CHAT_X25519)
        honest = alice.ring(KeyType.CHAT_X25519).get("bob")
        substitute(store, "bob", "x25519_pub", generate_chat_keypair().public)
        with pytest.raises(SignatureInvalidError):
            alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert alice.ring(KeyType.CHAT_X25519).get("bob") == honest

    def test_corrupted_signature_alarm_even_when_key_matches(self, world):
        store, bob, alice = world
        substitute(store, "bob", "sig_x25519", secrets.token_bytes(64))
        with pytest.raises(SignatureInvalidError):
            alice.load_signed_key("bob", KeyType.CHAT_X25519)


class TestUnsignedFallback:
    """Contacts whose clients never published signatures still work, at
    pin-on-first-sight strength, and can upgrade later."""

    @pytest.fixture
    def unsigned_world(self, rsa_pair):
        store = AttributeStore()
        identity = generate_identity_keypair()
        chat = generate_chat_keypair()
        store.publish("bob", "ed25519_pub", identity.public)
        store.publish("bob", "x25519_pub", chat.public)
        store.publish("bob", "rsa_pub", rsa_pair.public_frame())
        alice = Session(store, "alice")
        store.reset_stats()
        return store, identity, chat, alice

    def test_pins_as_seen_in_two_fetches(self, unsigned_world):
        store, identity, chat, alice = unsigned_world
        loaded = alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert loaded.method is AuthMethod.SEEN
        assert loaded.freshly_tracked
        assert store.stats().total == 2  # key + absent signature; no identity

    def test_seen_match_reload(self, unsigned_world):
        store, identity, chat, alice = unsigned_world
        alice.load_signed_key("bob", KeyType.CHAT_X25519)
        store.reset_stats()
        loaded = alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert loaded.method is AuthMethod.SEEN
        assert not loaded.freshly_tracked
        assert store.stats().total == 2  # signature is re-checked for upgrades

    def test_upgrade_when_signature_appears(self, unsigned_world):
        store, identity, chat, alice = unsigned_world
        alice.load_signed_key("bob", KeyType.CHAT_X25519)
        owner = IdentityKeyPair(private=identity.private)
        store.publish(
            "bob",
            "sig_x25519",
            sign_public_key(owner, KeyType.CHAT_X25519, chat.public).sig,
        )
        loaded = alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert loaded.method is AuthMethod.SIGNATURE_VERIFIED
        assert not loaded.freshly_tracked
        record = alice.ring(KeyType.CHAT_X25519).get("bob")
        assert record.method is AuthMethod.SIGNATURE_VERIFIED

    def test_mismatch_without_signature_alarms(self, unsigned_world):
        store, identity, chat, alice = unsigned_world
        alice.load_signed_key("bob", KeyType.CHAT_X25519)
        substitute(store, "bob", "x25519_pub", generate_chat_keypair().public)
        with pytest.raises(FingerprintMismatchError):
            alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert (
            alice.ring(KeyType.CHAT_X25519).get("bob").fingerprint
            == fingerprint_ec(chat.public)
        )


class TestKeyChange:
    def test_legitimate_rotation_warns(self, world):
        store, bob, alice = world
        alice.load_signed_key("bob", KeyType.CHAT_X25519)
        old_fp = fingerprint_ec(bob.chat.public)
        # bob rotates his chat key and signs the new one properly
        new_chat = generate_chat_keypair()
        store.publish("bob", "x25519_pub", new_chat.public)
        store.publish(
            "bob",
            "sig_x25519",
            sign_public_key(
                bob.identity, KeyType.CHAT_X25519, new_chat.public
            ).sig,
        )
        with pytest.raises(KeyChangedWarningError) as exc_info:
            alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert exc_info.value.tracked == old_fp
        assert exc_info.value.observed == fingerprint_ec(new_chat.public)
        # the pin survives until alice explicitly accepts the change
        assert alice.ring(KeyType.CHAT_X25519).get("bob").fingerprint == old_fp
        alice.ring(KeyType.CHAT_X25519).reset_record("bob")
        loaded = alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert loaded.method is AuthMethod.SIGNATURE_VERIFIED
        assert loaded.public_octets == new_chat.public

    def test_identity_alarm_preempts_subkey_verdict(self, world):
        store, bob, alice = world
        alice.load_signed_key("bob", KeyType.CHAT_X25519)
        # now the identity key itself is substituted: reloading the chat key
        # re-pins the identity, which must alarm before any signature verdict
        alice.ring(KeyType.CHAT_X25519).reset_record("bob")
        substitute(store, "bob", "ed25519_pub", generate_identity_keypair().public)
        with pytest.raises(FingerprintMismatchError) as exc_info:
            alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert exc_info.value.key_type is KeyType.IDENTITY_ED25519


class TestVerifyContactFingerprint:
    def test_match_upgrades_to_strongest(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        fp_hex = fingerprint_ec(bob.identity.public).hex()
        record = alice.verify_contact_fingerprint("bob", fp_hex)
        assert record.method is AuthMethod.FINGERPRINT_COMPARISON

    def test_display_form_accepted(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        fp_hex = fingerprint_ec(bob.identity.public).hex()
        grouped_upper = " ".join(
            fp_hex[i : i + 5] for i in range(0, 40, 5)
        ).upper()
        record = alice.verify_contact_fingerprint("bob", grouped_upper)
        assert record.method is AuthMethod.FINGERPRINT_COMPARISON

    def test_mismatch_raises_and_preserves(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        before = alice.ring(KeyType.IDENTITY_ED25519).get("bob")
        with pytest.raises(ComparisonFailedError):
            alice.verify_contact_fingerprint("bob", "0" * 40)
        assert alice.ring(KeyType.IDENTITY_ED25519).get("bob") == before

    def test_untracked_contact(self, world):
        _, _, alice = world
        with pytest.raises(MissingRecordError):
            alice.verify_contact_fingerprint("bob", "0" * 40)

    def test_malformed_hex_rejected(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        # bytes.fromhex skips whitespace, so tabs and newlines must not pass
        for bad in (
            "abc",
            "g" * 40,
            "0" * 39,
            "0" * 41,
            "0" * 38 + "  ",
            "0" * 38 + "\t\t",
            "0" * 38 + "\n\n",
        ):
            with pytest.raises(ParameterError):
                alice.verify_contact_fingerprint("bob", bad)

    def test_idempotent_at_top_strength(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        fp_hex = fingerprint_ec(bob.identity.public).hex()
        alice.verify_contact_fingerprint("bob", fp_hex)
        record = alice.verify_contact_fingerprint("bob", fp_hex)
        assert record.method is AuthMethod.FINGERPRINT_COMPARISON


class TestSession:
    def test_requires_all_rings(self):
        store = AttributeStore()
        from keyauth import AuthRing

        with pytest.raises(ParameterError):
            Session(store, "alice", rings={KeyType.IDENTITY_ED25519: AuthRing(KeyType.IDENTITY_ED25519)})

    def test_ring_type_must_line_up(self):
        store = AttributeStore()
        from keyauth import AuthRing

        rings = {key_type: AuthRing(KeyType.CHAT_X25519) for key_type in KeyType}
        with pytest.raises(ParameterError):
            Session(store, "alice", rings=rings)


class TestInitOwnKeys:
    def test_fresh_user_generates_and_publishes_everything(self, tmp_path):
        store = AttributeStore(tmp_path / "store.json")
        material, report = init_own_keys(store, "alice")
        assert report == [
            RepairAction(GENERATE, "identity-ed25519"),
            RepairAction(GENERATE, "chat-x25519"),
            RepairAction(GENERATE, "sharing-rsa"),
            RepairAction(PUBLISH, "ed25519_pub"),
            RepairAction(PUBLISH, "x25519_pub"),
            RepairAction(PUBLISH, "rsa_pub"),
            RepairAction(PUBLISH, "sig_x25519"),
            RepairAction(PUBLISH, "sig_rsa"),
        ]
        assert material.identity is not None
        assert store.fetch("alice", "sig_rsa") is not None

    def test_rerun_is_empty_and_byte_idempotent(self, tmp_path, rsa_pair):
        path = tmp_path / "store.json"
        store = AttributeStore(path)
        material, _ = init_own_keys(
            store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
        )
        snapshot = path.read_bytes()
        _, report = init_own_keys(store, "alice", existing=material)
        assert report == []
        assert path.read_bytes() == snapshot

    def test_missing_signature_is_the_only_repair(self, rsa_pair):
        # a legacy publisher: keys in the store, sharing signature never set
        store = AttributeStore()
        material, _ = init_own_keys(
            store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
        )
        fresh = AttributeStore()
        fresh.publish("alice", "ed25519_pub", store.fetch("alice", "ed25519_pub"))
        fresh.publish("alice", "x25519_pub", store.fetch("alice", "x25519_pub"))
        fresh.publish("alice", "rsa_pub", store.fetch("alice", "rsa_pub"))
        fresh.publish("alice", "sig_x25519", store.fetch("alice", "sig_x25519"))
        _, report = init_own_keys(fresh, "alice", existing=material)
        assert report == [RepairAction(PUBLISH, "sig_rsa")]

    @pytest.mark.parametrize(
        "attribute",
        ["ed25519_pub", "x25519_pub", "rsa_pub", "sig_x25519", "sig_rsa"],
    )
    def test_single_corrupted_attribute_single_repair(
        self, attribute, rsa_pair, rsa_pair_alt
    ):
        store = AttributeStore()
        material, _ = init_own_keys(
            store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
        )
        corrupt = {
            "ed25519_pub": lambda: generate_identity_keypair().public,
            "x25519_pub": lambda: generate_chat_keypair().public,
            "rsa_pub": lambda: rsa_pair_alt.public_frame(),
            "sig_x25519": lambda: secrets.token_bytes(64),
            "sig_rsa": lambda: secrets.token_bytes(64),
        }[attribute]()
        store.publish("alice", attribute, corrupt)
        _, report = init_own_keys(store, "alice", existing=material)
        assert report == [RepairAction(PUBLISH, attribute)]
        # and the follow-up run is clean
        _, report = init_own_keys(store, "alice", existing=material)
        assert report == []

    def test_dropped_identity_is_regenerated(self, rsa_pair):
        store = AttributeStore()
        material, _ = init_own_keys(
            store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
        )
        rebuilt, report = init_own_keys(
            store, "alice", existing=dataclasses.replace(material, identity=None)
        )
        # a new trust root: both signatures had to be re-issued
        assert report == [
            RepairAction(GENERATE, "identity-ed25519"),
            RepairAction(PUBLISH, "ed25519_pub"),
            RepairAction(PUBLISH, "sig_x25519"),
            RepairAction(PUBLISH, "sig_rsa"),
        ]
        assert rebuilt.identity.public != material.identity.public

    def test_consistent_identity_never_touched(self, rsa_pair):
        store = AttributeStore()
        material, _ = init_own_keys(
            store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
        )
        rebuilt, _ = init_own_keys(store, "alice", existing=material)
        assert rebuilt.identity == material.identity

    def test_published_signatures_verify_end_to_end(self, rsa_pair):
        from keyauth import verify_key_signature

        store = AttributeStore()
        material, _ = init_own_keys(
            store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
        )
        identity_public = store.fetch("alice", "ed25519_pub")
        assert verify_key_signature(
            identity_public,
            KeyType.CHAT_X25519,
            store.fetch("alice", "x25519_pub"),
            store.fetch("alice", "sig_x25519"),
        )
        assert verify_key_signature(
            identity_public,
            KeyType.SHARING_RSA,
            store.fetch("alice", "rsa_pub"),
            store.fetch("alice", "sig_rsa"),
        )

    def test_fingerprints_line_up_across_route(self, rsa_pair):
        # the sharing fingerprint computed from the framed store octets must
        # equal the one computed from the local pair
        store = AttributeStore()
        material, _ = init_own_keys(
            store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
        )
        framed = store.fetch("alice", "rsa_pub")
        assert fingerprint_rsa(*unframe_rsa_public(framed)) == fingerprint_rsa(
            rsa_pair.modulus_n, rsa_pair.public_exponent_e
        )
