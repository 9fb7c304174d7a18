"""Attribute store: publish/fetch, accounting, adversary hooks, persistence."""

from __future__ import annotations

import base64
import json
import secrets

import pytest

from keyauth import (
    AdversaryConfig,
    AttributeStore,
    ParameterError,
    PublishError,
    StoreUnavailableError,
    generate_chat_keypair,
    generate_identity_keypair,
)
from keyauth.store import (
    ADVERSARY_STRIP_SIGNATURE,
    ADVERSARY_SUBSTITUTE_KEY,
    VALID_ATTRIBUTES,
)


@pytest.fixture
def store(tmp_path):
    return AttributeStore(tmp_path / "store.json")


def publish_full_user(store, handle, rsa_pair):
    identity = generate_identity_keypair()
    chat = generate_chat_keypair()
    store.publish(handle, "ed25519_pub", identity.public)
    store.publish(handle, "x25519_pub", chat.public)
    store.publish(handle, "rsa_pub", rsa_pair.public_frame())
    store.publish(handle, "sig_x25519", secrets.token_bytes(64))
    store.publish(handle, "sig_rsa", secrets.token_bytes(64))
    return identity, chat


class TestPublishFetch:
    def test_round_trip(self, store):
        public = generate_identity_keypair().public
        store.publish("bob", "ed25519_pub", public)
        assert store.fetch("bob", "ed25519_pub") == public

    def test_absent_returns_none(self, store):
        assert store.fetch("bob", "ed25519_pub") is None
        store.publish("bob", "ed25519_pub", bytes(32))
        assert store.fetch("bob", "sig_x25519") is None
        assert store.fetch("nobody", "ed25519_pub") is None

    def test_last_writer_wins(self, store):
        store.publish("bob", "x25519_pub", bytes(32))
        replacement = generate_chat_keypair().public
        store.publish("bob", "x25519_pub", replacement)
        assert store.fetch("bob", "x25519_pub") == replacement

    def test_bad_shapes_rejected(self, store):
        with pytest.raises(PublishError):
            store.publish("bob", "ed25519_pub", bytes(31))
        with pytest.raises(PublishError):
            store.publish("bob", "sig_x25519", bytes(63))
        with pytest.raises(PublishError):
            store.publish("bob", "rsa_pub", b"\x00\x05not-a-frame")
        with pytest.raises(PublishError):
            store.publish("bob", "tls_pub", bytes(32))

    def test_fetch_validates_attribute_name(self, store):
        with pytest.raises(ParameterError):
            store.fetch("bob", "tls_pub")

    def test_handle_octet_limit(self, store, tmp_path):
        # a handle is what a ring record can hold: at most 255 UTF-8 octets
        longest = "€" * 85  # 255 octets
        store.publish(longest, "ed25519_pub", bytes(32))
        assert AttributeStore(tmp_path / "store.json").fetch(
            longest, "ed25519_pub"
        ) == bytes(32)
        snapshot = (tmp_path / "store.json").read_bytes()
        for handle in (longest + "b", "\udcff"):  # 256 octets; not UTF-8
            with pytest.raises(ParameterError):
                store.publish(handle, "ed25519_pub", bytes(32))
            assert store.fetch(handle, "ed25519_pub") is None
        assert (tmp_path / "store.json").read_bytes() == snapshot

    def test_rsa_pub_frame_round_trip(self, store, rsa_pair):
        framed = rsa_pair.public_frame()
        store.publish("bob", "rsa_pub", framed)
        assert store.fetch("bob", "rsa_pub") == framed


class TestStats:
    def test_counts_every_fetch(self, store):
        assert store.stats().total == 0
        store.publish("bob", "ed25519_pub", bytes(32))
        store.fetch("bob", "ed25519_pub")
        store.fetch("bob", "ed25519_pub")
        store.fetch("bob", "sig_x25519")  # absent fetches count too
        stats = store.stats()
        assert stats.total == 3
        assert stats.count("bob", "ed25519_pub") == 2
        assert stats.count("bob", "sig_x25519") == 1
        assert stats.count("bob", "sig_rsa") == 0

    def test_reset(self, store):
        store.fetch("bob", "ed25519_pub")
        store.reset_stats()
        assert store.stats().total == 0
        assert store.stats().count("bob", "ed25519_pub") == 0

    def test_publish_does_not_count(self, store):
        store.publish("bob", "ed25519_pub", bytes(32))
        assert store.stats().total == 0


class TestAdversary:
    def test_substitution_applies_only_at_fetch(self, store, rsa_pair):
        publish_full_user(store, "bob", rsa_pair)
        honest = store.fetch("bob", "ed25519_pub")
        replacement = generate_identity_keypair().public
        store.set_adversary(
            AdversaryConfig(
                ADVERSARY_SUBSTITUTE_KEY, "bob", "ed25519_pub", replacement
            )
        )
        assert store.fetch("bob", "ed25519_pub") == replacement
        # untargeted attributes and users are untouched
        assert store.fetch("bob", "x25519_pub") is not None
        store.set_adversary(None)
        assert store.fetch("bob", "ed25519_pub") == honest

    def test_stored_truth_survives_substitution(self, store, rsa_pair, tmp_path):
        publish_full_user(store, "bob", rsa_pair)
        honest = store.fetch("bob", "ed25519_pub")
        store.set_adversary(
            AdversaryConfig(
                ADVERSARY_SUBSTITUTE_KEY,
                "bob",
                "ed25519_pub",
                generate_identity_keypair().public,
            )
        )
        store.fetch("bob", "ed25519_pub")
        reloaded = AttributeStore(tmp_path / "store.json")
        assert reloaded.fetch("bob", "ed25519_pub") == honest

    def test_strip_signature(self, store, rsa_pair):
        publish_full_user(store, "bob", rsa_pair)
        store.set_adversary(
            AdversaryConfig(ADVERSARY_STRIP_SIGNATURE, "bob", "sig_x25519")
        )
        assert store.fetch("bob", "sig_x25519") is None
        assert store.fetch("bob", "sig_rsa") is not None

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            AdversaryConfig("corrupt_key", "bob", "ed25519_pub", bytes(32))
        with pytest.raises(ParameterError):
            AdversaryConfig(ADVERSARY_SUBSTITUTE_KEY, "bob", "ed25519_pub")
        with pytest.raises(ParameterError):
            AdversaryConfig(ADVERSARY_SUBSTITUTE_KEY, "bob", "ed25519_pub", bytes(31))
        with pytest.raises(ParameterError):
            AdversaryConfig(ADVERSARY_STRIP_SIGNATURE, "bob", "ed25519_pub")
        with pytest.raises(ParameterError):
            AdversaryConfig(ADVERSARY_STRIP_SIGNATURE, "bob", "sig_rsa", bytes(64))
        with pytest.raises(ParameterError):
            AdversaryConfig(ADVERSARY_SUBSTITUTE_KEY, "bob", "nonsense", bytes(32))

    def test_tampered_fetches_still_counted(self, store):
        store.set_adversary(
            AdversaryConfig(ADVERSARY_STRIP_SIGNATURE, "bob", "sig_rsa")
        )
        store.fetch("bob", "sig_rsa")
        assert store.stats().count("bob", "sig_rsa") == 1


class TestPersistence:
    def test_round_trip(self, store, rsa_pair, tmp_path):
        publish_full_user(store, "bob", rsa_pair)
        publish_full_user(store, "carol", rsa_pair)
        reloaded = AttributeStore(tmp_path / "store.json")
        for handle in ("bob", "carol"):
            for attribute in VALID_ATTRIBUTES:
                assert reloaded.fetch(handle, attribute) == store._users[handle].get(
                    attribute
                )

    def test_file_layout(self, store, rsa_pair, tmp_path):
        publish_full_user(store, "bob", rsa_pair)
        document = json.loads((tmp_path / "store.json").read_text())
        assert set(document) == {"users"}
        assert set(document["users"]) == {"bob"}
        bob = document["users"]["bob"]
        assert set(bob) == set(VALID_ATTRIBUTES)
        assert set(bob["rsa_pub"]) == {"n", "e"}
        assert isinstance(bob["ed25519_pub"], str)

    def test_rewrite_is_byte_identical(self, store, rsa_pair, tmp_path):
        publish_full_user(store, "bob", rsa_pair)
        first = (tmp_path / "store.json").read_bytes()
        store.save()
        assert (tmp_path / "store.json").read_bytes() == first
        reloaded = AttributeStore(tmp_path / "store.json")
        reloaded.save()
        assert (tmp_path / "store.json").read_bytes() == first

    def test_memory_only_store(self):
        store = AttributeStore()
        store.publish("bob", "ed25519_pub", bytes(32))
        store.save()  # no-op without a path
        assert store.fetch("bob", "ed25519_pub") == bytes(32)

    def test_missing_file_starts_empty(self, tmp_path):
        store = AttributeStore(tmp_path / "absent.json")
        assert store.fetch("bob", "ed25519_pub") is None
        assert not (tmp_path / "absent.json").exists()  # constructor never writes

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{not json")
        with pytest.raises(StoreUnavailableError):
            AttributeStore(path)

    def test_invalid_shapes_in_file_raise(self, tmp_path, rsa_pair):
        path = tmp_path / "store.json"
        n = base64.b64encode(rsa_pair.modulus_n).decode("ascii")
        padded_n = base64.b64encode(b"\x00" + rsa_pair.modulus_n).decode("ascii")
        for attributes in (
            {"ed25519_pub": "QUJD"},
            # RSA components with a leading zero octet are not minimal
            {"rsa_pub": {"n": padded_n, "e": "AQAB"}},
            {"rsa_pub": {"n": n, "e": "AAEAAQ=="}},
            {"rsa_pub": {"n": n}},
            {"tls_pub": "QUJD"},  # not an attribute the store knows
            {"ed25519_pub": 5},
        ):
            path.write_text(json.dumps({"users": {"bob": attributes}}))
            with pytest.raises(StoreUnavailableError):
                AttributeStore(path)

    def test_empty_handle_in_file_raises(self, tmp_path):
        # publish refuses an empty handle, so the loader must too
        path = tmp_path / "store.json"
        key = base64.b64encode(bytes(32)).decode("ascii")
        for users in ({"": {"ed25519_pub": key}}, {"": {}}):
            path.write_text(json.dumps({"users": users}))
            with pytest.raises(StoreUnavailableError, match="non-empty"):
                AttributeStore(path)

    def test_handle_no_ring_can_hold_in_file_raises(self, tmp_path):
        path = tmp_path / "store.json"
        key = base64.b64encode(bytes(32)).decode("ascii")
        for handle in ("€" * 85 + "b", "\udcff"):  # 256 octets; not UTF-8
            path.write_text(json.dumps({"users": {handle: {"ed25519_pub": key}}}))
            with pytest.raises(StoreUnavailableError):
                AttributeStore(path)

    def test_bad_base64_raises(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({"users": {"bob": {"ed25519_pub": "!!!"}}}))
        with pytest.raises(StoreUnavailableError):
            AttributeStore(path)

    def test_unwritable_path_raises(self, tmp_path):
        # parent "directory" is a regular file, so writes fail even as root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = AttributeStore(blocker / "store.json")
        with pytest.raises(StoreUnavailableError):
            store.publish("bob", "ed25519_pub", bytes(32))
