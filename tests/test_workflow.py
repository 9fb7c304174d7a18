"""Loading flows, manual verification, and own-key initialisation.

``TestPolicyWalk`` is where each ``POLICY`` case is checked: it drives the
case through a real Session and asserts its alarm, its ring transition and
its exact number of store round trips, since fetch-minimality is part of the
contract. The other loading tests check what no single row decides: missing
keys, malformed input, and stories that take more than one load.
"""

from __future__ import annotations

import dataclasses
import secrets
from pathlib import Path

import pytest

from keyauth import (
    AttributeStore,
    AuthMethod,
    AuthRecord,
    AuthRing,
    CompareResult,
    FingerprintMismatchError,
    Fingerprint,
    KeyAuthError,
    KeyChangedWarningError,
    KeyType,
    MalformedKeyError,
    MissingKeyError,
    OwnKeyMaterial,
    ParameterError,
    RepairAction,
    Session,
    fingerprint_ec,
    fingerprint_rsa,
    generate_chat_keypair,
    generate_identity_keypair,
    init_own_keys,
    method_legal_for,
    sign_public_key,
    unframe_rsa_public,
    SignatureInvalidError,
)
from keyauth import workflow
from keyauth.keys import SUB_KEY_TYPES, fingerprint_for
from keyauth.workflow import GENERATE, POLICY, PUBLISH


@pytest.fixture
def world(rsa_pair):
    """An in-memory store with bob fully initialised and alice verifying."""
    store = AttributeStore()
    bob, _ = init_own_keys(store, "bob", existing=OwnKeyMaterial(sharing=rsa_pair))
    alice = Session(store)
    store.fetches.clear()
    return store, bob, alice


def substitute(store, handle, attribute, replacement):
    store.set_adversary({(handle, attribute): replacement})


class TestLoadIdentityKey:
    def test_missing_key(self, world):
        _, _, alice = world
        with pytest.raises(MissingKeyError):
            alice.load_identity_key("nobody")


class TestLoadSignedKey:
    def test_identity_type_rejected(self, world):
        _, _, alice = world
        with pytest.raises(ParameterError):
            alice.load_signed_key("bob", KeyType.IDENTITY_ED25519)

    def test_missing_sub_key(self, world):
        _, _, alice = world
        with pytest.raises(MissingKeyError):
            alice.load_signed_key("nobody", KeyType.CHAT_X25519)

    @pytest.mark.parametrize("key_type", [KeyType.CHAT_X25519, KeyType.SHARING_RSA])
    def test_substitution_with_stripped_signature_at_first_contact(
        self, world, rsa_pair_alt, key_type
    ):
        """The second first-contact blind spot: a forged sub-key served
        without its signature takes the unsigned fallback, so it is pinned
        at seen with no alarm and the identity key is never fetched; only
        a later honest load exposes it."""
        store, bob, alice = world
        if key_type is KeyType.SHARING_RSA:
            forged = rsa_pair_alt.public
        else:
            forged = generate_chat_keypair().public
        store.set_adversary(
            {
                ("bob", key_type.key_attribute): forged,
                ("bob", key_type.signature_attribute): None,
            }
        )
        loaded = alice.load_signed_key("bob", key_type)
        assert loaded.public_octets == forged
        assert loaded.method is AuthMethod.SEEN
        assert alice.ring(key_type).get("bob").method is AuthMethod.SEEN
        assert store.fetches["bob", "ed25519_pub"] == 0
        assert alice.ring(KeyType.IDENTITY_ED25519).get("bob") is None
        store.set_adversary({})
        with pytest.raises(KeyChangedWarningError):
            alice.load_signed_key("bob", key_type)

    def test_signature_of_the_wrong_length_is_not_absent(self, rsa_pair):
        # the store refuses such a value, so only a store that serves one
        # can show it: a 63-octet signature must raise, not pin as unsigned
        class ShortSignatureStore(AttributeStore):
            def fetch(self, handle, attribute):
                octets = super().fetch(handle, attribute)
                if attribute == "sig_x25519" and octets is not None:
                    return octets[:-1]
                return octets

        store = ShortSignatureStore()
        init_own_keys(store, "bob", existing=OwnKeyMaterial(sharing=rsa_pair))
        alice = Session(store)
        with pytest.raises(MalformedKeyError):
            alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert alice.ring(KeyType.CHAT_X25519).get("bob") is None


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

    def test_replayed_old_sub_key_is_verified_at_first_contact(
        self, world, monkeypatch
    ):
        """A signature gives origin, not freshness: bob's old chat key,
        replayed with its old and still valid signature after he rotated it,
        takes the signed, absent row at first contact and is pinned at
        signature-verified. Only a later load of his current key exposes it,
        as a key change."""
        store, bob, alice = world
        old_chat, old_signature = bob.chat.public, store.fetch("bob", "sig_x25519")
        new_chat = generate_chat_keypair().public
        signature = sign_public_key(bob.identity, KeyType.CHAT_X25519, new_chat)
        store.publish("bob", "x25519_pub", new_chat)
        store.publish("bob", "sig_x25519", signature.sig)
        store.set_adversary(
            {("bob", "x25519_pub"): old_chat, ("bob", "sig_x25519"): old_signature}
        )
        taken = LookupSpy(workflow.POLICY)
        monkeypatch.setattr(workflow, "POLICY", taken)
        loaded = alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert taken.rows[-1] == ("signed", CompareResult.ABSENT)
        assert loaded.public_octets == old_chat
        assert alice.ring(KeyType.CHAT_X25519).get("bob") == AuthRecord(
            fingerprint_ec(old_chat), AuthMethod.SIGNATURE_VERIFIED
        )
        store.set_adversary({})
        with pytest.raises(KeyChangedWarningError) as exc_info:
            alice.load_signed_key("bob", KeyType.CHAT_X25519)
        assert exc_info.value.tracked == fingerprint_ec(old_chat)
        assert exc_info.value.observed == fingerprint_ec(new_chat)


class TestVerifyContactFingerprint:
    def test_display_form_accepted(self, world):
        store, bob, alice = world
        alice.load_identity_key("bob")
        fp_hex = fingerprint_ec(bob.identity.public).hex()
        grouped_upper = " ".join(
            fp_hex[i : i + 5] for i in range(0, 40, 5)
        ).upper()
        record = alice.verify_contact_fingerprint("bob", grouped_upper)
        assert record.method is AuthMethod.FINGERPRINT_COMPARISON

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
        with pytest.raises(ParameterError):
            alice.verify_contact_fingerprint("bob", 123)


ABSENT = CompareResult.ABSENT
MATCH = CompareResult.MATCH
MISMATCH = CompareResult.MISMATCH
SEEN = AuthMethod.SEEN
VERIFIED = AuthMethod.SIGNATURE_VERIFIED
COMPARED = AuthMethod.FINGERPRINT_COMPARISON
IDENTITY = KeyType.IDENTITY_ED25519
EVIDENCE_KEY_TYPES = {
    "unsigned": tuple(KeyType),
    "signed": SUB_KEY_TYPES,
    "bad signature": SUB_KEY_TYPES,
    "compared": (IDENTITY,),
}


def render_policy() -> str:
    """``POLICY`` as the README's markdown table."""
    lines = [
        "| evidence | against the pin | records | raises |",
        "| --- | --- | --- | --- |",
    ]
    for (evidence, result), (method, alarm) in POLICY.items():
        records = "-" if method is None else f"`{method.label}`"
        raises = "-" if alarm is None else f"`{alarm.code}`"
        lines.append(f"| {evidence} | {result.name.lower()} | {records} | {raises} |")
    return "\n".join(lines) + "\n"


class TestPolicyTable:
    """``POLICY`` is the whole trust decision, so each invariant is checked
    on every row."""

    def test_every_pair_has_a_row_but_an_unpinned_comparison(self):
        pairs = {
            (evidence, result)
            for evidence in EVIDENCE_KEY_TYPES
            for result in CompareResult
        }
        assert set(POLICY) == pairs - {("compared", ABSENT)}

    def test_a_row_raises_or_tracks(self):
        for row, (method, alarm) in POLICY.items():
            assert method is None or alarm is None, row
            assert alarm is None or issubclass(alarm, KeyAuthError), row

    def test_every_mismatch_row_raises(self):
        for (evidence, result), (method, alarm) in POLICY.items():
            if result is MISMATCH:
                assert alarm is not None and method is None, evidence

    def test_every_bad_signature_row_raises_signature_invalid(self):
        for (evidence, result), (_, alarm) in POLICY.items():
            if evidence == "bad signature":
                assert alarm is SignatureInvalidError, result

    def test_only_unsigned_first_sight_pins_unchecked(self):
        """A row that records a method with neither a valid signature nor a
        comparison behind it is a blind spot: the identity key at first
        contact, and a sub-key whose signature is stripped."""
        unchecked = [
            row
            for row, (method, _) in POLICY.items()
            if method is not None and row[0] not in ("signed", "compared")
        ]
        assert unchecked == [("unsigned", ABSENT)]
        assert POLICY["unsigned", ABSENT] == (SEEN, None)

    @pytest.mark.parametrize(
        "row", list(POLICY), ids=lambda row: f"{row[0]}-{row[1].name.lower()}"
    )
    def test_no_row_changes_a_pin_or_lowers_a_method(self, row):
        """Applied to every record the row can meet, a row that does not
        raise leaves the pinned fingerprint and never lowers the method."""
        evidence, result = row
        method, alarm = POLICY[row]
        for key_type in EVIDENCE_KEY_TYPES[evidence]:
            if method is not None:
                assert method_legal_for(key_type, method), key_type
            priors = [None]
            if result is not ABSENT:
                priors = [m for m in AuthMethod if method_legal_for(key_type, m)]
            for prior in priors:
                ring = AuthRing(key_type)
                pinned, other = Fingerprint(bytes(20)), Fingerprint(bytes([1]) * 20)
                if prior is not None:
                    ring.track("bob", pinned, prior)
                before = ring.get("bob")
                observed = other if result is MISMATCH else pinned
                if alarm is None and method is not None:
                    ring.track("bob", observed, method)
                after = ring.get("bob")
                if before is None:
                    assert after is None or after.fingerprint == observed
                else:
                    assert after.fingerprint == before.fingerprint
                    assert after.method >= before.method

    def test_readme_prints_the_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        _, block = readme.split("<!-- POLICY -->\n")
        block, _ = block.split("<!-- /POLICY -->")
        assert block == render_policy()


class LookupSpy(dict):
    """A copy of a table that records each row looked up in it."""

    def __init__(self, table):
        super().__init__(table)
        self.rows = []

    def __getitem__(self, row):
        self.rows.append(row)
        return super().__getitem__(row)


# Each case: the row its last lookup takes (None: it takes none), what alice
# does ("sub" loads each sub-key type in turn), how she pinned the key before
# ("strip": a load with the signature stripped; "compare": a load, then a
# comparison of the honest fingerprint), what the store's adversary serves
# then, the method before and after, the alarm's code and the round trips.
WALK = [
    (("unsigned", ABSENT), "identity", None, (), None, SEEN, None, 1),
    (("unsigned", MATCH), "identity", "load", (), SEEN, SEEN, None, 1),
    (("unsigned", MATCH), "identity", "compare", (), COMPARED, COMPARED, None, 1),
    (("unsigned", MISMATCH), "identity", "load", ("forge",), SEEN, SEEN,
     "fingerprint-mismatch", 1),
    (("unsigned", MISMATCH), "identity", "compare", ("forge",), COMPARED,
     COMPARED, "fingerprint-mismatch", 1),
    (("unsigned", ABSENT), "sub", None, ("strip",), None, SEEN, None, 2),
    # the second blind spot: a forged sub-key served without its signature
    (("unsigned", ABSENT), "sub", None, ("forge", "strip"), None, SEEN, None, 2),
    (("unsigned", MATCH), "sub", "strip", ("strip",), SEEN, SEEN, None, 2),
    (("unsigned", MISMATCH), "sub", "strip", ("forge", "strip"), SEEN, SEEN,
     "fingerprint-mismatch", 2),
    (("signed", ABSENT), "sub", None, (), None, VERIFIED, None, 3),
    (("signed", MATCH), "sub", "strip", (), SEEN, VERIFIED, None, 3),
    (("signed", MISMATCH), "sub", "load", ("rotate",), VERIFIED, VERIFIED,
     "key-changed-warning", 3),
    (("bad signature", ABSENT), "sub", None, ("forge",), None, None,
     "signature-invalid", 3),
    (("bad signature", ABSENT), "sub", None, ("damage",), None, None,
     "signature-invalid", 3),
    (("bad signature", MATCH), "sub", "strip", ("damage",), SEEN, SEEN,
     "signature-invalid", 3),
    (("bad signature", MISMATCH), "sub", "load", ("forge",), VERIFIED, VERIFIED,
     "signature-invalid", 3),
    # a sub-key pinned at signature-verified reloads in one fetch, unlooked-up
    (None, "sub", "load", (), VERIFIED, VERIFIED, None, 1),
    (None, "sub", "load", ("damage",), VERIFIED, VERIFIED, None, 1),
    (("compared", MATCH), "compare", "load", (), SEEN, COMPARED, None, 0),
    (("compared", MATCH), "compare", "compare", (), COMPARED, COMPARED, None, 0),
    (("compared", MISMATCH), "compare wrong", "load", (), SEEN, SEEN,
     "comparison-failed", 0),
    (None, "compare", None, (), None, None, "missing-record", 0),
]


def _walk_cases():
    for row, does, pinned_by, served, *expected in WALK:
        name = "no row" if row is None else f"{row[0]} {row[1].name.lower()}"
        served_name = "+".join(served) or "honest"
        for key_type in SUB_KEY_TYPES if does == "sub" else (IDENTITY,):
            yield pytest.param(
                row, does, pinned_by, served, key_type, *expected,
                id=f"{name}-{does}-{key_type.alias}-{pinned_by}-{served_name}",
            )


class TestPolicyWalk:
    """Every row, driven through a real Session: the row taken, the ring
    transition, the alarm and the store round trips."""

    def test_every_row_is_walked(self):
        """Each row is walked for every key type its evidence can meet."""
        walked = {(case.values[0], case.values[4]) for case in _walk_cases()}
        assert {(row, key_type) for row, key_type in walked if row} == {
            (row, key_type)
            for row in POLICY
            for key_type in EVIDENCE_KEY_TYPES[row[0]]
        }

    @pytest.mark.parametrize(
        "row, does, pinned_by, served, key_type, before, after, code, fetches",
        list(_walk_cases()),
    )
    def test_row(
        self, world, rsa_pair_alt, monkeypatch,
        row, does, pinned_by, served, key_type, before, after, code, fetches,
    ):
        store, bob, alice = world
        honest = fingerprint_ec(bob.identity.public)
        strip = {("bob", key_type.signature_attribute): None}
        store.set_adversary(strip if pinned_by == "strip" else {})
        if pinned_by is not None:
            alice.load("bob", key_type)
        if pinned_by == "compare":
            alice.verify_contact_fingerprint("bob", honest.hex())

        if key_type is KeyType.SHARING_RSA:
            forged = rsa_pair_alt.public
        elif key_type is KeyType.CHAT_X25519:
            forged = generate_chat_keypair().public
        else:
            forged = generate_identity_keypair().public
        rules = {}
        if "forge" in served or "rotate" in served:
            rules["bob", key_type.key_attribute] = forged
        if "strip" in served:
            rules.update(strip)
        if "damage" in served:
            rules["bob", key_type.signature_attribute] = secrets.token_bytes(64)
        if "rotate" in served:
            signature = sign_public_key(bob.identity, key_type, forged)
            rules["bob", key_type.signature_attribute] = signature.sig
        store.set_adversary(rules)
        served_key = rules.get(
            ("bob", key_type.key_attribute), getattr(bob, key_type.alias).public
        )

        ring = alice.ring(key_type)
        pin = ring.get("bob")
        assert (None if pin is None else pin.method) == before
        observed = fingerprint_for(key_type, served_key)
        if does == "compare wrong":
            observed = Fingerprint(bytes(20))  # the "0" * 40 asserted below
        taken = LookupSpy(workflow.POLICY)
        monkeypatch.setattr(workflow, "POLICY", taken)
        store.fetches.clear()
        try:
            if does == "compare":
                record = alice.verify_contact_fingerprint("bob", honest.hex())
                assert record.method is after
            elif does == "compare wrong":
                alice.verify_contact_fingerprint("bob", "0" * 40)
            else:
                loaded = alice.load("bob", key_type)
                assert loaded.method is after
                assert loaded.public_octets == served_key
        except KeyAuthError as exc:
            assert exc.code == code
            assert ring.get("bob") == pin
            if code != "missing-record":
                assert (exc.handle, exc.key_type) == ("bob", key_type)
                assert exc.tracked == (None if pin is None else pin.fingerprint)
                assert exc.observed == observed
        else:
            assert code is None
            assert ring.get("bob") == AuthRecord(observed, after, trust=0)
        assert store.fetches.total() == fetches
        assert taken.rows[-1:] == ([] if row is None else [row])
        if does == "sub":
            # a load that reads a signature loads the identity key first, and
            # the first such load pins the served one at seen
            identity = None
            if pinned_by == "load" or row[0] != "unsigned":
                identity = AuthRecord(honest, SEEN)
            assert alice.ring(IDENTITY).get("bob") == identity


class TestSession:
    def test_loads_each_ring_once_on_first_use(self, world):
        store, _, _ = world
        loads = []

        def load_ring(key_type):
            loads.append(key_type)
            return AuthRing(key_type)

        alice = Session(store, load_ring)
        assert loads == []
        alice.load_identity_key("bob")
        alice.load_identity_key("bob")
        assert loads == [KeyType.IDENTITY_ED25519]
        assert list(alice.rings) == [KeyType.IDENTITY_ED25519]

    def test_ring_type_must_line_up(self, world):
        store, _, _ = world
        alice = Session(store, lambda _: AuthRing(KeyType.CHAT_X25519))
        with pytest.raises(ParameterError):
            alice.load_identity_key("bob")

    def test_store_must_be_an_attribute_store(self):
        with pytest.raises(ParameterError):
            Session(object())

    @pytest.mark.parametrize("key_type", list(KeyType), ids=lambda kt: kt.alias)
    def test_load_takes_the_loader_for_the_key_type(self, world, key_type):
        """On two fresh sessions over one store, ``load`` and the key type's
        own loader give the same key, the same rings and the same fetches."""
        store, _, _ = world
        outcomes = []
        for route in ("load", "loader"):
            session = Session(store)
            store.fetches.clear()
            if route == "load":
                loaded = session.load("bob", key_type)
            elif key_type is IDENTITY:
                loaded = session.load_identity_key("bob")
            else:
                loaded = session.load_signed_key("bob", key_type)
            rings = {kt: ring.get("bob") for kt, ring in session.rings.items()}
            outcomes.append((loaded, rings, dict(store.fetches)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1][key_type] is not None


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
        store.save()
        snapshot = path.read_bytes()
        _, report = init_own_keys(store, "alice", existing=material)
        assert report == []
        store.save()
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
            "rsa_pub": lambda: rsa_pair_alt.public,
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

    def test_inconsistent_sharing_pair_is_regenerated(self, rsa_pair):
        store = AttributeStore()
        material, _ = init_own_keys(
            store, "alice", existing=OwnKeyMaterial(sharing=rsa_pair)
        )
        d = bytearray(rsa_pair.private_d)
        d[-1] ^= 1
        broken = dataclasses.replace(rsa_pair, private_d=bytes(d))
        rebuilt, report = init_own_keys(
            store, "alice", existing=dataclasses.replace(material, sharing=broken)
        )
        assert report == [
            RepairAction(GENERATE, "sharing-rsa"),
            RepairAction(PUBLISH, "rsa_pub"),
            RepairAction(PUBLISH, "sig_rsa"),
        ]
        assert rebuilt.identity == material.identity
        assert rebuilt.chat == material.chat

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
