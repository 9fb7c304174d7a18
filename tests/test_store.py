"""Attribute store: publish/fetch, accounting, adversary hooks, persistence."""

from __future__ import annotations

import base64
import json
import re
import secrets
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyauth import (
    AttributeStore,
    ParameterError,
    PublishError,
    StoreUnavailableError,
    generate_chat_keypair,
    generate_identity_keypair,
)
from keyauth.keys import frame_rsa_public
from keyauth.store import VALID_ATTRIBUTES, _check_column
from oracles import BASE64_COLUMNS, base64_column_ok


_B64_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"

# the file save() wrote for the store test_file_format_is_fixed builds when it
# called json.dumps(..., indent=2, sort_keys=True)
_GOLDEN_STORE = (
    b'{\n'
    b'  "users": {\n'
    b'    "bob": {\n'
    b'      "ed25519_pub": "AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGBkaGxwdHh8=",\n'
    b'      "rsa_pub": {\n'
    b'        "e": "AQAB",\n'
    b'        "n": "gIGCg4SFhoeIiYqLjI2Ojw=="\n'
    b'      }\n'
    b'    },\n'
    b'    "zo\\u00eb \\"z\\"": {\n'
    b'      "sig_x25519": "QEFCQ0RFRkdISUpLTE1OT1BRUlNUVVZXWFlaW1xdXl9gYWJjZGVm'
    b'Z2hpamtsbW5vcHFyc3R1dnd4eXp7fH1+fw==",\n'
    b'      "x25519_pub": "ICEiIyQlJicoKSorLC0uLzAxMjM0NTY3ODk6Ozw9Pj8="\n'
    b'    }\n'
    b'  }\n'
    b'}\n'
)

# handles holding characters JSON escapes: quote, backslash, controls, and
# non-ASCII ones, which it writes as one \u escape or, past U+FFFF, two
_HANDLES = st.text(
    st.one_of(
        st.characters(max_codepoint=0xD7FF),  # below the surrogates
        st.sampled_from('"\\/\x00\x1f\x7f\n\u2028é\ufeff\U0001f600'),
    ),
    min_size=1,
    max_size=12,
)
_RSA_COMPONENT = st.tuples(st.integers(1, 255), st.binary(max_size=300)).map(
    lambda parts: bytes([parts[0]]) + parts[1]  # minimal: no leading zero octet
)
# any non-empty subset of the attributes, each with octets publish accepts
_ATTRIBUTES = st.fixed_dictionaries(
    {},
    optional={
        "ed25519_pub": st.binary(min_size=32, max_size=32),
        "x25519_pub": st.binary(min_size=32, max_size=32),
        "rsa_pub": st.tuples(_RSA_COMPONENT, _RSA_COMPONENT),
        "sig_x25519": st.binary(min_size=64, max_size=64),
        "sig_rsa": st.binary(min_size=64, max_size=64),
    },
).filter(bool)


# one edit to a value: (kind, position, character); a position past the end wraps
_EDIT = st.tuples(
    st.sampled_from(["substitute", "insert", "delete"]),
    st.integers(min_value=0),
    st.sampled_from(_B64_ALPHABET + "=\né"),
)


def _b64(octets: bytes) -> str:
    return base64.b64encode(octets).decode("ascii")


def _edited(value: str, edits) -> str:
    for kind, position, char in edits:
        at = position % (len(value) + 1)
        if kind == "insert":
            value = value[:at] + char + value[at:]
        elif value:
            at = min(at, len(value) - 1)
            replacement = char if kind == "substitute" else ""
            value = value[:at] + replacement + value[at + 1 :]
    return value


@pytest.fixture
def store(tmp_path):
    return AttributeStore(tmp_path / "store.json")


def publish_full_user(store, handle, rsa_pair):
    identity = generate_identity_keypair()
    chat = generate_chat_keypair()
    store.publish(handle, "ed25519_pub", identity.public)
    store.publish(handle, "x25519_pub", chat.public)
    store.publish(handle, "rsa_pub", rsa_pair.public)
    store.publish(handle, "sig_x25519", secrets.token_bytes(64))
    store.publish(handle, "sig_rsa", secrets.token_bytes(64))
    store.save()
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
        # the store's internal column names are not attributes
        for attribute in ("tls_pub", "rsa_pub.n", "rsa_pub.e"):
            with pytest.raises(PublishError):
                store.publish("bob", attribute, b"\x01" * 32)
        # base64 would encode a bytearray; publish takes only bytes
        for value in (bytearray(32), "A" * 32, None):
            with pytest.raises(PublishError):
                store.publish("bob", "ed25519_pub", value)

    def test_fetch_validates_attribute_name(self, store):
        with pytest.raises(ParameterError):
            store.fetch("bob", "tls_pub")

    def test_handle_octet_limit(self, store, tmp_path):
        # a handle is what a ring record can hold: at most 255 UTF-8 octets
        longest = "€" * 85  # 255 octets
        store.publish(longest, "ed25519_pub", bytes(32))
        store.save()
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
        framed = rsa_pair.public
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
        store.set_adversary({("bob", "ed25519_pub"): replacement})
        assert store.fetch("bob", "ed25519_pub") == replacement
        # untargeted attributes and users are untouched
        assert store.fetch("bob", "x25519_pub") is not None
        store.set_adversary({})
        assert store.fetch("bob", "ed25519_pub") == honest

    def test_stored_truth_survives_substitution(self, store, rsa_pair, tmp_path):
        publish_full_user(store, "bob", rsa_pair)
        honest = store.fetch("bob", "ed25519_pub")
        store.set_adversary(
            {("bob", "ed25519_pub"): generate_identity_keypair().public}
        )
        store.fetch("bob", "ed25519_pub")
        reloaded = AttributeStore(tmp_path / "store.json")
        assert reloaded.fetch("bob", "ed25519_pub") == honest

    def test_strip_signature(self, store, rsa_pair):
        publish_full_user(store, "bob", rsa_pair)
        store.set_adversary({("bob", "sig_x25519"): None})
        assert store.fetch("bob", "sig_x25519") is None
        assert store.fetch("bob", "sig_rsa") is not None

    def test_several_rules_apply_together(self, store, rsa_pair):
        publish_full_user(store, "bob", rsa_pair)
        publish_full_user(store, "carol", rsa_pair)
        honest = {
            (handle, attribute): store.fetch(handle, attribute)
            for handle in ("bob", "carol")
            for attribute in VALID_ATTRIBUTES
        }
        rules = {
            ("bob", "x25519_pub"): generate_chat_keypair().public,
            ("bob", "sig_x25519"): None,
        }
        expected = {**honest, **rules}
        store.set_adversary(rules)
        rules[("carol", "sig_rsa")] = None  # the store keeps its own copy
        for (handle, attribute), octets in expected.items():
            assert store.fetch(handle, attribute) == octets

    def test_rule_validation(self, store, rsa_pair):
        publish_full_user(store, "bob", rsa_pair)
        honest = store.fetch("bob", "ed25519_pub")
        store.set_adversary({("bob", "sig_rsa"): None})
        refused = [
            None,
            [(("bob", "ed25519_pub"), bytes(32))],
            {("bob", "ed25519_pub"): None},  # only a signature can be absent
            {("bob", "x25519_pub"): None},
            {("bob", "rsa_pub"): None},
            {("bob", "ed25519_pub"): bytes(31)},
            {("bob", "ed25519_pub"): bytearray(32)},
            {("bob", "rsa_pub.e"): b"\x01\x00\x01"},
            {"bob": bytes(32)},
            {("bob",): bytes(32)},
            {("bob", "ed25519_pub", "x"): bytes(32)},
            {("", "ed25519_pub"): bytes(32)},
            {(7, "ed25519_pub"): bytes(32)},
            # one bad rule refuses the whole table
            {("bob", "sig_x25519"): None, ("bob", "sig_rsa"): bytes(63)},
        ]
        for attribute in ("nonsense", "rsa_pub.n", "rsa_pub.e"):
            refused.append({("bob", attribute): b"\x01" * 32})
            refused.append({("bob", attribute): None})
        for rules in refused:
            with pytest.raises(ParameterError):
                store.set_adversary(rules)
        # a refused table leaves the previous adversary in place
        assert store.fetch("bob", "sig_rsa") is None
        assert store.fetch("bob", "sig_x25519") is not None
        assert store.fetch("bob", "ed25519_pub") == honest
        # a signature may also be substituted, with octets of the right size
        store.set_adversary({("bob", "sig_rsa"): bytes(64)})
        assert store.fetch("bob", "sig_rsa") == bytes(64)

    def test_tampered_fetches_still_counted(self, store):
        store.set_adversary({("bob", "sig_rsa"): None})
        store.fetch("bob", "sig_rsa")
        assert store.stats().count("bob", "sig_rsa") == 1


class TestPersistence:
    def test_round_trip(self, store, rsa_pair, tmp_path):
        publish_full_user(store, "bob", rsa_pair)
        publish_full_user(store, "carol", rsa_pair)
        written = (tmp_path / "store.json").read_bytes()
        reloaded = AttributeStore(tmp_path / "store.json")
        for handle in ("bob", "carol"):
            for attribute in VALID_ATTRIBUTES:
                octets = store.fetch(handle, attribute)
                assert octets is not None
                assert reloaded.fetch(handle, attribute) == octets
        assert reloaded.fetch("dave", "ed25519_pub") is None
        reloaded.save()
        assert (tmp_path / "store.json").read_bytes() == written

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

    def test_publish_writes_nothing_until_save(self, store, rsa_pair, tmp_path):
        path = tmp_path / "store.json"
        published = {}
        for handle in ("bob", "carol"):
            for attribute, octets in (
                ("ed25519_pub", generate_identity_keypair().public),
                ("x25519_pub", generate_chat_keypair().public),
                ("rsa_pub", rsa_pair.public),
                ("sig_x25519", secrets.token_bytes(64)),
                ("sig_rsa", secrets.token_bytes(64)),
            ):
                store.publish(handle, attribute, octets)
                published[handle, attribute] = octets
        assert not path.exists()
        store.save()
        written = path.read_bytes()
        reloaded = AttributeStore(path)
        for (handle, attribute), octets in published.items():
            assert store.fetch(handle, attribute) == octets
            assert reloaded.fetch(handle, attribute) == octets
        assert reloaded.fetch("dave", "ed25519_pub") is None
        reloaded.save()
        assert path.read_bytes() == written

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

    def test_carriage_returns_open_as_they_did_through_read_text(self, tmp_path):
        # open decodes the bytes without read_text's newline translation: a CR
        # is still whitespace between tokens and refused inside a string
        path = tmp_path / "store.json"
        store = AttributeStore(path)
        store.publish("bob", "ed25519_pub", bytes(32))
        store.save()
        saved = path.read_bytes()
        for newline in (b"\r\n", b"\r"):
            path.write_bytes(saved.replace(b"\n", newline))
            assert AttributeStore(path).fetch("bob", "ed25519_pub") == bytes(32)
        path.write_bytes(saved.replace(b'"bob"', b'"b\rob"'))
        with pytest.raises(StoreUnavailableError, match="^cannot load store"):
            AttributeStore(path)

    def test_deeply_nested_json_raises(self, tmp_path):
        # json.loads raises RecursionError, not a ValueError, for this
        path = tmp_path / "store.json"
        path.write_text('{"users": ' + "[" * 100000)
        with pytest.raises(StoreUnavailableError, match="^cannot load store"):
            AttributeStore(path)

    def test_invalid_shapes_in_file_raise(self, tmp_path, rsa_pair):
        path = tmp_path / "store.json"
        n = base64.b64encode(rsa_pair.modulus_n).decode("ascii")
        padded_n = base64.b64encode(b"\x00" + rsa_pair.modulus_n).decode("ascii")
        # a 256-octet modulus ends "?X==" with X in AQgw: the next letter
        # sets a pad bit, so the value decodes to the same octets
        loose_n = n[:-3] + _B64_ALPHABET[_B64_ALPHABET.index(n[-3]) + 1] + "=="
        largest = bytes([1]) + bytes(0xFFFE)  # the most a 2-octet length frames
        for attributes in (
            {"ed25519_pub": "QUJD"},
            # 32 octets whose last character sets a pad bit
            {"ed25519_pub": "A" * 42 + "B="},
            {"rsa_pub": {"n": loose_n, "e": "AQAB"}},
            # two canonical values on two lines are not one value
            {"rsa_pub": {"n": n + "\nAQA", "e": "AQAB"}},
            {"rsa_pub": {"n": n + "\nAQAB", "e": "AQAB"}},
            # publish refuses a component it cannot frame
            {"rsa_pub": {"n": _b64(largest + bytes(1)), "e": "AQAB"}},
            # RSA components with a leading zero octet are not minimal
            {"rsa_pub": {"n": padded_n, "e": "AQAB"}},
            {"rsa_pub": {"n": n, "e": "AAEAAQ=="}},
            {"rsa_pub": {"n": n}},
            # save() would drop the extra key, so the loader refuses it
            {"rsa_pub": {"n": n, "e": "AQAB", "d": "AQAB"}},
            {"tls_pub": "QUJD"},  # not an attribute the store knows
            {"ed25519_pub": 5},
        ):
            path.write_text(json.dumps({"users": {"bob": attributes}}))
            with pytest.raises(StoreUnavailableError):
                AttributeStore(path)
        # save() writes only users, so the loader refuses any other key
        key = {"ed25519_pub": _b64(bytes(32))}
        path.write_text(json.dumps({"users": {"bob": key}, "version": 2}))
        with pytest.raises(StoreUnavailableError):
            AttributeStore(path)
        rsa_pub = {"n": _b64(largest), "e": "AQAB"}
        path.write_text(json.dumps({"users": {"bob": {"rsa_pub": rsa_pub}}}))
        assert AttributeStore(path).fetch("bob", "rsa_pub") == frame_rsa_public(
            largest, b"\x01\x00\x01"
        )

    @pytest.mark.parametrize(
        "document, opens",
        [
            *(({"users": {"bob": user}}, False)
              for user in ([], "", None, 0, ["ed25519_pub"], "ed25519_pub")),
            *(({"users": {"bob": {"ed25519_pub": value}}}, False)
              for value in (None, "", {})),
            *(({"users": {"bob": {"rsa_pub": value}}}, False)
              for value in (None, [], "AQAB", {}, {"n": None, "e": "AQAB"})),
            ({"users": []}, False),
            ({"users": None}, False),
            ([], False),
            ({"users": {"": {}}}, False),
            ({"users": {}}, True),
            ({"users": {"bob": {}}}, True),
        ],
        ids=lambda value: json.dumps(value, separators=(",", ":")),
    )
    def test_open_takes_only_the_shapes_save_writes(self, tmp_path, document, opens):
        # every user must be an object, every value a string, every rsa_pub
        # an object of two strings, and users an object under a top-level one
        path = tmp_path / "store.json"
        path.write_text(json.dumps(document))
        if opens:
            AttributeStore(path).save()
            assert json.loads(path.read_text()) == document
        else:
            with pytest.raises(StoreUnavailableError, match="^cannot load store"):
                AttributeStore(path)

    @settings(max_examples=300, deadline=None)
    @given(
        attribute=st.sampled_from(VALID_ATTRIBUTES + ("tls_pub",)),
        octets=st.one_of(
            st.binary(max_size=100),
            st.sampled_from([32, 64]).flatmap(
                lambda size: st.binary(min_size=size, max_size=size)
            ),
        ),
        exponent=st.binary(max_size=4),
    )
    def test_publish_and_open_accept_the_same_values(
        self, attribute, octets, exponent
    ):
        """``publish`` refuses a value exactly when a store file holding it
        fails to open, and an adversary may substitute exactly the values
        publish accepts; an accepted value survives save and open. An
        rsa_pub value is the modulus ``octets`` with ``exponent``, framed
        for publish and stored as its two base64 components."""

        def encode(raw):
            return base64.b64encode(raw).decode("ascii")

        if attribute == "rsa_pub":
            value = {"n": encode(octets), "e": encode(exponent)}
            octets = b"".join(
                len(part).to_bytes(2, "big") + part for part in (octets, exponent)
            )
        else:
            value = encode(octets)
        with tempfile.TemporaryDirectory() as tmp:
            written = Path(tmp, "written.json")
            published = Path(tmp, "published.json")
            written.write_text(json.dumps({"users": {"bob": {attribute: value}}}))
            try:
                opened = AttributeStore(written)
            except StoreUnavailableError:
                opened = None
            store = AttributeStore(published)
            try:
                AttributeStore().set_adversary({("bob", attribute): octets})
            except ParameterError:
                substitutable = False
            else:
                substitutable = True
            try:
                store.publish("bob", attribute, octets)
            except PublishError:
                assert not substitutable
                assert opened is None
                return
            assert substitutable
            assert opened is not None
            assert opened.fetch("bob", attribute) == octets
            store.save()
            reopened = AttributeStore(published)
            assert reopened.fetch("bob", attribute) == octets
            opened.save()  # the canonical file of the same state
            assert written.read_bytes() == published.read_bytes()

    @settings(max_examples=400, deadline=None)
    @given(
        column=st.sampled_from(["ed25519_pub", "sig_rsa", "rsa_pub.n"]),
        octets=st.binary(min_size=1, max_size=300),
        edits=st.lists(_EDIT, max_size=3),
        place=st.sampled_from(["alone", "first", "middle", "last"]),
    )
    def test_open_accepts_exactly_canonical_base64(
        self, column, octets, edits, place
    ):
        """A value edited from canonical base64 opens exactly when, on its
        own, it decodes strictly to an acceptable size and minimal form and
        encodes back to itself. It stands alone in its column, which is
        the check publish runs, or first, middle or last among valid values
        of its column, so an edit that splits it into two lines shows."""
        attribute = column.partition(".")[0]
        if attribute == "rsa_pub":
            sizes, minimal = range(1, 0x10000), True
        else:
            size = {"ed25519_pub": 32, "sig_rsa": 64}[attribute]
            octets = (octets * size)[:size]
            sizes, minimal = range(size, size + 1), False
        value = _edited(_b64(octets), edits)

        try:
            decoded = base64.b64decode(value, validate=True)
        except ValueError:  # binascii.Error, or a non-ASCII character
            expected = False
        else:
            expected = (
                len(decoded) in sizes
                and not (minimal and decoded[0] == 0)
                and _b64(decoded) == value
            )

        valid = _b64(bytes([1]) * len(octets))
        texts = {
            "alone": {"b": value},
            "first": {"b": value, "c": valid, "d": valid},
            "middle": {"a": valid, "b": value, "c": valid},
            "last": {"a": valid, "c": valid, "b": value},
        }[place]
        users = {}
        for handle, text in texts.items():
            users[handle] = {
                attribute: {"n": text, "e": "AQAB"} if attribute == "rsa_pub" else text
            }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "store.json")
            path.write_text(json.dumps({"users": users}))
            try:
                opened = AttributeStore(path)
            except StoreUnavailableError:
                assert not expected, value
                return
        assert expected, value
        if attribute == "rsa_pub":
            decoded = frame_rsa_public(decoded, b"\x01\x00\x01")
        assert opened.fetch("b", attribute) == decoded

    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(BASE64_COLUMNS)),
        octets=st.lists(st.binary(min_size=1, max_size=70), min_size=2, max_size=40),
        targets=st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
        edits=st.tuples(_EDIT, _EDIT),
    )
    # a padding character moved from one value's end into another's start
    @example(
        name="sig_rsa",
        octets=[bytes(64), bytes(64)],
        targets=(0, 0),
        edits=(("substitute", 87, "A"), ("substitute", 0, "=")),
    )
    # one width, three paddings: "AQAB", "AQE=", "Aw==", edited to themselves
    @example(
        name="rsa_pub.e",
        octets=[b"\x01\x00\x01", b"\x01\x01", b"\x03"],
        targets=(0, 0),
        edits=(("substitute", 0, "A"), ("substitute", 0, "A")),
    )
    # the same with "AQF=", whose last character before "=" sets a pad bit
    @example(
        name="rsa_pub.e",
        octets=[b"\x01\x00\x01", b"\x01\x01", b"\x03"],
        targets=(1, 0),
        edits=(("substitute", 2, "F"), ("substitute", 0, "A")),
    )
    # a newline in place of one character keeps a fixed-size value's width
    @example(
        name="ed25519_pub",
        octets=[bytes(32), bytes(32), bytes(32)],
        targets=(1, 0),
        edits=(("substitute", 20, "\n"), ("substitute", 0, "A")),
    )
    def test_two_edited_values_in_one_column(self, name, octets, targets, edits):
        """The column check counts what deleting the alphabet leaves of the
        whole column, so two bad values must not cancel out: with two of
        its values edited, a column is refused exactly when the whole-value
        reference refuses it."""
        size = {"ed25519_pub": 32, "x25519_pub": 32}.get(name, 64)
        if not name.startswith("rsa_pub."):
            octets = [(part * size)[:size] for part in octets]
        values = [_b64(part) for part in octets]
        first = targets[0] % len(values)
        second = (first + 1 + targets[1] % (len(values) - 1)) % len(values)
        for index, edit in zip((first, second), edits):
            values[index] = _edited(values[index], [edit])
        expected = base64_column_ok(name, values)
        try:
            _check_column(name, values)
        except ValueError:
            assert not expected, values
        else:
            assert expected, values

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
        key = base64.b64encode(bytes(32)).decode("ascii")
        # a lenient decoder would skip the "!" and accept the 32 octets
        for value in ("!!!", key[:8] + "!" + key[8:]):
            path.write_text(json.dumps({"users": {"bob": {"ed25519_pub": value}}}))
            with pytest.raises(StoreUnavailableError):
                AttributeStore(path)

    def test_unwritable_path_raises(self, tmp_path):
        # parent "directory" is a regular file, so writes fail even as root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = AttributeStore(blocker / "store.json")
        store.publish("bob", "ed25519_pub", bytes(32))
        with pytest.raises(StoreUnavailableError):
            store.save()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_write_raises_naming_the_path(self, tmp_path, rsa_pair):
        # the file opens, but every write to /dev/full fails with ENOSPC
        path = tmp_path / "store.json"
        store = AttributeStore(path)
        for index in range(50):  # more text than one write buffer holds
            store.publish(f"user{index}", "rsa_pub", rsa_pair.public)
        path.symlink_to("/dev/full")
        with pytest.raises(StoreUnavailableError, match=re.escape(f"{path}: ")):
            store.save()

    def test_duplicate_handle_in_file_raises(self, tmp_path):
        path = tmp_path / "store.json"
        key = _b64(bytes(32))
        path.write_text(
            f'{{"users": {{"bob": {{"ed25519_pub": "{key}"}}, '
            f'"bob": {{"x25519_pub": "{key}"}}}}}}'
        )
        with pytest.raises(StoreUnavailableError):
            AttributeStore(path)

    @pytest.mark.parametrize(
        "user",
        [
            '{{"ed25519_pub": "{k}", "ed25519_pub": "{k}"}}',
            '{{"rsa_pub": {{"n": "AQAB", "n": "AQAB", "e": "AQAB"}}}}',
        ],
        ids=["attribute", "rsa-part"],
    )
    def test_duplicate_key_inside_a_user_raises(self, tmp_path, user):
        # json.loads alone would keep the last copy, which is valid here
        path = tmp_path / "store.json"
        path.write_text(f'{{"users": {{"bob": {user.format(k=_b64(bytes(32)))}}}}}')
        with pytest.raises(StoreUnavailableError, match="duplicate key"):
            AttributeStore(path)

    def test_an_escaped_colon_does_not_hide_a_repeated_key(self, tmp_path):
        # the escape writes no colon for the one the handle holds, and the
        # repeated attribute writes one more, so a count of colons balances
        path = tmp_path / "store.json"
        key = _b64(bytes(32))
        path.write_text(
            f'{{"users": {{"a\\u003a": '
            f'{{"ed25519_pub": "{key}", "ed25519_pub": "{key}"}}}}}}'
        )
        assert path.read_text().count(":") == 4
        with pytest.raises(StoreUnavailableError, match="duplicate key"):
            AttributeStore(path)

    @staticmethod
    def json_text(data, node) -> str:
        """``node`` as JSON text: a string, or an object given as a list of
        (key, node) pairs, repeated keys kept. Spacing, ASCII escapes and
        escaped colons are drawn from ``data``."""
        if isinstance(node, str):
            text = json.dumps(node, ensure_ascii=data.draw(st.booleans()))
            return text.replace(":", "\\u003a") if data.draw(st.booleans()) else text
        spaces = st.sampled_from(["", " ", "\n  "])
        members = [
            TestPersistence.json_text(data, key)
            + data.draw(spaces) + ":" + data.draw(spaces)
            + TestPersistence.json_text(data, value)
            for key, value in node
        ]
        return "{" + ("," + data.draw(spaces)).join(members) + "}"

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_a_repeated_key_is_refused_in_any_layout(self, tmp_path_factory, data):
        values = {
            "ed25519_pub": _b64(bytes(32)),
            "x25519_pub": _b64(bytes(range(32))),
            "rsa_pub": [("n", "AQAB"), ("e", "AQAB")],
            "sig_x25519": _b64(bytes(64)),
            "sig_rsa": _b64(bytes(64)),
        }
        handles = st.text(st.sampled_from(':"\\é a'), min_size=1, max_size=4)
        attributes = st.lists(st.sampled_from(list(values)), unique=True)
        users = [
            (handle, [(a, values[a]) for a in data.draw(attributes)])
            for handle in data.draw(st.lists(handles, max_size=3, unique=True))
        ]
        document = [("users", users)]
        repeat = data.draw(st.booleans())
        if repeat:
            # one member of one object, given twice
            objects = [document, users]
            for _, members in users:
                objects += [members, *(v for _, v in members if isinstance(v, list))]
            target = data.draw(st.sampled_from([o for o in objects if o]))
            member = data.draw(st.sampled_from(target))
            target.insert(data.draw(st.integers(0, len(target))), member)
        path = tmp_path_factory.mktemp("store") / "store.json"
        path.write_text(self.json_text(data, document), encoding="utf-8")
        if repeat:
            with pytest.raises(StoreUnavailableError, match="duplicate key"):
                AttributeStore(path)
        else:
            AttributeStore(path)

    def test_a_saved_store_opens_without_the_pairwise_parse(
        self, tmp_path, monkeypatch
    ):
        # what save() writes has no escape for an ASCII handle, so open's
        # colon count settles it; the parse that sees each pair is the
        # slower path for files that count cannot
        path = tmp_path / "store.json"
        store = AttributeStore(path)
        store.publish("a:b", "ed25519_pub", bytes(32))
        store.publish("a:b", "rsa_pub", frame_rsa_public(b"\x01\x00\x01", b"\x03"))
        store.publish("carol", "sig_x25519", bytes(64))
        store.save()

        def refuse(pairs):
            raise AssertionError("the pairwise parse ran")

        monkeypatch.setattr("keyauth.store._unique_keys", refuse)
        assert AttributeStore(path).fetch("a:b", "ed25519_pub") == bytes(32)


class TestFileFormat:
    """save() writes exactly json.dumps({"users": ...}, indent=2,
    sort_keys=True) and a newline, whatever layout the file it opened had."""

    @staticmethod
    def oracle(users) -> bytes:
        text = json.dumps({"users": users}, indent=2, sort_keys=True) + "\n"
        return text.encode("utf-8")

    def test_file_format_is_fixed(self, tmp_path):
        path = tmp_path / "store.json"
        store = AttributeStore(path)
        store.save()
        assert path.read_bytes() == b'{\n  "users": {}\n}\n'
        store.publish("bob", "ed25519_pub", bytes(range(32)))
        rsa_pub = frame_rsa_public(bytes(range(0x80, 0x90)), b"\x01\x00\x01")
        store.publish("bob", "rsa_pub", rsa_pub)
        store.publish('zoë "z"', "x25519_pub", bytes(range(32, 64)))
        store.publish('zoë "z"', "sig_x25519", bytes(range(64, 128)))
        store.save()
        assert path.read_bytes() == _GOLDEN_STORE

    @settings(max_examples=100, deadline=None)
    @given(users=st.dictionaries(_HANDLES, _ATTRIBUTES, max_size=4))
    def test_save_writes_what_json_dumps_writes(self, users):
        expected = {}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "store.json")
            store = AttributeStore(path)
            for handle, attributes in users.items():
                for attribute, octets in attributes.items():
                    if attribute == "rsa_pub":
                        n, e = octets
                        value = {"n": _b64(n), "e": _b64(e)}
                        octets = frame_rsa_public(n, e)
                    else:
                        value = _b64(octets)
                    store.publish(handle, attribute, octets)
                    expected.setdefault(handle, {})[attribute] = value
            store.save()
            assert path.read_bytes() == self.oracle(expected)

    @pytest.mark.parametrize(
        "users",
        [{}, {"bob": {}}, {"carol": {"ed25519_pub": _b64(bytes(32))}, "bob": {}}],
        ids=["no-users", "empty-user", "empty-user-among-others"],
    )
    def test_hand_written_shapes_are_rewritten_as_json_dumps_writes(
        self, tmp_path, users
    ):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({"users": users}, separators=(",", ":")))
        AttributeStore(path).save()
        assert path.read_bytes() == self.oracle(users)
