"""The benchmark's workloads: inputs built from the seed, the op each one
times, and the expected result every op is checked against.

A workload object goes through ``setup()`` (timed as set-up), then passes:
``begin_pass()`` restores the pristine state outside the timed region and
returns the pass's ops, ``call(op)`` is the timed call into keyauth,
``check(op, result)`` compares it with the expected result, and
``end_pass(ops)`` checks the state the pass left behind. ``finish()`` runs
the checks that need the whole run.

Expected results come from the benchmark's own model of the inputs (which
contacts are pinned, cold, forged or rotated) and from independent
fingerprint and signature computations, not from keyauth's answers.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from keyauth import cli, scenarios
from keyauth.authring import AuthMethod, AuthRing
from keyauth.cli import save_own_material
from keyauth.keys import (
    ChatKeyPair,
    Fingerprint,
    IdentityKeyPair,
    KeyType,
    SharingKeyPair,
    generate_chat_keypair,
    generate_identity_keypair,
    sign_public_key,
)
from keyauth.store import AttributeStore
from keyauth.workflow import OwnKeyMaterial

POOL_PATH = Path(__file__).resolve().parent / "rsa_pool.json"

FIRST = "first"  # first contact / first publish / pre-contact scenario
REPEAT = "repeat"  # returning contact / no-op re-init / post-contact scenario
OTHER = "other"

SIGNED_PAYLOAD_PREFIX = b"MEGA_KEYAUTH_SIG\x00"
CLI_TYPES = {"identity": KeyType.IDENTITY_ED25519, "chat": KeyType.CHAT_X25519,
             "sharing": KeyType.SHARING_RSA}


# -- independent oracles --------------------------------------------------------


def fingerprint_of(public: bytes) -> bytes:
    """SHA-256 prefix over a key's public octets (EC keys)."""
    return hashlib.sha256(public).digest()[:20]


def rsa_frame(pair: SharingKeyPair) -> bytes:
    n, e = pair.modulus_n, pair.public_exponent_e
    return len(n).to_bytes(2, "big") + n + len(e).to_bytes(2, "big") + e


def rsa_fingerprint(pair: SharingKeyPair) -> bytes:
    return hashlib.sha256(pair.modulus_n + pair.public_exponent_e).digest()[:20]


def signature_ok(identity_public: bytes, tag: int, octets: bytes, sig: bytes) -> bool:
    payload = SIGNED_PAYLOAD_PREFIX + bytes([tag]) + octets
    try:
        Ed25519PublicKey.from_public_bytes(identity_public).verify(sig, payload)
    except (InvalidSignature, ValueError):
        return False
    return True


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- shared inputs ----------------------------------------------------------------


def load_pool() -> list[SharingKeyPair]:
    """The committed RSA pool (see make_pool.py), checked for consistency
    with the defining relation so a damaged fixture fails set-up."""
    pairs = []
    for entry in json.loads(POOL_PATH.read_text(encoding="ascii")):
        n, e, d, p, q = (int(entry[k], 16) for k in "nedpq")
        if n != p * q or (e * d) % math.lcm(p - 1, q - 1) != 1:
            raise ValueError("rsa_pool.json holds an inconsistent pair")
        pairs.append(SharingKeyPair(*(bytes.fromhex(entry[k]) for k in "nedpq")))
    return pairs


@dataclass
class Contact:
    handle: str
    identity: IdentityKeyPair
    chat: ChatKeyPair
    sharing: SharingKeyPair

    def public(self, key_type: KeyType) -> bytes:
        if key_type is KeyType.IDENTITY_ED25519:
            return self.identity.public
        if key_type is KeyType.CHAT_X25519:
            return self.chat.public
        return rsa_frame(self.sharing)

    def fingerprint(self, key_type: KeyType) -> bytes:
        if key_type is KeyType.SHARING_RSA:
            return rsa_fingerprint(self.sharing)
        return fingerprint_of(self.public(key_type))

    def attributes(self) -> dict[str, bytes]:
        return {
            "ed25519_pub": self.identity.public,
            "x25519_pub": self.chat.public,
            "rsa_pub": rsa_frame(self.sharing),
            "sig_x25519": sign_public_key(
                self.identity, KeyType.CHAT_X25519, self.chat.public
            ).sig,
            "sig_rsa": sign_public_key(
                self.identity, KeyType.SHARING_RSA, rsa_frame(self.sharing)
            ).sig,
        }


def make_contacts(rng: random.Random, pool, count: int, taken: set) -> list[Contact]:
    contacts = []
    while len(contacts) < count:
        handle = f"u{rng.getrandbits(40):010x}"
        if handle in taken:
            continue
        taken.add(handle)
        contacts.append(
            Contact(
                handle,
                generate_identity_keypair(rng.randbytes),
                generate_chat_keypair(rng.randbytes),
                pool[rng.randrange(len(pool))],
            )
        )
    return contacts


def write_store(path: Path, documents: dict[str, dict[str, bytes]]) -> None:
    """Publish every attribute and write the store file once.

    ``publish`` rewrites the whole file on every call, which would make
    building a 2k-user store quadratic; saving is held off until the end.
    """
    store = AttributeStore(path)
    store.save = lambda: None
    for handle, attributes in documents.items():
        for attribute, octets in attributes.items():
            store.publish(handle, attribute, octets)
    del store.save
    store.save()


def check_published(store: AttributeStore, contact: Contact) -> bool:
    """The store holds the contact's keys and both attestations verify."""
    attrs = {name: store.fetch(contact.handle, name) for name in
             ("ed25519_pub", "x25519_pub", "rsa_pub", "sig_x25519", "sig_rsa")}
    if any(value is None for value in attrs.values()):
        return False
    return (
        attrs["ed25519_pub"] == contact.identity.public
        and attrs["x25519_pub"] == contact.chat.public
        and attrs["rsa_pub"] == rsa_frame(contact.sharing)
        and signature_ok(attrs["ed25519_pub"], KeyType.CHAT_X25519.tag,
                         attrs["x25519_pub"], attrs["sig_x25519"])
        and signature_ok(attrs["ed25519_pub"], KeyType.SHARING_RSA.tag,
                         attrs["rsa_pub"], attrs["sig_rsa"])
    )


# -- matrix -------------------------------------------------------------------------

# The detection matrix as documented; mitm-identity-pre is the one false
# negative of pin-on-first-sight and must stay undetected.
EXPECTED_OUTCOMES = {
    "mitm-identity-pre": ("no-alarm",),
    "mitm-identity-post": ("fingerprint-mismatch",),
    "mitm-subkey-pre": ("signature-invalid",),
    "mitm-subkey-post": ("signature-invalid", "fingerprint-mismatch"),
    "strip-signature": ("no-alarm",),
}
_PRE_CONTACT = ("mitm-identity-pre", "mitm-subkey-pre")


class Matrix:
    """Scenario runs in in-memory worlds over a 4-key RSA pool, as
    ``scripts/run_detection_matrix.py`` does. The seed drives the world rng
    (handles, choices, pool draws); the pool and the EC keys come from
    keyauth's own generators, as in that script."""

    name = "matrix"
    tail_percentile = 95

    def __init__(self, seed: int, workdir: Path, sizes: dict | None = None):
        self.seed = seed

    def setup(self) -> None:
        self.pool = scenarios.build_rsa_pool()
        self.rng = random.Random(self.seed)

    def begin_pass(self):
        return itertools.cycle(EXPECTED_OUTCOMES)

    def kind(self, name: str) -> str:
        return FIRST if name in _PRE_CONTACT else REPEAT

    def call(self, name: str):
        return scenarios.run_scenario(name, self.rng, self.pool)

    def check(self, name: str, report) -> bool:
        return (
            report.name == name
            and report.observed in EXPECTED_OUTCOMES[name]
            and report.ok
        )

    def end_pass(self, ops) -> bool:
        return True

    def finish(self) -> bool:
        return True


# -- contacts: shared world ---------------------------------------------------------

CONTACT_SIZES = {
    "users": 2000,  # published users in the store
    "cold": 200,  # published but absent from the reader's rings
    "forged_sub": 20,  # pinned; store holds a forged chat or sharing key
    "forged_identity": 10,  # pinned; store holds a forged identity key
    "rotated": 20,  # pinned to an older, validly signed sub-key
    "pass_warm": 30,
    "pass_cold": 8,
    "pass_forged_sub": 2,
    "pass_forged_identity": 1,
    "pass_rotated": 1,
    "new_homes": 12,  # write workload: homes of users not yet published
    "old_homes": 28,  # write workload: homes of published users
    "pass_publish": 6,
    "pass_noop": 14,
}


@dataclass(frozen=True)
class FetchOp:
    contact: Contact
    type_name: str  # CLI key type alias
    kind: str
    exit_code: int
    stdout: str  # expected machine-readable output, "" for alarms
    alarm: str  # expected stderr prefix, "" on success


class ContactsRead:
    """``keyauth fetch`` against a populated store and three ~2k-record rings.

    Every command parses the three rings, opens the whole store and rewrites
    the rings, so this workload stresses ``authring``, ``store.open`` and the
    CLI's ring I/O; ``keys`` does at most one hash and one verify per op.
    """

    name = "contacts-read"
    tail_percentile = 90

    def __init__(self, seed: int, workdir: Path, sizes: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.sizes = {**CONTACT_SIZES, **(sizes or {})}

    def setup(self) -> None:
        size = self.sizes
        rng = random.Random(self.seed)
        pool = load_pool()
        contacts = make_contacts(rng, pool, size["users"], taken={"reader"})
        order = list(contacts)
        rng.shuffle(order)
        cut = itertools.accumulate(
            (size["cold"], size["forged_sub"], size["forged_identity"], size["rotated"])
        )
        c1, c2, c3, c4 = cut
        self.cold = order[:c1]
        forged_sub = order[c1:c2]
        forged_identity = order[c2:c3]
        rotated = order[c3:c4]
        self.warm = order[c4:]

        documents = {c.handle: c.attributes() for c in contacts}
        pins = {kt: {} for kt in KeyType}
        for contact in order[c1:]:
            pins[KeyType.IDENTITY_ED25519][contact.handle] = (
                contact.fingerprint(KeyType.IDENTITY_ED25519), AuthMethod.SEEN)
            for kt in (KeyType.CHAT_X25519, KeyType.SHARING_RSA):
                pins[kt][contact.handle] = (
                    contact.fingerprint(kt), AuthMethod.SIGNATURE_VERIFIED)

        forged_ops, identity_ops, rotated_ops = [], [], []
        for contact in forged_sub:
            type_name, key_type, fake, _ = self._other_key(rng, pool, contact)
            documents[contact.handle][_ATTRIBUTE[key_type]] = fake
            forged_ops.append(self._alarm(contact, type_name, 3, "signature-invalid"))
        for contact in forged_identity:
            fake = generate_identity_keypair(rng.randbytes).public
            documents[contact.handle]["ed25519_pub"] = fake
            identity_ops.append(self._alarm(contact, "identity", 2, "fingerprint-mismatch"))
        for contact in rotated:
            type_name, key_type, _, old_fp = self._other_key(rng, pool, contact)
            pins[key_type][contact.handle] = (old_fp, AuthMethod.SIGNATURE_VERIFIED)
            rotated_ops.append(self._alarm(contact, type_name, 4, "key-changed-warning"))
        self.alarm_ops = {"forged_sub": forged_ops, "forged_identity": identity_ops,
                          "rotated": rotated_ops}

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.store_path = self.workdir / "store.json"
        self.home = self.workdir / "reader"
        self.home.mkdir()
        write_store(self.store_path, documents)
        for kt in KeyType:
            ring = AuthRing(kt)
            for handle, (digest, method) in pins[kt].items():
                ring.track(handle, Fingerprint(digest), method)
            (self.home / f"{kt.label}.ring").write_bytes(ring.to_bytes())

        self.pins = pins
        self.pristine = {path: path.read_bytes() for path in self._state_files()}
        self.argv = ["--machine", "-u", "reader", "-H", str(self.home),
                     "-s", str(self.store_path), "fetch"]
        self.rng = random.Random(f"{self.seed}:ops")

    @staticmethod
    def _other_key(rng, pool, contact):
        """A chat or sharing key that is not the contact's: its type, public
        octets and fingerprint."""
        if rng.random() < 0.5:
            public = generate_chat_keypair(rng.randbytes).public
            return "chat", KeyType.CHAT_X25519, public, fingerprint_of(public)
        other = rng.choice([pair for pair in pool if pair is not contact.sharing])
        return "sharing", KeyType.SHARING_RSA, rsa_frame(other), rsa_fingerprint(other)

    @staticmethod
    def _alarm(contact, type_name, code, alarm) -> FetchOp:
        return FetchOp(contact, type_name, OTHER, code, "", f"error[{alarm}]")

    def _state_files(self) -> list[Path]:
        return [self.store_path] + [self.home / f"{kt.label}.ring" for kt in KeyType]

    def begin_pass(self) -> list[FetchOp]:
        for path, data in self.pristine.items():
            path.write_bytes(data)
        size, rng = self.sizes, self.rng
        ops = []
        for _ in range(size["pass_warm"]):
            contact = rng.choice(self.warm)
            type_name = rng.choice(("identity", "chat", "sharing"))
            ops.append(self._success(contact, type_name, REPEAT, fetches=1))
        for contact in rng.sample(self.cold, size["pass_cold"]):
            type_name = rng.choice(("identity", "chat", "sharing"))
            fetches = 1 if type_name == "identity" else 3
            ops.append(self._success(contact, type_name, FIRST, fetches))
        for group in ("forged_sub", "forged_identity", "rotated"):
            ops += rng.sample(self.alarm_ops[group], size[f"pass_{group}"])
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _success(contact: Contact, type_name: str, kind: str, fetches: int) -> FetchOp:
        key_type = CLI_TYPES[type_name]
        method = "seen" if key_type is KeyType.IDENTITY_ED25519 else "signature-verified"
        public = base64.b64encode(contact.public(key_type)).decode("ascii")
        stdout = f"{key_type.label}\t{public}\t{method}\t{fetches}\n"
        return FetchOp(contact, type_name, kind, 0, stdout, "")

    def kind(self, op: FetchOp) -> str:
        return op.kind

    def call(self, op: FetchOp):
        return run_cli(self.argv + [op.contact.handle, op.type_name])

    def check(self, op: FetchOp, result) -> bool:
        code, out, err = result
        if code != op.exit_code or out != op.stdout:
            return False
        return err.startswith(op.alarm) if op.alarm else err == ""

    def end_pass(self, ops: list[FetchOp]) -> bool:
        """Rings hold the pristine pins plus exactly what cold loads pinned."""
        expected = {kt: dict(records) for kt, records in self.pins.items()}
        for op in ops:
            if op.kind != FIRST:
                continue
            contact = op.contact
            expected[KeyType.IDENTITY_ED25519][contact.handle] = (
                contact.fingerprint(KeyType.IDENTITY_ED25519), AuthMethod.SEEN)
            key_type = CLI_TYPES[op.type_name]
            if key_type is not KeyType.IDENTITY_ED25519:
                expected[key_type][contact.handle] = (
                    contact.fingerprint(key_type), AuthMethod.SIGNATURE_VERIFIED)
        for kt in KeyType:
            ring = AuthRing.from_bytes((self.home / f"{kt.label}.ring").read_bytes())
            # every pin is made with trust 0, which the tuple's third slot checks
            actual = {
                handle: (record.fingerprint.digest, record.method, record.trust)
                for handle, record in ring.records()
            }
            expected[kt] = {h: (*pin, 0) for h, pin in expected[kt].items()}
            if ring.key_type is not kt or actual != expected[kt]:
                return False
        return True

    def finish(self) -> bool:
        return True


_ATTRIBUTE = {KeyType.CHAT_X25519: "x25519_pub", KeyType.SHARING_RSA: "rsa_pub"}


# -- contacts-write ---------------------------------------------------------------------


@dataclass(frozen=True)
class InitOp:
    contact: Contact
    home: Path
    kind: str
    stdout: str


_PUBLISH_REPORT = "".join(
    f"publish {attribute}\n"
    for attribute in ("ed25519_pub", "x25519_pub", "rsa_pub", "sig_x25519", "sig_rsa")
)
_NOOP_REPORT = "nothing to repair\n"


class ContactsWrite:
    """``keyauth init`` for pre-written homes against the populated store:
    first publishes (five attributes, each a full store rewrite) and no-op
    re-inits (store open plus the RSA consistency check)."""

    name = "contacts-write"
    tail_percentile = 90

    def __init__(self, seed: int, workdir: Path, sizes: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.sizes = {**CONTACT_SIZES, **(sizes or {})}

    def setup(self) -> None:
        size = self.sizes
        rng = random.Random(self.seed)
        pool = load_pool()
        taken: set = set()
        published = make_contacts(rng, pool, size["users"], taken)
        fresh = make_contacts(rng, pool, size["new_homes"], taken)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.store_path = self.workdir / "store.json"
        write_store(self.store_path, {c.handle: c.attributes() for c in published})

        homes = self.workdir / "homes"
        self.new = [InitOp(c, homes / c.handle, FIRST, _PUBLISH_REPORT) for c in fresh]
        self.old = [
            InitOp(c, homes / c.handle, REPEAT, _NOOP_REPORT)
            for c in rng.sample(published, size["old_homes"])
        ]
        self.key_files = {}
        for op in self.new + self.old:
            self._write_home(op)
            self.key_files[op.home] = {
                path.name: path.read_bytes() for path in op.home.iterdir()
            }
        self.published = published
        self.pristine_store = self.store_path.read_bytes()
        self.touched: list[InitOp] = []
        self.rng = random.Random(f"{self.seed}:ops")

    @staticmethod
    def _write_home(op: InitOp) -> None:
        """A home holding only the contact's private key files."""
        shutil.rmtree(op.home, ignore_errors=True)
        op.home.mkdir(parents=True, mode=0o700)
        contact = op.contact
        save_own_material(
            op.home, OwnKeyMaterial(contact.identity, contact.chat, contact.sharing)
        )

    def begin_pass(self) -> list[InitOp]:
        self.store_path.write_bytes(self.pristine_store)
        for op in self.touched:
            self._write_home(op)
        size, rng = self.sizes, self.rng
        ops = rng.sample(self.new, size["pass_publish"]) + rng.sample(
            self.old, size["pass_noop"]
        )
        rng.shuffle(ops)
        self.touched = ops
        self.done: list[InitOp] = []
        return ops

    def kind(self, op: InitOp) -> str:
        return op.kind

    def call(self, op: InitOp):
        return run_cli(["-u", op.contact.handle, "-H", str(op.home),
                        "-s", str(self.store_path), "init"])

    def check(self, op: InitOp, result) -> bool:
        return result == (0, op.stdout, "")

    def end_pass(self, ops: list[InitOp]) -> bool:
        """The store reopens, holds every home's keys with verifying
        attestations, gained exactly the new users, and the private key
        files are untouched."""
        store = AttributeStore(self.store_path)
        for op in ops:
            if not check_published(store, op.contact):
                return False
            for name, data in self.key_files[op.home].items():
                if (op.home / name).read_bytes() != data:
                    return False
        self.done = ops
        new = sum(1 for op in ops if op.kind == FIRST)
        document = json.loads(self.store_path.read_text(encoding="utf-8"))
        return len(document["users"]) == len(self.published) + new

    def finish(self) -> bool:
        """Every published signature in the store verifies."""
        store = AttributeStore(self.store_path)
        contacts = self.published + [op.contact for op in self.done
                                     if op.kind == FIRST]
        return all(check_published(store, contact) for contact in contacts)


WORKLOADS = {cls.name: cls for cls in (Matrix, ContactsRead, ContactsWrite)}
