"""Key loading and own-key initialisation over a store and rings.

The identity key is pinned on first sight and every later fetch is checked
against the pin; sub-keys additionally carry an identity-key signature, so
tampering with them is detectable even before first contact. ``POLICY`` is
the trust decision as one table, which every load and comparison looks up.
Loading is fetch-minimal: a sub-key already pinned as signature-verified
costs a single store round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .authring import AuthMethod, AuthRecord, AuthRing, CompareResult
from .errors import (
    ComparisonFailedError,
    FingerprintMismatchError,
    KeyChangedWarningError,
    MalformedKeyError,
    MissingKeyError,
    MissingRecordError,
    ParameterError,
    SignatureInvalidError,
)
from .keys import (
    FINGERPRINT_OCTETS,
    SUB_KEY_TYPES,
    ChatKeyPair,
    Fingerprint,
    IdentityKeyPair,
    KeyType,
    SharingKeyPair,
    check_keypair_consistency,
    fingerprint_for,
    generate_chat_keypair,
    generate_identity_keypair,
    generate_sharing_keypair,
    sign_public_key,
    verify_key_signature,
)
from .store import AttributeStore

GENERATE = "generate"
PUBLISH = "publish"


@dataclass(frozen=True)
class LoadedKey:
    """A contact's key as fetched, and its ring method after the load."""

    public_octets: bytes
    method: AuthMethod


@dataclass
class OwnKeyMaterial:
    """A user's private key material; fields are None until generated."""

    identity: IdentityKeyPair | None = None
    chat: ChatKeyPair | None = None
    sharing: SharingKeyPair | None = None


@dataclass(frozen=True)
class RepairAction:
    """One step taken by initialisation: ``generate`` of a key type or
    ``publish`` of a store attribute."""

    action: str
    target: str

    def __str__(self) -> str:
        return f"{self.action} {self.target}"


# The trust decision: (evidence, the key against the pin) -> (method to track
# or None, alarm to raise or None). The evidence is "unsigned" (always so for
# the identity key), a sub-key's "signed" or "bad signature", or "compared"
# out of band, which needs a pin.
POLICY = {
    ("unsigned", CompareResult.ABSENT): (AuthMethod.SEEN, None),
    ("unsigned", CompareResult.MATCH): (None, None),
    ("unsigned", CompareResult.MISMATCH): (None, FingerprintMismatchError),
    ("signed", CompareResult.ABSENT): (AuthMethod.SIGNATURE_VERIFIED, None),
    ("signed", CompareResult.MATCH): (AuthMethod.SIGNATURE_VERIFIED, None),
    ("signed", CompareResult.MISMATCH): (None, KeyChangedWarningError),
    ("bad signature", CompareResult.ABSENT): (None, SignatureInvalidError),
    ("bad signature", CompareResult.MATCH): (None, SignatureInvalidError),
    ("bad signature", CompareResult.MISMATCH): (None, SignatureInvalidError),
    ("compared", CompareResult.MATCH): (AuthMethod.FINGERPRINT_COMPARISON, None),
    ("compared", CompareResult.MISMATCH): (None, ComparisonFailedError),
}


class Session:
    """A user's view of the world: the store and one ring per key type,
    which ``load_ring(key_type)`` supplies when a decision first needs it.
    The default gives empty in-memory rings."""

    def __init__(self, store: AttributeStore, load_ring=AuthRing):
        if not isinstance(store, AttributeStore):
            raise ParameterError("store must be an AttributeStore")
        self.store = store
        self._load_ring = load_ring
        self.rings: dict[KeyType, AuthRing] = {}

    def ring(self, key_type: KeyType) -> AuthRing:
        """The ring for ``key_type``, loaded on first use and kept in
        ``rings``; a loaded ring of another key type raises ParameterError."""
        ring = self.rings.get(key_type)
        if ring is None:
            ring = self._load_ring(key_type)
            if ring.key_type is not key_type:
                raise ParameterError(f"session needs a ring for {key_type.label}")
            self.rings[key_type] = ring
        return ring

    # -- loading contacts ------------------------------------------------

    def load(self, handle: str, key_type: KeyType) -> LoadedKey:
        """Load a contact's key of ``key_type`` by the loader for its type."""
        if key_type is KeyType.IDENTITY_ED25519:
            return self.load_identity_key(handle)
        return self.load_signed_key(handle, key_type)

    def load_identity_key(self, handle: str) -> LoadedKey:
        """Fetch a contact's identity key and hold it against the pin.

        It carries no signature, so it takes ``POLICY``'s unsigned rows:
        first sight pins it at SEEN and a mismatch raises. Exactly one
        store round trip.
        """
        key_type = KeyType.IDENTITY_ED25519
        public, fingerprint, result = self._fetch(handle, key_type, "identity")
        record = self._decide(handle, key_type, fingerprint, "unsigned", result)
        return LoadedKey(public, record.method)

    def load_signed_key(self, handle: str, key_type: KeyType) -> LoadedKey:
        """Fetch a contact's chat or sharing key, verifying its attestation.

        A key already pinned as signature-verified short-circuits after the
        single key fetch. Otherwise a published signature is verified against
        the identity key, loaded first, as signed or bad signature; with none
        published the key is unsigned. ``POLICY`` then decides.
        """
        if key_type not in SUB_KEY_TYPES:
            raise ParameterError("load_signed_key handles chat and sharing keys only")
        public, fingerprint, result = self._fetch(handle, key_type, key_type.label)
        pin = self.ring(key_type).get(handle)
        if (
            result is CompareResult.MATCH
            and pin.method >= AuthMethod.SIGNATURE_VERIFIED
        ):
            return LoadedKey(public, pin.method)

        evidence = "unsigned"
        signature = self.store.fetch(handle, key_type.signature_attribute)
        if signature is not None:
            identity = self.load_identity_key(handle)
            valid = verify_key_signature(
                identity.public_octets, key_type, public, signature
            )
            evidence = "signed" if valid else "bad signature"
        record = self._decide(handle, key_type, fingerprint, evidence, result)
        return LoadedKey(public, record.method)

    def _fetch(self, handle: str, key_type: KeyType, name: str):
        """A contact's published key, its fingerprint and result against the pin."""
        public = self.store.fetch(handle, key_type.key_attribute)
        if public is None:
            raise MissingKeyError(f"{handle!r} has no published {name} key")
        fingerprint = fingerprint_for(key_type, public)
        return public, fingerprint, self.ring(key_type).compare(handle, fingerprint)

    def _decide(self, handle, key_type, fingerprint, evidence, result) -> AuthRecord:
        """Raise the alarm of ``POLICY``'s row for ``evidence`` and ``result``,
        or track its method; returns the contact's record after it."""
        ring = self.ring(key_type)
        method, alarm = POLICY[evidence, result]
        if alarm is not None:
            pin = ring.get(handle)
            tracked = None if pin is None else pin.fingerprint
            raise alarm(handle, key_type, tracked, fingerprint)
        if method is None:
            return ring.get(handle)
        return ring.track(handle, fingerprint, method)

    # -- manual verification ----------------------------------------------

    def verify_contact_fingerprint(self, handle: str, asserted_hex: str) -> AuthRecord:
        """Compare an out-of-band identity fingerprint against the pin.

        The asserted hex is case-insensitive and may contain ASCII spaces
        (fingerprints are displayed in groups). ``POLICY``'s compared rows
        decide: a match upgrades the record to fingerprint-comparison, the
        strongest method; a contact with no pin raises MissingRecordError.
        """
        if not isinstance(asserted_hex, str):
            raise ParameterError("asserted fingerprint must be a string")
        try:
            asserted = Fingerprint.from_hex(asserted_hex.replace(" ", ""))
        except MalformedKeyError:
            raise ParameterError(
                f"asserted fingerprint must be {2 * FINGERPRINT_OCTETS} hex characters"
            ) from None
        key_type = KeyType.IDENTITY_ED25519
        result = self.ring(key_type).compare(handle, asserted)
        if result is CompareResult.ABSENT:
            raise MissingRecordError(
                f"no tracked identity key for {handle!r}; load it first"
            )
        return self._decide(handle, key_type, asserted, "compared", result)


def init_own_keys(
    store: AttributeStore,
    own_handle: str,
    existing: OwnKeyMaterial | None = None,
) -> tuple[OwnKeyMaterial, list[RepairAction]]:
    """Bring a user's key material and published attributes in line, and
    return the material settled on with the report of what was done.

    Local private keys are the source of truth: missing pairs are
    generated, an inconsistent RSA pair is regenerated (an EC pair is
    consistent by construction), and the store is updated wherever it
    diverges (publics republished, signatures re-signed when absent or no
    longer verifying). Each step is reported in a fixed order, so a fully
    consistent state yields an empty report and rerunning is
    byte-idempotent. A new identity invalidates every published signature
    and every contact's pin; it is generated only when ``existing`` has no
    identity pair. The store changes in memory only: the caller saves it
    after writing the returned private keys.
    """
    material = existing if existing is not None else OwnKeyMaterial()
    report: list[RepairAction] = []

    # the generators are looked up at each call, so a rebound name sees every keygen
    pairs = {}
    for key_type, generate in (
        (KeyType.IDENTITY_ED25519, generate_identity_keypair),
        (KeyType.CHAT_X25519, generate_chat_keypair),
        (KeyType.SHARING_RSA, generate_sharing_keypair),
    ):
        pair = getattr(material, key_type.alias)
        if pair is None or not check_keypair_consistency(pair):
            pair = generate()
            report.append(RepairAction(GENERATE, key_type.label))
        pairs[key_type.alias] = pair
    identity = pairs[KeyType.IDENTITY_ED25519.alias]

    # enum order fixes the report order, so reports are exactly comparable
    for key_type in KeyType:
        attribute = key_type.key_attribute
        octets = pairs[key_type.alias].public
        if store.fetch(own_handle, attribute) != octets:
            store.publish(own_handle, attribute, octets)
            report.append(RepairAction(PUBLISH, attribute))

    for key_type in SUB_KEY_TYPES:
        attribute = key_type.signature_attribute
        octets = pairs[key_type.alias].public
        current = store.fetch(own_handle, attribute)
        if current is None or not verify_key_signature(
            identity.public, key_type, octets, current
        ):
            signature = sign_public_key(identity, key_type, octets)
            store.publish(own_handle, attribute, signature.sig)
            report.append(RepairAction(PUBLISH, attribute))

    return OwnKeyMaterial(**pairs), report
