"""Key loading and own-key initialisation over a store and rings.

The identity key is pinned on first sight and every later fetch is checked
against the pin; sub-keys additionally carry an identity-key signature, so
tampering with them is detectable even before first contact. Loading is
fetch-minimal: a sub-key already pinned as signature-verified costs a
single store round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .authring import AuthMethod, AuthRecord, AuthRing, CompareResult, checked_handle
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
    SIGNATURE_OCTETS,
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
    """Result of loading a contact's key: the octets as fetched, plus the
    ring state after the load."""

    key_type: KeyType
    public_octets: bytes
    method: AuthMethod
    freshly_tracked: bool


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


class Session:
    """A user's view of the world: the store and one ring per key type."""

    def __init__(
        self,
        store: AttributeStore,
        own_handle: str,
        rings: dict[KeyType, AuthRing] | None = None,
    ):
        if not isinstance(store, AttributeStore):
            raise ParameterError("store must be an AttributeStore")
        checked_handle(own_handle)
        if rings is None:
            rings = {key_type: AuthRing(key_type) for key_type in KeyType}
        for key_type in KeyType:
            ring = rings.get(key_type)
            if ring is None or ring.key_type is not key_type:
                raise ParameterError(
                    f"session needs a ring for {key_type.label}"
                )
        self.store = store
        self.own_handle = own_handle
        self.rings = rings

    def ring(self, key_type: KeyType) -> AuthRing:
        return self.rings[key_type]

    # -- loading contacts ------------------------------------------------

    def load_identity_key(self, handle: str) -> LoadedKey:
        """Fetch a contact's identity key and hold it against the pin.

        First sight pins the fingerprint with method SEEN; any later fetch
        that does not match the pin raises, leaving the ring unchanged.
        Exactly one store round trip.
        """
        key_type = KeyType.IDENTITY_ED25519
        public = self.store.fetch(handle, key_type.key_attribute)
        if public is None:
            raise MissingKeyError(f"{handle!r} has no published identity key")
        fingerprint = fingerprint_for(key_type, public)
        result = self.rings[key_type].compare(handle, fingerprint)
        return self._pin_on_first_sight(handle, key_type, public, fingerprint, result)

    def load_signed_key(self, handle: str, key_type: KeyType) -> LoadedKey:
        """Fetch a contact's chat or sharing key, verifying its attestation.

        A key already pinned as signature-verified short-circuits after the
        single key fetch. Otherwise the signature is fetched; if absent the
        key is handled like an unattested key (pin on first sight, alarm on
        pin mismatch), supporting contacts whose clients never published
        signatures. If present, the signature is verified against the
        contact's identity key (loaded through its own pinning flow): an
        invalid signature always raises; a valid signature over a key that
        contradicts the pin raises a key-changed warning rather than
        silently replacing the pin.
        """
        if key_type not in SUB_KEY_TYPES:
            raise ParameterError("load_signed_key handles chat and sharing keys only")
        public = self.store.fetch(handle, key_type.key_attribute)
        if public is None:
            raise MissingKeyError(f"{handle!r} has no published {key_type.label} key")
        fingerprint = fingerprint_for(key_type, public)
        ring = self.rings[key_type]
        result = ring.compare(handle, fingerprint)
        existing = ring.get(handle)
        if (
            result is CompareResult.MATCH
            and existing.method >= AuthMethod.SIGNATURE_VERIFIED
        ):
            return LoadedKey(key_type, public, existing.method, False)

        signature = self.store.fetch(handle, key_type.signature_attribute)
        if signature is not None and len(signature) == SIGNATURE_OCTETS:
            identity = self.load_identity_key(handle)
            if not verify_key_signature(
                identity.public_octets, key_type, public, signature
            ):
                raise SignatureInvalidError(handle, key_type, fingerprint)
            if result is CompareResult.MISMATCH:
                raise KeyChangedWarningError(
                    handle,
                    key_type,
                    tracked=existing.fingerprint,
                    observed=fingerprint,
                )
            record = ring.track(handle, fingerprint, AuthMethod.SIGNATURE_VERIFIED)
            return LoadedKey(
                key_type, public, record.method, result is CompareResult.ABSENT
            )

        # no attestation published: fall back to pin-on-first-sight
        return self._pin_on_first_sight(handle, key_type, public, fingerprint, result)

    def _pin_on_first_sight(
        self,
        handle: str,
        key_type: KeyType,
        public: bytes,
        fingerprint: Fingerprint,
        result: CompareResult,
    ) -> LoadedKey:
        """Accept a matching key, pin an unseen one with method SEEN, and
        raise on a mismatch, leaving the ring unchanged."""
        ring = self.rings[key_type]
        if result is CompareResult.MATCH:
            return LoadedKey(key_type, public, ring.get(handle).method, False)
        if result is CompareResult.ABSENT:
            record = ring.track(handle, fingerprint, AuthMethod.SEEN)
            return LoadedKey(key_type, public, record.method, True)
        raise FingerprintMismatchError(
            handle,
            tracked=ring.get(handle).fingerprint,
            observed=fingerprint,
            key_type=key_type,
        )

    # -- manual verification ----------------------------------------------

    def verify_contact_fingerprint(self, handle: str, asserted_hex: str) -> AuthRecord:
        """Compare an out-of-band identity fingerprint against the pin.

        The asserted hex is case-insensitive and may contain ASCII spaces
        (fingerprints are displayed in groups). On a match the record is
        upgraded to fingerprint-comparison, the strongest method; on a
        mismatch the ring is untouched and the caller must warn the user.
        """
        if not isinstance(asserted_hex, str):
            raise ParameterError("asserted fingerprint must be a string")
        try:
            asserted = Fingerprint.from_hex(asserted_hex.replace(" ", ""))
        except MalformedKeyError:
            raise ParameterError(
                f"asserted fingerprint must be {2 * FINGERPRINT_OCTETS} hex characters"
            ) from None
        ring = self.rings[KeyType.IDENTITY_ED25519]
        record = ring.get(handle)
        if record is None:
            raise MissingRecordError(
                f"no tracked identity key for {handle!r}; load it first"
            )
        if record.fingerprint != asserted:
            raise ComparisonFailedError(
                handle,
                tracked=record.fingerprint,
                observed=asserted,
                key_type=KeyType.IDENTITY_ED25519,
            )
        return ring.track(handle, record.fingerprint, AuthMethod.FINGERPRINT_COMPARISON)


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
    identity pair.
    """
    material = existing if existing is not None else OwnKeyMaterial()
    report: list[RepairAction] = []

    identity = material.identity
    if identity is None:
        identity = generate_identity_keypair()
        report.append(RepairAction(GENERATE, KeyType.IDENTITY_ED25519.label))

    chat = material.chat
    if chat is None:
        chat = generate_chat_keypair()
        report.append(RepairAction(GENERATE, KeyType.CHAT_X25519.label))

    sharing = material.sharing
    if sharing is None or not check_keypair_consistency(sharing):
        sharing = generate_sharing_keypair()
        report.append(RepairAction(GENERATE, KeyType.SHARING_RSA.label))

    # enum order fixes the report order, so reports are exactly comparable
    public_octets = {
        KeyType.IDENTITY_ED25519: identity.public,
        KeyType.CHAT_X25519: chat.public,
        KeyType.SHARING_RSA: sharing.public_frame(),
    }
    for key_type in KeyType:
        attribute = key_type.key_attribute
        octets = public_octets[key_type]
        if store.fetch(own_handle, attribute) != octets:
            store.publish(own_handle, attribute, octets)
            report.append(RepairAction(PUBLISH, attribute))

    for key_type in SUB_KEY_TYPES:
        attribute = key_type.signature_attribute
        octets = public_octets[key_type]
        current = store.fetch(own_handle, attribute)
        if current is None or not verify_key_signature(
            identity.public, key_type, octets, current
        ):
            signature = sign_public_key(identity, key_type, octets)
            store.publish(own_handle, attribute, signature.sig)
            report.append(RepairAction(PUBLISH, attribute))

    return OwnKeyMaterial(identity=identity, chat=chat, sharing=sharing), report
