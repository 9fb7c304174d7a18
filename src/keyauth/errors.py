"""Error taxonomy for the key-authentication library.

Every error class carries a stable ``code`` discriminant that the CLI and
machine-readable output rely on; the class hierarchy is part of the public
contract, and a code never changes, not even when a subclass is added.

The five alarms about a contact's key (fingerprint conflict and mismatch,
failed comparison, invalid signature, changed key) share one constructor and
four fields: ``handle``, ``key_type``, ``tracked`` (the ring's pin, or None
when there is none) and ``observed`` (the fingerprint that contradicts it).
Each class names its ``code`` and its ``message`` template.
"""

from __future__ import annotations


class KeyAuthError(Exception):
    """Base class for all library errors."""

    code = "error"


class ParameterError(KeyAuthError, ValueError):
    """An argument violates an operation's contract."""

    code = "parameter"


class MalformedKeyError(KeyAuthError, ValueError):
    """Key, signature, or fingerprint octets have an invalid shape."""

    code = "malformed-key"


class KeyGenerationError(KeyAuthError):
    """The entropy source failed while generating key material."""

    code = "key-generation"


class IllegalMethodError(KeyAuthError):
    """Authentication method not permitted for this ring's key type."""

    code = "illegal-method"


class _KeyAlarm(KeyAuthError):
    """An alarm about a contact's key. Its ``message`` template, and the
    optional ``advice`` line the CLI prints after it, are formatted from the
    four fields."""

    message = ""
    advice = ""

    def __init__(self, handle: str, key_type, tracked, observed):
        self.handle = handle
        self.key_type = key_type
        self.tracked = tracked
        self.observed = observed
        super().__init__(self.message.format_map(vars(self)))
        self.advice = self.advice.format_map(vars(self))

    def __reduce__(self):
        # Exception's own rebuilds from args, the one message
        return type(self), (self.handle, self.key_type, self.tracked, self.observed)


class FingerprintConflictError(_KeyAlarm):
    """A tracked fingerprint differs from the one being recorded.

    The ring is left unchanged; resolution requires an explicit reset.
    """

    code = "fingerprint-conflict"
    message = (
        "fingerprint conflict for {handle!r}: tracked {tracked}, offered "
        "{observed}"
    )


class RingParseError(KeyAuthError):
    """Base class for authring deserialisation failures."""

    code = "ring-parse"


class BadMagicError(RingParseError):
    code = "ring-bad-magic"


class BadVersionError(RingParseError):
    code = "ring-bad-version"


class TruncatedRingError(RingParseError):
    code = "ring-truncated"


class ChecksumMismatchError(RingParseError):
    code = "ring-checksum-mismatch"


class DuplicateHandleError(RingParseError):
    code = "ring-duplicate-handle"


class InvalidRingDataError(RingParseError):
    """Structurally valid but semantically bad ring content (non-canonical
    record order, unknown tags, illegal method nibble, trailing data)."""

    code = "ring-invalid-data"


class PublishError(KeyAuthError):
    """Attribute store rejected a publish (bad name or octet shape)."""

    code = "publish"


class StoreUnavailableError(KeyAuthError):
    """Attribute store backing file cannot be read or written."""

    code = "store-unavailable"


class MissingKeyError(KeyAuthError):
    """A required public key or attribute is absent from the store."""

    code = "missing-key"


class MissingRecordError(KeyAuthError):
    """No ring record exists for the contact."""

    code = "missing-record"


class FingerprintMismatchError(_KeyAlarm):
    """A fetched key's fingerprint differs from the tracked one.

    Carries both fingerprints so the caller can display the alarm.
    """

    code = "fingerprint-mismatch"
    message = (
        "fingerprint mismatch for {handle!r} ({key_type.label}): tracked "
        "{tracked}, fetched key has {observed}"
    )


class ComparisonFailedError(FingerprintMismatchError):
    """A manually asserted fingerprint does not match the tracked one."""

    code = "comparison-failed"
    message = (
        "asserted fingerprint {observed} does not match the one tracked for "
        "{handle!r} ({tracked})"
    )
    advice = "DO NOT TRUST {handle!r} until the fingerprints match"


class SignatureInvalidError(_KeyAlarm):
    """A sub-key signature failed verification against the identity key."""

    code = "signature-invalid"
    message = (
        "signature verification failed for {handle!r} {key_type.label} key "
        "{observed}"
    )


class KeyChangedWarningError(_KeyAlarm):
    """A validly signed sub-key differs from the tracked fingerprint.

    The signature checks out, but silently replacing a pinned key would let
    a stolen identity key rotate sub-keys invisibly; the caller must reset
    the record explicitly to accept the new key.
    """

    code = "key-changed-warning"
    message = (
        "{handle!r} {key_type.label} key changed from {tracked} to {observed} "
        "(signature valid); reset the record to accept"
    )


class InitError(KeyAuthError):
    """Own-key initialisation cannot proceed."""

    code = "init"
