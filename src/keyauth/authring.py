"""Per-contact authentication rings with a canonical, checksummed format.

A ring maps contact handles to the fingerprint pinned at first sight, the
strongest authentication method applied so far, and an opaque trust nibble
reserved for future use. One ring exists per key type; which methods are
legal depends on the type (only the identity key can be fingerprint-
compared, only sub-keys can be signature-verified).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum, auto

from .errors import (
    BadMagicError,
    BadVersionError,
    ChecksumMismatchError,
    DuplicateHandleError,
    FingerprintConflictError,
    IllegalMethodError,
    InvalidRingDataError,
    ParameterError,
    TruncatedRingError,
)
from .keys import FINGERPRINT_OCTETS, Fingerprint, KeyType

RING_MAGIC = b"MKAR"
RING_VERSION = 0x01
MAX_HANDLE_OCTETS = 255
MAX_TRUST = 0x0F

_HEADER_OCTETS = 4 + 1 + 1 + 4
_CHECKSUM_OCTETS = 4
_MIN_RING_OCTETS = _HEADER_OCTETS + _CHECKSUM_OCTETS


class AuthMethod(IntEnum):
    """How a tracked key was authenticated; ordered weakest to strongest."""

    SEEN = 0x0
    SIGNATURE_VERIFIED = 0x1
    FINGERPRINT_COMPARISON = 0x2

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


def method_legal_for(key_type: KeyType, method: AuthMethod) -> bool:
    """Fingerprints are only compared for the identity key; signatures only
    exist for sub-keys. SEEN is legal everywhere."""
    if method is AuthMethod.FINGERPRINT_COMPARISON:
        return key_type is KeyType.IDENTITY_ED25519
    if method is AuthMethod.SIGNATURE_VERIFIED:
        return key_type is not KeyType.IDENTITY_ED25519
    return True


@dataclass(frozen=True)
class AuthRecord:
    """What a ring remembers about one contact's key."""

    fingerprint: Fingerprint
    method: AuthMethod
    trust: int = 0

    def __post_init__(self):
        if not 0 <= self.trust <= MAX_TRUST:
            raise ParameterError(f"trust must fit in 4 bits, got {self.trust}")


class CompareResult(Enum):
    MATCH = auto()
    MISMATCH = auto()
    ABSENT = auto()


def _make_crc32c_table() -> tuple[int, ...]:
    table = []
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _make_crc32c_table()


def crc32c(data: bytes) -> int:
    """CRC-32C (Castagnoli), table-driven, reflected."""
    crc = 0xFFFFFFFF
    for octet in data:
        crc = (crc >> 8) ^ _CRC32C_TABLE[(crc ^ octet) & 0xFF]
    return crc ^ 0xFFFFFFFF


def checked_handle(handle) -> str:
    """``handle`` if a ring record can hold it: a non-empty string whose
    UTF-8 encoding is at most 255 octets. Anything else raises
    ParameterError."""
    if not isinstance(handle, str) or not handle:
        raise ParameterError("handle must be a non-empty string")
    try:
        encoded = handle.encode("utf-8")
    except UnicodeEncodeError:
        raise ParameterError("handle is not encodable as UTF-8") from None
    if len(encoded) > MAX_HANDLE_OCTETS:
        raise ParameterError(
            f"handle exceeds {MAX_HANDLE_OCTETS} octets when UTF-8 encoded"
        )
    return handle


class AuthRing:
    """Mutable ring for one key type.

    Mutations keep two invariants: the tracked fingerprint for a handle
    never changes without an explicit reset, and the method only upgrades
    (a weaker observation never downgrades a stronger one). Failed
    operations leave the ring untouched.
    """

    __slots__ = ("key_type", "_records")

    def __init__(self, key_type: KeyType):
        if not isinstance(key_type, KeyType):
            raise ParameterError("key_type must be a KeyType")
        self.key_type = key_type
        self._records: dict[str, AuthRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AuthRing):
            return NotImplemented
        return self.key_type is other.key_type and self._records == other._records

    def __repr__(self) -> str:
        return f"AuthRing({self.key_type.label}, {len(self._records)} records)"

    def get(self, handle: str) -> AuthRecord | None:
        return self._records.get(handle)

    def records(self) -> list[tuple[str, AuthRecord]]:
        """All records, sorted by handle octets ascending."""
        return sorted(self._records.items(), key=lambda item: item[0].encode("utf-8"))

    def compare(self, handle: str, fingerprint: Fingerprint) -> CompareResult:
        record = self._records.get(handle)
        if record is None:
            return CompareResult.ABSENT
        if record.fingerprint == fingerprint:
            return CompareResult.MATCH
        return CompareResult.MISMATCH

    def track(
        self, handle: str, fingerprint: Fingerprint, method: AuthMethod
    ) -> AuthRecord:
        """Record an observation of a contact's key.

        New handles are inserted with trust 0. For an existing handle the
        fingerprint must match (a conflict raises and changes nothing) and
        the stored method becomes max(old, new); trust is preserved.
        """
        checked_handle(handle)
        if not isinstance(method, AuthMethod):
            raise ParameterError("method must be an AuthMethod")
        if not method_legal_for(self.key_type, method):
            raise IllegalMethodError(
                f"{method.label} is not a legal method for the "
                f"{self.key_type.label} ring"
            )
        existing = self._records.get(handle)
        if existing is None:
            record = AuthRecord(fingerprint=fingerprint, method=method)
            self._records[handle] = record
            return record
        if existing.fingerprint != fingerprint:
            raise FingerprintConflictError(
                handle, tracked=existing.fingerprint, offered=fingerprint
            )
        if method > existing.method:
            record = AuthRecord(
                fingerprint=existing.fingerprint, method=method, trust=existing.trust
            )
            self._records[handle] = record
            return record
        return existing

    def reset_record(self, handle: str) -> None:
        """Forget a contact entirely; the only way to accept a changed key.

        Resetting an untracked handle is a no-op.
        """
        self._records.pop(handle, None)

    def to_bytes(self) -> bytes:
        """Canonical serialisation; equal rings always produce equal bytes."""
        body = bytearray()
        body += RING_MAGIC
        body.append(RING_VERSION)
        body.append(self.key_type.tag)
        body += len(self._records).to_bytes(4, "big")
        for handle, record in self.records():
            encoded = handle.encode("utf-8")
            body.append(len(encoded))
            body += encoded
            body += record.fingerprint.digest
            body.append((record.trust << 4) | int(record.method))
        body += crc32c(bytes(body)).to_bytes(4, "big")
        return bytes(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AuthRing":
        """Parse a serialised ring, rejecting any corruption.

        The checksum is verified first, over everything preceding it, so
        every single-bit corruption surfaces as a checksum mismatch; the
        structural errors below can only be produced by well-checksummed
        but malformed input.
        """
        if not isinstance(data, (bytes, bytearray)):
            raise ParameterError("ring data must be bytes")
        data = bytes(data)
        if len(data) < _MIN_RING_OCTETS:
            raise TruncatedRingError(
                f"ring data is {len(data)} octets, need at least {_MIN_RING_OCTETS}"
            )
        body, stored = data[:-_CHECKSUM_OCTETS], data[-_CHECKSUM_OCTETS:]
        computed = crc32c(body)
        if computed != int.from_bytes(stored, "big"):
            raise ChecksumMismatchError(
                f"ring checksum mismatch: stored {stored.hex()}, "
                f"computed {computed:08x}"
            )
        if body[:4] != RING_MAGIC:
            raise BadMagicError(f"bad ring magic {body[:4]!r}")
        if body[4] != RING_VERSION:
            raise BadVersionError(f"unsupported ring version {body[4]:#04x}")
        try:
            key_type = KeyType(body[5])
        except ValueError:
            raise InvalidRingDataError(f"unknown key type tag {body[5]:#04x}") from None
        # every legal packed octet of this ring type: (trust << 4) | method
        legal = {
            (trust << 4) | method: (method, trust)
            for method in AuthMethod
            if method_legal_for(key_type, method)
            for trust in range(MAX_TRUST + 1)
        }
        count = int.from_bytes(body[6:10], "big")
        offset = _HEADER_OCTETS
        records: dict[str, AuthRecord] = {}
        previous: bytes | None = None
        for _ in range(count):
            if offset + 1 > len(body):
                raise TruncatedRingError("ring record list ends early")
            handle_len = body[offset]
            offset += 1
            if handle_len == 0:
                raise InvalidRingDataError("empty handle in ring record")
            end = offset + handle_len + FINGERPRINT_OCTETS + 1
            if end > len(body):
                raise TruncatedRingError("ring record ends early")
            handle_octets = body[offset : offset + handle_len]
            if previous is not None:
                if handle_octets == previous:
                    raise DuplicateHandleError(
                        f"duplicate handle {handle_octets!r} in ring"
                    )
                if handle_octets < previous:
                    raise InvalidRingDataError(
                        "ring records are not in canonical handle order"
                    )
            previous = handle_octets
            try:
                handle = handle_octets.decode("utf-8")
            except UnicodeDecodeError:
                raise InvalidRingDataError(
                    f"handle {handle_octets!r} is not valid UTF-8"
                ) from None
            offset += handle_len
            fingerprint = Fingerprint(body[offset : offset + FINGERPRINT_OCTETS])
            offset += FINGERPRINT_OCTETS
            packed = body[offset]
            offset += 1
            try:
                method, trust = legal[packed]
            except KeyError:
                raise _illegal_packed_octet(key_type, packed) from None
            records[handle] = AuthRecord(
                fingerprint=fingerprint, method=method, trust=trust
            )
        if offset != len(body):
            raise InvalidRingDataError(
                f"{len(body) - offset} trailing octets after ring records"
            )
        ring = cls(key_type)
        ring._records = records
        return ring


def _illegal_packed_octet(key_type: KeyType, packed: int) -> InvalidRingDataError:
    """Why a record's method/trust octet is not legal in a ``key_type`` ring."""
    try:
        method = AuthMethod(packed & 0x0F)
    except ValueError:
        return InvalidRingDataError(f"unknown method nibble {packed & 0x0F:#03x}")
    return InvalidRingDataError(
        f"method {method.label} is illegal in a {key_type.label} ring"
    )
