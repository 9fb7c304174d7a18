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
from .keys import FINGERPRINT_OCTETS, SUB_KEY_TYPES, Fingerprint, KeyType

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
        return key_type not in SUB_KEY_TYPES
    if method is AuthMethod.SIGNATURE_VERIFIED:
        return key_type in SUB_KEY_TYPES
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


_CRC32C_POLY = 0x11EDC6F41  # x^32 + ... + 1, Castagnoli, most significant bit first
_BIT_REVERSED = bytes(int(f"{octet:08b}"[::-1], 2) for octet in range(256))


def _mod_p(value: int) -> int:
    """value mod P, one bit at a time; for values of a few dozen bits."""
    for shift in range(value.bit_length() - 33, -1, -1):
        if value >> (shift + 32) & 1:
            value ^= _CRC32C_POLY << shift
    return value


def _fold_shifts() -> tuple[tuple[int, ...], ...]:
    """Entry j lists the set bits of x^(2^j) mod P, for j < 64. Squaring
    over GF(2) doubles every exponent: (sum of x^i)^2 = sum of x^(2i)."""
    table, power = [], 0b10  # x^(2^0)
    for _ in range(64):
        bits = tuple(bit for bit in range(32) if power >> bit & 1)
        table.append(bits)
        power = _mod_p(sum(1 << 2 * bit for bit in bits))
    return tuple(table)


_FOLD_SHIFTS = _fold_shifts()


def crc32c(data: bytes) -> int:
    """CRC-32C (Castagnoli), reflected, as one polynomial remainder.

    With each octet's bits reversed, the n-bit message M reads as one
    integer, and the register is (M*x^32 + 0xFFFFFFFF*x^n) mod P: the
    initial all-ones register is the x^n term. The remainder is taken by
    folding: the part above x^(2^j) is multiplied by x^(2^j) mod P, a few
    shifts and XORs, until at most 64 bits remain, then bit by bit.
    """
    value = (
        int.from_bytes(data.translate(_BIT_REVERSED), "big") << 32
        ^ 0xFFFFFFFF << 8 * len(data)
    )
    while (length := value.bit_length()) > 64:
        j = (length - 1).bit_length() - 1
        high, value = value >> (1 << j), value & ((1 << (1 << j)) - 1)
        for shift in _FOLD_SHIFTS[j]:
            value ^= high << shift
    register = _mod_p(value).to_bytes(4, "little").translate(_BIT_REVERSED)
    return int.from_bytes(register, "big") ^ 0xFFFFFFFF


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
    """Mutable ring for one key type, read through ``get`` and ``records``.

    Mutations keep two invariants: the tracked fingerprint for a handle
    never changes without an explicit reset, and the method only upgrades
    (a weaker observation never downgrades a stronger one). Failed
    operations leave the ring untouched.

    Each record is kept as the octets the ring format writes for it, in one
    append-only buffer: a read decodes them, and serialising copies them.
    ``changed`` turns true when a record is added, upgraded or removed.
    """

    __slots__ = ("key_type", "changed", "_records", "_data")

    def __init__(self, key_type: KeyType):
        if not isinstance(key_type, KeyType):
            raise ParameterError("key_type must be a KeyType")
        self.key_type = key_type
        self.changed = False
        # the offset in _data of each handle's current record; an upgraded or
        # removed record's octets stay in _data, reachable from no handle
        self._records: dict[str, int] = {}
        self._data = bytearray()

    def get(self, handle: str) -> AuthRecord | None:
        offset = self._records.get(handle)
        if offset is None:
            return None
        start = offset + 1 + self._data[offset]
        end = start + FINGERPRINT_OCTETS
        return AuthRecord(
            Fingerprint(bytes(self._data[start:end])),
            AuthMethod(self._data[end] & 0x0F),
            self._data[end] >> 4,
        )

    def records(self) -> list[tuple[str, AuthRecord]]:
        """All records, sorted by handle octets ascending."""
        # UTF-8 keeps code-point order (RFC 3629 §1), and str sorts by code point
        return [(handle, self.get(handle)) for handle in sorted(self._records)]

    def compare(self, handle: str, fingerprint: Fingerprint) -> CompareResult:
        record = self.get(handle)
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
        existing = self.get(handle)
        trust = 0 if existing is None else existing.trust
        if existing is not None and existing.fingerprint != fingerprint:
            raise FingerprintConflictError(
                handle, self.key_type, existing.fingerprint, fingerprint
            )
        if existing is not None and method <= existing.method:
            return existing
        encoded = handle.encode("utf-8")
        octets = bytes([len(encoded)]) + encoded + fingerprint.digest
        self._records[handle] = len(self._data)
        self._data += octets + bytes([(trust << 4) | method])
        self.changed = True
        return AuthRecord(fingerprint, method, trust)

    def reset_record(self, handle: str) -> None:
        """Forget a contact entirely; the only way to accept a changed key.

        Resetting an untracked handle is a no-op.
        """
        if self._records.pop(handle, None) is not None:
            self.changed = True

    def to_bytes(self) -> bytes:
        """Canonical serialisation; equal key types and records, equal bytes."""
        body = bytearray()
        body += RING_MAGIC
        body.append(RING_VERSION)
        body.append(self.key_type.tag)
        body += len(self._records).to_bytes(4, "big")
        for handle in sorted(self._records):
            offset = self._records[handle]
            end = offset + 1 + self._data[offset] + FINGERPRINT_OCTETS + 1
            body += self._data[offset:end]
        body += crc32c(bytes(body)).to_bytes(4, "big")
        return bytes(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AuthRing":
        """Parse a serialised ring, rejecting any corruption.

        The checksum is verified first, over everything preceding it, so
        every single-bit corruption surfaces as a checksum mismatch; the
        structural errors below can only be produced by well-checksummed
        but malformed input. Every record is checked, and none decoded.
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
            (trust << 4) | method
            for method in AuthMethod
            if method_legal_for(key_type, method)
            for trust in range(MAX_TRUST + 1)
        }
        count = int.from_bytes(body[6:10], "big")
        size = len(body)
        offset = _HEADER_OCTETS
        records: dict[str, int] = {}
        previous = b""  # sorts before every handle, none being empty
        for _ in range(count):
            if offset + 1 > size:
                raise TruncatedRingError("ring record list ends early")
            handle_end = offset + 1 + body[offset]
            if handle_end == offset + 1:
                raise InvalidRingDataError("empty handle in ring record")
            end = handle_end + FINGERPRINT_OCTETS + 1
            if end > size:
                raise TruncatedRingError("ring record ends early")
            handle_octets = body[offset + 1 : handle_end]
            if handle_octets <= previous:
                if handle_octets == previous:
                    raise DuplicateHandleError(
                        f"duplicate handle {handle_octets!r} in ring"
                    )
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
            if body[end - 1] not in legal:
                raise _illegal_packed_octet(key_type, body[end - 1])
            records[handle] = offset
            offset = end
        if offset != size:
            raise InvalidRingDataError(
                f"{size - offset} trailing octets after ring records"
            )
        ring = cls(key_type)
        ring._records = records
        ring._data = bytearray(data)
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
