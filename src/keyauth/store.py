"""Simulated remote attribute store with adversary hooks.

Clients fetch public keys and signatures from an untrusted server; this
store stands in for it. Stored truth stays intact on disk while an
optional adversary, a table from (handle, attribute) to what a fetch
returns, tampers with fetch results, so tests and scenarios can model a
man-in-the-middle without corrupting the fixture. Every fetch is counted
per (handle, attribute) to make round-trip costs observable.
"""

from __future__ import annotations

import base64
import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping

from .authring import MAX_HANDLE_OCTETS, checked_handle
from .errors import ParameterError, PublishError, StoreUnavailableError
from .keys import (
    EC_KEY_OCTETS,
    SIGNATURE_OCTETS,
    SUB_KEY_TYPES,
    KeyType,
    frame_rsa_public,
    unframe_rsa_public,
)

PUBLIC_KEY_ATTRIBUTES = tuple(key_type.key_attribute for key_type in KeyType)
SIGNATURE_ATTRIBUTES = tuple(key_type.signature_attribute for key_type in SUB_KEY_TYPES)
VALID_ATTRIBUTES = PUBLIC_KEY_ATTRIBUTES + SIGNATURE_ATTRIBUTES
_SORTED_ATTRIBUTES = sorted(VALID_ATTRIBUTES)  # the order save() writes


# octets of each attribute with a fixed size; rsa_pub is the one known
# attribute of variable size
_FIXED_OCTETS = {
    KeyType.IDENTITY_ED25519.key_attribute: EC_KEY_OCTETS,
    KeyType.CHAT_X25519.key_attribute: EC_KEY_OCTETS,
    **dict.fromkeys(SIGNATURE_ATTRIBUTES, SIGNATURE_OCTETS),
}
_RSA_ATTRIBUTE = KeyType.SHARING_RSA.key_attribute
# an rsa_pub value as save() writes it
_RSA_VALUE = '{{\n        "e": "{e}",\n        "n": "{n}"\n      }}'

# Canonical base64 (RFC 4648 section 3.5). Each table for bytes.translate
# maps the characters named to 1 and all others to 0.
_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_PAD, _ZERO_1, _ZERO_2, _PAD_BITS_2, _PAD_BITS_4 = (
    bytes(octet in chars for octet in range(256))
    for chars in (
        b"=",
        b"A",  # a value that starts "A" then A-P starts with a zero octet
        _ALPHABET[:16],
        # a pad bit set: the last 2 of 6 bits before "=", the last 4 before "=="
        bytes(c for i, c in enumerate(_ALPHABET) if i & 0b11),
        bytes(c for i, c in enumerate(_ALPHABET) if i & 0b1111),
    )
)

# column -> (octet counts a value may decode to, whether it must be minimal,
# with no leading zero octet); an RSA component is, and has a 2-octet length
_COLUMNS = {a: (range(n, n + 1), False) for a, n in _FIXED_OCTETS.items()} | {
    f"{_RSA_ATTRIBUTE}.{part}": (range(1, 0x10000), True) for part in "ne"
}


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of fetch counters."""

    total: int
    per_attribute: Mapping[tuple[str, str], int] = field(default_factory=dict)

    def count(self, handle: str, attribute: str) -> int:
        return self.per_attribute.get((handle, attribute), 0)


class AttributeStore:
    """Key-value store of per-user public attributes, JSON-backed.

    With ``path=None`` the store lives purely in memory (used by the
    attack scenarios). With a path, the file is loaded if present and
    written only by ``save``, deterministically, so byte-identical state
    always produces a byte-identical file.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        # the JSON value save() writes for each attribute, decoded at fetch
        self._users: dict[str, dict[str, str | dict[str, str]]] = {}
        self._counts: Counter[tuple[str, str]] = Counter()
        self._adversary: dict[tuple[str, str], bytes | None] = {}
        if self._path is not None and self._path.exists():
            self._load()

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        """Read the file, validating every value one attribute column at
        a time: each must be what ``save`` writes for a value ``publish``
        accepts."""
        # ValueError covers bad UTF-8 and JSON, and bad handles and values
        try:
            # read_text would also translate newlines, which changes no
            # verdict: CR is whitespace outside a string and refused inside one
            text = self._path.read_bytes().decode("utf-8")
            document = json.loads(text)
            # save() writes only users; the next save would lose anything more
            if document.keys() != {"users"}:
                raise ValueError("the top-level object must hold only users")
            users = document["users"]
            records = users.values()
            handles = "".join(users)
            longest = max(map(len, users), default=0)
            if "" in users or not handles.isascii() or longest > MAX_HANDLE_OCTETS:
                for handle in users:  # for checked_handle's message
                    checked_handle(handle)
            if not set(map(type, records)) <= {dict}:
                raise TypeError("every user must be an object")
            unknown = set().union(*records).difference(VALID_ATTRIBUTES)
            if unknown:
                raise PublishError(f"unknown attribute {min(unknown)!r}")
            columns = {
                attribute: [user[attribute] for user in records if attribute in user]
                for attribute in VALID_ATTRIBUTES
            }
            rsa = columns.pop(_RSA_ATTRIBUTE)
            # KeyError or TypeError unless each rsa_pub is an object with n and e
            for part in ("n", "e"):
                columns[f"{_RSA_ATTRIBUTE}.{part}"] = [value[part] for value in rsa]
            # save() writes exactly n and e; the next save would lose anything more
            if sum(map(len, rsa)) != 2 * len(rsa):
                raise TypeError(
                    f"{_RSA_ATTRIBUTE} must be an object holding exactly n and e"
                )
            for name, values in columns.items():
                _check_column(name, values)
            # json.loads keeps only the last value of a repeated key. Each
            # member of an object, kept or not, writes one colon and valid
            # values hold none; so when no escape can hide a colon, the text
            # repeats no key if its colons are one per kept member plus those
            # in the handles. Any other text is parsed again, pair by pair.
            # kept members: "users", the handles, their attributes, n and e
            members = 1 + len(users) + sum(map(len, records)) + 2 * len(rsa)
            if "\\" in text or text.count(":") != members + handles.count(":"):
                json.loads(text, object_pairs_hook=_unique_keys)
        except (
            OSError, ValueError, KeyError, TypeError, AttributeError, PublishError,
            RecursionError,
        ) as exc:
            raise StoreUnavailableError(f"cannot load store {self._path}: {exc}") from exc
        self._users = users

    def save(self) -> None:
        """Write ``json.dumps({"users": ...}, indent=2, sort_keys=True)`` and a
        newline to the file, if any, rendered in full before open truncates it."""
        if self._path is None:
            return
        pieces = list(_render(self._users))
        try:
            with self._path.open("w", encoding="utf-8") as file:
                file.writelines(pieces)
        except OSError as exc:
            raise StoreUnavailableError(f"cannot write store {self._path}: {exc}") from exc

    # -- core operations -----------------------------------------------

    def publish(self, handle: str, attribute: str, octets: bytes) -> None:
        """Set an attribute in memory, not in the file; last writer wins."""
        checked_handle(handle)
        value = _encode_attribute(attribute, octets)
        self._users.setdefault(handle, {})[attribute] = value

    def fetch(self, handle: str, attribute: str) -> bytes | None:
        """Read an attribute as seen over the wire; absent values are None.

        An adversary rule for (handle, attribute), if any, answers in
        place of the stored value. Every call is counted, including
        fetches of absent attributes.
        """
        if attribute not in VALID_ATTRIBUTES:
            raise ParameterError(f"unknown attribute {attribute!r}")
        key = (handle, attribute)
        self._counts[key] += 1
        if key in self._adversary:
            return self._adversary[key]
        value = self._users.get(handle, {}).get(attribute)
        return None if value is None else _decode_attribute(attribute, value)

    # -- adversary and accounting ----------------------------------------

    def set_adversary(self, rules: Mapping[tuple[str, str], bytes | None]) -> None:
        """Replace the adversary: a fetch of (handle, attribute) in ``rules``
        returns its octets, a substituted value, or None, a signature that
        appears absent. The stored truth is never modified; ``{}`` removes
        the adversary."""
        if not isinstance(rules, Mapping):
            raise ParameterError("adversary rules must be a mapping")
        for key, octets in rules.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise ParameterError(f"rule key {key!r} is not (handle, attribute)")
            handle, attribute = key
            checked_handle(handle)
            if octets is None:
                if attribute not in SIGNATURE_ATTRIBUTES:
                    raise ParameterError(
                        f"only a signature can appear absent, not {attribute!r}"
                    )
            else:
                try:
                    _encode_attribute(attribute, octets)
                except PublishError as exc:
                    raise ParameterError(f"invalid replacement: {exc}") from exc
        self._adversary = dict(rules)

    def stats(self) -> StoreStats:
        return StoreStats(sum(self._counts.values()), dict(self._counts))

    def reset_stats(self) -> None:
        self._counts.clear()


def _encode_attribute(attribute: str, octets: bytes) -> str | dict[str, str]:
    """The JSON value ``save`` writes for ``octets``, each of its cells
    checked as open checks its column, so publish accepts exactly the values
    a store file can hold."""
    if attribute not in VALID_ATTRIBUTES:
        raise PublishError(f"unknown attribute {attribute!r}")
    if not isinstance(octets, bytes):  # b64encode would take a bytearray
        raise PublishError(f"{attribute} value must be bytes")
    try:
        if attribute == _RSA_ATTRIBUTE:
            n, e = (
                base64.b64encode(part).decode("ascii")
                for part in unframe_rsa_public(octets)
            )
            _check_column(f"{attribute}.n", [n])
            _check_column(f"{attribute}.e", [e])
            return {"n": n, "e": e}
        value = base64.b64encode(octets).decode("ascii")
        _check_column(attribute, [value])
        return value
    except ValueError as exc:
        if attribute == _RSA_ATTRIBUTE:
            raise PublishError(f"{attribute} is not a valid framed key: {exc}") from exc
        # base64 of octets is canonical, so only the size can be wrong
        raise PublishError(
            f"{attribute} must be {_FIXED_OCTETS[attribute]} octets, got {len(octets)}"
        ) from exc


def _render(users: Mapping[str, Mapping]):
    """Yield ``json.dumps({"users": users}, indent=2, sort_keys=True) + "\\n"``
    a user a piece, without the pure-Python encoder ``indent`` selects: json's C
    quoter quotes handles, and values are canonical base64, which needs no escape."""
    lead = '{\n  "users": {\n    '
    for handle, attributes in sorted(users.items()):
        fields = []
        for attribute in _SORTED_ATTRIBUTES:
            if attribute in attributes:
                value = attributes[attribute]
                if attribute == _RSA_ATTRIBUTE:
                    value = _RSA_VALUE.format_map(value)
                else:
                    value = f'"{value}"'
                fields.append(f'"{attribute}": {value}')
        body = "{\n      " + ",\n      ".join(fields) + "\n    }" if fields else "{}"
        yield f"{lead}{encode_basestring_ascii(handle)}: {body}"
        lead = ",\n    "
    yield "\n  }\n}\n" if users else '{\n  "users": {}\n}\n'


def _decode_attribute(attribute: str, value: str | dict[str, str]) -> bytes:
    """Inverse of :func:`_encode_attribute` for a value already validated."""
    if attribute == _RSA_ATTRIBUTE:
        return frame_rsa_public(
            base64.b64decode(value["n"]), base64.b64decode(value["e"])
        )
    return base64.b64decode(value)


def _check_column(name: str, values: list) -> None:
    """Raise ValueError unless every value of column ``name`` is canonical
    base64 of a size the column allows. Sorted by length, joined by newlines
    and encoded once, the values of one width w put their character k in the
    stride slice ``data[start + k::w + 1]``, which a translate table turns
    into a bit a value: so the last two characters give each value's padding
    and size, and those before the padding its pad bits and a leading zero
    octet. Deleting the alphabet must then leave only newlines and padding."""
    if not values:
        return
    sizes, minimal = _COLUMNS[name]
    # TypeError if a value is not a string; UnicodeEncodeError, a ValueError,
    # if it is not ASCII
    values = sorted(values, key=len)
    data = "\n".join(values).encode("ascii")
    padding = start = begin = 0
    while begin < len(values):  # a group of values of one width a pass
        width = len(values[begin])
        end = bisect_right(values, width, begin, key=len)
        if not width or width % 4:
            break
        step, count = width + 1, end - begin
        stop, tail = start + count * step, start + width
        pad1 = _bits(data[tail - 1 : stop : step], _PAD)  # values ending "="
        pad2 = _bits(data[tail - 2 : stop : step], _PAD)  # and "=="
        ones, twos = pad1.bit_count(), pad2.bit_count()
        octets = width // 4 * 3  # less one an "="; sizes is a range
        if (
            pad2 & ~pad1
            or pad1 & _bits(data[tail - 2 : stop : step], _PAD_BITS_2)
            or pad2 & _bits(data[tail - 3 : stop : step], _PAD_BITS_4)
            or octets - (ones > 0) - (twos > 0) not in sizes
            or octets - (ones == count) - (twos == count) not in sizes
            or minimal
            and _bits(data[start:stop:step], _ZERO_1)
            & _bits(data[start + 1 : stop : step], _ZERO_2)
        ):
            break
        padding += ones + twos
        start, begin = stop, end
    else:
        if len(data.translate(None, _ALPHABET)) == len(values) - 1 + padding:
            return
    raise ValueError(
        f"{name} holds a value that is not canonical base64 of a valid size"
    )


def _bits(chars: bytes, table: bytes) -> int:
    return int.from_bytes(chars.translate(table), "big")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key given twice, of which
    json.loads alone would keep the last value."""
    document = dict(pairs)
    if len(document) != len(pairs):
        key = Counter(key for key, _ in pairs).most_common(1)[0][0]
        raise ValueError(f"duplicate key {key!r}")
    return document
