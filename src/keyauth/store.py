"""Simulated remote attribute store with adversary hooks.

Clients fetch public keys and signatures from an untrusted server; this
store stands in for it. Stored truth stays intact on disk while an
optional adversary, a table from (handle, attribute) to what a fetch
returns, tampers with fetch results, so tests and scenarios can model a
man-in-the-middle without corrupting the fixture. Every fetch is counted
in ``fetches`` per (handle, attribute) to make round-trip costs observable.
"""

from __future__ import annotations

import base64
import fcntl
import hashlib
import json
import os
import re
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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

# A read session keeps, beside its rings, one line naming the last store bytes
# that passed a full open: this tag, a space and their SHA-256 in hex. The tag
# stands for the checks of _load and the layout save() writes; change it when
# either changes, so that no record admits bytes the current checks never saw.
# tests/test_store.py pins it to a digest of that code.
VERIFIED_TAG = b"keyauth-store-v1"

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


class AttributeStore:
    """Key-value store of per-user public attributes, JSON-backed.

    With ``path=None`` the store lives purely in memory (used by the
    attack scenarios). With a path, the file is loaded if present and
    written only by ``save``, deterministically, so byte-identical state
    always produces a byte-identical file.
    """

    def __init__(
        self, path: str | Path | None = None, *, verified: bytes | None = None
    ):
        """``verified`` is the record a read session kept of the last store
        bytes that passed a full open (``b""`` when it kept none). Bytes it
        records are kept unparsed, and ``fetch`` parses one user's block of
        them at a time. Any other file gets the full open, and then
        ``record`` holds the line that would admit its bytes next time. With
        ``verified=None`` the file is never hashed and ``record`` stays None.
        """
        self._path = Path(path) if path is not None else None
        # the JSON value save() writes for each attribute, decoded at fetch;
        # while _data is set, only the users parsed from it so far
        self._users: dict[str, dict[str, str | dict[str, str]]] = {}
        self._data: bytes | None = None
        self.record: bytes | None = None
        self.fetches: Counter[tuple[str, str]] = Counter()
        self._adversary: dict[tuple[str, str], bytes | None] = {}
        if self._path is not None and self._path.exists():
            self._load(verified)

    # -- persistence ---------------------------------------------------

    def _load(self, verified: bytes | None) -> None:
        """Read the file. Keep bytes that ``verified`` records; validate any
        others, every value one attribute column at a time: each must be
        what ``save`` writes for a value ``publish`` accepts."""
        # ValueError covers bad UTF-8 and JSON, and bad handles and values
        try:
            data = self._path.read_bytes()
            record = None
            if verified is not None:
                record = b"%s %s\n" % (
                    VERIFIED_TAG, hashlib.sha256(data).hexdigest().encode("ascii")
                )
                if record == verified:
                    self._data = data
                    return
            # read_text would also translate newlines, which changes no
            # verdict: CR is whitespace outside a string and refused inside one
            text = data.decode("utf-8")
            del data  # hold one copy of the file while it is parsed, not two
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
        self.record = record

    def _parse(self) -> None:
        """Parse the whole of a kept file, which passed every check before."""
        if self._data is not None:
            text = self._data.decode("utf-8")
            self._data = None
            self._users = json.loads(text)["users"]

    def save(self) -> None:
        """Replace the file, if any, with ``json.dumps({"users": ...}, indent=2,
        sort_keys=True)`` and a newline; a save that fails leaves the old file."""
        if self._path is None:
            return
        self._parse()
        try:
            replace_file(self._path, map(str.encode, _render(self._users)))
        except OSError as exc:
            raise StoreUnavailableError(f"cannot write store {self._path}: {exc}") from exc

    # -- core operations -----------------------------------------------

    def publish(self, handle: str, attribute: str, octets: bytes) -> None:
        """Set an attribute in memory, not in the file; last writer wins."""
        checked_handle(handle)
        value = _encode_attribute(attribute, octets)
        self._parse()
        self._users.setdefault(handle, {})[attribute] = value

    def fetch(self, handle: str, attribute: str) -> bytes | None:
        """Read an attribute as seen over the wire; absent values are None.

        An adversary rule for (handle, attribute), if any, answers in
        place of the stored value. Every call that passes its arguments'
        checks is counted, including fetches of absent attributes.
        """
        if not isinstance(handle, str):
            raise ParameterError("handle must be a string")
        if attribute not in VALID_ATTRIBUTES:
            raise ParameterError(f"unknown attribute {attribute!r}")
        key = (handle, attribute)
        self.fetches[key] += 1
        if key in self._adversary:
            return self._adversary[key]
        if self._data is not None and handle not in self._users:
            attributes = _user_block(self._data, handle)
            if attributes is None:
                self._parse()
            else:
                self._users[handle] = attributes
        value = self._users.get(handle, {}).get(attribute)
        return None if value is None else _decode_attribute(attribute, value)

    # -- adversary -------------------------------------------------------

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


def replace_file(path: Path, chunks: Iterable[bytes], mode: int | None = None) -> None:
    """Make the file at ``path`` hold ``chunks`` joined: write them to a new
    file beside it and rename that over ``path`` (POSIX rename(2)), so a
    failed write leaves the old file, removes the new one and raises OSError.
    The file gets ``mode``, by default the old file's permission bits, or
    0o666 less the umask. Nothing is synced: power loss can lose a write."""
    if mode is None and path.exists():
        mode = path.stat().st_mode & 0o7777
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    fd = os.open(temp, flags, 0o666 if mode is None else mode)
    try:
        with open(fd, "wb") as file:
            if mode is not None:
                os.fchmod(fd, mode)  # whatever the umask
            file.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise


_TEMP_NAME = re.compile(r"\.(.+)\.[0-9a-f]{16}\.tmp")  # as replace_file names it


@contextmanager
def hold_dirs(dirs: Iterable[tuple]) -> Iterator[None]:
    """Hold each of ``dirs`` (a path, the names of the files kept there, and
    the error class and message for a failed open) by flock(2) on its own fd,
    each directory once, in (st_dev, st_ino) order, so holders never deadlock,
    and remove a killed replace_file's temporary files beside those names. A
    failed removal ends the sweep; a failed flock(2) skips lock and sweep."""
    held: dict[tuple[int, int], tuple[int, set[str]]] = {}
    try:
        for path, names, error, message in dirs:
            try:
                fd = os.open(path, os.O_RDONLY)
            except OSError as exc:
                raise error(f"{message}: {exc}") from exc
            info = os.fstat(fd)
            kept, kept_names = held.setdefault((info.st_dev, info.st_ino), (fd, set()))
            if kept != fd:  # a second fd on one directory would lock it out
                os.close(fd)
            kept_names.update(names)
        for fd, names in map(held.get, sorted(held)):
            with suppress(OSError), os.scandir(fd) as entries:
                fcntl.flock(fd, fcntl.LOCK_EX)
                for entry in entries:
                    temp = _TEMP_NAME.fullmatch(entry.name)
                    if temp and temp[1] in names and entry.is_file(follow_symlinks=False):
                        os.unlink(entry.name, dir_fd=fd)
        yield
    finally:
        for fd, _ in held.values():
            os.close(fd)


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
    a user a piece, without the pure-Python encoder ``indent`` selects."""
    lead = '{\n  "users": {\n    '
    for handle, attributes in sorted(users.items()):
        yield lead + _render_user(handle, attributes)
        lead = ",\n    "
    yield "\n  }\n}\n" if users else '{\n  "users": {}\n}\n'


def _render_user(handle: str, attributes: Mapping) -> str:
    """One user as ``save`` writes it, from the quoted handle to the closing
    brace: json's C quoter quotes the handle, and values are canonical
    base64, which needs no escape."""
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
    return f"{encode_basestring_ascii(handle)}: {body}"


def _user_block(data: bytes, handle: str) -> dict | None:
    """The attributes of ``handle`` parsed from its block alone in ``data``,
    a file that passed a full open; None unless that block is byte for byte
    what ``save`` writes for them. In such a file a newline lies outside every
    string, so a newline and four spaces before the quoted handle and ": "
    open a member, and one whose value renders as a user's block is that
    user's: no other object of a valid store maps attributes to values."""
    key = encode_basestring_ascii(handle).encode("ascii")
    start = data.find(b"\n    " + key + b": ") + 5
    if start < 5:
        return None
    body = start + len(key) + 2
    end = data.find(b"\n    }", body) + 6  # a user with no attributes fails below
    try:
        attributes = json.loads(data[body:end])
        if _render_user(handle, attributes).encode() == data[start:end]:
            return attributes
    # a block that is no user's may not parse, or hold values that do not render
    except (ValueError, TypeError, KeyError, AttributeError):
        pass
    return None


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
