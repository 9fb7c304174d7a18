"""Simulated remote attribute store with adversary hooks.

Clients fetch public keys and signatures from an untrusted server; this
store stands in for it. Stored truth stays intact on disk while an
optional adversary configuration tampers with fetch results, so tests and
scenarios can model a man-in-the-middle without corrupting the fixture.
Every fetch is counted per (handle, attribute) to make round-trip costs
observable.
"""

from __future__ import annotations

import base64
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .authring import checked_handle
from .errors import MalformedKeyError, ParameterError, PublishError, StoreUnavailableError
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

ADVERSARY_SUBSTITUTE_KEY = "substitute_key"
ADVERSARY_STRIP_SIGNATURE = "strip_signature"


# octets of each attribute with a fixed size; rsa_pub is the one known
# attribute of variable size
_FIXED_OCTETS = {
    KeyType.IDENTITY_ED25519.key_attribute: EC_KEY_OCTETS,
    KeyType.CHAT_X25519.key_attribute: EC_KEY_OCTETS,
    **dict.fromkeys(SIGNATURE_ATTRIBUTES, SIGNATURE_OCTETS),
}


def _validate_attribute_octets(attribute: str, octets: bytes) -> None:
    if not isinstance(octets, bytes):
        raise PublishError(f"{attribute} value must be bytes")
    expected = _FIXED_OCTETS.get(attribute)
    if expected is not None:
        _check_length(attribute, octets, expected)
    elif attribute == KeyType.SHARING_RSA.key_attribute:
        try:
            unframe_rsa_public(octets)
        except MalformedKeyError as exc:
            raise PublishError(f"{attribute} is not a valid framed key: {exc}") from exc
    else:
        raise PublishError(f"unknown attribute {attribute!r}")


def _check_length(attribute: str, octets: bytes, expected: int) -> None:
    if len(octets) != expected:
        raise PublishError(f"{attribute} must be {expected} octets, got {len(octets)}")


@dataclass(frozen=True)
class AdversaryConfig:
    """One active tampering rule applied at fetch time.

    ``substitute_key`` replaces the fetched octets with ``replacement``;
    ``strip_signature`` makes a signature attribute appear absent. The
    stored truth is never modified.
    """

    mode: str
    target_handle: str
    target_attribute: str
    replacement: bytes | None = None

    def __post_init__(self):
        if self.mode not in (ADVERSARY_SUBSTITUTE_KEY, ADVERSARY_STRIP_SIGNATURE):
            raise ParameterError(f"unknown adversary mode {self.mode!r}")
        if self.target_attribute not in VALID_ATTRIBUTES:
            raise ParameterError(
                f"unknown adversary target attribute {self.target_attribute!r}"
            )
        if self.mode == ADVERSARY_SUBSTITUTE_KEY:
            if self.replacement is None:
                raise ParameterError("substitute_key requires replacement octets")
            try:
                _validate_attribute_octets(self.target_attribute, self.replacement)
            except PublishError as exc:
                raise ParameterError(f"invalid replacement: {exc}") from exc
        else:
            if self.target_attribute not in SIGNATURE_ATTRIBUTES:
                raise ParameterError(
                    "strip_signature only applies to signature attributes"
                )
            if self.replacement is not None:
                raise ParameterError("strip_signature takes no replacement")


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
        self._users: dict[str, dict[str, bytes]] = {}
        self._counts: Counter[tuple[str, str]] = Counter()
        self._adversary: AdversaryConfig | None = None
        if self._path is not None and self._path.exists():
            self._load()

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        # ValueError covers bad UTF-8, JSON, base64 and RSA framing, and bad handles
        try:
            document = json.loads(self._path.read_text(encoding="utf-8"))
            self._users = {
                checked_handle(handle): {
                    attribute: _decode_attribute(attribute, value)
                    for attribute, value in attributes.items()
                }
                for handle, attributes in document["users"].items()
            }
        except (
            OSError, ValueError, KeyError, TypeError, AttributeError, PublishError
        ) as exc:
            raise StoreUnavailableError(f"cannot load store {self._path}: {exc}") from exc

    def save(self) -> None:
        if self._path is None:
            return
        document = {
            "users": {
                handle: {
                    attribute: _encode_attribute(attribute, octets)
                    for attribute, octets in attributes.items()
                }
                for handle, attributes in self._users.items()
            }
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        try:
            self._path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise StoreUnavailableError(f"cannot write store {self._path}: {exc}") from exc

    # -- core operations -----------------------------------------------

    def publish(self, handle: str, attribute: str, octets: bytes) -> None:
        """Set an attribute in memory, not in the file; last writer wins."""
        checked_handle(handle)
        _validate_attribute_octets(attribute, octets)
        self._users.setdefault(handle, {})[attribute] = octets

    def fetch(self, handle: str, attribute: str) -> bytes | None:
        """Read an attribute as seen over the wire; absent values are None.

        The adversary configuration, if any, is applied here. Every call
        is counted, including fetches of absent attributes.
        """
        if attribute not in VALID_ATTRIBUTES:
            raise ParameterError(f"unknown attribute {attribute!r}")
        self._counts[(handle, attribute)] += 1
        adversary = self._adversary
        if (
            adversary is not None
            and adversary.target_handle == handle
            and adversary.target_attribute == attribute
        ):
            if adversary.mode == ADVERSARY_SUBSTITUTE_KEY:
                return adversary.replacement
            return None
        return self._users.get(handle, {}).get(attribute)

    # -- adversary and accounting ----------------------------------------

    def set_adversary(self, config: AdversaryConfig | None) -> None:
        if config is not None and not isinstance(config, AdversaryConfig):
            raise ParameterError("config must be an AdversaryConfig or None")
        self._adversary = config

    def stats(self) -> StoreStats:
        return StoreStats(sum(self._counts.values()), dict(self._counts))

    def reset_stats(self) -> None:
        self._counts.clear()


def _encode_attribute(attribute: str, octets: bytes):
    if attribute == KeyType.SHARING_RSA.key_attribute:
        modulus, exponent = unframe_rsa_public(octets)
        return {
            "n": base64.b64encode(modulus).decode("ascii"),
            "e": base64.b64encode(exponent).decode("ascii"),
        }
    return base64.b64encode(octets).decode("ascii")


def _decode_attribute(attribute: str, value) -> bytes:
    """The octets a stored value stands for, validated as ``publish`` would."""
    expected = _FIXED_OCTETS.get(attribute)
    if expected is not None:
        if not isinstance(value, str):
            raise TypeError(f"{attribute} must be a base64 string")
        octets = base64.b64decode(value, validate=True)
        _check_length(attribute, octets, expected)
        return octets
    if attribute != KeyType.SHARING_RSA.key_attribute:
        raise PublishError(f"unknown attribute {attribute!r}")
    # save() writes exactly n and e; anything more would be lost by the next save
    if not isinstance(value, dict) or value.keys() != {"n", "e"}:
        raise TypeError(f"{attribute} must be an object holding exactly n and e")
    # framing rejects the non-minimal components that publish rejects
    return frame_rsa_public(
        base64.b64decode(value["n"], validate=True),
        base64.b64decode(value["e"], validate=True),
    )
