"""The package's public surface: what ``from keyauth import *`` exports."""

from __future__ import annotations

import pickle
from types import ModuleType

import pytest

import keyauth
from keyauth import (
    ComparisonFailedError,
    Fingerprint,
    FingerprintConflictError,
    FingerprintMismatchError,
    KeyChangedWarningError,
    KeyType,
    SignatureInvalidError,
)


def test_all_holds_only_public_names_that_resolve():
    names = keyauth.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(keyauth, name), ModuleType), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from keyauth import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(keyauth.__all__)


_TRACKED = Fingerprint(bytes(20))
_OBSERVED = Fingerprint(b"\x01" * 20)


# every byte of these texts is what a user is shown for the alarm
_ALARMS = [
    (
        FingerprintConflictError,
        "fingerprint-conflict",
        "fingerprint conflict for 'bob': tracked "
        "0000000000000000000000000000000000000000, offered "
        "0101010101010101010101010101010101010101",
        "",
    ),
    (
        FingerprintMismatchError,
        "fingerprint-mismatch",
        "fingerprint mismatch for 'bob' (chat-x25519): tracked "
        "0000000000000000000000000000000000000000, fetched key has "
        "0101010101010101010101010101010101010101",
        "",
    ),
    (
        ComparisonFailedError,
        "comparison-failed",
        "asserted fingerprint 0101010101010101010101010101010101010101 does not "
        "match the one tracked for 'bob' "
        "(0000000000000000000000000000000000000000)",
        "DO NOT TRUST 'bob' until the fingerprints match",
    ),
    (
        SignatureInvalidError,
        "signature-invalid",
        "signature verification failed for 'bob' chat-x25519 key "
        "0101010101010101010101010101010101010101",
        "",
    ),
    (
        KeyChangedWarningError,
        "key-changed-warning",
        "'bob' chat-x25519 key changed from "
        "0000000000000000000000000000000000000000 to "
        "0101010101010101010101010101010101010101 "
        "(signature valid); reset the record to accept",
        "",
    ),
]


@pytest.mark.parametrize(
    "alarm_class, code, text, advice",
    _ALARMS,
    ids=[alarm[0].__name__ for alarm in _ALARMS],
)
def test_alarm_fields_and_text_are_golden(alarm_class, code, text, advice):
    exc = alarm_class("bob", KeyType.CHAT_X25519, _TRACKED, _OBSERVED)
    assert str(exc) == text
    assert exc.code == alarm_class.code == code
    assert exc.advice == advice
    assert exc.handle == "bob"
    assert exc.key_type is KeyType.CHAT_X25519
    assert exc.tracked == _TRACKED
    assert exc.observed == _OBSERVED


@pytest.mark.parametrize(
    "alarm_class", [alarm[0] for alarm in _ALARMS], ids=lambda cls: cls.__name__
)
def test_alarm_survives_a_pickle_round_trip(alarm_class):
    # an alarm raised in a worker process reaches its parent pickled
    exc = alarm_class("bob", KeyType.CHAT_X25519, _TRACKED, _OBSERVED)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is alarm_class
    assert copy.code == exc.code
    fields = ("handle", "key_type", "tracked", "observed")
    assert [getattr(copy, f) for f in fields] == [getattr(exc, f) for f in fields]
    assert str(copy) == str(exc)
    assert copy.advice == exc.advice
