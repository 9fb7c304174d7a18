"""Command-line front end: initialise own keys, load and verify contacts,
inspect rings, and run the attack scenarios.

Exit codes are part of the interface: 0 success, 2 fingerprint mismatch,
3 invalid signature, 4 key-changed warning, 5 missing key, 64 usage error,
1 anything else. Usage errors deliberately avoid argparse's default exit
code 2, which would collide with the fingerprint-mismatch alarm.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import os
import random
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .authring import AuthRing, checked_handle
from .errors import (
    FingerprintMismatchError,
    InitError,
    KeyAuthError,
    KeyChangedWarningError,
    MissingKeyError,
    SignatureInvalidError,
)
from .keys import KeyType, fingerprint_ec
from .scenarios import SCENARIO_NAMES, run_scenario_batch
from .store import AttributeStore
from .workflow import PUBLISH, OwnKeyMaterial, Session, init_own_keys

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINGERPRINT_MISMATCH = 2
EXIT_SIGNATURE_INVALID = 3
EXIT_KEY_CHANGED = 4
EXIT_MISSING_KEY = 5
EXIT_USAGE = 64

# most specific first; ComparisonFailedError is a FingerprintMismatchError
_EXIT_BY_ERROR = (
    (FingerprintMismatchError, EXIT_FINGERPRINT_MISMATCH),
    (SignatureInvalidError, EXIT_SIGNATURE_INVALID),
    (KeyChangedWarningError, EXIT_KEY_CHANGED),
    (MissingKeyError, EXIT_MISSING_KEY),
)

_KEY_TYPE_ALIASES = {
    name: key_type for key_type in KeyType for name in (key_type.alias, key_type.label)
}


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def group_fingerprint_hex(hex40: str) -> str:
    """Display form: eight groups of five characters."""
    return " ".join(hex40[i : i + 5] for i in range(0, len(hex40), 5))


# -- identity directory -------------------------------------------------------
#
# <identity_dir>/<key type label>.sk    private key, one base64 line per init
#                                       field of key_type.pair, in order
# <identity_dir>/<key type label>.ring  serialised authentication ring
#
# Every file is read by _read and written by _write, which writes it at mode
# 0600 and only when its bytes change. init writes the private key files and
# creates the ring files that are absent; any other command writes only the
# rings whose records it changed.

def _read(path: Path) -> bytes | None:
    """The file's bytes, or None when it is absent."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise InitError(f"cannot read {path}: {exc}") from exc


def _write(path: Path, data: bytes) -> None:
    """Make the file hold ``data`` at mode 0600, writing only if it differs.

    Skipping an unchanged file matters: the write truncates first, which
    risks the file's contents for nothing."""
    try:
        if _read(path) != data:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        os.chmod(path, 0o600)  # a pre-existing file keeps its mode otherwise
    except OSError as exc:
        raise InitError(f"cannot write {path}: {exc}") from exc


def _private_fields(key_type: KeyType) -> list[str]:
    """The fields a private key file holds: the init fields of the pair."""
    return [field.name for field in fields(key_type.pair) if field.init]


def load_own_material(identity_dir: Path) -> OwnKeyMaterial:
    """Read whatever private keys exist; malformed files raise InitError."""
    pairs = {}
    for key_type in KeyType:
        path = identity_dir / f"{key_type.label}.sk"
        data = _read(path)
        if data is None:
            continue
        raw = data.split()
        count = len(_private_fields(key_type))
        if len(raw) != count:
            raise InitError(
                f"private key file {path} has {len(raw)} lines, expected {count}"
            )
        try:
            pairs[key_type.alias] = key_type.pair(
                *(base64.b64decode(line, validate=True) for line in raw)
            )
        except (binascii.Error, KeyAuthError) as exc:
            raise InitError(f"private key file {path} is unreadable: {exc}") from exc
    return OwnKeyMaterial(**pairs)


def save_own_material(identity_dir: Path, material: OwnKeyMaterial) -> None:
    for key_type in KeyType:
        pair = getattr(material, key_type.alias)
        if pair is not None:
            lines = (getattr(pair, name) for name in _private_fields(key_type))
            _write(
                identity_dir / f"{key_type.label}.sk",
                b"".join(base64.b64encode(line) + b"\n" for line in lines),
            )


def load_rings(
    identity_dir: Path, key_types: Iterable[KeyType]
) -> dict[KeyType, AuthRing]:
    """Read the ring files of ``key_types``, and no other; a missing file is
    an empty ring, corruption raises."""
    rings: dict[KeyType, AuthRing] = {}
    for key_type in key_types:
        path = identity_dir / f"{key_type.label}.ring"
        data = _read(path)
        ring = AuthRing(key_type) if data is None else AuthRing.from_bytes(data)
        if ring.key_type is not key_type:
            raise InitError(f"ring file {path} holds a {ring.key_type.label} ring")
        rings[key_type] = ring
    return rings


def save_rings(identity_dir: Path, rings: dict[KeyType, AuthRing]) -> None:
    for key_type, ring in rings.items():
        _write(identity_dir / f"{key_type.label}.ring", ring.to_bytes())


# -- command helpers ----------------------------------------------------------


def _require(args, *options: str) -> None:
    missing = [f"--{option}" for option in options if getattr(args, option) is None]
    if missing:
        raise _UsageError(f"missing required option(s): {', '.join(missing)}")


class _UsageError(Exception):
    pass


def _report(exc: KeyAuthError) -> None:
    """Print an error on stderr as ``error[<code>]: <message>``, followed by
    the alarm's advice line when it has one."""
    print(f"error[{exc.code}]: {exc}", file=sys.stderr)
    if getattr(exc, "advice", ""):
        print(exc.advice, file=sys.stderr)


def _require_home(args) -> None:
    """Refuse to read rings from an identity dir that init has not made."""
    if not args.home.is_dir():
        raise InitError(f"no identity dir at {args.home}; run init first")


@contextmanager
def _session(args) -> Iterator[Session]:
    """A session over the store and the identity dir's rings. A ring file is
    parsed only when a decision first needs it, and on exit the rings whose
    ``changed`` flag is set are saved, even when a load raised: an alarm can
    follow a new identity pin. A save that fails then is reported on stderr
    and the load's error propagates, so a failed write never replaces an
    alarm. A ring is changed only when a record was added, upgraded or
    removed, so a ring that was only read is not serialised at all."""
    _require_home(args)
    store = AttributeStore(args.store)

    def load_ring(key_type: KeyType) -> AuthRing:
        # load_rings is looked up at each call, so a rebound name sees every load
        return load_rings(args.home, [key_type])[key_type]

    def save_changed_rings() -> None:
        save_rings(
            args.home,
            {kt: ring for kt, ring in session.rings.items() if ring.changed},
        )

    session = Session(store, load_ring)
    try:
        yield session
    except BaseException:
        try:
            save_changed_rings()
        except InitError as exc:
            _report(exc)
        raise
    save_changed_rings()


# -- commands -----------------------------------------------------------------


def cmd_init(args) -> int:
    _require(args, "store", "home", "user")
    checked_handle(args.user)
    home = args.home
    try:
        home.mkdir(parents=True, exist_ok=True, mode=0o700)
    except OSError as exc:
        raise InitError(f"cannot create identity dir {home}: {exc}") from exc

    existing = load_own_material(home)
    store = AttributeStore(args.store)
    material, report = init_own_keys(store, args.user, existing)
    save_own_material(home, material)
    # init reads no ring; it only creates the ring files that are absent
    absent = [kt for kt in KeyType if not (home / f"{kt.label}.ring").exists()]
    save_rings(home, {kt: AuthRing(kt) for kt in absent})
    if any(action.action == PUBLISH for action in report):
        store.save()

    for action in report:
        print(f"{action.action}\t{action.target}" if args.machine else action)
    if not (report or args.machine):
        print("nothing to repair")
    return EXIT_OK


def cmd_credentials(args) -> int:
    _require(args, "home")
    handle = args.handle
    if handle is None:
        _require(args, "user")
    if handle is None or handle == args.user:
        material = load_own_material(args.home)
        if material.identity is None:
            raise MissingKeyError(
                "own identity key not initialised; run init first"
            )
        fingerprint = fingerprint_ec(material.identity.public)
    else:
        _require(args, "store")
        with _session(args) as session:
            loaded = session.load_identity_key(handle)
        fingerprint = fingerprint_ec(loaded.public_octets)
    if args.machine:
        print(fingerprint.hex())
    else:
        print(group_fingerprint_hex(fingerprint.hex()))
    return EXIT_OK


def cmd_verify(args) -> int:
    _require(args, "store", "home")
    asserted = " ".join(args.fingerprint)
    with _session(args) as session:
        record = session.verify_contact_fingerprint(args.handle, asserted)
    if args.machine:
        print(f"verified\t{args.handle}\t{record.fingerprint.hex()}")
    else:
        print(
            f"fingerprint comparison recorded for {args.handle}: "
            f"{group_fingerprint_hex(record.fingerprint.hex())}"
        )
    return EXIT_OK


def cmd_fetch(args) -> int:
    _require(args, "store", "home")
    key_type = _KEY_TYPE_ALIASES[args.key_type]
    with _session(args) as session:
        if key_type is KeyType.IDENTITY_ED25519:
            loaded = session.load_identity_key(args.handle)
        else:
            loaded = session.load_signed_key(args.handle, key_type)
    fields = [
        ("key type", key_type.label),
        ("public key", base64.b64encode(loaded.public_octets).decode("ascii")),
        ("method", loaded.method.label),
        ("fetches", str(session.store.stats().total)),
    ]
    if args.machine:
        print("\t".join(value for _, value in fields))
    else:
        for name, value in fields:
            print(f"{name}: {value}")
    return EXIT_OK


def cmd_ring(args) -> int:
    _require(args, "home")
    if args.all:
        key_types = list(KeyType)
    else:
        if args.key_type is None:
            raise _UsageError("give a key type or --all")
        key_types = [_KEY_TYPE_ALIASES[args.key_type]]
    _require_home(args)
    for key_type, ring in load_rings(args.home, key_types).items():
        for handle, record in ring.records():
            columns = (
                key_type.label,
                handle,
                record.fingerprint.hex(),
                record.method.label,
                str(record.trust),
            )
            if args.machine:
                print("\t".join(columns))
            else:
                print(" ".join(columns))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise _UsageError("--reps must be at least 1")
    reports = run_scenario_batch(args.scenario, args.reps, random.Random(args.seed))
    for rep, report in enumerate(reports, 1):
        status = "ok" if report.ok else "UNEXPECTED"
        expected = "|".join(report.expected)
        if args.machine:
            print(
                f"{report.name}\t{rep}\t{args.reps}\t{expected}\t"
                f"{report.observed}\t{status}"
            )
        else:
            print(
                f"{report.name} rep {rep}/{args.reps}: expected [{expected}] "
                f"observed {report.observed} -> {status}"
            )
            if rep == 1 or not report.ok:
                for note in report.notes:
                    print(f"  {note}")
    passed = sum(report.ok for report in reports)
    if args.machine:
        print(f"result\t{args.scenario}\t{passed}\t{args.reps}")
    else:
        print(f"result: {passed}/{args.reps} repetitions matched the expected outcome")
    return EXIT_OK if passed == args.reps else EXIT_ERROR


# -- entry point --------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="keyauth",
        description=(
            "Hierarchical key authentication: an Ed25519 identity key, pinned "
            "on first sight, attests the X25519 chat and RSA sharing keys."
        ),
    )
    parser.add_argument("--store", "-s", metavar="PATH", help="attribute store file")
    parser.add_argument(
        "--home", "-H", metavar="DIR", help="identity dir (private keys and rings)"
    )
    parser.add_argument("--user", "-u", metavar="HANDLE", help="own user handle")
    parser.add_argument(
        "--machine",
        action="store_true",
        help="tab-separated machine-readable output",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_init = commands.add_parser(
        "init", help="generate missing keys and publish/repair the store"
    )
    p_init.set_defaults(func=cmd_init)

    p_cred = commands.add_parser(
        "credentials", help="show an identity key fingerprint (own by default)"
    )
    p_cred.add_argument("handle", nargs="?", help="contact handle (default: own)")
    p_cred.set_defaults(func=cmd_credentials)

    p_verify = commands.add_parser(
        "verify", help="record an out-of-band fingerprint comparison"
    )
    p_verify.add_argument("handle")
    p_verify.add_argument(
        "fingerprint",
        nargs="+",
        help="asserted fingerprint hex; spaces and case are ignored",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_fetch = commands.add_parser(
        "fetch", help="load a contact's key through the authentication flow"
    )
    p_fetch.add_argument("handle")
    p_fetch.add_argument("key_type", choices=sorted(_KEY_TYPE_ALIASES))
    p_fetch.set_defaults(func=cmd_fetch)

    p_ring = commands.add_parser("ring", help="list tracked records")
    p_ring.add_argument("key_type", nargs="?", choices=sorted(_KEY_TYPE_ALIASES))
    p_ring.add_argument("--all", action="store_true", help="list all three rings")
    p_ring.set_defaults(func=cmd_ring)

    p_sim = commands.add_parser(
        "simulate", help="run a scripted man-in-the-middle scenario"
    )
    p_sim.add_argument("scenario", choices=SCENARIO_NAMES)
    p_sim.add_argument(
        "--reps", type=int, default=1, help="randomized repetitions (default 1)"
    )
    p_sim.add_argument("--seed", type=int, default=None, help="seed for the run")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # not argparse type=Path: that turns an empty value into "."
    args.store = Path(args.store) if args.store else None
    args.home = Path(args.home) if args.home else None
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"keyauth: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyAuthError as exc:
        _report(exc)
        for error_class, code in _EXIT_BY_ERROR:
            if isinstance(exc, error_class):
                return code
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
