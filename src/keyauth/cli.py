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
from dataclasses import astuple, dataclass
from pathlib import Path

from .authring import AuthRing
from .errors import (
    ComparisonFailedError,
    FingerprintMismatchError,
    InitError,
    KeyAuthError,
    KeyChangedWarningError,
    MissingKeyError,
    SignatureInvalidError,
)
from .keys import (
    ChatKeyPair,
    IdentityKeyPair,
    KeyType,
    SharingKeyPair,
    derive_ed25519_public,
    derive_x25519_public,
    fingerprint_ec,
)
from .scenarios import SCENARIO_NAMES, build_rsa_pool, run_scenario
from .store import AttributeStore
from .workflow import OwnKeyMaterial, Session, init_own_keys

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

HUMAN = "human"
MACHINE = "machine"

_KEY_TYPE_ALIASES = {
    name: key_type for key_type in KeyType for name in (key_type.alias, key_type.label)
}


@dataclass
class CliConfig:
    """Validated global options."""

    store_path: Path | None
    identity_dir: Path | None
    user_handle: str | None
    output_mode: str


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def group_fingerprint_hex(hex40: str) -> str:
    """Display form: eight groups of five characters."""
    return " ".join(hex40[i : i + 5] for i in range(0, len(hex40), 5))


# -- identity directory layout -----------------------------------------------
#
# <identity_dir>/<key type label>.sk    private key, base64 lines, mode 0600
# <identity_dir>/<key type label>.ring  serialised authentication ring


def _sk_path(identity_dir: Path, key_type: KeyType) -> Path:
    return identity_dir / f"{key_type.label}.sk"


def _ring_path(identity_dir: Path, key_type: KeyType) -> Path:
    return identity_dir / f"{key_type.label}.ring"


def _write_private_file(path: Path, lines: list[bytes]) -> None:
    text = "".join(base64.b64encode(line).decode("ascii") + "\n" for line in lines)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("ascii"))
    except OSError as exc:
        raise InitError(f"cannot write private key file {path}: {exc}") from exc
    _restrict_private_file(path)  # pre-existing files keep their mode otherwise


def _restrict_private_file(path: Path) -> None:
    try:
        os.chmod(path, 0o600)
    except OSError as exc:
        raise InitError(f"cannot chmod private key file {path}: {exc}") from exc


def _read_private_lines(path: Path, expected: int) -> list[bytes] | None:
    if not path.exists():
        return None
    try:
        raw = path.read_text(encoding="ascii").split()
    except (OSError, UnicodeDecodeError) as exc:
        raise InitError(f"cannot read private key file {path}: {exc}") from exc
    if len(raw) != expected:
        raise InitError(
            f"private key file {path} has {len(raw)} lines, expected {expected}"
        )
    try:
        return [base64.b64decode(line, validate=True) for line in raw]
    except binascii.Error as exc:
        raise InitError(f"private key file {path} is not valid base64: {exc}") from exc


def load_own_material(identity_dir: Path) -> OwnKeyMaterial:
    """Read whatever private keys exist; malformed files raise InitError."""
    material = OwnKeyMaterial()
    try:
        lines = _read_private_lines(_sk_path(identity_dir, KeyType.IDENTITY_ED25519), 1)
        if lines is not None:
            seed = lines[0]
            material.identity = IdentityKeyPair(
                private=seed, public=derive_ed25519_public(seed)
            )
        lines = _read_private_lines(_sk_path(identity_dir, KeyType.CHAT_X25519), 1)
        if lines is not None:
            scalar = lines[0]
            material.chat = ChatKeyPair(private=scalar, public=derive_x25519_public(scalar))
        lines = _read_private_lines(_sk_path(identity_dir, KeyType.SHARING_RSA), 5)
        if lines is not None:
            n, e, d, p, q = lines
            material.sharing = SharingKeyPair(n, e, d, p, q)
    except KeyAuthError as exc:
        if isinstance(exc, InitError):
            raise
        raise InitError(f"private key material unreadable: {exc}") from exc
    return material


def save_own_material(identity_dir: Path, material: OwnKeyMaterial) -> None:
    if material.identity is not None:
        _write_private_file(
            _sk_path(identity_dir, KeyType.IDENTITY_ED25519), [material.identity.private]
        )
    if material.chat is not None:
        _write_private_file(
            _sk_path(identity_dir, KeyType.CHAT_X25519), [material.chat.private]
        )
    if material.sharing is not None:
        # field order n, e, d, p, q: the order load_own_material reads back
        _write_private_file(
            _sk_path(identity_dir, KeyType.SHARING_RSA), list(astuple(material.sharing))
        )


def load_rings(identity_dir: Path) -> dict[KeyType, AuthRing]:
    """Read ring files; a missing file is an empty ring, corruption raises."""
    rings: dict[KeyType, AuthRing] = {}
    for key_type in KeyType:
        path = _ring_path(identity_dir, key_type)
        if path.exists():
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise InitError(f"cannot read ring file {path}: {exc}") from exc
            rings[key_type] = AuthRing.from_bytes(data)
            if rings[key_type].key_type is not key_type:
                raise InitError(
                    f"ring file {path} holds a {rings[key_type].key_type.label} ring"
                )
        else:
            rings[key_type] = AuthRing(key_type)
    return rings


def save_rings(identity_dir: Path, rings: dict[KeyType, AuthRing]) -> None:
    for key_type, ring in rings.items():
        path = _ring_path(identity_dir, key_type)
        try:
            path.write_bytes(ring.to_bytes())
        except OSError as exc:
            raise InitError(f"cannot write ring file {path}: {exc}") from exc


# -- command helpers ----------------------------------------------------------


def _require(config: CliConfig, *, store=False, home=False, user=False) -> None:
    missing = []
    if store and config.store_path is None:
        missing.append("--store")
    if home and config.identity_dir is None:
        missing.append("--home")
    if user and config.user_handle is None:
        missing.append("--user")
    if missing:
        raise _UsageError(f"missing required option(s): {', '.join(missing)}")


class _UsageError(Exception):
    pass


def _open_session(config: CliConfig) -> Session:
    rings = load_rings(config.identity_dir)
    store = AttributeStore(config.store_path)
    return Session(store, config.user_handle, rings=rings)


# -- commands -----------------------------------------------------------------


def cmd_init(config: CliConfig, args) -> int:
    _require(config, store=True, home=True, user=True)
    home = config.identity_dir
    try:
        home.mkdir(parents=True, exist_ok=True, mode=0o700)
    except OSError as exc:
        print(f"error[init]: cannot create identity dir {home}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not os.access(home, os.W_OK):
        print(f"error[init]: identity dir {home} is not writable", file=sys.stderr)
        return EXIT_ERROR

    material = load_own_material(home)
    rings = load_rings(home)
    store = AttributeStore(config.store_path)
    session, report = init_own_keys(
        store,
        config.user_handle,
        existing=material,
        rings=rings,
        force_identity=args.force_identity,
    )
    # write only the pairs init generated: rewriting an unchanged key file
    # truncates it first, which risks the key for nothing
    own = session.own_keys
    save_own_material(
        home,
        OwnKeyMaterial(
            identity=own.identity if own.identity != material.identity else None,
            chat=own.chat if own.chat != material.chat else None,
            sharing=own.sharing if own.sharing != material.sharing else None,
        ),
    )
    for key_type in KeyType:
        _restrict_private_file(_sk_path(home, key_type))
    save_rings(home, session.rings)

    if config.output_mode == MACHINE:
        for action in report:
            print(f"{action.action}\t{action.target}")
    elif report:
        for action in report:
            print(action)
    else:
        print("nothing to repair")
    return EXIT_OK


def cmd_credentials(config: CliConfig, args) -> int:
    _require(config, home=True, user=True)
    handle = args.handle
    if handle is None or handle == config.user_handle:
        material = load_own_material(config.identity_dir)
        if material.identity is None:
            raise MissingKeyError(
                "own identity key not initialised; run init first"
            )
        fingerprint = fingerprint_ec(material.identity.public)
    else:
        _require(config, store=True)
        session = _open_session(config)
        try:
            loaded = session.load_identity_key(handle)
        finally:
            save_rings(config.identity_dir, session.rings)
        fingerprint = fingerprint_ec(loaded.public_octets)
    if config.output_mode == MACHINE:
        print(fingerprint.hex())
    else:
        print(group_fingerprint_hex(fingerprint.hex()))
    return EXIT_OK


def cmd_verify(config: CliConfig, args) -> int:
    _require(config, store=True, home=True, user=True)
    asserted = " ".join(args.fingerprint)
    session = _open_session(config)
    try:
        record = session.verify_contact_fingerprint(args.handle, asserted)
    except ComparisonFailedError as exc:
        print(
            f"error[{exc.code}]: {exc}\n"
            f"DO NOT TRUST {args.handle!r} until the fingerprints match",
            file=sys.stderr,
        )
        return EXIT_FINGERPRINT_MISMATCH
    finally:
        save_rings(config.identity_dir, session.rings)
    if config.output_mode == MACHINE:
        print(f"verified\t{args.handle}\t{record.fingerprint.hex()}")
    else:
        print(
            f"fingerprint comparison recorded for {args.handle}: "
            f"{group_fingerprint_hex(record.fingerprint.hex())}"
        )
    return EXIT_OK


def cmd_fetch(config: CliConfig, args) -> int:
    _require(config, store=True, home=True, user=True)
    key_type = _KEY_TYPE_ALIASES[args.key_type]
    session = _open_session(config)
    before = session.store.stats().total
    try:
        if key_type is KeyType.IDENTITY_ED25519:
            loaded = session.load_identity_key(args.handle)
        else:
            loaded = session.load_signed_key(args.handle, key_type)
    finally:
        save_rings(config.identity_dir, session.rings)
    fields = [
        ("key type", key_type.label),
        ("public key", base64.b64encode(loaded.public_octets).decode("ascii")),
        ("method", loaded.method.label),
        ("fetches", str(session.store.stats().total - before)),
    ]
    if config.output_mode == MACHINE:
        print("\t".join(value for _, value in fields))
    else:
        for name, value in fields:
            print(f"{name}: {value}")
    return EXIT_OK


def cmd_ring(config: CliConfig, args) -> int:
    _require(config, home=True)
    if args.all:
        key_types = list(KeyType)
    else:
        if args.key_type is None:
            raise _UsageError("give a key type or --all")
        key_types = [_KEY_TYPE_ALIASES[args.key_type]]
    rings = load_rings(config.identity_dir)
    for key_type in key_types:
        ring = rings[key_type]
        for handle, record in ring.records():
            columns = (
                key_type.label,
                handle,
                record.fingerprint.hex(),
                record.method.label,
                str(record.trust),
            )
            if config.output_mode == MACHINE:
                print("\t".join(columns))
            else:
                print(" ".join(columns))
    return EXIT_OK


def cmd_simulate(config: CliConfig, args) -> int:
    if args.reps < 1:
        raise _UsageError("--reps must be at least 1")
    rng = random.Random(args.seed)
    rsa_pool = build_rsa_pool() if args.reps > 1 else None
    failures = 0
    for rep in range(1, args.reps + 1):
        report = run_scenario(args.scenario, rng, rsa_pool)
        status = "ok" if report.ok else "UNEXPECTED"
        expected = "|".join(report.expected)
        if config.output_mode == MACHINE:
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
        if not report.ok:
            failures += 1
    passed = args.reps - failures
    if config.output_mode == MACHINE:
        print(f"result\t{report.name}\t{passed}\t{args.reps}")
    else:
        print(f"result: {passed}/{args.reps} repetitions matched the expected outcome")
    return EXIT_OK if failures == 0 else EXIT_ERROR


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
    p_init.add_argument(
        "--force-identity",
        action="store_true",
        help="allow regenerating an inconsistent identity key (invalidates "
        "published signatures and contacts' pins)",
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
    config = CliConfig(
        store_path=Path(args.store) if args.store else None,
        identity_dir=Path(args.home) if args.home else None,
        user_handle=args.user,
        output_mode=MACHINE if args.machine else HUMAN,
    )
    try:
        return args.func(config, args)
    except _UsageError as exc:
        print(f"keyauth: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyAuthError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        for error_class, code in _EXIT_BY_ERROR:
            if isinstance(exc, error_class):
                return code
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
