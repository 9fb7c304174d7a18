"""Scripted man-in-the-middle scenarios over a fresh in-memory store.

Each scenario builds a victim who publishes keys and a verifier who loads
them, lets the adversary tamper at a chosen point, and classifies what the
verifier observes. The expected outcomes form the detection matrix:
substitutions after first contact or on any signed sub-key raise alarms,
while substituting the identity key before first contact is the documented
blind spot of pin-on-first-sight, and stripping a signature is harmless
once the sub-key has been verified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .authring import AuthMethod
from .errors import (
    FingerprintMismatchError,
    KeyChangedWarningError,
    ParameterError,
    SignatureInvalidError,
)
from .keys import (
    SUB_KEY_TYPES,
    KeyType,
    SharingKeyPair,
    fingerprint_ec,
    generate_chat_keypair,
    generate_identity_keypair,
    generate_sharing_keypair,
)
from .store import (
    ADVERSARY_STRIP_SIGNATURE,
    ADVERSARY_SUBSTITUTE_KEY,
    AdversaryConfig,
    AttributeStore,
)
from .workflow import OwnKeyMaterial, Session, init_own_keys

# an alarm's outcome is its error code
_ALARMS = (FingerprintMismatchError, SignatureInvalidError, KeyChangedWarningError)
OUTCOME_NO_ALARM = "no-alarm"
OUTCOME_FINGERPRINT_MISMATCH = FingerprintMismatchError.code
OUTCOME_SIGNATURE_INVALID = SignatureInvalidError.code
OUTCOME_KEY_CHANGED = KeyChangedWarningError.code


class _Scenario(NamedTuple):
    """One attack: the outcomes it may produce, the key it targets (None: a
    sub-key type drawn per run), whether the verifier loads that key
    honestly before the adversary acts, and the adversary mode."""

    expected: tuple[str, ...]
    target: KeyType | None
    honest_first_load: bool
    mode: str


_SCENARIOS = {
    "mitm-identity-pre": _Scenario(
        (OUTCOME_NO_ALARM,), KeyType.IDENTITY_ED25519, False, ADVERSARY_SUBSTITUTE_KEY
    ),
    "mitm-identity-post": _Scenario(
        (OUTCOME_FINGERPRINT_MISMATCH,),
        KeyType.IDENTITY_ED25519,
        True,
        ADVERSARY_SUBSTITUTE_KEY,
    ),
    "mitm-subkey-pre": _Scenario(
        (OUTCOME_SIGNATURE_INVALID,), None, False, ADVERSARY_SUBSTITUTE_KEY
    ),
    "mitm-subkey-post": _Scenario(
        (OUTCOME_SIGNATURE_INVALID, OUTCOME_FINGERPRINT_MISMATCH),
        None,
        True,
        ADVERSARY_SUBSTITUTE_KEY,
    ),
    "strip-signature": _Scenario(
        (OUTCOME_NO_ALARM,), None, True, ADVERSARY_STRIP_SIGNATURE
    ),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


@dataclass
class ScenarioReport:
    """Outcome of one scenario run."""

    name: str
    expected: tuple[str, ...]
    observed: str
    notes: list[str] = field(default_factory=list)
    checks_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.checks_ok and self.observed in self.expected

    def check(self, condition: bool, note: str) -> None:
        """Record a post-condition as a note; a failed one fails the run."""
        if condition:
            self.notes.append(f"ok: {note}")
        else:
            self.notes.append(f"FAILED: {note}")
            self.checks_ok = False


def _classify(action: Callable[[], object]) -> tuple[str, object]:
    """Run a load and name the alarm it raises, if any."""
    try:
        value = action()
    except _ALARMS as exc:
        return exc.code, exc
    return OUTCOME_NO_ALARM, value


def run_scenario(
    name: str,
    rng: random.Random | None = None,
    rsa_pool: Sequence[SharingKeyPair] | None = None,
) -> ScenarioReport:
    """Run one scenario over a fresh in-memory store and report the outcome.

    A victim publishes honest keys and a verifier loads the target key,
    once honestly if the scenario says so, then again under attack. The
    alarm that load raises, if any, is the observed outcome; the notes
    record what the verifier's rings hold afterwards.

    RSA generation dominates setup cost, so batch runs may hand in a pool
    of sharing pairs, of which victim and attacker draw distinct members.
    Handles, EC keys and choices are fresh and driven by ``rng``.
    """
    scenario = _SCENARIOS.get(name)
    if scenario is None:
        raise ParameterError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
        )
    rng = rng if rng is not None else random.Random()
    pool = list(rsa_pool or ())

    def sharing_pair() -> SharingKeyPair:
        """A pool member not drawn before, or a fresh pair once none is left."""
        if not pool:
            return generate_sharing_keypair()
        return pool.pop(rng.randrange(len(pool)))

    def new_handle(prefix: str) -> str:
        return f"{prefix}-{rng.randrange(16**6):06x}"

    store = AttributeStore()
    material = OwnKeyMaterial(sharing=sharing_pair())
    handle = new_handle("victim")
    victim_keys, _ = init_own_keys(store, handle, existing=material)
    verifier = Session(store, new_handle("verifier"))
    honest_identity = victim_keys.identity.public
    strip = scenario.mode == ADVERSARY_STRIP_SIGNATURE
    report = ScenarioReport(name, scenario.expected, observed="")
    key_type = scenario.target
    if key_type is None:
        key_type = rng.choice(SUB_KEY_TYPES)
        what = "stripped signature is for" if strip else "substituted sub-key is"
        report.notes.append(f"note: {what} {key_type.label}")
    identity = key_type is KeyType.IDENTITY_ED25519
    ring = verifier.ring(key_type)

    def load():
        if identity:
            return verifier.load_identity_key(handle)
        return verifier.load_signed_key(handle, key_type)

    if scenario.honest_first_load:
        first, loaded = _classify(load)
        if identity:
            report.check(first == OUTCOME_NO_ALARM, "honest first contact pinned the key")
        else:
            report.check(
                first == OUTCOME_NO_ALARM
                and loaded.method is AuthMethod.SIGNATURE_VERIFIED,
                "honest first load verified the signature",
            )
    honest_record = ring.get(handle)

    attribute = key_type.signature_attribute if strip else key_type.key_attribute
    if strip:
        forged = None
    elif key_type is KeyType.SHARING_RSA:
        forged = sharing_pair().public_frame()
    elif identity:
        forged = generate_identity_keypair().public
    else:
        forged = generate_chat_keypair().public
    store.set_adversary(AdversaryConfig(scenario.mode, handle, attribute, forged))
    store.reset_stats()
    report.observed, value = _classify(load)
    record = ring.get(handle)

    if strip:
        report.check(
            getattr(value, "method", None) is AuthMethod.SIGNATURE_VERIFIED,
            "reload still reports signature-verified strength",
        )
        report.check(
            store.stats().total == 1,
            "verified key reloads in a single fetch, so the stripped signature "
            "is never even requested",
        )
    elif identity and scenario.honest_first_load:
        honest = fingerprint_ec(honest_identity)
        report.check(
            record is not None and record.fingerprint == honest,
            "ring still pins the honest fingerprint",
        )
        if isinstance(value, FingerprintMismatchError):
            report.check(
                value.tracked == honest and value.observed == fingerprint_ec(forged),
                "alarm carries tracked and fetched fingerprints",
            )
    elif identity:
        report.check(
            record is not None and record.fingerprint == fingerprint_ec(forged),
            "attacker key was pinned on first sight",
        )
        report.check(
            record is not None and record.method is AuthMethod.SEEN,
            "pin is only at strength seen",
        )
        report.notes.append(
            "note: substitution before first contact is undetectable by design; "
            "only an out-of-band fingerprint comparison would expose it"
        )
    elif scenario.honest_first_load:
        report.check(
            record == honest_record, "ring retains the honest fingerprint and method"
        )
    else:
        report.check(record is None, "forged sub-key was never tracked")
        identity_record = verifier.ring(KeyType.IDENTITY_ED25519).get(handle)
        report.check(
            identity_record is not None
            and identity_record.fingerprint == fingerprint_ec(honest_identity),
            "honest identity key was pinned while checking the signature",
        )
    return report


def build_rsa_pool() -> list[SharingKeyPair]:
    """Pregenerate four sharing pairs for batch runs; generation dominates the
    cost of a scenario, and detection logic never depends on RSA freshness."""
    return [generate_sharing_keypair() for _ in range(4)]


def run_scenario_batch(
    name: str,
    reps: int,
    rng: random.Random | None = None,
    rsa_pool: Sequence[SharingKeyPair] | None = None,
) -> list[ScenarioReport]:
    if reps < 1:
        raise ParameterError("reps must be at least 1")
    rng = rng if rng is not None else random.Random()
    if rsa_pool is None and reps > 1:
        rsa_pool = build_rsa_pool()
    return [run_scenario(name, rng, rsa_pool) for _ in range(reps)]
