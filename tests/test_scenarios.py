"""The scripted attack scenarios, run directly against the library."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from keyauth import (
    Fingerprint,
    FingerprintMismatchError,
    KeyChangedWarningError,
    KeyType,
    MissingKeyError,
    ParameterError,
    SignatureInvalidError,
)
from keyauth.scenarios import (
    OUTCOME_FINGERPRINT_MISMATCH,
    OUTCOME_KEY_CHANGED,
    OUTCOME_NO_ALARM,
    OUTCOME_SIGNATURE_INVALID,
    SCENARIO_NAMES,
    ScenarioReport,
    _classify,
    build_rsa_pool,
    run_scenario,
    run_scenario_batch,
)

EXPECTED = {
    "mitm-identity-pre": (OUTCOME_NO_ALARM,),
    "mitm-identity-post": (OUTCOME_FINGERPRINT_MISMATCH,),
    "mitm-subkey-pre": (OUTCOME_SIGNATURE_INVALID,),
    "mitm-subkey-post": (OUTCOME_SIGNATURE_INVALID, OUTCOME_FINGERPRINT_MISMATCH),
    "strip-signature": (OUTCOME_NO_ALARM,),
}


@pytest.fixture(scope="module")
def pool():
    return build_rsa_pool()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_matches_expectation(name, pool):
    for seed in range(4):
        report = run_scenario(name, random.Random(seed), pool)
        assert report.expected == EXPECTED[name]
        assert report.ok, (name, seed, report.observed, report.notes)
        assert not any(note.startswith("FAILED") for note in report.notes)


def test_pre_contact_identity_substitution_is_the_blind_spot(pool):
    report = run_scenario("mitm-identity-pre", random.Random(7), pool)
    assert report.observed == OUTCOME_NO_ALARM
    assert any("undetectable" in note for note in report.notes)


def test_batch_runner(pool):
    reports = run_scenario_batch(
        "strip-signature", reps=5, rng=random.Random(11), rsa_pool=pool
    )
    assert len(reports) == 5
    assert all(report.ok for report in reports)


def test_unknown_scenario_rejected():
    with pytest.raises(ParameterError):
        run_scenario("mitm-coffee", random.Random(0))


_FP = Fingerprint(bytes(20))


@pytest.mark.parametrize(
    "alarm, outcome",
    [
        (
            FingerprintMismatchError("bob", KeyType.CHAT_X25519, _FP, _FP),
            OUTCOME_FINGERPRINT_MISMATCH,
        ),
        (
            SignatureInvalidError("bob", KeyType.CHAT_X25519, None, _FP),
            OUTCOME_SIGNATURE_INVALID,
        ),
        (
            KeyChangedWarningError("bob", KeyType.SHARING_RSA, _FP, _FP),
            OUTCOME_KEY_CHANGED,
        ),
    ],
)
def test_each_alarm_is_its_own_outcome(alarm, outcome):
    def load():
        raise alarm

    assert _classify(load) == (outcome, alarm)


def test_outcome_names_are_stable():
    assert (
        OUTCOME_NO_ALARM,
        OUTCOME_FINGERPRINT_MISMATCH,
        OUTCOME_SIGNATURE_INVALID,
        OUTCOME_KEY_CHANGED,
    ) == (
        "no-alarm",
        "fingerprint-mismatch",
        "signature-invalid",
        "key-changed-warning",
    )


def test_classify_passes_other_errors_and_values():
    def missing():
        raise MissingKeyError("no key")

    with pytest.raises(MissingKeyError):
        _classify(missing)
    assert _classify(lambda: 5) == (OUTCOME_NO_ALARM, 5)


def test_failed_post_condition_fails_an_expected_outcome():
    # the matrix counts a rep as matched only when report.ok holds
    report = ScenarioReport(
        "strip-signature", (OUTCOME_NO_ALARM,), observed=OUTCOME_NO_ALARM
    )
    report.check(True, "held")
    assert report.ok
    report.check(False, "broke")
    assert not report.ok
    assert report.notes == ["ok: held", "FAILED: broke"]


def test_batch_rejects_zero_reps():
    with pytest.raises(ParameterError):
        run_scenario_batch("strip-signature", reps=0)


# Reports recorded for fixed seeds before the scenarios were rewritten as
# one table-driven runner. "{}" stands for the sub-key type the run drew.
GOLDEN_NOTES = {
    "mitm-identity-pre": [
        "ok: attacker key was pinned on first sight",
        "ok: pin is only at strength seen",
        "note: substitution before first contact is undetectable by design; "
        "only an out-of-band fingerprint comparison would expose it",
    ],
    "mitm-identity-post": [
        "ok: honest first contact pinned the key",
        "ok: ring still pins the honest fingerprint",
        "ok: alarm carries tracked and fetched fingerprints",
    ],
    "mitm-subkey-pre": [
        "note: substituted sub-key is {}",
        "ok: forged sub-key was never tracked",
        "ok: honest identity key was pinned while checking the signature",
    ],
    "mitm-subkey-post": [
        "note: substituted sub-key is {}",
        "ok: honest first load verified the signature",
        "ok: ring retains the honest fingerprint and method",
    ],
    "strip-signature": [
        "note: stripped signature is for {}",
        "ok: honest first load verified the signature",
        "ok: reload still reports signature-verified strength",
        "ok: verified key reloads in a single fetch, so the stripped signature "
        "is never even requested",
    ],
}
GOLDEN_OBSERVED = {
    "mitm-identity-pre": OUTCOME_NO_ALARM,
    "mitm-identity-post": OUTCOME_FINGERPRINT_MISMATCH,
    "mitm-subkey-pre": OUTCOME_SIGNATURE_INVALID,
    "mitm-subkey-post": OUTCOME_SIGNATURE_INVALID,
    "strip-signature": OUTCOME_NO_ALARM,
}
CHAT, SHARING = "chat-x25519", "sharing-rsa"
# seed: (sub-key types drawn by the three sub-key scenarios, in order;
#        the next 32 random bits after the seed's five runs)
GOLDEN_RUNS = {
    0: ((CHAT, CHAT, CHAT), 3134603515),
    1: ((CHAT, SHARING, CHAT), 2538984641),
    2: ((CHAT, SHARING, SHARING), 1996703904),
    3: ((CHAT, CHAT, CHAT), 2883690328),
    4: ((SHARING, SHARING, CHAT), 4049979598),
    5: ((SHARING, CHAT, CHAT), 3935673377),
}


def test_fixed_seed_reports_are_golden(pool):
    """All five scenarios run in order on one rng per seed reproduce the
    recorded outcomes, notes and rng state, so the rng draw order holds."""
    assert SCENARIO_NAMES == tuple(GOLDEN_NOTES)
    for seed, (drawn, next_bits) in GOLDEN_RUNS.items():
        rng = random.Random(seed)
        labels = iter(drawn)
        for name in SCENARIO_NAMES:
            report = run_scenario(name, rng, pool)
            notes = list(GOLDEN_NOTES[name])
            if "{}" in notes[0]:
                notes[0] = notes[0].format(next(labels))
            assert (report.observed, report.notes, report.checks_ok) == (
                GOLDEN_OBSERVED[name],
                notes,
                True,
            ), (seed, name)
        assert rng.getrandbits(32) == next_bits, seed


SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_detection_matrix.py"
GOLDEN_MATRIX = Path(__file__).with_name("detection_matrix_reps3_seed7.json")


def test_detection_matrix_json_is_golden():
    """The script's matrix for a fixed seed matches the recorded one apart
    from the elapsed time. The RSA pool is fresh on every run, but which
    pool member is drawn never changes an outcome or a note."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--reps", "3", "--seed", "7", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    del result["elapsed_s"]
    assert result == json.loads(GOLDEN_MATRIX.read_text())


def test_detection_matrix_script_runs_from_any_directory(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--reps", "1", "--json"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert [row["scenario"] for row in rows] == list(SCENARIO_NAMES)
    assert all(row["matched"] == row["reps"] == 1 for row in rows)
