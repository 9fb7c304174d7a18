#!/usr/bin/env python3
"""Smoke check for the benchmark at tiny sizes.

Confirms that every workload runs in both modes, that its output checks
pass, that every metric BENCHMARK.json names is reported with its unit, that
the checks catch a program answering wrongly, and that the benchmark refuses
to run without keyauth's source. Takes about half a minute.

Run from the repository root:
    python3 bench/smoke.py
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "users": 40,
    "cold": 10,
    "forged_sub": 4,
    "forged_identity": 2,
    "rotated": 4,
    "pass_warm": 3,
    "pass_cold": 2,
    "pass_forged_sub": 1,
    "pass_forged_identity": 1,
    "pass_rotated": 1,
    "new_homes": 4,
    "old_homes": 4,
    "pass_publish": 1,
    "pass_noop": 2,
}
SECONDS = 1.5


@contextlib.contextmanager
def patched(owner, attribute, value):
    original = getattr(owner, attribute)
    setattr(owner, attribute, value)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")


def check_runs(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, report = run.run(workload, 3, SECONDS, trace, TINY, 1)
            label = f"{workload} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: output checks failed: {report.get('first_error')}")
            expect(result["attempted"] >= 1, f"{label}: no op ran")
            wanted = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: metrics {sorted(set(got) ^ set(wanted))} "
                                  "differ from BENCHMARK.json")
            if not trace:
                named = set(report["metrics"])
                names = {"ops_failed_ratio", *run.CLASS_NAMES.get(workload, ())}
                expect(names <= named, f"{label}: report lacks {names - named}")
                expect(report["metrics"]["ops_failed_ratio"]["value"] == 0,
                       f"{label}: ops_failed_ratio is not 0")
            print(f"smoke: ok {label}: {result['attempted']} ops")


def check_wrong_answers_fail() -> None:
    from keyauth import keys, workflow

    def accept_anything(*_args):
        return True

    def sign_wrong_payload(identity, key_type, octets):
        return keys.sign_public_key(identity, key_type, octets + b"!")

    cases = (
        ("matrix", workflow, "verify_key_signature", accept_anything),
        ("contacts-read", workflow, "verify_key_signature", accept_anything),
        ("contacts-write", workflow, "sign_public_key", sign_wrong_payload),
    )
    for workload, owner, attribute, broken in cases:
        with patched(owner, attribute, broken):
            result, _ = run.run(workload, 3, SECONDS, False, TINY, 1)
        expect(not result["correct"] and result["failed"] > 0,
               f"{workload}: a broken {attribute} went unnoticed")
        print(f"smoke: ok {workload} flags a broken {attribute} "
              f"({result['failed']}/{result['attempted']} failed)")


def check_refuses_without_source() -> None:
    bare = run.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "matrix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "runs (or prints a result) without keyauth's source")
    print("smoke: ok refuses to run without src/keyauth")


def main() -> int:
    run.load_program()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORK_ROOT.mkdir(exist_ok=True)
    check_runs(bench)
    check_wrong_answers_fail()
    check_refuses_without_source()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
