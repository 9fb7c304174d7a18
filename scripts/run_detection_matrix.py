#!/usr/bin/env python3
"""Detection matrix experiment.

Runs every attack scenario many times against fresh randomized worlds and
tabulates which interceptions the key-authentication mechanism catches:

* identity key swapped before first contact   -> undetected (pin-on-first-
  sight has no root of trust yet; this is the known blind spot)
* identity key swapped after first contact    -> fingerprint mismatch alarm
* sub-key swapped before first contact        -> signature alarm
* sub-key swapped after first contact         -> signature or fingerprint alarm
* attestation signature stripped after verify -> harmless, key stays usable

Exit status is 0 only if every repetition of every scenario produced an
expected outcome.

Example:
    python scripts/run_detection_matrix.py --reps 200 --seed 7
    python scripts/run_detection_matrix.py --reps 50 --json
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import sys
import time
from pathlib import Path

# allow running from a source checkout, from any working directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from keyauth.scenarios import (
    SCENARIO_NAMES,
    build_rsa_pool,
    run_scenario_batch,
)


def run_matrix(reps: int, seed: int | None) -> dict:
    rng = random.Random(seed)
    pool = build_rsa_pool()
    rows = []
    started = time.perf_counter()
    for name in SCENARIO_NAMES:
        reports = run_scenario_batch(name, reps, rng=rng, rsa_pool=pool)
        observed = collections.Counter(report.observed for report in reports)
        rows.append(
            {
                "scenario": name,
                "expected": list(reports[0].expected),
                "observed": dict(observed),
                "matched": sum(1 for report in reports if report.ok),
                "reps": reps,
                "notes": reports[0].notes,
            }
        )
    return {
        "reps_per_scenario": reps,
        "seed": seed,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "rows": rows,
    }


def print_table(result: dict) -> None:
    width = max(len(row["scenario"]) for row in result["rows"])
    print(f"{'scenario':<{width}}  {'matched':>9}  expected / observed")
    print("-" * (width + 60))
    for row in result["rows"]:
        observed = ", ".join(
            f"{outcome} x{count}" for outcome, count in sorted(row["observed"].items())
        )
        print(
            f"{row['scenario']:<{width}}  "
            f"{row['matched']:>4}/{row['reps']:<4}  "
            f"{'|'.join(row['expected'])} / {observed}"
        )
    print("-" * (width + 60))
    print(f"elapsed: {result['elapsed_s']}s (seed={result['seed']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=100, help="repetitions per scenario")
    parser.add_argument("--seed", type=int, default=None, help="world randomization seed")
    parser.add_argument("--json", action="store_true", help="emit the matrix as JSON")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    result = run_matrix(args.reps, args.seed)
    if args.json:
        json.dump(result, sys.stdout, indent=2)
        print()
    else:
        print_table(result)

    all_matched = all(row["matched"] == row["reps"] for row in result["rows"])
    if not all_matched:
        print("MISMATCH: at least one repetition deviated from the expected outcome")
    return 0 if all_matched else 1


if __name__ == "__main__":
    sys.exit(main())
