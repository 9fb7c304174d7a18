#!/usr/bin/env python3
"""Regenerate ``bench/rsa_pool.json``, the fixed RSA-2048 pool the contacts
workloads draw sharing keys from.

The pairs come from keyauth's own seeded (pure-Python Miller-Rabin) key
generation, so the file is reproducible. It is committed because that path
takes about a second per pair, which would otherwise dominate set-up time.

Run from the repository root:
    python3 bench/make_pool.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

POOL_SIZE = 4
POOL_PATH = Path(__file__).resolve().parent / "rsa_pool.json"


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from keyauth.keys import generate_sharing_keypair

    pairs = []
    for index in range(POOL_SIZE):
        rng = random.Random(f"keyauth-bench-rsa-{index}")
        pair = generate_sharing_keypair(rng=rng.randbytes)
        pairs.append(
            {
                "n": pair.modulus_n.hex(),
                "e": pair.public_exponent_e.hex(),
                "d": pair.private_d.hex(),
                "p": pair.prime_p.hex(),
                "q": pair.prime_q.hex(),
            }
        )
    POOL_PATH.write_text(json.dumps(pairs, indent=1) + "\n", encoding="ascii")
    print(f"wrote {len(pairs)} pairs to {POOL_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
