"""Shared fixtures. RSA generation is the only expensive operation in the
suite, so a couple of session-scoped pairs are shared by tests that do not
care about key freshness."""

from __future__ import annotations

import hashlib
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from keyauth import generate_sharing_keypair


def make_entropy(seed: bytes):
    """Deterministic entropy source: a SHA-256 counter stream over ``seed``."""

    counter = 0

    def entropy(n: int) -> bytes:
        nonlocal counter
        out = b""
        while len(out) < n:
            out += hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
            counter += 1
        return out[:n]

    return entropy


# a child process runs keyauth from this checkout's source
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def run_under_file_limit(limit: int, *argv) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a child process whose files cannot grow past
    ``limit`` octets: RLIMIT_FSIZE, with SIGXFSZ ignored, makes any write
    beyond it fail with EFBIG, however the file was opened. Pipes are not
    files, so the child's stdout and stderr come back whole."""

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        _, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

    return subprocess.run(
        [sys.executable, *map(str, argv)],
        env=CHILD_ENV,
        preexec_fn=limit_file_size,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.fixture(scope="session")
def init_without_file_room(tmp_path_factory):
    """One child ``keyauth init`` for alice, with the store and her home in a
    fresh directory, run where no file may grow, so the first key file fails
    to save. Returns the directory and the finished child. The tests that
    check what this run leaves share it, so RSA is generated once for all of
    them; none of them may change the directory."""
    base = tmp_path_factory.mktemp("no-file-room")
    argv = ["--store", base / "store.json", "--home", base / "alice", "--user", "alice"]
    return base, run_under_file_limit(0, "-m", "keyauth.cli", *argv, "init")


@pytest.fixture(scope="session")
def rsa_pair():
    return generate_sharing_keypair()


@pytest.fixture(scope="session")
def rsa_pair_alt():
    return generate_sharing_keypair()
