"""A write that fails partway must leave the file it replaces whole.

Every writer truncates its file before it writes, so a write cut short
leaves a torn file behind. These cases cut writes short with a file-size
limit and hold the files to what they held before. They fail until writes
go through a temporary file and a rename (ROADMAP item 2).
"""

from __future__ import annotations

import pytest

from keyauth.cli import EXIT_ERROR, EXIT_OK, main

from conftest import run_under_file_limit

torn_write = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="writes truncate in place, so a failed write tears the file "
    "(ROADMAP item 2: atomic writes)",
)


def user_args(tmp_path, user):
    home = tmp_path / user
    return ["--store", tmp_path / "store.json", "--home", home, "--user", user]


@pytest.fixture
def run_cli(tmp_path, capsys):
    """Run a command in-process as ``user``; returns (exit code, stderr)."""

    def run(user, *args):
        code = main([str(arg) for arg in (*user_args(tmp_path, user), *args)])
        return code, capsys.readouterr().err

    return run


@torn_write
def test_failed_ring_write_keeps_every_pin(run_cli, tmp_path):
    for user in ("alice", "bob", "carol"):
        assert run_cli(user, "init") == (EXIT_OK, "")
    assert run_cli("alice", "fetch", "bob", "identity") == (EXIT_OK, "")
    ring = tmp_path / "alice" / "identity-ed25519.ring"
    pinned = ring.read_bytes()
    assert len(pinned) == 39  # one record: adding carol's cannot fit in 40
    fetch_carol = ["fetch", "carol", "identity"]
    done = run_under_file_limit(
        40, "-m", "keyauth.cli", *user_args(tmp_path, "alice"), *fetch_carol
    )
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("error[init]: ") and str(ring) in done.stderr
    assert ring.read_bytes() == pinned
    assert run_cli("alice", "fetch", "bob", "identity") == (EXIT_OK, "")


@torn_write
def test_failed_key_write_leaves_no_key_file(run_cli, tmp_path):
    done = run_under_file_limit(
        0, "-m", "keyauth.cli", *user_args(tmp_path, "alice"), "init"
    )
    assert done.returncode == EXIT_ERROR
    key = tmp_path / "alice" / "identity-ed25519.sk"
    assert done.stderr.startswith("error[init]: ") and str(key) in done.stderr
    assert [path.name for path in (tmp_path / "alice").glob("*.sk")] == []
    assert run_cli("alice", "init")[0] == EXIT_OK
