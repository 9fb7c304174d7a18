"""A write that fails partway must leave the file it replaces whole.

Every file keyauth keeps is written to a temporary file beside it and
renamed over it. These cases fail writes, cut short by a file-size limit in
a child process or refused at the rename in-process, and hold every file to
the bytes it held before, with no temporary file left behind.
"""

from __future__ import annotations

import os
import shutil

import pytest

from keyauth import AttributeStore
from keyauth.cli import EXIT_ERROR, EXIT_OK, main

from conftest import run_under_file_limit


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


def files(root):
    """Every file under ``root``, by path, with its bytes."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def refuse_renames(monkeypatch):
    """Fail every rename over a file, the last step of every write."""

    def refuse(source, target):
        raise PermissionError(13, "Permission denied", str(target))

    monkeypatch.setattr(os, "replace", refuse)


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
    assert not list(tmp_path.rglob("*.tmp"))
    assert run_cli("alice", "fetch", "bob", "identity") == (EXIT_OK, "")


def test_failed_key_write_leaves_no_key_file(
    run_cli, tmp_path, init_without_file_room
):
    # no file may grow, so the first key file fails to save
    base, done = init_without_file_room
    assert done.returncode == EXIT_ERROR
    key = base / "alice" / "identity-ed25519.sk"
    assert done.stderr.startswith("error[init]: ") and str(key) in done.stderr
    assert [path.name for path in (base / "alice").glob("*.sk")] == []
    # a published identity with no private key behind it is an orphan:
    # the next init publishes another, and every pin of it alarms
    assert not (base / "store.json").exists()
    assert not list(base.rglob("*.tmp"))
    # the next init, on a copy, as the run is shared
    shutil.copytree(base, tmp_path, dirs_exist_ok=True)
    assert run_cli("alice", "init")[0] == EXIT_OK


def test_failed_store_save_keeps_the_store(run_cli, tmp_path):
    assert run_cli("alice", "init")[0] == EXIT_OK
    path = tmp_path / "store.json"
    saved = path.read_bytes()
    # the child prints what save raised, and exits 1 on any other exception;
    # carol's block cannot fit in the few octets the limit leaves
    script = (
        "import sys\n"
        "from keyauth import AttributeStore, StoreUnavailableError\n"
        "store = AttributeStore(sys.argv[1])\n"
        "store.publish('carol', 'ed25519_pub', bytes(32))\n"
        "try:\n"
        "    store.save()\n"
        "except StoreUnavailableError as exc:\n"
        "    print(exc)\n"
    )
    done = run_under_file_limit(len(saved) + 8, "-c", script, path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"cannot write store {path}: ")
    assert path.read_bytes() == saved
    assert AttributeStore(path).fetch("alice", "ed25519_pub") is not None
    assert not list(tmp_path.rglob("*.tmp"))


def test_refused_ring_write_keeps_every_file(run_cli, tmp_path, monkeypatch):
    for user in ("alice", "bob"):
        assert run_cli(user, "init") == (EXIT_OK, "")
    assert run_cli("alice", "fetch", "bob", "chat") == (EXIT_OK, "")
    # a new user changes the store, so the next fetch also writes the record
    assert run_cli("carol", "init") == (EXIT_OK, "")
    before = files(tmp_path)
    refuse_renames(monkeypatch)
    code, err = run_cli("alice", "fetch", "carol", "chat")
    ring = tmp_path / "alice" / "chat-x25519.ring"
    assert code == EXIT_ERROR
    assert err.startswith(f"error[init]: cannot write {ring}: "), err
    assert files(tmp_path) == before
    monkeypatch.undo()
    assert run_cli("alice", "fetch", "bob", "chat") == (EXIT_OK, "")
    assert run_cli("alice", "fetch", "carol", "chat") == (EXIT_OK, "")


@pytest.mark.parametrize("state", ["fresh", "store-lost-the-user"])
def test_refused_init_write_keeps_every_file(run_cli, tmp_path, monkeypatch, state):
    assert run_cli("bob", "init")[0] == EXIT_OK
    if state == "fresh":
        key = tmp_path / "alice" / "identity-ed25519.sk"
        failed = f"error[init]: cannot write {key}: "
    else:
        assert run_cli("alice", "init")[0] == EXIT_OK
        # a store that holds bob alone, so alice's init publishes again
        store = tmp_path / "store.json"
        store.unlink()
        assert run_cli("bob", "init")[0] == EXIT_OK
        failed = f"error[store-unavailable]: cannot write store {store}: "
    before = files(tmp_path)
    refuse_renames(monkeypatch)
    code, err = run_cli("alice", "init")
    assert code == EXIT_ERROR
    assert err.startswith(failed), err
    assert files(tmp_path) == before
    monkeypatch.undo()
    assert run_cli("alice", "init")[0] == EXIT_OK
    assert AttributeStore(tmp_path / "store.json").fetch("alice", "sig_rsa") is not None


def test_refused_record_write_changes_no_output(tmp_path, capsys, monkeypatch):
    def run(user, *args):
        code = main([str(arg) for arg in (*user_args(tmp_path, user), *args)])
        return code, *capsys.readouterr()

    for user in ("alice", "bob"):
        assert run(user, "init")[0] == EXIT_OK
    assert run("alice", "fetch", "bob", "chat")[0] == EXIT_OK
    record = tmp_path / "alice" / "store.verified"
    record.unlink()  # so the next fetch opens the store in full and records it
    before = files(tmp_path)
    refuse_renames(monkeypatch)
    refused = run("alice", "fetch", "bob", "chat")
    assert files(tmp_path) == before
    monkeypatch.undo()
    assert refused == run("alice", "fetch", "bob", "chat")
    assert refused[0] == EXIT_OK
    assert record.is_file()
