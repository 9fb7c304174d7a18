"""The identity dir's owner: commands on one home or one store run one after
another, and a temporary file left by a killed write goes with the next
command that locks its directory.

Every command that may write holds the home, and ``init`` the store's
directory too, under flock(2); ``ring`` and own ``credentials`` only read and
take no lock. These tests hold such a lock themselves and watch a child
command wait for it, race two children on one home, and plant the temporary
files that a killed write leaves. Every user's keys are written beforehand,
so no child generates RSA.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from keyauth import OwnKeyMaterial, generate_chat_keypair, generate_identity_keypair
from keyauth.cli import EXIT_ERROR, EXIT_MISSING_KEY, EXIT_OK, main, save_own_material

from conftest import CHILD_ENV

HEX = "0123456789abcdef"


@pytest.fixture
def env(tmp_path, rsa_pair):
    """A store in its own directory and a home per user, each home holding
    the user's private keys and nothing else. Every child started through it
    is ended, and its pipes closed, when the test ends, so a test that fails
    while a child runs leaves no process and no open pipe behind."""

    class Env:
        store = tmp_path / "shared" / "store.json"
        children: list[subprocess.Popen] = []

        @staticmethod
        def home(user):
            home = tmp_path / user
            if not home.exists():
                home.mkdir(mode=0o700)
                material = OwnKeyMaterial(
                    generate_identity_keypair(), generate_chat_keypair(), rsa_pair
                )
                save_own_material(home, material)
            return home

        def argv(self, user, *command, store=None, home=None):
            store = store or self.store
            home = home or self.home(user)
            args = ["--store", store, "--home", home, "--user", user, *command]
            return [str(arg) for arg in args]

        def run(self, user, *command, **paths):
            return main(self.argv(user, *command, **paths))

        def child(self, user, *command):
            return self.spawn(["-m", "keyauth.cli", *self.argv(user, *command)])

        def spawn(self, args, **options):
            """A child Python running ``args``, with its output piped."""
            child = subprocess.Popen(
                [sys.executable, *args],
                env=CHILD_ENV,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                **options,
            )
            self.children.append(child)
            return child

        def users(self):
            return set(json.loads(self.store.read_text())["users"])

    Env.store.parent.mkdir()
    yield Env()
    for child in Env.children:
        if child.poll() is None:
            child.kill()
        child.wait()
        child.stdout.close()
        child.stderr.close()


@pytest.fixture(autouse=True)
def deadline():
    """Fail, rather than hang, a test whose in-process commands wait on a
    lock that the process itself still holds."""

    def expire(*_):
        # not an OSError, which a failed flock(2) would pass over
        pytest.fail("a command waited for a lock its own process holds")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@contextmanager
def locked(directory):
    """Hold ``directory`` as a command does: flock(2) on its own fd."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def waits(child):
    """Whether ``child`` is still running after half a second."""
    time.sleep(0.5)
    return child.poll() is None


def finish(child):
    _, err = child.communicate(timeout=60)
    return child.returncode, err


class TestLock:
    def test_init_waits_for_the_store_directory(self, env, capsys):
        assert env.run("bob", "init") == EXIT_OK
        env.home("alice")
        with locked(env.store.parent):
            child = env.child("alice", "init")
            assert waits(child)
            assert env.users() == {"bob"}
        assert finish(child) == (EXIT_OK, "")
        assert env.users() == {"alice", "bob"}

    def test_fetch_waits_for_the_home(self, env, capsys):
        for user in ("bob", "alice"):
            assert env.run(user, "init") == EXIT_OK
        ring = env.home("alice") / "chat-x25519.ring"
        empty = ring.read_bytes()
        with locked(env.home("alice")):
            child = env.child("alice", "fetch", "bob", "chat")
            assert waits(child)
            assert ring.read_bytes() == empty
        assert finish(child) == (EXIT_OK, "")
        assert ring.read_bytes() != empty  # bob's chat key is pinned

    def test_two_fetches_at_once_keep_both_pins(self, env, capsys):
        """Two children fetch different contacts' chat keys into one home at
        once: each waits after its imports for the end of one shared pipe, so
        their commands start together. Each pins its contact's chat and
        identity keys, and neither save drops the other's pins."""
        for user in ("bob", "carol", "alice"):
            assert env.run(user, "init") == EXIT_OK
        gate, release = os.pipe()
        script = "import sys\nfrom keyauth import cli\nsys.stdin.read()\ncli.run()\n"
        children = []
        for contact in ("bob", "carol"):
            argv = env.argv("alice", "fetch", contact, "chat")
            children.append(env.spawn(["-c", script, *argv], stdin=gate))
        os.close(gate)
        time.sleep(0.5)  # both children reach the gate
        os.close(release)
        assert [finish(child) for child in children] == [(EXIT_OK, "")] * 2
        capsys.readouterr()
        home = str(env.home("alice"))
        assert main(["--home", home, "--machine", "ring", "--all"]) == EXIT_OK
        rows = [row.split("\t")[:2] for row in capsys.readouterr().out.splitlines()]
        assert rows == [
            [key_type, contact]
            for key_type in ("identity-ed25519", "chat-x25519")
            for contact in ("bob", "carol")
        ]

    def test_ring_and_own_credentials_take_no_lock(self, env, capsys):
        """They only read, so a held home does not stop them; were they to
        wait, the deadline would fail the test."""
        assert env.run("alice", "init") == EXIT_OK
        home = env.home("alice")
        with locked(home):
            assert main(["--home", str(home), "ring", "--all"]) == EXIT_OK
            assert env.run("alice", "credentials") == EXIT_OK

    @pytest.mark.parametrize("spelling", ["same-path", "symlink"])
    def test_init_with_the_store_in_the_home(self, env, capsys, tmp_path, spelling):
        """One directory is locked once, however it is named: two fds on it
        would lock each other out within the process."""
        home = env.home("alice")
        store_dir = home
        if spelling == "symlink":
            store_dir = tmp_path / "link"
            store_dir.symlink_to(home)
        store = store_dir / "store.json"
        for command in (["init"], ["fetch", "alice", "identity"]):
            assert env.run("alice", *command, store=store) == EXIT_OK
        assert set(json.loads((home / "store.json").read_text())["users"]) == {"alice"}

    def test_commands_close_every_fd(self, env, capsys, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        assert env.run("bob", "init") == EXIT_OK
        assert env.run("alice", "init") == EXIT_OK
        assert env.run("alice", "fetch", "bob", "chat") == EXIT_OK
        assert env.run("alice", "credentials", "bob") == EXIT_OK
        capsys.readouterr()
        assert env.run("alice", "--machine", "credentials", "bob") == EXIT_OK
        fingerprint = capsys.readouterr().out.strip()
        assert env.run("alice", "verify", "bob", fingerprint) == EXIT_OK
        assert main(["--home", str(env.home("alice")), "ring", "--all"]) == EXIT_OK
        assert env.run("alice", "fetch", "nobody", "chat") == EXIT_MISSING_KEY
        none = tmp_path / "none"
        assert env.run("alice", "fetch", "bob", "chat", home=none) == EXIT_ERROR
        assert env.run("carol", "init", store=none / "store.json") == EXIT_ERROR
        assert open_fds() == before

    def test_a_filesystem_without_locks_runs_unlocked(self, env, capsys, monkeypatch):
        """flock(2) fails on some network filesystems: a command there runs as
        it did before there was a lock, and sweeps nothing."""
        for user in ("bob", "alice"):
            assert env.run(user, "init") == EXIT_OK
        temp = env.home("alice") / f".store.verified.{HEX}.tmp"
        temp.write_bytes(b"torn")

        def refuse(fd, operation):
            raise OSError(errno.EBADF, "Bad file descriptor")

        monkeypatch.setattr(fcntl, "flock", refuse)
        assert env.run("alice", "fetch", "bob", "chat") == EXIT_OK
        assert (env.home("alice") / "store.verified").is_file()
        assert temp.exists()

    def test_a_store_directory_that_cannot_be_opened(self, env, capsys, tmp_path):
        """init stops before it generates or writes a key."""
        store, home = tmp_path / "none" / "store.json", tmp_path / "carol"
        assert env.run("carol", "init", store=store, home=home) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error[store-unavailable]: cannot write store {store}: ")
        assert list(home.iterdir()) == []


class TestSweep:
    def test_fetch_removes_the_homes_temporary_files(self, env, capsys):
        for user in ("bob", "alice"):
            assert env.run(user, "init") == EXIT_OK
        home = env.home("alice")
        names = ["store.verified", "identity-ed25519.sk", "sharing-rsa.ring"]
        for name in names:
            (home / f".{name}.{HEX}.tmp").write_bytes(b"torn")
        assert env.run("alice", "fetch", "bob", "identity") == EXIT_OK
        assert not list(home.glob(".*"))

    def test_only_init_sweeps_beside_the_store(self, env, capsys):
        for user in ("bob", "alice"):
            assert env.run(user, "init") == EXIT_OK
        temp = env.store.parent / f".store.json.{HEX}.tmp"
        temp.write_bytes(b"torn")
        assert env.run("alice", "fetch", "bob", "identity") == EXIT_OK
        assert temp.exists()
        assert env.run("alice", "init") == EXIT_OK
        assert not temp.exists()

    def test_other_names_stay(self, env, capsys):
        assert env.run("alice", "init") == EXIT_OK
        home = env.home("alice")
        kept = [
            home / f".notes.{HEX}.tmp",
            home / ".chat-x25519.ring.tmp",
            home / f".chat-x25519.ring.{HEX.upper()}.tmp",
            home / f".chat-x25519.ring.{HEX}.tmp.old",
            env.store.parent / f".identity-ed25519.sk.{HEX}.tmp",
        ]
        for path in kept:
            path.write_bytes(b"")
        directory = home / f".identity-ed25519.ring.{HEX}.tmp"
        directory.mkdir()
        link = home / f".sharing-rsa.ring.{HEX}.tmp"
        link.symlink_to(home / "sharing-rsa.ring")
        for command in (["init"], ["fetch", "alice", "identity"]):
            assert env.run("alice", *command) == EXIT_OK
        assert all(path.is_file() for path in kept)
        assert directory.is_dir() and link.is_symlink()

    def test_a_failed_removal_is_ignored(self, env, capsys, monkeypatch):
        """A home the command cannot change still serves a pinned key."""
        for user in ("bob", "alice"):
            assert env.run(user, "init") == EXIT_OK
        assert env.run("alice", "fetch", "bob", "identity") == EXIT_OK
        temp = env.home("alice") / f".store.verified.{HEX}.tmp"
        temp.write_bytes(b"torn")

        def refuse(path, *, dir_fd=None):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(os, "unlink", refuse)
        assert env.run("alice", "fetch", "bob", "identity") == EXIT_OK
        assert temp.exists()

    def test_a_killed_fetch_leaves_a_file_the_next_fetch_removes(self, env, capsys):
        for user in ("bob", "alice"):
            assert env.run(user, "init") == EXIT_OK
        # the child dies at its first rename, the fetch's first write: the
        # record of the store it opened in full
        script = (
            "import os, signal, sys\n"
            "from keyauth import cli\n"
            "os.replace = lambda *_: os.kill(os.getpid(), signal.SIGKILL)\n"
            "cli.main(sys.argv[1:])\n"
        )
        argv = env.argv("alice", "fetch", "bob", "chat")
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=CHILD_ENV,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == -signal.SIGKILL
        home = env.home("alice")
        assert [path.name[:16] for path in home.glob(".*.tmp")] == [".store.verified."]
        assert env.run("alice", "fetch", "bob", "chat") == EXIT_OK
        assert not list(home.glob(".*.tmp"))
