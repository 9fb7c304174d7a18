"""The command-line interface: exit codes, output shapes, file handling.

Commands run in-process through ``main`` so exit codes and streams can be
asserted directly. ``TestContactOutcomes`` is the one place the outcome of a
contact command (``fetch``, ``verify``, ``credentials``) is asserted: its exit
code, its exact output and the records it leaves. The other classes check
what no single command's outcome shows: files, locks, corrupt input, display.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyauth import (
    AttributeStore,
    AuthMethod,
    AuthRing,
    Fingerprint,
    KeyType,
    OwnKeyMaterial,
    fingerprint_ec,
    generate_chat_keypair,
    generate_identity_keypair,
    sign_public_key,
)
from keyauth import cli
from keyauth import store as store_module
from keyauth.cli import (
    EXIT_ERROR,
    EXIT_FINGERPRINT_MISMATCH,
    EXIT_KEY_CHANGED,
    EXIT_MISSING_KEY,
    EXIT_OK,
    EXIT_SIGNATURE_INVALID,
    EXIT_USAGE,
    load_own_material,
    main,
    save_own_material,
)

from conftest import make_entropy, run_under_file_limit
from oracles import fingerprint_oracle


@pytest.fixture
def env(tmp_path):
    """Paths plus a runner returning (exit_code, stdout, stderr)."""

    store = tmp_path / "store.json"

    class Env:
        store_path = store
        base = tmp_path

        def home(self, user):
            return tmp_path / user

        def run(self, *args, capsys):
            code = main([str(a) for a in args])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def user_args(self, user):
            return ["--store", store, "--home", self.home(user), "--user", user]

    return Env()


def init_user(env, capsys, user):
    code, out, err = env.run(*env.user_args(user), "init", capsys=capsys)
    assert code == EXIT_OK, err
    return out


class TestInit:
    def test_fresh_init_reports_everything(self, env, capsys):
        out = init_user(env, capsys, "alice")
        lines = out.strip().splitlines()
        assert lines == [
            "generate identity-ed25519",
            "generate chat-x25519",
            "generate sharing-rsa",
            "publish ed25519_pub",
            "publish x25519_pub",
            "publish rsa_pub",
            "publish sig_x25519",
            "publish sig_rsa",
        ]

    def test_rerun_rewrites_no_private_key(self, env, capsys):
        init_user(env, capsys, "alice")
        keys = sorted(env.home("alice").glob("*.sk"))
        assert len(keys) == 3
        for key in keys:
            os.utime(key, ns=(10**18, 10**18))  # any rewrite moves mtime off this
        before = [(os.stat(key), key.read_bytes()) for key in keys]
        init_user(env, capsys, "alice")
        for key, (old, data) in zip(keys, before):
            new = os.stat(key)
            assert (new.st_ino, new.st_mtime_ns) == (old.st_ino, old.st_mtime_ns), key
            assert key.read_bytes() == data, key

    def test_rerun_restores_0600(self, env, capsys):
        init_user(env, capsys, "alice")
        key = env.home("alice") / "sharing-rsa.sk"
        data = key.read_bytes()
        key.chmod(0o644)
        out = init_user(env, capsys, "alice")
        assert out.strip() == "nothing to repair"
        assert stat.S_IMODE(os.stat(key).st_mode) == 0o600
        assert key.read_bytes() == data

    def test_unwritable_home_leaves_store_untouched(self, env, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = env.run(
            "--store",
            env.store_path,
            "--home",
            blocker / "home",  # parent is a file: mkdir must fail
            "--user",
            "alice",
            "init",
            capsys=capsys,
        )
        assert code == EXIT_ERROR
        assert "error[init]" in err
        assert not env.store_path.exists()

    def test_handle_no_ring_can_hold_publishes_nothing(self, env, capsys):
        user = "€" * 85 + "b"  # 256 octets in UTF-8
        code, out, err = env.run(
            "--store", env.store_path, "--home", env.home("alice"), "--user", user,
            "init", capsys=capsys,
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error[parameter]: handle exceeds 255 octets"), err
        assert not env.store_path.exists()
        assert not env.home("alice").exists()

    def test_missing_options_are_usage_errors(self, env, capsys):
        code, _, err = env.run("--user", "alice", "init", capsys=capsys)
        assert code == EXIT_USAGE
        assert "--store" in err and "--home" in err

    def test_machine_mode(self, env, capsys):
        code, out, _ = env.run(
            *env.user_args("alice"), "--machine", "init", capsys=capsys
        )
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert ["generate", "identity-ed25519"] in rows
        assert ["publish", "sig_rsa"] in rows

    def test_missing_user_is_usage_error(self, env, capsys):
        code, _, err = env.run(
            "--store", env.store_path, "--home", env.home("alice"), "init",
            capsys=capsys,
        )
        assert code == EXIT_USAGE
        assert "--user" in err and "--store" not in err

    def test_contact_commands_need_no_user(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        alice = ["--store", env.store_path, "--home", env.home("alice")]
        code, _, err = env.run(*alice, "fetch", "bob", "chat", capsys=capsys)
        assert code == EXIT_OK, err
        code, out, err = env.run(
            *alice, "--machine", "credentials", "bob", capsys=capsys
        )
        assert code == EXIT_OK, err
        code, _, err = env.run(*alice, "verify", "bob", out.strip(), capsys=capsys)
        assert code == EXIT_OK, err
        # own credentials still name the user
        code, _, err = env.run(*alice, "credentials", capsys=capsys)
        assert code == EXIT_USAGE
        assert "--user" in err

    @pytest.mark.parametrize(
        "name, content, reason",
        [
            ("identity-ed25519.sk", b"!!!!\n", "is unreadable"),
            ("identity-ed25519.sk", base64.b64encode(bytes(31)) + b"\n", "is unreadable"),
            ("identity-ed25519.sk", b"AAAA\n" * 2, "has 2 lines, expected 1"),
            ("sharing-rsa.sk", b"AAAA\n" * 4, "has 4 lines, expected 5"),
        ],
        ids=["bad-base64", "short-seed", "two-line-seed", "four-line-rsa"],
    )
    def test_unreadable_private_key_names_the_file(
        self, env, capsys, name, content, reason
    ):
        init_user(env, capsys, "alice")
        key = env.home("alice") / name
        key.write_bytes(content)
        code, _, err = env.run(*env.user_args("alice"), "init", capsys=capsys)
        assert code == EXIT_ERROR
        assert err.startswith("error[init]: ") and str(key) in err
        assert reason in err

    def test_store_is_saved_once_after_the_keys(self, env, capsys, monkeypatch):
        key_names = ["chat-x25519.sk", "identity-ed25519.sk", "sharing-rsa.sk"]
        keys_at_save = []
        save = AttributeStore.save

        def recording_save(store):
            keys_at_save.append(
                sorted(path.name for path in env.home("alice").glob("*.sk"))
            )
            save(store)

        monkeypatch.setattr(AttributeStore, "save", recording_save)
        init_user(env, capsys, "alice")
        assert keys_at_save == [key_names]
        os.utime(env.store_path, ns=(10**18, 10**18))  # a rewrite moves mtime
        old, data = os.stat(env.store_path), env.store_path.read_bytes()
        assert init_user(env, capsys, "alice").strip() == "nothing to repair"
        assert keys_at_save == [key_names]
        new = os.stat(env.store_path)
        assert (new.st_ino, new.st_mtime_ns) == (old.st_ino, old.st_mtime_ns)
        assert env.store_path.read_bytes() == data

    def test_unwritable_store_keeps_the_keys(self, env, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = env.run(
            "--store", blocker / "store.json", "--home", env.home("alice"),
            "--user", "alice", "init", capsys=capsys,
        )
        assert code == EXIT_ERROR
        assert err.startswith("error[store-unavailable]: cannot write store"), err
        assert sorted(path.name for path in env.home("alice").glob("*.sk")) == [
            "chat-x25519.sk",
            "identity-ed25519.sk",
            "sharing-rsa.sk",
        ]
        # the keys on disk are the truth: a good store gets them, none is new
        assert init_user(env, capsys, "alice").strip().splitlines() == [
            "publish ed25519_pub",
            "publish x25519_pub",
            "publish rsa_pub",
            "publish sig_x25519",
            "publish sig_rsa",
        ]

    def test_failed_key_write_publishes_nothing(self, init_without_file_room):
        # no file may grow, so the first key file fails to save
        base, done = init_without_file_room
        assert done.returncode == EXIT_ERROR
        assert not list((base / "alice").glob("*.sk"))
        # a published identity with no private key behind it is an orphan:
        # the next init publishes another, and every pin of it alarms
        assert not (base / "store.json").exists()


class TestKeyFiles:
    def test_layout_is_golden(self, tmp_path, rsa_pair):
        """One base64 line per field: the seed, the clamped scalar, and the
        RSA n, e, d, p, q in that order."""
        identity = generate_identity_keypair(make_entropy(b"identity"))
        chat = generate_chat_keypair(make_entropy(b"chat"))
        material = OwnKeyMaterial(identity=identity, chat=chat, sharing=rsa_pair)
        save_own_material(tmp_path, material)

        def render(*fields):
            return b"".join(base64.b64encode(field) + b"\n" for field in fields)

        expected = {
            "identity-ed25519.sk": render(identity.private),
            "chat-x25519.sk": render(chat.private),
            "sharing-rsa.sk": render(
                rsa_pair.modulus_n,
                rsa_pair.public_exponent_e,
                rsa_pair.private_d,
                rsa_pair.prime_p,
                rsa_pair.prime_q,
            ),
        }
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(expected)
        for name, data in expected.items():
            assert (tmp_path / name).read_bytes() == data, name
        assert load_own_material(tmp_path) == material


class TestWritePolicy:
    """Every identity-dir file a command writes is mode 0600. A command
    parses only the rings it uses, and serialises and writes only the rings
    whose records it changed."""

    @staticmethod
    def stamped_rings(env, user):
        rings = sorted(env.home(user).glob("*.ring"))
        assert len(rings) == 3
        for ring in rings:
            os.utime(ring, ns=(10**18, 10**18))  # any rewrite moves mtime off this
        return [(ring, os.stat(ring), ring.read_bytes()) for ring in rings]

    @staticmethod
    def assert_untouched(before):
        for ring, old, data in before:
            new = os.stat(ring)
            assert (new.st_ino, new.st_mtime_ns) == (old.st_ino, old.st_mtime_ns), ring
            assert ring.read_bytes() == data, ring

    @staticmethod
    def assert_all_0600(home):
        files = list(home.iterdir())
        assert files
        for path in files:
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o600, path

    def test_warm_fetch_and_noop_init_rewrite_no_ring(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        env.run(*env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys)
        before = self.stamped_rings(env, "alice")
        code, _, _ = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_OK
        self.assert_untouched(before)
        assert init_user(env, capsys, "alice").strip() == "nothing to repair"
        self.assert_untouched(before)

    def test_pinning_fetch_rewrites_its_ring(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        stamped = self.stamped_rings(env, "alice")
        before = {ring.name: data for ring, _, data in stamped}
        code, _, _ = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_OK
        ring = env.home("alice") / "chat-x25519.ring"
        assert ring.read_bytes() != before[ring.name]
        assert os.stat(ring).st_mtime_ns != 10**18
        # the sharing ring gained nothing, so it was left alone
        sharing = env.home("alice") / "sharing-rsa.ring"
        assert os.stat(sharing).st_mtime_ns == 10**18

    def test_every_file_is_0600(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        self.assert_all_0600(env.home("alice"))
        code, _, _ = env.run(
            *env.user_args("alice"), "fetch", "bob", "sharing", capsys=capsys
        )
        assert code == EXIT_OK
        self.assert_all_0600(env.home("alice"))

    def test_alarm_after_first_pin_keeps_the_pin(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        store = AttributeStore(env.store_path)
        store.publish("bob", "x25519_pub", generate_chat_keypair().public)
        store.save()
        code, _, _ = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_SIGNATURE_INVALID
        code, out, _ = env.run(
            "--home", env.home("alice"), "--machine", "ring", "identity", capsys=capsys
        )
        assert code == EXIT_OK
        row = out.strip().split("\t")
        assert row[1] == "bob" and row[3] == "seen"

    @staticmethod
    def record_ring_parses(monkeypatch):
        parsed = []
        parse = AuthRing.from_bytes

        def recording_parse(data):
            ring = parse(data)
            parsed.append(ring.key_type)
            return ring

        monkeypatch.setattr(AuthRing, "from_bytes", staticmethod(recording_parse))
        return parsed

    def test_each_command_parses_only_the_rings_it_uses(
        self, env, capsys, monkeypatch
    ):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        parsed = self.record_ring_parses(monkeypatch)

        def parses(*args):
            parsed.clear()
            code, _, err = env.run(*args, capsys=capsys)
            assert code == EXIT_OK, err
            return list(parsed)

        alice = env.user_args("alice")
        identity, chat = KeyType.IDENTITY_ED25519, KeyType.CHAT_X25519
        # cold: the chat key's signature needs bob's identity key
        assert parses(*alice, "fetch", "bob", "chat") == [chat, identity]
        assert parses(*alice, "fetch", "bob", "chat") == [chat]
        assert parses(*alice, "fetch", "bob", "identity") == [identity]
        assert parses("--home", env.home("alice"), "ring", "chat") == [chat]
        assert parses(*alice, "init") == []  # a no-op init

    def test_corrupt_ring_fails_only_the_command_that_reads_it(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        ring = env.home("alice") / "sharing-rsa.ring"
        corrupt = bytearray(ring.read_bytes())
        corrupt[-1] ^= 0x01
        ring.write_bytes(bytes(corrupt))
        alice = env.user_args("alice")

        code, _, err = env.run(*alice, "fetch", "bob", "identity", capsys=capsys)
        assert code == EXIT_OK, err
        assert ring.read_bytes() == corrupt
        code, out, err = env.run(*alice, "init", capsys=capsys)
        assert code == EXIT_OK, err
        assert out.strip() == "nothing to repair"
        assert ring.read_bytes() == corrupt
        code, _, err = env.run(*alice, "fetch", "bob", "sharing", capsys=capsys)
        assert code == EXIT_ERROR
        assert err.startswith("error[ring-checksum-mismatch]: ")
        assert ring.read_bytes() == corrupt


    @staticmethod
    def record_ring_serialisations(monkeypatch):
        serialised = []
        serialise = AuthRing.to_bytes

        def recording_serialise(ring):
            serialised.append(ring.key_type)
            return serialise(ring)

        monkeypatch.setattr(AuthRing, "to_bytes", recording_serialise)
        return serialised

    def test_each_command_serialises_only_the_rings_it_changed(
        self, env, capsys, monkeypatch
    ):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        serialised = self.record_ring_serialisations(monkeypatch)

        def serialisations(*args):
            serialised.clear()
            code, _, err = env.run(*args, capsys=capsys)
            assert code == EXIT_OK, err
            return list(serialised)

        alice = env.user_args("alice")
        identity, chat = KeyType.IDENTITY_ED25519, KeyType.CHAT_X25519
        # cold: pins bob's chat key and, to check its signature, his identity key
        assert serialisations(*alice, "fetch", "bob", "chat") == [chat, identity]
        assert serialisations(*alice, "fetch", "bob", "chat") == []
        assert serialisations(*alice, "fetch", "bob", "identity") == []

    def test_repeated_verify_serialises_and_writes_no_ring(
        self, env, capsys, monkeypatch
    ):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        alice = env.user_args("alice")
        code, out, err = env.run(
            *alice, "--machine", "credentials", "bob", capsys=capsys
        )
        assert code == EXIT_OK, err
        fingerprint = out.strip()
        code, _, err = env.run(*alice, "verify", "bob", fingerprint, capsys=capsys)
        assert code == EXIT_OK, err
        before = self.stamped_rings(env, "alice")
        serialised = self.record_ring_serialisations(monkeypatch)
        code, _, err = env.run(*alice, "verify", "bob", fingerprint, capsys=capsys)
        assert code == EXIT_OK, err
        assert serialised == []
        self.assert_untouched(before)

    def test_store_record_is_written_once_at_0600(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        record = env.home("alice") / "store.verified"
        assert not record.exists()
        alice = env.user_args("alice")
        code, _, err = env.run(*alice, "fetch", "bob", "chat", capsys=capsys)
        assert code == EXIT_OK, err
        digest = hashlib.sha256(env.store_path.read_bytes()).hexdigest()
        assert record.read_bytes() == f"keyauth-store-v1 {digest}\n".encode()
        assert stat.S_IMODE(os.stat(record).st_mode) == 0o600
        os.utime(record, ns=(10**18, 10**18))  # any rewrite moves mtime off this
        before = [(record, os.stat(record), record.read_bytes())]
        for command in (["fetch", "bob", "chat"], ["credentials", "bob"]):
            code, _, err = env.run(*alice, *command, capsys=capsys)
            assert code == EXIT_OK, err
            self.assert_untouched(before)

    def test_ring_read_but_unchanged_keeps_its_mode(self, env, capsys):
        # only a write sets mode 0600, and an unchanged ring is not written
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        alice = env.user_args("alice")
        code, _, err = env.run(*alice, "fetch", "bob", "identity", capsys=capsys)
        assert code == EXIT_OK, err
        ring = env.home("alice") / "identity-ed25519.ring"
        os.chmod(ring, 0o640)
        code, _, err = env.run(*alice, "fetch", "bob", "identity", capsys=capsys)
        assert code == EXIT_OK, err
        assert stat.S_IMODE(os.stat(ring).st_mode) == 0o640

    def test_absent_ring_still_empty_is_not_created(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        ring = env.home("alice") / "identity-ed25519.ring"
        ring.unlink()
        # reads the (empty) identity ring, finds no record and changes nothing
        code, _, err = env.run(
            *env.user_args("alice"), "verify", "bob", "00" * 20, capsys=capsys
        )
        assert code == EXIT_ERROR
        assert err.startswith("error[missing-record]: ")
        assert not ring.exists()


class TestVerify:
    def test_mismatch_exits_2_with_warning(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        env.run(*env.user_args("alice"), "credentials", "bob", capsys=capsys)
        code, _, err = env.run(
            *env.user_args("alice"), "verify", "bob", "0" * 40, capsys=capsys
        )
        assert code == EXIT_FINGERPRINT_MISMATCH
        assert "DO NOT TRUST" in err
        # the pin itself is unharmed
        _, ring_out, _ = env.run(
            "--home", env.home("alice"), "--machine", "ring", "identity", capsys=capsys
        )
        assert ring_out.strip().split("\t")[3] == "seen"

    def test_honest_fingerprint_exposes_forged_first_pin(self, env, capsys):
        """The first-contact blind spot and its countermeasure: a forged
        identity key pinned on first sight is only caught by comparing
        fingerprints out of band."""
        init_user(env, capsys, "bob")
        init_user(env, capsys, "alice")
        _, bob_fp, _ = env.run(
            *env.user_args("bob"), "--machine", "credentials", capsys=capsys
        )
        forged = generate_identity_keypair().public
        store = AttributeStore(env.store_path)
        store.publish("bob", "ed25519_pub", forged)
        store.save()
        forged_row = ["identity-ed25519", "bob", fingerprint_ec(forged).hex(), "seen"]

        def identity_row():
            code, out, _ = env.run(
                "--home", env.home("alice"), "--machine", "ring", "identity",
                capsys=capsys,
            )
            assert code == EXIT_OK
            return out.strip().split("\t")[:4]

        code, _, _ = env.run(
            *env.user_args("alice"), "credentials", "bob", capsys=capsys
        )
        assert code == EXIT_OK
        assert identity_row() == forged_row
        code, _, err = env.run(
            *env.user_args("alice"), "verify", "bob", bob_fp.strip(), capsys=capsys
        )
        assert code == EXIT_FINGERPRINT_MISMATCH
        assert "DO NOT TRUST" in err
        assert identity_row() == forged_row
        # bob's honest chat key is signed by his real identity, not the pin
        code, _, _ = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_SIGNATURE_INVALID


def grouped(hex40: str) -> str:
    """The display form, eight groups of five, written from the README."""
    return " ".join(re.findall(".{5}", hex40))


def _key_facts(name: str, public: bytes, hashed: bytes | None = None) -> dict:
    """``name`` is the fingerprint hex of the key published as ``public``,
    which hashes ``hashed`` when given; ``name_b64`` is ``public`` in base64."""
    hex40 = fingerprint_oracle(public if hashed is None else hashed).hex()
    return {
        name: hex40,
        f"{name}_grouped": grouped(hex40),
        f"{name}_b64": base64.b64encode(public).decode("ascii"),
    }


def _publish_for_bob(env, **values):
    store = AttributeStore(env.store_path)
    for attribute, value in values.items():
        store.publish("bob", attribute, value)
    store.save()


def _make_home(env, capsys, facts):
    env.home("alice").mkdir()


def _init(env, capsys, facts):
    for user in ("alice", "bob"):
        init_user(env, capsys, user)
    alice, bob = (load_own_material(env.home(user)) for user in ("alice", "bob"))
    sharing = bob.sharing
    facts.update(
        **_key_facts("alice_id", alice.identity.public),
        **_key_facts("bob_id", bob.identity.public),
        **_key_facts("bob_chat", bob.chat.public),
        **_key_facts(
            "bob_sharing", sharing.public, sharing.modulus_n + sharing.public_exponent_e
        ),
    )
    facts["bob_id_upper"] = facts["bob_id_grouped"].upper()


def _pin(alias):
    def fetch(env, capsys, facts):
        code, _, err = env.run(
            *env.user_args("alice"), "fetch", "bob", alias, capsys=capsys
        )
        assert code == EXIT_OK, err

    return fetch


def _substitute_identity(env, capsys, facts):
    forged = generate_identity_keypair().public
    _publish_for_bob(env, ed25519_pub=forged)
    facts.update(_key_facts("forged_id", forged))


def _forge_chat(env, capsys, facts):
    forged = generate_chat_keypair().public
    _publish_for_bob(env, x25519_pub=forged)
    facts.update(_key_facts("forged_chat", forged))


def _rotate_chat(env, capsys, facts):
    """bob rotates properly: a new chat key with a new valid signature."""
    identity = load_own_material(env.home("bob")).identity
    new = generate_chat_keypair().public
    signature = sign_public_key(identity, KeyType.CHAT_X25519, new).sig
    _publish_for_bob(env, x25519_pub=new, sig_x25519=signature)
    facts.update(_key_facts("new_chat", new))


# each world is built in steps, in alice's identity dir and a shared store
_WORLDS = {
    "nothing": (),  # no identity dir, no store
    "no store": (_make_home,),
    "fresh": (_init,),  # alice and bob initialised; alice tracks no one
    "identity pinned": (_init, _pin("identity")),
    "chat pinned": (_init, _pin("chat")),
    "sharing pinned": (_init, _pin("sharing")),
    "identity substituted": (_init, _pin("identity"), _substitute_identity),
    "chat forged": (_init, _forge_chat),
    "chat rotated": (_init, _pin("chat"), _rotate_chat),
}

# the records of alice's rings, as `--machine ring --all` prints them
_ID_SEEN = "identity-ed25519 bob {bob_id} seen 0"
_ID_COMPARED = "identity-ed25519 bob {bob_id} fingerprint-comparison 0"
_CHAT = "chat-x25519 bob {bob_chat} signature-verified 0"
_SHARING = "sharing-rsa bob {bob_sharing} signature-verified 0"

_ID_MISMATCH = (
    "error[fingerprint-mismatch]: fingerprint mismatch for 'bob' "
    "(identity-ed25519): tracked {bob_id}, fetched key has {forged_id}\n"
)
_WRONG = "1" * 40
_HUMAN_CHAT = (
    "key type: chat-x25519\npublic key: {bob_chat_b64}\n"
    "method: signature-verified\nfetches: 3\n"
)


# world, argv after alice's options, exit code, stdout, stderr, and the
# records alice's rings hold after it (None: she still has no identity dir);
# "{name}" is a fact of the world
CONTACT_OUTCOMES = [
    pytest.param(
        "fresh", "--machine fetch bob chat", EXIT_OK,
        "chat-x25519\t{bob_chat_b64}\tsignature-verified\t3\n", "", [_ID_SEEN, _CHAT],
        id="fetch-chat-cold",
    ),
    pytest.param(
        "fresh", "fetch bob chat", EXIT_OK, _HUMAN_CHAT, "", [_ID_SEEN, _CHAT],
        id="fetch-chat-cold-human",
    ),
    pytest.param(
        "sharing pinned", "--machine fetch bob sharing", EXIT_OK,
        "sharing-rsa\t{bob_sharing_b64}\tsignature-verified\t1\n", "",
        [_ID_SEEN, _SHARING],
        id="fetch-sharing-warm",
    ),
    *(
        pytest.param(
            "fresh", f"--machine fetch bob {name}", EXIT_OK,
            "identity-ed25519\t{bob_id_b64}\tseen\t1\n", "", [_ID_SEEN],
            id=f"fetch-{name}",
        )
        for name in ("identity", "identity-ed25519")
    ),
    pytest.param(
        "fresh", "fetch ghost chat", EXIT_MISSING_KEY, "",
        "error[missing-key]: 'ghost' has no published chat-x25519 key\n", [],
        id="fetch-ghost",
    ),
    *(
        pytest.param(
            "no store", f"fetch nobody {alias}", EXIT_MISSING_KEY, "",
            f"error[missing-key]: 'nobody' has no published {name} key\n", [],
            id=f"fetch-unpublished-{alias}",
        )
        for alias, name in [
            ("identity", "identity"),
            ("chat", "chat-x25519"),
            ("sharing", "sharing-rsa"),
        ]
    ),
    pytest.param(
        "identity substituted", "fetch bob identity", EXIT_FINGERPRINT_MISMATCH, "",
        _ID_MISMATCH, [_ID_SEEN],
        id="fetch-identity-substituted",
    ),
    # the identity alarm comes before any verdict on the sub-key
    pytest.param(
        "identity substituted", "fetch bob chat", EXIT_FINGERPRINT_MISMATCH, "",
        _ID_MISMATCH, [_ID_SEEN],
        id="fetch-chat-identity-substituted",
    ),
    # the identity pinned on the way stays when the chat key alarms
    pytest.param(
        "chat forged", "fetch bob chat", EXIT_SIGNATURE_INVALID, "",
        "error[signature-invalid]: signature verification failed for 'bob' "
        "chat-x25519 key {forged_chat}\n",
        [_ID_SEEN],
        id="fetch-chat-forged",
    ),
    pytest.param(
        "chat rotated", "fetch bob chat", EXIT_KEY_CHANGED, "",
        "error[key-changed-warning]: 'bob' chat-x25519 key changed from {bob_chat} "
        "to {new_chat} (signature valid); reset the record to accept\n",
        [_ID_SEEN, _CHAT],
        id="fetch-chat-rotated",
    ),
    pytest.param(
        "identity pinned", "verify bob {bob_id}", EXIT_OK,
        "fingerprint comparison recorded for bob: {bob_id_grouped}\n", "",
        [_ID_COMPARED],
        id="verify-hex",
    ),
    pytest.param(
        "identity pinned", "verify bob {bob_id_upper}", EXIT_OK,
        "fingerprint comparison recorded for bob: {bob_id_grouped}\n", "",
        [_ID_COMPARED],
        id="verify-grouped-upper",
    ),
    pytest.param(
        "identity pinned", "--machine verify bob {bob_id}", EXIT_OK,
        "verified\tbob\t{bob_id}\n", "", [_ID_COMPARED],
        id="verify-machine",
    ),
    pytest.param(
        "identity pinned", f"verify bob {_WRONG}", EXIT_FINGERPRINT_MISMATCH, "",
        f"error[comparison-failed]: asserted fingerprint {_WRONG} does not match "
        "the one tracked for 'bob' ({bob_id})\n"
        "DO NOT TRUST 'bob' until the fingerprints match\n",
        [_ID_SEEN],
        id="verify-wrong",
    ),
    pytest.param(
        "fresh", f"verify bob {_WRONG}", EXIT_ERROR, "",
        "error[missing-record]: no tracked identity key for 'bob'; load it first\n",
        [],
        id="verify-untracked",
    ),
    pytest.param(
        "fresh", "credentials", EXIT_OK, "{alice_id_grouped}\n", "", [],
        id="credentials-own",
    ),
    pytest.param(
        "fresh", "--machine credentials", EXIT_OK, "{alice_id}\n", "", [],
        id="credentials-own-machine",
    ),
    pytest.param(
        "nothing", "credentials", EXIT_MISSING_KEY, "",
        "error[missing-key]: own identity key not initialised; run init first\n",
        None,
        id="credentials-own-uninitialised",
    ),
    pytest.param(
        "fresh", "credentials bob", EXIT_OK, "{bob_id_grouped}\n", "", [_ID_SEEN],
        id="credentials-contact",
    ),
    pytest.param(
        "fresh", "--machine credentials bob", EXIT_OK, "{bob_id}\n", "", [_ID_SEEN],
        id="credentials-contact-machine",
    ),
    pytest.param(
        "identity substituted", "credentials bob", EXIT_FINGERPRINT_MISMATCH, "",
        _ID_MISMATCH, [_ID_SEEN],
        id="credentials-contact-substituted",
    ),
]


def run_in_world(env, capsys, world, argv):
    """Build ``world``, then run ``argv`` as alice, with her ``--user``;
    returns the run's (code, stdout, stderr) and the world's facts."""
    facts = {}
    for step in _WORLDS[world]:
        step(env, capsys, facts)
    command = argv.format_map(facts).split(" ")
    return env.run(*env.user_args("alice"), *command, capsys=capsys), facts


class TestContactOutcomes:
    """Each row builds a named world, runs one contact command as alice, with
    her ``--user``, and checks its exit code, its exact stdout and stderr, and
    every record alice's rings hold after it. The expected fingerprints and
    base64 come from the world's key material, through ``fingerprint_oracle``,
    never from another command's output."""

    @pytest.mark.parametrize("world, argv, code, out, err, records", CONTACT_OUTCOMES)
    def test_row(self, env, capsys, world, argv, code, out, err, records):
        result, facts = run_in_world(env, capsys, world, argv)
        assert result == (code, out.format_map(facts), err.format_map(facts))
        home = env.home("alice")
        if records is None:
            assert not home.exists()
            return
        rows = "".join(
            record.format_map(facts).replace(" ", "\t") + "\n" for record in records
        )
        ring = env.run("--home", home, "--machine", "ring", "--all", capsys=capsys)
        assert ring == (EXIT_OK, rows, "")

    def test_every_exit_code_is_reached(self):
        """The README's exit codes are cli's, and each is some row's outcome
        or, for a usage error, a TestParsing case's."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = readme[readme.index("Exit codes:") :].split("\n\n")[0]
        documented = {int(code) for code in re.findall(r"`(\d+)`", sentence)}
        constants = {
            value for name, value in vars(cli).items() if name.startswith("EXIT_")
        }
        reached = {row.values[2] for row in CONTACT_OUTCOMES}
        reached.add(ENTRY_POINT_CASES["unknown-scenario"][1])
        assert documented == constants == reached


class TestFetch:
    """Each fetch alarm by its exit code and its error code alone."""

    @staticmethod
    def fetch(env, capsys, world, alias):
        (code, _, err), _ = run_in_world(env, capsys, world, f"fetch bob {alias}")
        return code, err.split(":")[0]

    def test_substituted_identity_exits_2(self, env, capsys):
        assert self.fetch(env, capsys, "identity substituted", "identity") == (
            EXIT_FINGERPRINT_MISMATCH,
            "error[fingerprint-mismatch]",
        )

    def test_substituted_subkey_exits_3(self, env, capsys):
        assert self.fetch(env, capsys, "chat forged", "chat") == (
            EXIT_SIGNATURE_INVALID,
            "error[signature-invalid]",
        )

    def test_legitimate_rotation_exits_4(self, env, capsys):
        assert self.fetch(env, capsys, "chat rotated", "chat") == (
            EXIT_KEY_CHANGED,
            "error[key-changed-warning]",
        )


class TestAlarmStderr:
    """Each alarm reaches stderr through ``main`` as exactly these bytes;
    only the fingerprints, which differ from run to run, are masked."""

    @staticmethod
    def alarm(env, capsys, world, argv):
        (code, out, err), _ = run_in_world(env, capsys, world, argv)
        assert out == ""
        return code, re.sub(r"\b[0-9a-f]{40}\b", "<fp>", err)

    def test_substituted_identity_key(self, env, capsys):
        world = "identity substituted"
        assert self.alarm(env, capsys, world, "fetch bob identity") == (
            EXIT_FINGERPRINT_MISMATCH,
            "error[fingerprint-mismatch]: fingerprint mismatch for 'bob' "
            "(identity-ed25519): tracked <fp>, fetched key has <fp>\n",
        )

    def test_forged_subkey(self, env, capsys):
        assert self.alarm(env, capsys, "chat forged", "fetch bob chat") == (
            EXIT_SIGNATURE_INVALID,
            "error[signature-invalid]: signature verification failed for 'bob' "
            "chat-x25519 key <fp>\n",
        )

    def test_rotation(self, env, capsys):
        assert self.alarm(env, capsys, "chat rotated", "fetch bob chat") == (
            EXIT_KEY_CHANGED,
            "error[key-changed-warning]: 'bob' chat-x25519 key changed from <fp> "
            "to <fp> (signature valid); reset the record to accept\n",
        )

    def test_wrong_verify(self, env, capsys):
        assert self.alarm(env, capsys, "identity pinned", f"verify bob {_WRONG}") == (
            EXIT_FINGERPRINT_MISMATCH,
            "error[comparison-failed]: asserted fingerprint <fp> does not match "
            "the one tracked for 'bob' (<fp>)\n"
            "DO NOT TRUST 'bob' until the fingerprints match\n",
        )


def _corrupt_store(document, shape):
    bob, alice = document["users"]["bob"], document["users"]["alice"]
    if shape == "not-json":
        return "{"
    if shape == "deep-nesting":  # json.loads raises RecursionError, not ValueError
        return '{"users": ' + "[" * 100000
    if shape == "bad-base64":
        bob["ed25519_pub"] = "!!!"
    elif shape == "short-ed25519":
        bob["ed25519_pub"] = base64.b64encode(b"abc").decode("ascii")
    elif shape == "pad-bits":
        bob["ed25519_pub"] = bob["ed25519_pub"][:-2] + "B="
    elif shape == "non-minimal-e":
        bob["rsa_pub"]["e"] = base64.b64encode(b"\x00\x01\x00\x01").decode("ascii")
    elif shape == "unknown-attribute":
        bob["tls_pub"] = bob["ed25519_pub"]
    elif shape == "empty-handle":
        document["users"][""] = dict(bob)
    # a user the command does not fetch: open still checks every value
    elif shape == "other-user-pad-bits":
        alice["ed25519_pub"] = alice["ed25519_pub"][:-2] + "B="
    elif shape == "other-user-non-minimal-n":
        n = base64.b64decode(alice["rsa_pub"]["n"])
        alice["rsa_pub"]["n"] = base64.b64encode(b"\x00" + n).decode("ascii")
    return json.dumps(document)


class TestCorruptStore:
    """A store file that does not load stops the command before it writes
    anything."""

    @pytest.mark.parametrize(
        "shape",
        [
            "not-json",
            "bad-base64",
            "short-ed25519",
            "pad-bits",
            "non-minimal-e",
            "unknown-attribute",
            "empty-handle",
            "deep-nesting",
            "other-user-pad-bits",
            "other-user-non-minimal-n",
        ],
    )
    def test_fetch_and_init_exit_1_and_write_nothing(self, env, capsys, shape):
        init_user(env, capsys, "bob")
        init_user(env, capsys, "alice")
        env.run(*env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys)
        # the fetch recorded the store's bytes before they were corrupted
        record = env.home("alice") / "store.verified"
        assert record.exists()
        document = json.loads(env.store_path.read_text())
        env.store_path.write_text(_corrupt_store(document, shape))
        files = [env.store_path, record]
        for user in ("alice", "bob"):
            files += sorted(env.home(user).glob("*.ring"))
            files += sorted(env.home(user).glob("*.sk"))
        assert len(files) == 14
        for path in files:
            os.utime(path, ns=(10**18, 10**18))  # any rewrite moves mtime off this
        before = [(path, os.stat(path), path.read_bytes()) for path in files]
        # a fetch with the stale record, init, then a fetch with no record
        for command in (["fetch", "bob", "chat"], ["init"], ["fetch", "bob", "chat"]):
            if command == ["init"]:
                record.unlink()
                del before[1]
            code, out, err = env.run(
                *env.user_args("alice"), *command, capsys=capsys
            )
            assert code == EXIT_ERROR, command
            assert out == ""
            assert err.startswith("error[store-unavailable]: cannot load store"), err
            TestWritePolicy.assert_untouched(before)
        assert not record.exists()


class TestStoreRecord:
    """A read command opens the store bytes that the identity dir's
    store.verified names without checking them again; any other record, or
    none, costs a full open and changes nothing else."""

    @staticmethod
    def record_checks(monkeypatch):
        checked = []
        check = store_module._check_column

        def recording_check(name, values):
            checked.append(name)
            return check(name, values)

        monkeypatch.setattr(store_module, "_check_column", recording_check)
        return checked

    @pytest.mark.parametrize(
        "shape", ["recorded", "absent", "truncated", "other-tag", "stale", "garbage"]
    )
    def test_only_the_recorded_bytes_open_unchecked(
        self, env, capsys, monkeypatch, shape
    ):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        fetch = [*env.user_args("alice"), "fetch", "bob", "chat"]
        assert env.run(*fetch, capsys=capsys)[0] == EXIT_OK
        record = env.home("alice") / "store.verified"
        good = record.read_bytes()
        if shape == "absent":
            record.unlink()
        elif shape == "truncated":
            record.write_bytes(good[:-9])
        elif shape == "other-tag":
            record.write_bytes(good.replace(b"-v1 ", b"-v0 "))
        elif shape == "stale":
            last = b"1" if good[-2:-1] == b"0" else b"0"
            record.write_bytes(good[:-2] + last + b"\n")  # names other bytes
        elif shape == "garbage":
            record.write_bytes(b"\xff" * 4096)
        checked = self.record_checks(monkeypatch)
        opened = env.run(*fetch, capsys=capsys)
        assert opened[0] == EXIT_OK, opened
        assert bool(checked) == (shape != "recorded")
        assert record.read_bytes() == good
        checked.clear()
        assert env.run(*fetch, capsys=capsys) == opened
        assert checked == []

    def test_init_leaves_a_garbage_record_alone(self, env, capsys, monkeypatch):
        home = env.home("alice")
        home.mkdir()
        record = home / "store.verified"
        record.write_bytes(b"garbage\n")
        os.chmod(record, 0o644)
        os.utime(record, ns=(10**18, 10**18))  # any rewrite moves mtime off this
        before = [(record, os.stat(record), record.read_bytes())]

        def refuse(data):
            raise AssertionError("init hashed the store")

        monkeypatch.setattr(store_module, "hashlib", SimpleNamespace(sha256=refuse))
        init_user(env, capsys, "bob")
        assert "publish" in init_user(env, capsys, "alice")
        assert init_user(env, capsys, "alice").strip() == "nothing to repair"
        TestWritePolicy.assert_untouched(before)
        assert stat.S_IMODE(os.stat(record).st_mode) == 0o644

    @pytest.mark.parametrize("fault", ["write-fails", "directory"])
    def test_a_record_that_cannot_be_kept_changes_no_output(
        self, env, capsys, monkeypatch, fault
    ):
        for user in ("bob", "alice", "carol"):
            init_user(env, capsys, user)
        record = env.home("alice") / "store.verified"
        if fault == "directory":
            record.mkdir()
        else:
            # as root, a mode that forbids the write would not stop it; the
            # record is written beside the file and renamed over it
            real_replace = os.replace

            def failing_replace(source, target):
                if Path(target) == record:
                    raise PermissionError(13, "Permission denied", str(target))
                return real_replace(source, target)

            monkeypatch.setattr(os, "replace", failing_replace)
        commands = [
            ["fetch", "bob", "chat"],
            ["fetch", "bob", "chat"],
            ["--machine", "credentials", "bob"],
            ["verify", "bob", "0" * 40],
        ]
        for command in commands:
            # carol's record is written as usual
            assert env.run(*env.user_args("alice"), *command, capsys=capsys) == env.run(
                *env.user_args("carol"), *command, capsys=capsys
            )
        assert not record.is_file()
        assert not list(env.home("alice").glob("*.tmp"))
        assert (env.home("carol") / "store.verified").is_file()


class TestMissingHome:
    """A command that reads rings needs the identity dir that init makes; it
    stops before it touches the store."""

    @pytest.mark.parametrize(
        "command",
        [["fetch", "bob", "chat"], ["verify", "bob", "0" * 40], ["credentials", "bob"]],
        ids=["fetch", "verify", "credentials"],
    )
    def test_exits_1_and_writes_nothing(self, env, capsys, command):
        init_user(env, capsys, "bob")
        os.utime(env.store_path, ns=(10**18, 10**18))  # any rewrite moves mtime off this
        before = [(env.store_path, os.stat(env.store_path), env.store_path.read_bytes())]
        code, out, err = env.run(*env.user_args("alice"), *command, capsys=capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error[init]: ") and "run init first" in err, err
        assert str(env.home("alice")) in err
        assert not env.home("alice").exists()
        TestWritePolicy.assert_untouched(before)

    def test_ring_exits_1(self, env, capsys):
        """A mistyped --home must not look like an empty set of rings."""
        home = env.home("alice")
        code, out, err = env.run("--home", home, "ring", "--all", capsys=capsys)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error[init]: no identity dir at {home}; run init first\n"
        assert not home.exists()


class TestFileErrors:
    """An unreadable or unwritable file in the identity dir is reported as
    an init error naming the file, not as a traceback."""

    def test_ring_path_is_a_directory(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        ring = env.home("alice") / "chat-x25519.ring"
        ring.unlink()
        ring.mkdir()
        code, _, err = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_ERROR
        assert err.startswith("error[init]: ") and str(ring) in err

    def test_ring_cannot_be_written(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        # no file may grow, so the first changed ring fails to save
        ring = env.home("alice") / "chat-x25519.ring"
        done = run_under_file_limit(
            0, "-m", "keyauth.cli", *env.user_args("alice"), "fetch", "bob", "chat"
        )
        code, err = done.returncode, done.stderr
        assert code == EXIT_ERROR
        assert err.startswith("error[init]: ") and str(ring) in err

    def test_failed_ring_write_does_not_replace_an_alarm(self, env, capsys):
        """The identity pin made before the signature check fails to save;
        the alarm keeps its exit code and line, and the write is reported."""
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        store = AttributeStore(env.store_path)
        store.publish("bob", "x25519_pub", generate_chat_keypair().public)
        store.save()
        ring = env.home("alice") / "identity-ed25519.ring"
        done = run_under_file_limit(
            0, "-m", "keyauth.cli", *env.user_args("alice"), "fetch", "bob", "chat"
        )
        code, out, err = done.returncode, done.stdout, done.stderr
        assert code == EXIT_SIGNATURE_INVALID
        assert out == ""
        lines = err.splitlines()
        assert any(line.startswith("error[signature-invalid]: ") for line in lines)
        assert any(
            line.startswith("error[init]: ") and str(ring) in line for line in lines
        )

    def test_ring_of_another_key_type(self, env, capsys):
        init_user(env, capsys, "alice")
        home = env.home("alice")
        ring = home / "identity-ed25519.ring"
        ring.write_bytes((home / "chat-x25519.ring").read_bytes())
        code, _, err = env.run("--home", home, "ring", "--all", capsys=capsys)
        assert code == EXIT_ERROR
        assert err.startswith("error[init]: ") and str(ring) in err

    def test_private_key_cannot_be_written(self, init_without_file_room):
        base, done = init_without_file_room
        key = base / "alice" / "identity-ed25519.sk"
        code, err = done.returncode, done.stderr
        assert code == EXIT_ERROR
        assert err.startswith("error[init]: ") and str(key) in err


class TestRing:
    def test_empty_ring_no_lines(self, env, capsys):
        init_user(env, capsys, "alice")
        code, out, _ = env.run(
            "--home", env.home("alice"), "ring", "chat", capsys=capsys
        )
        assert code == EXIT_OK
        assert out == ""

    def test_all_rings_after_fetch(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        env.run(*env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys)
        code, out, _ = env.run(
            "--home", env.home("alice"), "--machine", "ring", "--all", capsys=capsys
        )
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert ["identity-ed25519", "bob"] == rows[0][:2]
        assert ["chat-x25519", "bob"] == rows[1][:2]
        assert rows[1][3] == "signature-verified"
        assert rows[0][4] == "0"  # trust is stored but unused

    def test_human_mode_is_space_separated(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        env.run(*env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys)
        home = env.home("alice")
        _, machine, _ = env.run(
            "--home", home, "--machine", "ring", "--all", capsys=capsys
        )
        code, human, _ = env.run("--home", home, "ring", "--all", capsys=capsys)
        assert code == EXIT_OK
        rows = [line.split("\t") for line in machine.splitlines()]
        assert len(rows) == 2 and all(len(row) == 5 for row in rows)
        assert human.splitlines() == [" ".join(row) for row in rows]

    def test_without_type_or_all_is_usage_error(self, env, capsys):
        init_user(env, capsys, "alice")
        code, _, err = env.run("--home", env.home("alice"), "ring", capsys=capsys)
        assert code == EXIT_USAGE

    def test_corrupt_ring_file_diagnosed(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        env.run(*env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys)
        path = env.home("alice") / "chat-x25519.ring"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        code, _, err = env.run(
            "--home", env.home("alice"), "ring", "chat", capsys=capsys
        )
        assert code == EXIT_ERROR
        assert "error[ring-checksum-mismatch]" in err
        assert "checksum" in err


# handles a ring admits (1 to 12 characters of UTF-8 are at most 48 octets),
# rich in characters that could split or forge a line
_HANDLES = st.text(
    st.one_of(
        st.characters(codec="utf-8"),
        st.sampled_from("\\\t\n\r\x0b\x0c\x1c\x85\u2028\u2029\u200b\u202e\x00 "),
    ),
    min_size=1,
    max_size=12,
)


def unescape(shown: str) -> str:
    """The handle that ``ring`` or ``verify`` printed as ``shown``: every
    escape in it is one that ``repr`` writes, which unicode_escape reads."""
    return shown.encode("latin-1", "backslashreplace").decode("unicode_escape")


class TestHandleDisplay:
    """``ring`` and ``verify`` print a backslash, a space and every character
    that is not printable as its escape, so no handle can split or forge a
    line, or a field of a human line."""

    @staticmethod
    def assert_one_line_per_record(env, capsys, handle, shown):
        """alice pins bob and ``handle``: each mode of ``ring`` prints one
        five-field line per record, ``handle`` as ``shown``, and each mode
        of ``verify`` prints one line for ``handle``."""
        for user in ("alice", "bob", handle):
            init_user(env, capsys, user)
        for contact in ("bob", handle):
            code, _, err = env.run(
                *env.user_args("alice"), "fetch", contact, "identity", capsys=capsys
            )
            assert code == EXIT_OK, err
        home = env.home("alice")
        _, machine, _ = env.run(
            "--home", home, "--machine", "ring", "identity", capsys=capsys
        )
        _, human, _ = env.run("--home", home, "ring", "identity", capsys=capsys)
        rows = [line.split("\t") for line in machine.splitlines()]
        assert [row[1] for row in rows] == ["bob", shown]
        assert all(len(row) == 5 for row in rows)
        assert human.splitlines() == [" ".join(row) for row in rows]
        fields = [line.split(" ") for line in human.splitlines()]
        assert all(len(line) == 5 for line in fields)
        assert [line[1] for line in fields].count("bob") == 1

        own = load_own_material(env.home(handle)).identity.public
        fp = fingerprint_oracle(own).hex()
        for mode in (["--machine"], []):
            code, out, _ = env.run(
                *env.user_args("alice"), *mode, "verify", handle, fp, capsys=capsys
            )
            assert code == EXIT_OK
            assert len(out.splitlines()) == 1 and shown in out
        assert out == f"fingerprint comparison recorded for {shown}: {grouped(fp)}\n"

    def test_newline_handle_prints_one_line_per_record(self, env, capsys):
        self.assert_one_line_per_record(env, capsys, "eve\nbob", "eve\\nbob")

    def test_spaced_handle_prints_one_line_per_record(self, env, capsys):
        forged = " " + "bb" * 20 + " fingerprint-comparison 0 |"
        shown = forged.replace(" ", "\\x20")
        self.assert_one_line_per_record(env, capsys, "bob" + forged, "bob" + shown)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(_HANDLES, min_size=1, max_size=5, unique=True))
    def test_ring_prints_one_line_per_record(self, handles):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        for n, handle in enumerate(handles):
            ring.track(handle, Fingerprint(bytes([n]) * 20), AuthMethod.SEEN)
        outputs = []
        with tempfile.TemporaryDirectory() as home:
            Path(home, f"{ring.key_type.label}.ring").write_bytes(ring.to_bytes())
            for mode in (["--machine"], []):
                with redirect_stdout(io.StringIO()) as out:
                    assert main(["--home", home, *mode, "ring", "identity"]) == EXIT_OK
                outputs.append(out.getvalue().splitlines())
        machine, human = outputs
        rows = [line.split("\t") for line in machine]
        assert all(len(row) == 5 for row in rows)
        assert [unescape(row[1]) for row in rows] == [h for h, _ in ring.records()]
        assert human == [" ".join(row) for row in rows]
        assert all(len(line.split(" ")) == 5 for line in human)


class TestSimulate:
    @pytest.mark.parametrize(
        "scenario",
        [
            "mitm-identity-pre",
            "mitm-identity-post",
            "mitm-subkey-pre",
            "mitm-subkey-post",
            "strip-signature",
        ],
    )
    def test_each_scenario_passes(self, env, capsys, scenario):
        code, out, _ = env.run(
            "simulate", scenario, "--reps", "2", "--seed", "5", capsys=capsys
        )
        assert code == EXIT_OK
        assert "result: 2/2" in out

    def test_transcript_shows_expected_vs_observed(self, env, capsys):
        code, out, _ = env.run(
            "simulate", "mitm-identity-post", "--seed", "1", capsys=capsys
        )
        assert code == EXIT_OK
        assert "expected [fingerprint-mismatch]" in out
        assert "observed fingerprint-mismatch" in out

    def test_blind_spot_is_documented_in_transcript(self, env, capsys):
        code, out, _ = env.run(
            "simulate", "mitm-identity-pre", "--seed", "1", capsys=capsys
        )
        assert code == EXIT_OK
        assert "undetectable" in out

    def test_machine_mode_rows(self, env, capsys):
        code, out, _ = env.run(
            "--machine", "simulate", "strip-signature", "--seed", "2", capsys=capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        rep_row = lines[0].split("\t")
        assert rep_row[0] == "strip-signature"
        assert rep_row[-1] == "ok"
        assert lines[-1].split("\t")[0] == "result"

    def test_unknown_scenario_is_usage_error(self, env, capsys):
        code, _, err = env.run("simulate", "mitm-quantum", capsys=capsys)
        assert code == EXIT_USAGE

    def test_zero_reps_is_usage_error(self, env, capsys):
        code, _, _ = env.run(
            "simulate", "strip-signature", "--reps", "0", capsys=capsys
        )
        assert code == EXIT_USAGE


# argv, and the code ``python -m keyauth.cli`` exits with
ENTRY_POINT_CASES = {
    "help": (["--help"], EXIT_OK),
    "unknown-scenario": (["simulate", "mitm-quantum"], EXIT_USAGE),
}


class TestParsing:
    def test_help_exits_zero(self, env, capsys):
        code, out, _ = env.run("--help", capsys=capsys)
        assert code == EXIT_OK
        assert "simulate" in out

    def test_no_command_is_usage_error(self, env, capsys):
        code, _, _ = env.run(capsys=capsys)
        assert code == EXIT_USAGE

    def test_empty_paths_are_missing(self, env, capsys):
        code, _, err = env.run(
            "--store", "", "--home", "", "--user", "alice", "init", capsys=capsys
        )
        assert code == EXIT_USAGE
        assert "--store" in err and "--home" in err

    def test_unknown_key_type_is_usage_error(self, env, capsys):
        init_user(env, capsys, "alice")
        code, _, _ = env.run(
            *env.user_args("alice"), "fetch", "bob", "tls", capsys=capsys
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, expected", list(ENTRY_POINT_CASES.values()), ids=list(ENTRY_POINT_CASES)
    )
    def test_module_entry_point_exit_codes(self, argv, expected):
        """``python -m keyauth.cli`` goes through ``run``, which exits with
        ``main``'s code."""
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "keyauth.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == expected, done.stderr
