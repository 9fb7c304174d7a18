"""The command-line interface: exit codes, output shapes, file handling.

Commands run in-process through ``main`` so exit codes and streams can be
asserted directly.
"""

from __future__ import annotations

import base64
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from keyauth import (
    AttributeStore,
    AuthRing,
    KeyType,
    OwnKeyMaterial,
    fingerprint_ec,
    generate_chat_keypair,
    generate_identity_keypair,
    sign_public_key,
)
from keyauth.cli import (
    EXIT_ERROR,
    EXIT_FINGERPRINT_MISMATCH,
    EXIT_KEY_CHANGED,
    EXIT_MISSING_KEY,
    EXIT_OK,
    EXIT_SIGNATURE_INVALID,
    EXIT_USAGE,
    group_fingerprint_hex,
    load_own_material,
    main,
    save_own_material,
)

from conftest import make_entropy


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

    def test_rerun_reports_nothing(self, env, capsys):
        init_user(env, capsys, "alice")
        code, out, _ = env.run(*env.user_args("alice"), "init", capsys=capsys)
        assert code == EXIT_OK
        assert out.strip() == "nothing to repair"

    def test_private_files_are_0600(self, env, capsys):
        init_user(env, capsys, "alice")
        for name in ("identity-ed25519.sk", "chat-x25519.sk", "sharing-rsa.sk"):
            mode = stat.S_IMODE(os.stat(env.home("alice") / name).st_mode)
            assert mode == 0o600, name

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

    def test_corrupt_private_file(self, env, capsys):
        init_user(env, capsys, "alice")
        (env.home("alice") / "identity-ed25519.sk").write_text("???not base64\n")
        code, _, err = env.run(*env.user_args("alice"), "init", capsys=capsys)
        assert code == EXIT_ERROR
        assert "error[init]" in err

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

    def test_failed_key_write_publishes_nothing(self, env, capsys, tmp_path):
        env.home("alice").mkdir()
        key = env.home("alice") / "identity-ed25519.sk"
        key.symlink_to(tmp_path / "missing" / "identity.sk")
        code, _, _ = env.run(*env.user_args("alice"), "init", capsys=capsys)
        assert code == EXIT_ERROR
        assert not [path for path in env.home("alice").glob("*.sk") if path.exists()]
        # a published identity with no private key behind it is an orphan:
        # the next init publishes another, and every pin of it alarms
        assert not env.store_path.exists()


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


class TestCredentials:
    def test_own_fingerprint_grouped(self, env, capsys):
        init_user(env, capsys, "alice")
        code, out, _ = env.run(*env.user_args("alice"), "credentials", capsys=capsys)
        assert code == EXIT_OK
        groups = out.strip().split(" ")
        assert len(groups) == 8
        assert all(len(g) == 5 for g in groups)

    def test_machine_mode_is_plain_hex(self, env, capsys):
        init_user(env, capsys, "alice")
        code, out, _ = env.run(
            *env.user_args("alice"), "--machine", "credentials", capsys=capsys
        )
        assert code == EXIT_OK
        assert len(out.strip()) == 40
        int(out.strip(), 16)

    def test_uninitialised_user(self, env, capsys):
        code, _, err = env.run(*env.user_args("nobody"), "credentials", capsys=capsys)
        assert code == EXIT_MISSING_KEY
        assert "error[missing-key]" in err

    def test_contact_fingerprint_tracks_seen(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        code, out, _ = env.run(
            *env.user_args("alice"), "credentials", "bob", capsys=capsys
        )
        assert code == EXIT_OK
        code, ring_out, _ = env.run(
            "--home", env.home("alice"), "--machine", "ring", "identity", capsys=capsys
        )
        assert code == EXIT_OK
        row = ring_out.strip().split("\t")
        assert row[0] == "identity-ed25519"
        assert row[1] == "bob"
        assert row[2] == out.strip().replace(" ", "")
        assert row[3] == "seen"

    def test_contact_and_own_agree(self, env, capsys):
        init_user(env, capsys, "bob")
        init_user(env, capsys, "alice")
        _, own, _ = env.run(
            *env.user_args("bob"), "--machine", "credentials", capsys=capsys
        )
        _, seen, _ = env.run(
            *env.user_args("alice"), "--machine", "credentials", "bob", capsys=capsys
        )
        assert own == seen


class TestVerify:
    def test_match_records_comparison(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        _, bob_fp, _ = env.run(
            *env.user_args("bob"), "--machine", "credentials", capsys=capsys
        )
        env.run(*env.user_args("alice"), "credentials", "bob", capsys=capsys)
        code, out, _ = env.run(
            *env.user_args("alice"), "verify", "bob", bob_fp.strip(), capsys=capsys
        )
        assert code == EXIT_OK
        _, ring_out, _ = env.run(
            "--home", env.home("alice"), "--machine", "ring", "identity", capsys=capsys
        )
        assert ring_out.strip().split("\t")[3] == "fingerprint-comparison"

    def test_grouped_uppercase_accepted_as_separate_args(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        _, bob_fp, _ = env.run(
            *env.user_args("bob"), "--machine", "credentials", capsys=capsys
        )
        grouped = group_fingerprint_hex(bob_fp.strip()).upper().split(" ")
        env.run(*env.user_args("alice"), "credentials", "bob", capsys=capsys)
        code, _, _ = env.run(
            *env.user_args("alice"), "verify", "bob", *grouped, capsys=capsys
        )
        assert code == EXIT_OK

    def test_machine_mode_row(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        _, bob_fp, _ = env.run(
            *env.user_args("bob"), "--machine", "credentials", capsys=capsys
        )
        env.run(*env.user_args("alice"), "credentials", "bob", capsys=capsys)
        code, out, _ = env.run(
            *env.user_args("alice"), "--machine", "verify", "bob", bob_fp.strip(),
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert out == f"verified\tbob\t{bob_fp.strip()}\n"
        assert len(bob_fp.strip()) == 40

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

    def test_untracked_contact_is_an_error(self, env, capsys):
        init_user(env, capsys, "alice")
        code, _, err = env.run(
            *env.user_args("alice"), "verify", "bob", "0" * 40, capsys=capsys
        )
        assert code == EXIT_ERROR
        assert "error[missing-record]" in err


class TestFetch:
    def test_first_fetch_three_round_trips(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        code, out, _ = env.run(
            *env.user_args("alice"), "--machine", "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_OK
        label, key_b64, method, fetches = out.strip().split("\t")
        assert label == "chat-x25519"
        assert method == "signature-verified"
        assert fetches == "3"

    def test_reload_single_round_trip(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        env.run(*env.user_args("alice"), "fetch", "bob", "sharing", capsys=capsys)
        code, out, _ = env.run(
            *env.user_args("alice"),
            "--machine",
            "fetch",
            "bob",
            "sharing",
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert out.strip().split("\t")[3] == "1"

    def test_identity_fetch(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        code, out, _ = env.run(
            *env.user_args("alice"),
            "--machine",
            "fetch",
            "bob",
            "identity-ed25519",
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert out.strip().split("\t")[2] == "seen"

    def test_missing_contact_exits_5(self, env, capsys):
        init_user(env, capsys, "alice")
        code, _, err = env.run(
            *env.user_args("alice"), "fetch", "ghost", "chat", capsys=capsys
        )
        assert code == EXIT_MISSING_KEY
        assert "error[missing-key]" in err

    def test_substituted_identity_exits_2(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        env.run(*env.user_args("alice"), "fetch", "bob", "identity", capsys=capsys)
        store = AttributeStore(env.store_path)
        store.publish("bob", "ed25519_pub", generate_identity_keypair().public)
        store.save()
        code, _, err = env.run(
            *env.user_args("alice"), "fetch", "bob", "identity", capsys=capsys
        )
        assert code == EXIT_FINGERPRINT_MISMATCH
        assert "error[fingerprint-mismatch]" in err

    def test_substituted_subkey_exits_3(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        store = AttributeStore(env.store_path)
        store.publish("bob", "x25519_pub", generate_chat_keypair().public)
        store.save()
        code, _, err = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_SIGNATURE_INVALID
        assert "error[signature-invalid]" in err

    def test_legitimate_rotation_exits_4(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        env.run(*env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys)
        # bob rotates properly: new key, new valid signature
        identity = load_own_material(env.home("bob")).identity
        new_chat = generate_chat_keypair()
        store = AttributeStore(env.store_path)
        store.publish("bob", "x25519_pub", new_chat.public)
        store.publish(
            "bob",
            "sig_x25519",
            sign_public_key(identity, KeyType.CHAT_X25519, new_chat.public).sig,
        )
        store.save()
        code, _, err = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_KEY_CHANGED
        assert "error[key-changed-warning]" in err


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
        document = json.loads(env.store_path.read_text())
        env.store_path.write_text(_corrupt_store(document, shape))
        files = [env.store_path]
        for user in ("alice", "bob"):
            files += sorted(env.home(user).glob("*.ring"))
            files += sorted(env.home(user).glob("*.sk"))
        assert len(files) == 13
        for path in files:
            os.utime(path, ns=(10**18, 10**18))  # any rewrite moves mtime off this
        before = [(path, os.stat(path), path.read_bytes()) for path in files]
        for command in (["fetch", "bob", "chat"], ["init"]):
            code, out, err = env.run(
                *env.user_args("alice"), *command, capsys=capsys
            )
            assert code == EXIT_ERROR, command
            assert out == ""
            assert err.startswith("error[store-unavailable]: cannot load store"), err
            TestWritePolicy.assert_untouched(before)


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


class TestAlarmStderr:
    """Each alarm reaches stderr through ``main`` as exactly these bytes;
    only the fingerprints, which differ from run to run, are masked."""

    @staticmethod
    def masked(text):
        return re.sub(r"\b[0-9a-f]{40}\b", "<fp>", text)

    def alarm(self, env, capsys, *command):
        code, out, err = env.run(*env.user_args("alice"), *command, capsys=capsys)
        assert out == ""
        return code, self.masked(err)

    @pytest.fixture
    def contacts(self, env, capsys):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        return AttributeStore(env.store_path)

    def test_substituted_identity_key(self, env, capsys, contacts):
        env.run(*env.user_args("alice"), "fetch", "bob", "identity", capsys=capsys)
        contacts.publish("bob", "ed25519_pub", generate_identity_keypair().public)
        contacts.save()
        assert self.alarm(env, capsys, "fetch", "bob", "identity") == (
            EXIT_FINGERPRINT_MISMATCH,
            "error[fingerprint-mismatch]: fingerprint mismatch for 'bob' "
            "(identity-ed25519): tracked <fp>, fetched key has <fp>\n",
        )

    def test_forged_subkey(self, env, capsys, contacts):
        contacts.publish("bob", "x25519_pub", generate_chat_keypair().public)
        contacts.save()
        assert self.alarm(env, capsys, "fetch", "bob", "chat") == (
            EXIT_SIGNATURE_INVALID,
            "error[signature-invalid]: signature verification failed for 'bob' "
            "chat-x25519 key <fp>\n",
        )

    def test_rotation(self, env, capsys, contacts):
        env.run(*env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys)
        identity = load_own_material(env.home("bob")).identity
        new_chat = generate_chat_keypair()
        contacts.publish("bob", "x25519_pub", new_chat.public)
        contacts.publish(
            "bob",
            "sig_x25519",
            sign_public_key(identity, KeyType.CHAT_X25519, new_chat.public).sig,
        )
        contacts.save()
        assert self.alarm(env, capsys, "fetch", "bob", "chat") == (
            EXIT_KEY_CHANGED,
            "error[key-changed-warning]: 'bob' chat-x25519 key changed from <fp> "
            "to <fp> (signature valid); reset the record to accept\n",
        )

    def test_wrong_verify(self, env, capsys, contacts):
        env.run(*env.user_args("alice"), "credentials", "bob", capsys=capsys)
        assert self.alarm(env, capsys, "verify", "bob", "1" * 40) == (
            EXIT_FINGERPRINT_MISMATCH,
            "error[comparison-failed]: asserted fingerprint <fp> does not match "
            "the one tracked for 'bob' (<fp>)\n"
            "DO NOT TRUST 'bob' until the fingerprints match\n",
        )


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

    def test_ring_cannot_be_written(self, env, capsys, tmp_path):
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        # a dangling link into a missing directory: absent to read, fails to write
        ring = env.home("alice") / "chat-x25519.ring"
        ring.unlink()
        ring.symlink_to(tmp_path / "missing" / "chat.ring")
        code, _, err = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
        assert code == EXIT_ERROR
        assert err.startswith("error[init]: ") and str(ring) in err

    def test_failed_ring_write_does_not_replace_an_alarm(
        self, env, capsys, tmp_path
    ):
        """The identity pin made before the signature check fails to save;
        the alarm keeps its exit code and line, and the write is reported."""
        init_user(env, capsys, "alice")
        init_user(env, capsys, "bob")
        store = AttributeStore(env.store_path)
        store.publish("bob", "x25519_pub", generate_chat_keypair().public)
        store.save()
        ring = env.home("alice") / "identity-ed25519.ring"
        ring.unlink()
        ring.symlink_to(tmp_path / "missing" / "identity.ring")
        code, out, err = env.run(
            *env.user_args("alice"), "fetch", "bob", "chat", capsys=capsys
        )
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

    def test_private_key_cannot_be_written(self, env, capsys, tmp_path):
        env.home("alice").mkdir()
        key = env.home("alice") / "identity-ed25519.sk"
        key.symlink_to(tmp_path / "missing" / "identity.sk")
        code, _, err = env.run(*env.user_args("alice"), "init", capsys=capsys)
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
        "argv, expected",
        [(["--help"], EXIT_OK), (["simulate", "mitm-quantum"], EXIT_USAGE)],
        ids=["help", "unknown-scenario"],
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
