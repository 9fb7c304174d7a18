#!/usr/bin/env python3
"""Trace a fixed sequence of CLI commands and print what each one did.

In a temporary directory, bob and alice run their publishing ``init``s, then
alice fetches each of bob's key types (first sight pins them), fetches bob's
chat key again (warm), fetches it once more after bob's chat key is replaced
in the store (an alarm), re-runs her ``init`` (nothing to repair) and
verifies bob's identity fingerprint, rightly and wrongly. Every command runs
in-process through ``keyauth.cli.main`` under ``bench/tracer.py``'s
``Tracer``, which is only read, never changed.

The output is sorted JSON: for each command, its exit code and its count of
spans by name. Two trees that make the same calls print the same bytes, so
comparing the output of two checkouts shows whether a change altered which
layer calls happen for a command. The exit status is 0 when the sequence
ran, whatever the codes it printed.

Example:
    python scripts/trace_commands.py
"""

from __future__ import annotations

import base64
import collections
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# allow running from a source checkout, from any working directory, and
# leave no bytecode beside bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True

from keyauth import cli
from keyauth.keys import fingerprint_ec, generate_chat_keypair
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    results = {}
    with tempfile.TemporaryDirectory() as work:
        store = Path(work) / "store.json"
        forged = generate_chat_keypair().public

        def run(label, user, *command):
            argv = ["--store", str(store), "--home", str(Path(work) / user)]
            tracer.op = label
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = cli.main([*argv, "--user", user, *command])
            tracer.op = None
            spans = collections.Counter(
                span.name for span in tracer.spans if span.op == label
            )
            results[label] = {"exit": code, "spans": dict(spans)}

        def bob_attribute(attribute, value=None):
            document = json.loads(store.read_text(encoding="utf-8"))
            if value is not None:
                document["users"]["bob"][attribute] = value
                text = json.dumps(document, indent=2, sort_keys=True) + "\n"
                store.write_text(text, encoding="utf-8")
            return document["users"]["bob"][attribute]

        tracer.install()
        try:
            run("01 init bob (publishing)", "bob", "init")
            run("02 init alice (publishing)", "alice", "init")
            for number, alias in (("03", "identity"), ("04", "chat"), ("05", "sharing")):
                run(f"{number} fetch bob {alias} (pinning)", "alice", "fetch", "bob", alias)
            run("06 fetch bob chat (warm)", "alice", "fetch", "bob", "chat")
            bob_attribute("x25519_pub", base64.b64encode(forged).decode("ascii"))
            run("07 fetch bob chat (alarm)", "alice", "fetch", "bob", "chat")
            run("08 init alice (no-op)", "alice", "init")
            identity = base64.b64decode(bob_attribute("ed25519_pub"))
            right = fingerprint_ec(identity).hex()
            run("09 verify bob (right)", "alice", "verify", "bob", right)
            run("10 verify bob (wrong)", "alice", "verify", "bob", "0" * 40)
        finally:
            tracer.uninstall()
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
