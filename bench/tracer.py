"""Spans at keyauth's module boundaries, recorded from outside the package.

The tracer wraps the public functions of ``keys``, ``authring``, ``store``,
``workflow``, ``cli`` and ``scenarios`` and rebinds every module-global name
that refers to one of them. Rebinding matters because the package imports
functions by name: ``workflow`` calls its own ``check_keypair_consistency``
binding and ``authring`` calls its module-global ``crc32c``, so patching only
the defining module would miss those calls. Methods are patched on their
class.

Each span records its name, start and end (``perf_counter_ns``), the index
of its parent span, the op it belongs to, the error code it raised if any,
and a few counters (bytes, ring files unchanged). Spans stay in memory;
``layer_metrics`` aggregates them after the run and derives self time as a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from keyauth import authring, cli, keys, scenarios, store, workflow
from keyauth.authring import AuthRing
from keyauth.store import AttributeStore
from keyauth.workflow import Session

_MODULES = (keys, authring, store, workflow, scenarios, cli)

SETUP = "setup"
ALARM_CODES = ("fingerprint-mismatch", "signature-invalid", "key-changed-warning")
_LOADS = ("workflow.load_identity_key", "workflow.load_signed_key")


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    op: object
    error: str | None
    counters: dict | None


class Tracer:
    """Records spans while installed; ``op`` labels the spans that follow."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: object = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, pre=None, post=None):
        """``name`` is a string or a function of the call's arguments.
        ``pre`` runs before the clock starts and ``post`` after it stops, so
        their own cost lands in the parent span only."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            context = pre(*args) if pre is not None else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            error = None
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = getattr(exc, "code", type(exc).__name__)
                raise
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                counters = None
                if post is not None and error is None:
                    counters = post(context, result, *args)
                tracer.spans[index] = Span(
                    label, start, end, parent, tracer.op, error, counters
                )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Point every keyauth module-global bound to ``original`` at
        ``replacement``, where callers look it up."""
        for module in _MODULES:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attribute, value))
                    setattr(module, attribute, replacement)

    def _patch_function(self, original, name, pre=None, post=None) -> None:
        self._rebind(original, self._wrap(original, name, pre, post))

    def _patch_method(self, cls, attribute, name, pre=None, post=None) -> None:
        raw = cls.__dict__[attribute]
        self._undo.append((cls, attribute, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, pre, post))
        else:
            wrapped = self._wrap(raw, name, pre, post)
        setattr(cls, attribute, wrapped)

    def install(self) -> None:
        if self._undo:
            return
        fn = self._patch_function
        fn(
            keys.check_keypair_consistency,
            lambda pair: "keys.consistency_rsa"
            if isinstance(pair, keys.SharingKeyPair)
            else "keys.consistency_ec",
        )
        for generator in (
            keys.generate_identity_keypair,
            keys.generate_chat_keypair,
            keys.generate_sharing_keypair,
        ):
            fn(generator, "keys.keygen")
        fn(keys.sign_public_key, "keys.sign")
        fn(keys.verify_key_signature, "keys.verify")
        fn(keys.fingerprint_ec, "keys.fingerprint")
        fn(keys.fingerprint_rsa, "keys.fingerprint")

        fn(authring.crc32c, "authring.crc32c", post=_bytes_in)
        method = self._patch_method
        method(
            AuthRing, "from_bytes", "authring.from_bytes",
            post=lambda _c, _r, _cls, data: {"bytes": len(data)},
        )
        method(
            AuthRing, "to_bytes", "authring.to_bytes",
            post=lambda _c, result, _self: {"bytes": len(result)},
        )
        method(AuthRing, "track", "authring.track")
        method(AuthRing, "compare", "authring.compare")

        method(
            AttributeStore, "__init__", "store.open",
            pre=lambda _self, path=None: _file_size(path),
            post=lambda size, _r, *_a: {"bytes": size},
        )
        method(
            AttributeStore, "save", "store.save",
            # the store keeps its backing path private; in-memory stores have none
            post=lambda _c, _r, instance: {
                "bytes": _file_size(getattr(instance, "_path", None))
            },
        )
        method(
            AttributeStore, "publish", "store.publish",
            post=lambda _c, _r, _self, _handle, _attr, octets: {"bytes": len(octets)},
        )
        method(AttributeStore, "fetch", "store.fetch")

        method(Session, "load_identity_key", "workflow.load_identity_key")
        method(Session, "load_signed_key", "workflow.load_signed_key")
        fn(workflow.init_own_keys, "workflow.init_own_keys")

        fn(cli.load_rings, "cli.load_rings")
        fn(
            cli.save_rings, "cli.save_rings",
            pre=_ring_files_before, post=_ring_files_unchanged,
        )
        fn(cli.load_own_material, "cli.load_own_material")
        fn(cli.save_own_material, "cli.save_own_material")
        fn(cli.main, "cli.main")

        fn(
            scenarios.run_scenario,
            lambda name, *_rest: f"scenarios.run_scenario.{name}",
        )
        fn(scenarios.build_rsa_pool, "scenarios.build_rsa_pool")

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def _bytes_in(_context, _result, data) -> dict:
    return {"bytes": len(data)}


def _file_size(path) -> int:
    if path is None:
        return 0
    try:
        return Path(path).stat().st_size
    except FileNotFoundError:
        return 0


def _ring_paths(identity_dir, rings) -> list[Path]:
    # identity directory layout documented in keyauth.cli
    return [Path(identity_dir) / f"{key_type.label}.ring" for key_type in rings]


def _ring_files_before(identity_dir, rings) -> list[bytes | None]:
    before = []
    for path in _ring_paths(identity_dir, rings):
        try:
            before.append(path.read_bytes())
        except FileNotFoundError:
            before.append(None)
    return before


def _ring_files_unchanged(before, _result, identity_dir, rings) -> dict:
    after = [path.read_bytes() for path in _ring_paths(identity_dir, rings)]
    unchanged = sum(1 for old, new in zip(before, after) if old == new)
    return {"files": len(after), "unchanged": unchanged}


# -- aggregation ---------------------------------------------------------------

# the metric suffixes reported for each span name
_SPAN_METRICS = {
    "keys.consistency_rsa": ("calls", "s"),
    "keys.keygen": ("calls", "s"),
    "keys.sign": ("calls", "s"),
    "keys.verify": ("calls", "s"),
    "keys.fingerprint": ("calls", "s"),
    "authring.from_bytes": ("calls", "s", "bytes"),
    "authring.to_bytes": ("calls", "s", "bytes"),
    "authring.crc32c": ("s", "bytes"),
    "authring.track": ("calls",),
    "authring.compare": ("calls",),
    "store.open": ("s", "bytes_read"),
    "store.save": ("calls", "s", "bytes_written"),
    "store.fetch": ("calls",),
    "store.publish": ("calls",),
    "workflow.load_identity_key": ("calls", "s", "self_s"),
    "workflow.load_signed_key": ("calls", "s", "self_s"),
    "workflow.init_own_keys": ("calls", "s", "self_s"),
    "cli.load_rings": ("s", "self_s"),
    "cli.save_rings": ("s", "self_s"),
    "cli.load_own_material": ("s", "self_s"),
    "cli.save_own_material": ("s", "self_s"),
    "cli.main": ("s", "self_s"),
}
_UNITS = {
    "calls": "count/op",
    "s": "s/op",
    "self_s": "s/op",
    "bytes": "B/op",
    "bytes_read": "B/op",
    "bytes_written": "B/op",
}


def _totals(spans: list[Span], ops: set) -> tuple[dict, dict]:
    """Per span name: calls, inclusive and self ns, summed counters; and
    the load, fetch and alarm tallies that need the span tree."""
    child_ns = defaultdict(int)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    derived: dict[str, float] = defaultdict(float)
    in_load = [False] * len(spans)
    for index, span in enumerate(spans):
        parent_in_load = span.parent >= 0 and in_load[span.parent]
        in_load[index] = parent_in_load or span.name in _LOADS
        if span.op not in ops:
            continue
        row = totals[span.name]
        row["calls"] += 1
        row["ns"] += span.end - span.start
        row["self_ns"] += span.end - span.start - child_ns[index]
        for key, value in (span.counters or {}).items():
            row[key] += value
        if span.name in _LOADS and not parent_in_load:
            derived["loads"] += 1
            if span.error in ALARM_CODES:
                derived[f"alarm.{span.error}"] += 1
        if span.name == "store.fetch" and parent_in_load:
            derived["fetches_in_loads"] += 1
    return totals, derived


def layer_metrics(spans: list[Span], op_ids: list, op_s: float) -> dict:
    """Per-op layer metrics for the traced ops ``op_ids``; ``op_s`` is their
    mean duration. Setup spans feed only ``scenarios.build_rsa_pool.s``."""
    ops = set(op_ids)
    count = max(1, len(ops))
    totals, derived = _totals(spans, ops)
    metrics: dict[str, tuple[float, str]] = {}
    for name, fields in _SPAN_METRICS.items():
        row = totals.get(name, {})
        for field in fields:
            if field == "calls":
                value = row.get("calls", 0.0)
            elif field == "s":
                value = row.get("ns", 0.0) / 1e9
            elif field == "self_s":
                value = row.get("self_ns", 0.0) / 1e9
            else:
                value = row.get("bytes", 0.0)
            metrics[f"{name}.{field}"] = (value / count, _UNITS[field])

    saved = totals.get("store.save", {}).get("bytes", 0.0)
    published = totals.get("store.publish", {}).get("bytes", 0.0)
    metrics["store.write_amplification"] = (
        saved / published if published else 0.0, "ratio",
    )
    loads = derived.get("loads", 0.0)
    metrics["store.fetches_per_load"] = (
        derived.get("fetches_in_loads", 0.0) / loads if loads else 0.0, "1/load",
    )
    for code in ALARM_CODES:
        metrics[f"workflow.alarms.{code}"] = (
            derived.get(f"alarm.{code}", 0.0) / count, "count/op",
        )
    rings = totals.get("cli.save_rings", {})
    files = rings.get("files", 0.0)
    metrics["cli.save_rings.unchanged_ratio"] = (
        rings.get("unchanged", 0.0) / files if files else 0.0, "ratio",
    )
    for name in scenarios.SCENARIO_NAMES:
        row = totals.get(f"scenarios.run_scenario.{name}", {})
        metrics[f"scenarios.run_scenario.{name}.s"] = (
            row.get("ns", 0.0) / 1e9 / count, "s/op",
        )

    setup_spans = [s for s in spans if s.op == SETUP]
    pool_ns = sum(
        s.end - s.start for s in setup_spans if s.name == "scenarios.build_rsa_pool"
    )
    metrics["scenarios.build_rsa_pool.s"] = (pool_ns / 1e9, "s")
    metrics["trace.op_s"] = (op_s, "s/op")
    return metrics


def class_share(spans: list[Span], op_ids: list, names: tuple[str, ...]) -> float:
    """Share of the wall time of ops ``op_ids`` spent in spans ``names``
    (top-level occurrences only, so nested spans are not counted twice)."""
    ops = set(op_ids)
    if not ops:
        return 0.0
    covered = 0
    total = 0
    inside = [False] * len(spans)
    for index, span in enumerate(spans):
        parent_inside = span.parent >= 0 and inside[span.parent]
        inside[index] = parent_inside or span.name in names
        if span.op not in ops:
            continue
        if span.name == "cli.main" or span.name.startswith("scenarios.run_scenario."):
            total += span.end - span.start
        if span.name in names and not parent_inside:
            covered += span.end - span.start
    return covered / total if total else 0.0
