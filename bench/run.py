#!/usr/bin/env python3
"""keyauth benchmark: one closed-loop client drives one workload for a fixed
time, checks every op's output, and prints the metrics.

Run from the repository root, which must hold keyauth's source under src/:

    python3 bench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``matrix`` (detection-matrix scenario runs),
``contacts-read`` (``keyauth fetch`` on a populated store and rings) and
``contacts-write`` (``keyauth init`` publishing to, or re-checking against,
that store).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the first
half untraced and the second half with spans around every module boundary,
and reports per-layer metrics, per op, plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a fuller
report with run metadata and every metric the workload defines.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = {"matrix": 7, "contacts-read": 3, "contacts-write": 3}

# The report also prints the p50 of the "first" and "repeat" op classes under
# these workload-specific names; the result line carries them as
# first_p50_ms and repeat_p50_ms, which every workload reports.
CLASS_NAMES = {
    "contacts-read": ("fetch_cold_p50_ms", "fetch_warm_p50_ms"),
    "contacts-write": ("init_publish_p50_ms", "init_noop_p50_ms"),
}


def load_program() -> None:
    """Import keyauth from ./src and nowhere else."""
    package = ROOT / "src" / "keyauth" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package.relative_to(ROOT)} not found; "
                 "run from the root of a keyauth checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import keyauth

    if Path(keyauth.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported keyauth from {keyauth.__file__}, not ./src")


# -- measuring -----------------------------------------------------------------


class Samples:
    """Per-op results of one measured phase."""

    def __init__(self):
        self.ns: list[int] = []
        self.kinds: list[str] = []
        self.ok: list[bool] = []
        self.op_ids: list[int] = []
        self.passes_ok = True
        self.first_error: str | None = None

    def failed(self) -> int:
        return self.ok.count(False)


def measure(workload, seconds: float, tracer=None, first_op_id: int = 0) -> Samples:
    """Closed loop: each op starts when the previous one has been checked.
    Passes restore state before they start; only ``workload.call`` is timed."""
    samples = Samples()
    op_id = first_op_id
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ops = workload.begin_pass()
        gc.collect()
        done = []
        start_index = len(samples.ok)
        for op in ops:
            if time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op = op_id
            start = time.perf_counter_ns()
            try:
                result = workload.call(op)
            except Exception:  # an op that crashes counts as failed
                result = None
                samples.first_error = samples.first_error or traceback.format_exc()
            elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.op = None
            ok = result is not None and workload.check(op, result)
            samples.ns.append(elapsed)
            samples.kinds.append(workload.kind(op))
            samples.ok.append(ok)
            samples.op_ids.append(op_id)
            done.append(op)
            op_id += 1
        if done and not workload.end_pass(done):
            samples.passes_ok = False
            for index in range(start_index, len(samples.ok)):
                samples.ok[index] = False
    return samples


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def end_to_end(name: str, samples: Samples, setup_times: list[float], tail_p: float):
    ms = [ns / 1e6 for ns in samples.ns]
    attempted = len(ms)
    first, repeat = (
        [v for v, k in zip(ms, samples.kinds) if k == kind]
        for kind in ("first", "repeat")
    )
    rank = math.ceil(tail_p / 100 * attempted)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (attempted / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (nearest_rank(ms, tail_p), "ms"),
        "first_p50_ms": (statistics.median(first) if first else 0.0, "ms"),
        "repeat_p50_ms": (statistics.median(repeat) if repeat else 0.0, "ms"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
    }
    extra = {"ops_failed_ratio": (samples.failed() / attempted, "ratio")}
    if name in CLASS_NAMES:
        first_name, repeat_name = CLASS_NAMES[name]
        extra[first_name] = metrics["first_p50_ms"]
        extra[repeat_name] = metrics["repeat_p50_ms"]
    tail = {
        "percentile": tail_p,
        "samples": attempted,
        "samples_beyond": attempted - rank,
        "first_samples": len(first),
        "repeat_samples": len(repeat),
    }
    return metrics, extra, tail


# -- metadata ------------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int, seconds: float, trace: int, tail: dict) -> dict:
    import cryptography

    src = ROOT / "src" / "keyauth"
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(src.glob("*.py"))
    )
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "op_tail": tail,
        "src_keyauth_lines": lines,
        "clients": 1,
        "loop": "closed",
    }


# -- driver ----------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None, setup_repeats: int | None = None) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (result line, report)."""
    from tracer import SETUP, Tracer, class_share, layer_metrics
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    base = WORK_ROOT / f"{name}-{os.getpid()}"
    try:
        tracer = Tracer() if trace else None
        repeats = 1 if trace else (setup_repeats or SETUP_REPEATS[name])
        setup_times = []
        workload = None
        for index in range(repeats):
            if workload is not None:
                shutil.rmtree(base / str(index - 1), ignore_errors=True)
            workload = cls(seed, base / str(index), sizes)
            if tracer is not None:
                tracer.op = SETUP
                tracer.install()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
                tracer.op = None

        if trace:
            untraced = measure(workload, seconds / 2)
            tracer.install()
            try:
                traced = measure(workload, seconds / 2, tracer,
                                 first_op_id=len(untraced.ok))
            finally:
                tracer.uninstall()
            phases = (untraced, traced)
        else:
            traced = measure(workload, seconds)
            phases = (traced,)
        finished_ok = workload.finish()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(len(p.ok) for p in phases)
    failed = sum(p.failed() for p in phases)
    correct = failed == 0 and finished_ok and all(p.passes_ok for p in phases)
    if not finished_ok and failed == 0:
        failed = 1
    metrics, extra, tail = end_to_end(name, traced, setup_times, cls.tail_percentile)
    report = {
        "workload": name,
        "meta": metadata(seed, seconds, int(trace), tail),
        "setup_times_s": setup_times,
    }
    if trace:
        op_s = statistics.fmean(traced.ns) / 1e9 if traced.ns else 0.0
        untraced_rate = len(untraced.ns) / (sum(untraced.ns) / 1e9)
        out = layer_metrics(tracer.spans, traced.op_ids, op_s)
        out["trace.ops_per_s"] = (metrics["ops_per_s"][0], "1/s")
        out["trace.overhead_ops_per_s"] = (
            metrics["ops_per_s"][0] - untraced_rate, "1/s")
        first_ids = [i for i, k in zip(traced.op_ids, traced.kinds) if k == "first"]
        report["shares"] = {
            "keys.consistency_rsa": class_share(
                tracer.spans, traced.op_ids, ("keys.consistency_rsa",)),
            "cli.load_rings+store.open+cli.save_rings": class_share(
                tracer.spans, traced.op_ids,
                ("cli.load_rings", "store.open", "cli.save_rings")),
            "store.save in first-class ops": class_share(
                tracer.spans, first_ids, ("store.save",)),
        }
    else:
        out = metrics
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in {**metrics, **extra}.items()}
    if trace:
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
    errors = [p.first_error for p in phases if p.first_error]
    if errors:
        report["first_error"] = errors[0]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("matrix", "contacts-read", "contacts-write"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if "first_error" in report:
        print(report["first_error"], file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
