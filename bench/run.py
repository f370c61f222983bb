"""Benchmark of perronkron: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_paper --seed 1 --seconds 30 --trace 0

The run imports perronkron from ``src/`` of the checkout, builds the
workload's inputs from the seed several times (the median is ``setup_s``),
then runs passes over the workload's operations until ``--seconds`` would
be exceeded, always at least one.  Each operation's output is checked after
its pass, outside the timed region.

With ``--trace 0`` the end-to-end metrics are reported, as medians over the
passes.  With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics of the traced passes are reported, with
``trace.overhead_ratio`` = traced ``wall_s`` / untraced ``wall_s``.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
checkout without ``src/perronkron`` exits with status 2 and no result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

from spans import PER_LAYER, Tracer, median_metrics  # noqa: E402
from workloads import WORKLOADS, SetupError, import_package  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_max_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


@dataclass
class PassResult:
    wall: float
    cpu: float
    op_max: float
    attempted: int
    failures: List[str]


def _passes_check(op, output) -> bool:
    if isinstance(output, Exception):
        return False
    try:
        return bool(op.check(output))
    except Exception:  # a malformed output is a wrong answer, not a crash
        return False


def timed_pass(ops, tracer: Optional[Tracer] = None) -> PassResult:
    outputs = []
    op_max = 0.0
    gc.collect()  # start every pass with the same garbage-collector state
    if tracer is not None:
        tracer.reset()
        tracer.recording = True
    cpu0, t0 = process_time(), perf_counter()
    try:
        for op in ops:
            start = perf_counter()
            try:
                outputs.append(op.call())
            except Exception as exc:  # counted as a failed operation
                outputs.append(exc)
            op_max = max(op_max, perf_counter() - start)
    finally:
        wall, cpu = perf_counter() - t0, process_time() - cpu0
        if tracer is not None:
            tracer.recording = False
    failures = [op.name for op, out in zip(ops, outputs) if not _passes_check(op, out)]
    return PassResult(wall, cpu, op_max, len(ops), failures)


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _git_commit() -> Optional[str]:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose is not None:
        return loose.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> Optional[str]:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _loadavg() -> Optional[str]:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def provenance(loadavg_before: Optional[str]) -> Dict[str, object]:
    import numpy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_before": loadavg_before,
        "loadavg_after": _loadavg(),
    }


def _summary(name: str, values: List[float], unit: str) -> str:
    return (
        f"{name:<52} median {statistics.median(values):.6g} {unit}"
        f"  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    loadavg_before = _loadavg()
    setup = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as workdir:
        setup_times: List[float] = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            gc.collect()
            start = perf_counter()
            pk = import_package(SRC)
            ops = setup(pk, seed, workdir)
            setup_times.append(perf_counter() - start)

        plain: List[PassResult] = []
        traced: List[PassResult] = []
        layers: List[Dict[str, float]] = []
        tracer = Tracer() if trace else None
        start = perf_counter()
        while True:
            step = perf_counter()
            plain.append(timed_pass(ops))
            if tracer is not None:
                with tracer:
                    traced.append(timed_pass(ops, tracer))
                    layers.append(tracer.metrics())
                tracer.reset()  # the garbage collector need not walk old spans
            step = perf_counter() - step
            if perf_counter() - start + step > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    every = plain + traced
    attempted = sum(p.attempted for p in every)
    failures = [name for p in every for name in p.failures]
    lines = [f"workload {workload} seed {seed}: {len(plain)} untraced, {len(traced)} traced passes"]
    if trace:
        values = median_metrics(layers)
        values["trace.overhead_ratio"] = statistics.median(
            p.wall for p in traced
        ) / statistics.median(p.wall for p in plain)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, _, _ in PER_LAYER:
            samples = [m[name] for m in layers] if name in layers[0] else [values[name]]
            lines.append(_summary(name, samples, units[name]))
    else:
        samples = {
            "wall_s": [p.wall for p in plain],
            "cpu_s": [p.cpu for p in plain],
            "op_max_s": [p.op_max for p in plain],
            "setup_s": setup_times,
            "peak_rss_mb": [peak_rss_mb],
        }
        values = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            lines.append(_summary(name, samples[name], unit))
    lines.append(f"{'error_rate':<52} {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    if failures:
        lines.append("failed operations: " + ", ".join(sorted(set(failures))))
    lines.append("provenance " + json.dumps(provenance(loadavg_before), sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
