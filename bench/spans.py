"""Spans around calls into perronkron, and the per-layer metrics they give.

A ``Tracer`` replaces a fixed list of library callables with wrappers.
Each wrapped call, while the tracer is recording, appends a ``Span`` (name,
start, end, index of the enclosing span) and may update counters computed
from its arguments and result.  Counter work is itself recorded as a
``trace.overhead`` span, so it is charged to no layer.

A callable is wrapped under every name it is bound to in the package:
``inverse`` is imported by name into ``perron``, ``verification`` and
``cli``, so patching ``linalg.inverse`` alone would miss most calls.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

OVERHEAD = "trace.overhead"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span; None at top level


def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: List[List[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = _union_length(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        )
        out.append(max(0.0, span.end - span.start - covered))
    return out


# --- counters -------------------------------------------------------------


def _raise_to(counters, key, value):
    if value > counters.get(key, 0):
        counters[key] = value


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _rows(result):
    """Entry rows of a Matrix, or the single row of a Vector."""
    entries = result.entries
    return entries if entries and isinstance(entries[0], list) else [entries]


def _den_bits(result) -> int:
    if result.mode != "rational":
        return 0
    return max(v.denominator for row in _rows(result) for v in row).bit_length()


def _entries(result) -> int:
    return sum(len(row) for row in _rows(result))


def _count_matmul(counters, args, result):
    if result is NotImplemented:
        return
    a, b = args[0], args[1]
    other = b.ncols if hasattr(b, "ncols") else 1
    _raise_to(counters, "linalg.matmul.max_order", max(a.nrows, a.ncols, other))
    _raise_to(counters, "linalg.matmul.max_den_bits", _den_bits(result))


def _count_inverse(counters, args, result):
    _raise_to(counters, "linalg.inverse.max_order", result.nrows)
    _raise_to(counters, "linalg.inverse.max_den_bits", _den_bits(result))


def _count_kron(counters, args, result):
    _add(counters, "linalg.kron.entries", _entries(result))


def _count_image(counters, args, result):
    _add(counters, "perron.similarity_image.image_entries", _entries(result))


def _count_coni(counters, args, result):
    generators = args[0]
    _add(
        counters,
        "cones.coni_coefficients.gens_x_dim",
        len(generators.vectors) * generators.dim,
    )


def _count_rays(counters, args, result):
    M = args[0]
    n = M.ncols
    nonzero = sum(1 for row in M.entries if any(v != 0 for v in row))
    _add(counters, "cones.enumerate_extreme_rays.subsets", math.comb(nonzero, n - 1))
    _add(counters, "cones.enumerate_extreme_rays.rays", len(result))


def _count_edges(counters, args, result):
    _add(counters, "digraph.edges", sum(len(s) for s in result.succ))


def _count_from_json(counters, args, result):
    _add(counters, "serialize.matrix_from_json.bytes", len(args[0].encode("utf-8")))


def _count_to_json(counters, args, result):
    _add(counters, "serialize.matrix_to_json.bytes", len(result.encode("utf-8")))


@dataclass(frozen=True)
class Target:
    module: str  # perronkron submodule that defines the callable
    attr: str  # function name, or "Class.method"
    name: str  # span name, "<layer>.<operation>"
    counter: Optional[Callable] = None
    span: bool = True  # False: count calls and run the counter, record no span


TARGETS: Tuple[Target, ...] = (
    Target("linalg", "Matrix.__matmul__", "linalg.matmul", _count_matmul),
    Target("linalg", "inverse", "linalg.inverse", _count_inverse),
    Target("linalg", "kron", "linalg.kron", _count_kron),
    Target("linalg", "kron_vec", "linalg.kron", _count_kron),
    Target("linalg", "Matrix.scale_columns", "linalg.scale_columns"),
    Target("linalg", "is_entrywise_nonneg", "linalg.is_entrywise_nonneg"),
    Target("perron", "similarity_image", "perron.similarity_image", _count_image),
    Target("perron", "in_spectracone", "perron.in_spectracone"),
    Target("perron", "is_ideal", "perron.is_ideal"),
    Target(
        "perron",
        "strict_cone_containment_certificate",
        "perron.strict_cone_containment_certificate",
    ),
    Target("cones", "coni_coefficients", "cones.coni_coefficients", _count_coni),
    Target(
        "cones", "enumerate_extreme_rays", "cones.enumerate_extreme_rays", _count_rays
    ),
    Target("digraph", "is_irreducible", "digraph.is_irreducible"),
    Target("digraph", "imprimitivity_index", "digraph.imprimitivity_index"),
    # digraph_of only feeds the edge counter: its time stays with its caller.
    Target("digraph", "digraph_of", "digraph.digraph_of", _count_edges, span=False),
    Target(
        "serialize", "matrix_from_json", "serialize.matrix_from_json", _count_from_json
    ),
    Target("serialize", "matrix_to_json", "serialize.matrix_to_json", _count_to_json),
    Target(
        "verification", "run_verification_suite", "verification.run_verification_suite"
    ),
    Target("cli", "main", "cli.main"),
)

# Every per-layer metric: (name, unit, better).  BENCHMARK.json lists the same.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("linalg.self_s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.self_s", "s", "lower"),
    ("linalg.matmul.max_order", "count", "lower"),
    ("linalg.matmul.max_den_bits", "bit", "lower"),
    ("linalg.inverse.calls", "count", "lower"),
    ("linalg.inverse.self_s", "s", "lower"),
    ("linalg.inverse.max_order", "count", "lower"),
    ("linalg.inverse.max_den_bits", "bit", "lower"),
    ("linalg.kron.calls", "count", "lower"),
    ("linalg.kron.self_s", "s", "lower"),
    ("linalg.kron.entries", "count", "lower"),
    ("linalg.scale_columns.calls", "count", "lower"),
    ("linalg.scale_columns.self_s", "s", "lower"),
    ("linalg.is_entrywise_nonneg.calls", "count", "lower"),
    ("linalg.is_entrywise_nonneg.self_s", "s", "lower"),
    ("perron.self_s", "s", "lower"),
    ("perron.similarity_image.calls", "count", "lower"),
    ("perron.similarity_image.self_s", "s", "lower"),
    ("perron.similarity_image.image_entries", "count", "lower"),
    ("perron.in_spectracone.calls", "count", "lower"),
    ("perron.in_spectracone.self_s", "s", "lower"),
    ("perron.is_ideal.calls", "count", "lower"),
    ("perron.is_ideal.self_s", "s", "lower"),
    ("perron.strict_cone_containment_certificate.self_s", "s", "lower"),
    ("cones.self_s", "s", "lower"),
    ("cones.coni_coefficients.calls", "count", "lower"),
    ("cones.coni_coefficients.self_s", "s", "lower"),
    ("cones.coni_coefficients.gens_x_dim", "count", "lower"),
    ("cones.enumerate_extreme_rays.calls", "count", "lower"),
    ("cones.enumerate_extreme_rays.self_s", "s", "lower"),
    ("cones.enumerate_extreme_rays.subsets", "count", "lower"),
    ("cones.enumerate_extreme_rays.rays", "count", "higher"),
    ("cones.enumerate_extreme_rays.useful_ratio", "ratio", "higher"),
    ("digraph.self_s", "s", "lower"),
    ("digraph.is_irreducible.calls", "count", "lower"),
    ("digraph.is_irreducible.self_s", "s", "lower"),
    ("digraph.imprimitivity_index.calls", "count", "lower"),
    ("digraph.imprimitivity_index.self_s", "s", "lower"),
    ("digraph.edges", "count", "lower"),
    ("serialize.matrix_from_json.self_s", "s", "lower"),
    ("serialize.matrix_from_json.bytes", "B", "lower"),
    ("serialize.matrix_to_json.self_s", "s", "lower"),
    ("serialize.matrix_to_json.bytes", "B", "lower"),
    ("verification.run_verification_suite.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

LAYERS = ("linalg", "perron", "cones", "digraph", "serialize")


def layer_metrics(
    spans: Sequence[Span], calls: Dict[str, int], counters: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``."""
    by_name: Dict[str, float] = Counter()
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name] += own
    by_layer: Dict[str, float] = Counter()
    for name, own in by_name.items():
        by_layer[name.split(".")[0]] += own
    values: Dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric == "trace.overhead_ratio":
            continue
        if kind == "calls":
            values[metric] = calls.get(base, 0)
        elif kind == "self_s":
            values[metric] = by_layer[base] if base in LAYERS else by_name[base]
        elif kind == "useful_ratio":
            subsets = counters.get(base + ".subsets", 0)
            values[metric] = counters.get(base + ".rays", 0) / subsets if subsets else 0.0
        else:
            values[metric] = counters.get(metric, 0)
    return values


def median_metrics(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


class Tracer:
    """Wraps ``TARGETS`` in the loaded perronkron package while installed."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = Counter()
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.calls = Counter()
        self.counters = {}
        self._stack = []

    def metrics(self) -> Dict[str, float]:
        return layer_metrics(self.spans, self.calls, self.counters)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "perronkron" or name.startswith("perronkron."))
        ]
        for target in TARGETS:
            home = sys.modules[f"perronkron.{target.module}"]
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, method, self._wrap(target, cls.__dict__[method]))
                continue
            original = getattr(home, target.attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, replacement) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, replacement)

    def _count(self, counter, args, result) -> None:
        start = perf_counter()
        counter(self.counters, args, result)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(OVERHEAD, start, perf_counter(), parent))

    def _wrap(self, target: Target, fn):
        tracer = self
        name, counter = target.name, target.counter

        if not target.span:

            def hook(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.recording:
                    tracer.calls[name] += 1
                    tracer._count(counter, args, result)
                return result

            return functools.wraps(fn)(hook)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            tracer.calls[name] += 1
            if counter is not None:
                tracer._count(counter, args, result)
            return result

        return functools.wraps(fn)(wrapper)
