"""In-memory spans around calls into circlespec's layers.

Tracing is installed from outside the package: for the duration of a traced
run every module binding of a wrapped function is replaced, including names
taken with `from ... import ...` and names re-exported by the package, and
the originals are put back afterwards.  Each span records its name, start,
end and parent; a layer's self time is its spans' duration minus the time
their child spans cover.  `CirclePoint.__mul__` runs about a million times in
a suite run, so it gets no span of its own: its calls and time are added to
the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager

from circlespec import circle, cli, linalg, markov, measure, permgroup, spectral, suite

perf_counter = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "covered", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.covered = 0.0  # time of child spans, aggregated calls and counting
        self.counts: dict[str, float] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Recorder:
    """Holds the spans of one traced run.  The root span encloses everything."""

    def __init__(self):
        self.root = Span("root", perf_counter(), None)
        self.spans: list[Span] = []
        self.stack = [self.root]

    def open(self, name: str) -> Span:
        span = Span(name, perf_counter(), self.stack[-1])
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        span.parent.covered += span.end - span.start
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def write(self, path) -> None:
        """One JSON line per span, in the order the spans closed; times are
        seconds since the recorder was made, parents are line numbers."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start - self.root.start,
                    "end": span.end - self.root.start,
                    "parent": index.get(id(span.parent)),
                    "self_s": span.self_s,
                    "counts": span.counts,
                }
                fh.write(json.dumps(record) + "\n")


def _wrap(recorder: Recorder, layer: str, fn, counter=None):
    """A wrapper with fn's signature that records one span per call.  The
    counter runs after the span closes; its time is excluded from the
    parent's self time, so counting does not show up as layer work."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if counter is not None:
            t0 = perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(span, result, bound.arguments)
            span.parent.covered += perf_counter() - t0
        return result

    return wrapper


def _wrap_mul(recorder: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, other):
        t0 = perf_counter()
        result = fn(self, other)
        dt = perf_counter() - t0
        top = recorder.stack[-1]
        top.covered += dt
        counts = top.counts
        counts["mul_calls"] = counts.get("mul_calls", 0) + 1
        counts["mul_s"] = counts.get("mul_s", 0.0) + dt
        return result

    return wrapper


# -- work counters, one per layer that has one -----------------------------------


def _count_fibers(span, result, args):
    sizes = [fc.size for fc in result]
    span.add("tuples", sum(sizes))
    span.add("classes", len(result))
    span.add("generic", sum(fc.is_generic for fc in result))
    span.add("size_sq", sum(s * s for s in sizes))


def _count_multiplicity(span, report, args):
    span.add("orbits", sum(report.entries.values()))
    span.add("tuples", report.total_tuples)


def _count_rank(span, result, args):
    a = args["a"]
    span.add("entries", len(a) * len(a[0]) if a else 0)
    span.add("rank_sum", result)


def _count_product(span, result, args):
    span.add("entries_out", len(result) * len(result[0]) if result else 0)


def _count_closure(span, result, args):
    span.add("elements", len(result))


def _count_convolve(span, result, args):
    span.add("pairs", len(args["self"]) * len(args["other"]))


def _count_relation_scan(span, result, args):
    d = len(args["mu"])
    span.add("sign_tuples", sum(math.comb(d, k) * 2 ** (k - 1) for k in range(1, min(args["degree"], d) + 1)))


# layer name -> ((owner, attribute), ...), counter
LAYERS = {
    "spectral.fibers": (((spectral, "fibers"),), _count_fibers),
    "spectral.multiplicity": (((spectral, "multiplicity"),), _count_multiplicity),
    "spectral.matrix_oracle": (((spectral, "matrix_oracle"),), None),
    "spectral.check": (
        ((spectral, "check_tensor_power"), (spectral, "check_symmetric_power"), (spectral, "fock_multiplicity_set")),
        None,
    ),
    "spectral.simplicity": (((spectral, "check_simplicity_levels"), (spectral, "simple_spectrum")), None),
    "linalg.rank": (((linalg, "rank"),), _count_rank),
    "linalg.product": (((linalg, "mat_mul"), (linalg, "kron"), (linalg, "mat_add")), _count_product),
    "permgroup.closure": (((permgroup, "closure"),), _count_closure),
    "measure.convolve": (((measure.AtomicMeasure, "convolve"),), _count_convolve),
    "measure.relation_scan": (((measure, "relation_scan"),), _count_relation_scan),
    "markov.project": (((markov, "project_markov"),), None),
    "markov.incl_excl": (((markov, "inclusion_exclusion_identity"),), None),
    "markov.coupling": (((markov, "markov_from_coupling"), (markov, "coupling_from_markov")), None),
    "suite": (((suite, "run_suite"), (suite, "run_battery")), None),
    "cli": (((cli, "main"),), None),
}
MUL_LAYER = "circle.mul"


def _bindings(original):
    """Every (module, name) in the package bound to `original`."""
    for name, module in list(sys.modules.items()):
        if name == "circlespec" or name.startswith("circlespec."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr


@contextmanager
def traced(recorder: Recorder):
    """Install span wrappers on every binding of every layer function, and
    restore the originals on exit."""
    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for layer, (targets, counter) in LAYERS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                replacement = _wrap(recorder, layer, original, counter)
                if isinstance(owner, type):
                    patch(owner, attr, replacement)
                else:
                    for module, name in list(_bindings(original)):
                        patch(module, name, replacement)
        patch(circle.CirclePoint, "__mul__", _wrap_mul(recorder, circle.CirclePoint.__mul__))
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer calls, self time and work counts over all recorded spans.
    Every layer appears, with zeros when the run never entered it."""
    out: dict[str, float] = {}
    for layer in (MUL_LAYER, *LAYERS):
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    totals: dict[str, float] = {}
    for span in (recorder.root, *recorder.spans):
        out[f"{MUL_LAYER}.calls"] += span.counts.get("mul_calls", 0)
        out[f"{MUL_LAYER}.self_s"] += span.counts.get("mul_s", 0.0)
        if span.name not in LAYERS:
            continue
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += span.self_s
        for key, value in span.counts.items():
            if not key.startswith("mul_"):
                totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
        if span.name == "spectral.fibers" and span.parent.name == "spectral.matrix_oracle":
            totals["oracle.fibers"] = totals.get("oracle.fibers", 0) + span.counts["classes"]
            totals["oracle.block_entries"] = totals.get("oracle.block_entries", 0) + span.counts["size_sq"]

    def total(key):
        return totals.get(key, 0)

    classes = total("spectral.fibers.classes")
    mult_tuples = total("spectral.multiplicity.tuples")
    out.update(
        {
            "spectral.fibers.tuples": total("spectral.fibers.tuples"),
            "spectral.fibers.classes": classes,
            "spectral.fibers.generic_share": total("spectral.fibers.generic") / classes if classes else 0.0,
            "spectral.multiplicity.orbits_per_tuple": (
                total("spectral.multiplicity.orbits") / mult_tuples if mult_tuples else 0.0
            ),
            "spectral.matrix_oracle.block_entries": total("oracle.block_entries"),
            "spectral.matrix_oracle.fibers": total("oracle.fibers"),
            "linalg.rank.entries": total("linalg.rank.entries"),
            "linalg.rank.rank_sum": total("linalg.rank.rank_sum"),
            "linalg.product.entries_out": total("linalg.product.entries_out"),
            "permgroup.closure.elements": total("permgroup.closure.elements"),
            "measure.convolve.pairs": total("measure.convolve.pairs"),
            "measure.relation_scan.sign_tuples": total("measure.relation_scan.sign_tuples"),
        }
    )
    return out
