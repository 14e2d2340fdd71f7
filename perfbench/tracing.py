"""Spans and counts recorded from outside realsurf.

The benchmark never edits the package.  A traced worker replaces the
public functions of each layer by timing wrappers (in every realsurf
module that holds a reference to them) and wraps the callables of each
``Chart`` it scans.  Every call becomes a span: name, start, end, the
span that caused it, the job it belongs to, and one number ``n`` (a rank,
a byte count, a point count).  Spans stay in memory and are written out
when the run ends.

Untraced workers use ``NULL_TRACER``, whose spans cost one attribute
lookup and record nothing.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import json
import sys
import time
import weakref

_clock = time.perf_counter

# (module, function) pairs wrapped in a traced run, with the span name.
# Same-name recursion (signature and determinant recurse per block) is
# folded into the outermost span.
LAYER_FUNCTIONS = (
    ("realsurf.lattice", "signature", "lattice.signature"),
    ("realsurf.lattice", "determinant", "lattice.determinant"),
    ("realsurf.lattice", "pairing", "lattice.pairing"),
    ("realsurf.embedded", "invariant_report", "embedded.invariants"),
    ("realsurf.embedded", "i_total", "embedded.invariants"),
    ("realsurf.embedded", "i_pm", "embedded.invariants"),
    ("realsurf.embedded", "stein_basis_possible", "embedded.invariants"),
    ("realsurf.embedded", "totally_real_possible", "embedded.invariants"),
)

PER_LAYER = (
    # name, unit, better
    ("ambient.build_ms", "ms", "lower"),
    ("ambient.builds", "count", "lower"),
    ("ambient.rank_total", "count", "lower"),
    ("ambient.repeat_share", "ratio", "higher"),
    ("lattice.signature_ms", "ms", "lower"),
    ("lattice.determinant_ms", "ms", "lower"),
    ("lattice.pairing_ms", "ms", "lower"),
    ("lattice.pairing_calls", "count", "lower"),
    ("embedded.invariants_ms", "ms", "lower"),
    ("embedded.invariants_calls", "count", "lower"),
    ("constructions.certify_ms", "ms", "lower"),
    ("constructions.encode_ms", "ms", "lower"),
    ("constructions.decode_ms", "ms", "lower"),
    ("constructions.verify_ms", "ms", "lower"),
    ("constructions.cert_bytes", "bytes", "lower"),
    ("constructions.steps", "count", "lower"),
    ("constructions.checks", "count", "higher"),
    ("bishop.survey_ms", "ms", "lower"),
    ("bishop.self_ms", "ms", "lower"),
    ("bishop.eval_scalar_calls", "count", "lower"),
    ("bishop.eval_scalar_ms", "ms", "lower"),
    ("bishop.eval_array_calls", "count", "lower"),
    ("bishop.eval_array_points", "count", "lower"),
    ("bishop.eval_array_ms", "ms", "lower"),
    ("cli.python_floor_ms", "ms", "lower"),
    ("cli.numpy_import_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("bench.tracing_overhead", "ratio", "higher"),
)


class _NullSpan:
    """Stands in for a span when tracing is off; ``n`` is write-only."""

    __slots__ = ("n",)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    job = -1
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def surface(self, surface):
        return surface


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, -1, -1, 0]

    @property
    def n(self):
        return self.rec[5]

    @n.setter
    def n(self, value):
        self.rec[5] = value

    def __enter__(self):
        self.tracer._open(self.rec)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


class Tracer:
    """In-memory span recorder.  A span record is the list
    ``[name, start, end, parent_index, job, n]``; its index in
    ``spans`` is its identifier."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def _open(self, rec: list) -> None:
        rec[3] = self._stack[-1] if self._stack else -1
        rec[4] = self.job
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _clock()

    def _close(self, rec: list) -> None:
        rec[2] = _clock()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span measured elsewhere (in a child process, on the
        same monotonic clock), as a child of the open span."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, self.job, 0])

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._inside(name):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, -1, -1, 0]
            self._open(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def wrap_by_name(self, fn):
        """``ambient.by_name``: a call that returns a surface not seen
        before is a build (n = its rank), any other call a lookup."""
        seen: dict[int, weakref.ref] = {}

        def traced(*args, **kwargs):
            rec = ["ambient.lookup", 0.0, 0.0, -1, -1, 0]
            self._open(rec)
            try:
                surface = fn(*args, **kwargs)
            finally:
                self._close(rec)
            known = seen.get(id(surface))
            if known is None or known() is not surface:
                seen[id(surface)] = weakref.ref(surface)
                rec[0] = "ambient.build"
                rec[5] = surface.rank
            return surface

        traced.__wrapped__ = fn
        return traced

    def _wrap_chart_callable(self, fn, ndim, size):
        def traced(u, v):
            scalar = ndim(u) == 0
            rec = ["bishop.eval_scalar" if scalar else "bishop.eval_array", 0.0, 0.0, -1, -1,
                   1 if scalar else int(size(u))]
            self._open(rec)
            try:
                return fn(u, v)
            finally:
                self._close(rec)

        return traced

    def surface(self, surface):
        """A copy of ``surface`` whose chart callables record spans."""
        import numpy as np

        charts = []
        for chart in surface.charts:
            changes = {
                field: self._wrap_chart_callable(getattr(chart, field), np.ndim, np.size)
                for field in ("evaluate", "d_du", "d_dv", "owns")
                if getattr(chart, field) is not None
            }
            charts.append(dataclasses.replace(chart, **changes))
        return dataclasses.replace(surface, charts=tuple(charts))

    def install(self) -> None:
        """Wrap the layer functions in every loaded realsurf module."""
        targets = []
        for module_name, attr, span_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            targets.append((original, self.wrap(span_name, original)))
        by_name = importlib.import_module("realsurf.ambient").by_name
        targets.append((by_name, self.wrap_by_name(by_name)))
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "realsurf" or name.startswith("realsurf."))]
        for original, wrapper in targets:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, job, n in self.spans:
                out.write(json.dumps([name, start, end, parent, job, n]) + "\n")


@dataclasses.dataclass
class SpanTotals:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    n: int = 0


def aggregate(spans) -> dict[str, SpanTotals]:
    """Per span name, over the spans of jobs (set-up spans have job -1):
    how many, total and self seconds, and the sum of n.  Self time is a
    span's length minus the time its direct children cover (children of
    one thread never overlap)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job, n in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, SpanTotals] = {}
    for i, (name, start, end, parent, job, n) in enumerate(spans):
        if job < 0:
            continue
        t = totals.setdefault(name, SpanTotals())
        t.count += 1
        t.total_s += end - start
        t.self_s += end - start - child_time[i]
        t.n += n
    return totals


def layer_metrics(totals: dict[str, SpanTotals]) -> dict[str, float]:
    """The per-layer metrics that the spans of a traced pass determine
    (all but the interpreter and import probes and the tracing overhead)."""
    t = lambda name: totals.get(name, SpanTotals())
    ms = lambda name: t(name).total_s * 1000.0
    lookups, builds = t("ambient.lookup").count, t("ambient.build").count
    return {
        "ambient.build_ms": ms("ambient.build"),
        "ambient.builds": builds,
        "ambient.rank_total": t("ambient.build").n,
        "ambient.repeat_share": lookups / (lookups + builds) if lookups + builds else 0.0,
        "lattice.signature_ms": ms("lattice.signature"),
        "lattice.determinant_ms": ms("lattice.determinant"),
        "lattice.pairing_ms": ms("lattice.pairing"),
        "lattice.pairing_calls": t("lattice.pairing").count,
        "embedded.invariants_ms": ms("embedded.invariants"),
        "embedded.invariants_calls": t("embedded.invariants").count,
        "constructions.certify_ms": ms("constructions.certify"),
        "constructions.encode_ms": ms("constructions.encode"),
        "constructions.decode_ms": ms("constructions.decode"),
        "constructions.verify_ms": ms("constructions.verify"),
        "constructions.cert_bytes": t("constructions.encode").n,
        "constructions.steps": t("constructions.certify").n,
        "constructions.checks": t("constructions.verify").n,
        "bishop.survey_ms": ms("bishop.survey"),
        "bishop.self_ms": t("bishop.survey").self_s * 1000.0,
        "bishop.eval_scalar_calls": t("bishop.eval_scalar").count,
        "bishop.eval_scalar_ms": ms("bishop.eval_scalar"),
        "bishop.eval_array_calls": t("bishop.eval_array").count,
        "bishop.eval_array_points": t("bishop.eval_array").n,
        "bishop.eval_array_ms": ms("bishop.eval_array"),
        "cli.self_ms": ms("cli.main"),
        "cli.stdout_bytes": t("cli.process").n,
    }
