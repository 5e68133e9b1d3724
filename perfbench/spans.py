"""Span recorder for the traced benchmark run.

The program is not instrumented.  Instead the benchmark wraps public
module-level names where their callers look them up (a name imported with
`from .evaluate import image` is wrapped in the importing module too), and
each wrapped call records a span: name, start, end, parent span and job id.
Spans stay in memory and are written out when the run ends.

A generator's span times each `next()`: its `busy` time is the sum of those
intervals, and work the consumer does between them belongs to the consumer.
A span's self time is its busy time minus that of its child spans, so the
self times of one job add up to the job's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from math import factorial
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "busy", "items", "counts")

    def __init__(self, sid, name, parent, job, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.job = job
        self.start = start
        self.end = start
        self.busy = 0.0
        self.items = 0  # values yielded, for generator spans
        self.counts = None  # work counts, for spans that have them

    def record(self) -> list:
        return [getattr(self, k) for k in self.__slots__]


class Tracer:
    """In-memory span store with a stack of the spans currently running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = None

    def new_span(self, name: str, start: float) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.job, start)
        self.spans.append(span)
        return span

    def call(self, name: str, fn, args, kwargs):
        span = self.new_span(name, perf_counter())
        self.stack.append(span)
        try:
            return span, fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span.end = perf_counter()
            span.busy += span.end - span.start

    def write(self, path: str) -> None:
        """JSON lines: the field names, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(Span.__slots__) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.record(), separators=(",", ":")) + "\n")


class _TracedGenerator:
    """Times each next() of a generator into a span under the current parent."""

    def __init__(self, tracer: Tracer, span: Span, gen):
        self.tracer = tracer
        self.span = span
        self.gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        parent = tracer.stack[-1].id if tracer.stack else None
        start = perf_counter()
        span = self.span
        if span.parent != parent:  # consumed under another span than it was created in
            span = self.span = tracer.new_span(span.name, start)
        tracer.stack.append(span)
        try:
            item = next(self.gen)
        finally:
            tracer.stack.pop()
            span.end = perf_counter()
            span.busy += span.end - start
        span.items += 1
        return item


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span, result = tracer.call(name, fn, args, kwargs)
        if inspect.isgenerator(result):
            return _TracedGenerator(tracer, span, result)
        if counter is not None:
            try:
                span.counts = counter(args, result)
            except (TypeError, AttributeError, IndexError):
                pass  # a changed signature loses the count, not the run
        return result

    return traced


# ---------------------------------------------------------------------------
# work counters, called after the span closes


def _orbit_size(entries) -> int:
    size = factorial(len(entries))
    for v in set(entries):
        size //= factorial(entries.count(v))
    return size


def _kernel_counts(args, result):
    rep, block = args[0], args[1]
    rows, d = block.shape
    r = _orbit_size(rep.entries)
    cells = rows * r
    # int64 block, orbit and dots; complex128 gathered roots and row sums
    nbytes = 8 * (rows * d + r * d + cells) + 16 * (cells + rows)
    return {"cells": cells, "bytes": nbytes}


def _dedupe_counts(args, result):
    return {"in": len(args[0]), "out": len(result)}


def _contain_counts(args, result):
    return {"points": len(args[0])}


def _torus_counts(args, result):
    exponents, grid = args[0], args[1]
    rows = getattr(exponents, "rows", exponents)
    return {"points": grid ** len(rows)}


def _table_counts(args, result):
    return {"orbits": len(result.orbits)}


def _stamp_counts(args, result):
    return {"points": len(args[0])}


def _encode_counts(args, result):
    side = args[0].spec.side
    return {"pixels": side * side, "bytes": len(result)}


# (module, attribute, span name, counter).  Every place a caller looks a name
# up is listed, so a span covers all calls to that layer.
TARGETS = (
    ("symchar.evaluate", "enumerate_orbits", "orbits.enumerate", None),
    ("symchar.identities", "enumerate_orbits", "orbits.enumerate", None),
    ("symchar.table", "enumerate_orbits", "orbits.enumerate", None),
    ("symchar.cli", "enumerate_orbits", "orbits.enumerate", None),
    ("symchar.evaluate", "values_on_block", "evaluate.kernel", _kernel_counts),
    ("symchar.table", "values_on_block", "evaluate.kernel", _kernel_counts),
    ("symchar.evaluate", "dedupe_values", "evaluate.dedupe", _dedupe_counts),
    ("symchar.evaluate", "dot_counts", "evaluate.dot_counts", None),
    ("symchar.identities", "dot_counts", "evaluate.dot_counts", None),
    ("symchar.cli", "dot_counts", "evaluate.dot_counts", None),
    ("symchar.evaluate", "image", "evaluate.image", None),
    ("symchar.identities", "image", "evaluate.image", None),
    ("symchar.asymptotic", "image", "evaluate.image", None),
    ("symchar.cli", "image", "evaluate.image", None),
    ("symchar.cli", "permanent_oracle", "evaluate.permanent", None),
    ("symchar.identities", "sweep_conjugate", "identities.sweep", None),
    ("symchar.identities", "sweep_translation", "identities.sweep", None),
    ("symchar.identities", "sweep_constancy", "identities.sweep", None),
    ("symchar.identities", "sweep_dihedral", "identities.sweep", None),
    ("symchar.identities", "sweep_spikes", "identities.sweep", None),
    ("symchar.identities", "full_union_symmetry", "identities.union", None),
    ("symchar.identities", "walk_reduction_check", "identities.walk", None),
    ("symchar.report", "IdentityReport.to_json", "report.to_json", None),
    ("symchar.identities", "solve_bilinear_congruence", "modring.solve", None),
    ("symchar.cli", "solve_bilinear_congruence", "modring.solve", None),
    ("symchar.asymptotic", "hypocycloid_orbit_check", "asymptotic.hypocycloid", None),
    ("symchar.asymptotic", "hypocycloid_contains_many", "asymptotic.contain", _contain_counts),
    ("symchar.asymptotic", "row_reduce_mod_n", "asymptotic.reduce", None),
    ("symchar.asymptotic", "certificate_from_rows", "asymptotic.reduce", None),
    ("symchar.asymptotic", "sample_torus_map", "asymptotic.torus", _torus_counts),
    ("symchar.table", "build_table", "table.build", _table_counts),
    ("symchar.table", "build_unitary", "table.unitary", None),
    ("symchar.render", "render_bitmap", "render.stamp", _stamp_counts),
    ("symchar.render", "encode_png", "render.encode", _encode_counts),
    ("symchar.render", "write_png", "render.write", None),
    ("symchar.render", "export_points", "render.export", None),
)


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target that exists.

    Returns (restore, missing): the originals to put back, and the span
    names that lost at least one target, whose metrics are then left out.
    """
    restore, missing = [], set()
    for modname, attr, name, counter in targets:
        owner_path, _, leaf = attr.rpartition(".")
        try:
            owner = importlib.import_module(modname)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.add(name)
            continue
        setattr(owner, leaf, _wrap(tracer, name, original, counter))
        restore.append((owner, leaf, original))
    return restore, missing


def uninstall(restore) -> None:
    for owner, leaf, original in reversed(restore):
        setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    child_busy: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_busy[span.parent] = child_busy.get(span.parent, 0.0) + span.busy
    return {span.id: span.busy - child_busy.get(span.id, 0.0) for span in spans}


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy and self seconds, items and summed counts."""
    selfs = self_times(spans)
    agg: dict[str, dict] = {}
    for span in spans:
        a = agg.setdefault(span.name, {"calls": 0, "busy": 0.0, "self": 0.0, "items": 0})
        a["calls"] += 1
        a["busy"] += span.busy
        a["self"] += selfs[span.id]
        a["items"] += span.items
        for k, v in (span.counts or {}).items():
            a[k] = a.get(k, 0) + v
    return agg


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name -> (unit, better, span names it needs, value from the aggregate, per pass)
LAYER_METRICS = {
    "orbits.enumerate_s": ("s", "lower", ("orbits.enumerate",), lambda g: g("orbits.enumerate", "self"), True),
    "orbits.reps": ("count", "lower", ("orbits.enumerate",), lambda g: g("orbits.enumerate", "items"), True),
    "orbits.reps_per_s": (
        "1/s", "higher", ("orbits.enumerate",),
        lambda g: _ratio(g("orbits.enumerate", "items"), g("orbits.enumerate", "self")), False,
    ),
    "evaluate.kernel_s": ("s", "lower", ("evaluate.kernel",), lambda g: g("evaluate.kernel", "self"), True),
    "evaluate.kernel_cells": ("count", "lower", ("evaluate.kernel",), lambda g: g("evaluate.kernel", "cells"), True),
    "evaluate.kernel_bytes_computed": (
        "B", "lower", ("evaluate.kernel",), lambda g: g("evaluate.kernel", "bytes"), True,
    ),
    "evaluate.dedupe_s": ("s", "lower", ("evaluate.dedupe",), lambda g: g("evaluate.dedupe", "self"), True),
    "evaluate.dedupe_in": ("count", "lower", ("evaluate.dedupe",), lambda g: g("evaluate.dedupe", "in"), True),
    "evaluate.dedupe_out": ("count", "lower", ("evaluate.dedupe",), lambda g: g("evaluate.dedupe", "out"), True),
    "evaluate.dedupe_kept_ratio": (
        "ratio", "higher", ("evaluate.dedupe",),
        lambda g: _ratio(g("evaluate.dedupe", "out"), g("evaluate.dedupe", "in")), False,
    ),
    "evaluate.dot_counts_calls": (
        "count", "lower", ("evaluate.dot_counts",), lambda g: g("evaluate.dot_counts", "calls"), True,
    ),
    "evaluate.dot_counts_s": ("s", "lower", ("evaluate.dot_counts",), lambda g: g("evaluate.dot_counts", "self"), True),
    "evaluate.image_self_s": ("s", "lower", ("evaluate.image",), lambda g: g("evaluate.image", "self"), True),
    "evaluate.permanent_s": ("s", "lower", ("evaluate.permanent",), lambda g: g("evaluate.permanent", "self"), True),
    "identities.sweep_self_s": ("s", "lower", ("identities.sweep",), lambda g: g("identities.sweep", "self"), True),
    "identities.checks": ("count", "lower", ("identities.sweep",), lambda g: g("identities.sweep", "items"), True),
    "identities.union_s": ("s", "lower", ("identities.union",), lambda g: g("identities.union", "busy"), True),
    "identities.walk_s": ("s", "lower", ("identities.walk",), lambda g: g("identities.walk", "busy"), True),
    "report.to_json_s": ("s", "lower", ("report.to_json",), lambda g: g("report.to_json", "self"), True),
    "report.records": ("count", "lower", ("report.to_json",), lambda g: g("report.to_json", "calls"), True),
    "modring.solve_calls": ("count", "lower", ("modring.solve",), lambda g: g("modring.solve", "calls"), True),
    "modring.solve_s": ("s", "lower", ("modring.solve",), lambda g: g("modring.solve", "self"), True),
    "asymptotic.contain_s": ("s", "lower", ("asymptotic.contain",), lambda g: g("asymptotic.contain", "self"), True),
    "asymptotic.contain_points": (
        "count", "lower", ("asymptotic.contain",), lambda g: g("asymptotic.contain", "points"), True,
    ),
    "asymptotic.hypocycloid_self_s": (
        "s", "lower", ("asymptotic.hypocycloid",), lambda g: g("asymptotic.hypocycloid", "self"), True,
    ),
    "asymptotic.reduce_s": ("s", "lower", ("asymptotic.reduce",), lambda g: g("asymptotic.reduce", "self"), True),
    "asymptotic.torus_s": ("s", "lower", ("asymptotic.torus",), lambda g: g("asymptotic.torus", "self"), True),
    "asymptotic.torus_points": ("count", "lower", ("asymptotic.torus",), lambda g: g("asymptotic.torus", "points"), True),
    "table.build_s": ("s", "lower", ("table.build",), lambda g: g("table.build", "self"), True),
    "table.unitary_s": ("s", "lower", ("table.unitary",), lambda g: g("table.unitary", "self"), True),
    "table.orbits": ("count", "lower", ("table.build",), lambda g: g("table.build", "orbits"), True),
    "render.stamp_s": ("s", "lower", ("render.stamp",), lambda g: g("render.stamp", "self"), True),
    "render.points_stamped": ("count", "lower", ("render.stamp",), lambda g: g("render.stamp", "points"), True),
    "render.encode_s": ("s", "lower", ("render.encode",), lambda g: g("render.encode", "self"), True),
    "render.pixels": ("count", "lower", ("render.encode",), lambda g: g("render.encode", "pixels"), True),
    "render.png_bytes": ("B", "lower", ("render.encode",), lambda g: g("render.encode", "bytes"), True),
    "render.write_s": ("s", "lower", ("render.write",), lambda g: g("render.write", "self"), True),
    "render.export_s": ("s", "lower", ("render.export",), lambda g: g("render.export", "self"), True),
    "cli.self_s": ("s", "lower", ("cli",), lambda g: g("cli", "self"), True),
}

# Measured by run.py around the traced jobs rather than from spans.
RUN_METRICS = {
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.attributed_frac": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


def layer_metrics(spans: list[Span], missing: set[str], passes: int) -> dict[str, float]:
    """Per-layer values per pass; a metric whose spans lost a target is left out."""
    agg = aggregate(spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    out = {}
    for metric, (_, _, needs, value, per_pass) in LAYER_METRICS.items():
        if missing.intersection(needs):
            continue
        v = value(get)
        out[metric] = v / passes if per_pass else v
    return out
