"""Span tracing of ebstab's layers, installed from outside the package.

The tracer replaces functions and methods of the imported ``ebstab``
modules with wrappers; nothing under ``src/`` is edited.  Each wrapped
call that enters a layer records a span (layer, op id, parent span, start,
end) in columnar arrays that stay in memory until the run ends.  A call
made while the same layer is already open is passed straight through, so
``expressions.value`` counts calls entering an expression tree, not the
nested node calls below it.

Several ebstab modules import functions by name (``from .moduli import
eta_global``), so every patch replaces the function under each module
attribute that refers to it, not only where it is defined.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


LAYERS = (
    "cli",
    "expressions.value", "expressions.subdiff", "expressions.dd",
    "geometry.set_calculus", "geometry.min_norm", "geometry.interior_beta",
    "sphere.beta", "sampling",
    "moduli.bisect", "moduli.distance", "moduli.pull", "moduli.eta_global",
    "moduli.eta_local", "moduli.boundary_sample", "moduli.qc_search",
    "moduli.condition39",
    "systems.active_set", "problems.parse", "reports.emit", "sweep",
)

# counters fed by the wrappers in instrument(), reported as they stand
COUNTERS = (
    "geometry.min_norm.wolfe_iters", "geometry.interior_beta.sampled",
    "geometry.interior_beta.undetermined",
    "geometry.interior_beta.facet_subsets", "sampling.box_draws",
    "sampling.points_drawn", "moduli.bisect.steps",
    "moduli.eta_global.tightened", "moduli.eta_local.resampled",
    "moduli.boundary_sample.points", "moduli.qc_search.witnesses",
    "systems.interval_cache_members", "reports.bytes", "sweep.rows",
)


class Tracer:
    def __init__(self):
        self._open = [0] * len(LAYERS)      # per layer: 1 while a span is open
        self.span_layer = array("i")
        self.span_op = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self.absent: set[str] = set()       # targets or fields the program lacks
        self.installed: set[str] = set()    # layers with a wrapped target

    # -- wrapping ---------------------------------------------------------

    def spanned(self, layer: str, fn, observe=None):
        """Wrap fn so each call entering `layer` records a span; observe,
        if given, sees (args, result) of every recorded call."""
        lid = LAYERS.index(layer)
        self.installed.add(layer)
        is_open = self._open
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_open[lid]:
                return fn(*args, **kwargs)
            sid = len(self.span_start)
            self.span_layer.append(lid)
            self.span_op.append(self.op_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(math.nan)
            is_open[lid] = 1
            stack.append(sid)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[sid] = clock()
                stack.pop()
                is_open[lid] = 0
            if observe is not None:
                self._observe(observe, args, result)
            return result

        return wrapper

    def counted(self, fn, observe=None, on_error=None):
        """Wrap fn without a span: observe sees (args, result), on_error
        sees the exception before it propagates."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if observe is not None:
                self._observe(observe, args, result)
            return result

        return wrapper

    def _observe(self, observe, args, result):
        """Feed a counter; a program whose results no longer carry the
        observed field is reported under `absent`, not failed."""
        try:
            observe(args, result)
        except (AttributeError, TypeError, IndexError) as exc:
            self.absent.add(f"{observe.__qualname__}: {exc}")

    def patch_function(self, modules, home, name: str, make):
        """Replace function `name` of module `home` by make(fn) under every
        attribute of `modules` that refers to the same object."""
        fn = getattr(home, name, None)
        if fn is None:
            self.absent.add(f"{home.__name__}.{name}")
            return
        wrapped = make(fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)

    def patch_method(self, cls, name: str, make):
        fn = cls.__dict__.get(name)
        if fn is None:
            self.absent.add(f"{cls.__name__}.{name}")
            return
        setattr(cls, name, make(fn))

    # -- results ----------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, busy seconds and self seconds per layer.  A span's self
        time is its duration minus the part covered by its child spans;
        spans nest strictly here, so the covered part is their sum."""
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.shape[0])
        k = len(LAYERS)
        calls = np.bincount(layer, minlength=k)
        busy = np.bincount(layer, weights=dur, minlength=k)
        own = np.bincount(layer, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(busy[i]),
                   "self_s": float(own[i])}
            for i, name in enumerate(LAYERS)
        }

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        table = self.layer_times()
        count = self.counters
        out = {}
        for layer in LAYERS:
            rec = table[layer]
            out[f"{layer}.calls"] = (rec["calls"], "count")
            out[f"{layer}.s"] = (rec["s"], "s")
            out[f"{layer}.self_s"] = (rec["self_s"], "s")
        for key in COUNTERS:
            out[key] = (count[key], "count")
        out["sphere.beta.max_residual"] = (count["sphere.beta.max_residual"], "1")
        out["geometry.interior_beta.exact"] = (
            table["geometry.interior_beta"]["calls"]
            - count["geometry.interior_beta.sampled"]
            - count["geometry.interior_beta.undetermined"], "count")
        bisects = table["moduli.bisect"]["calls"]
        out["moduli.bisect.steps_per_call"] = (
            count["moduli.bisect.steps"] / bisects if bisects else 0.0, "count")
        checks = count["moduli.projection_certified.calls"]
        out["moduli.projection_certified.share"] = (
            count["moduli.projection_certified.true"] / checks if checks else 0.0,
            "share")
        out["trace.spans"] = (len(self.span_start), "count")
        return out

    def save(self, path) -> None:
        """Write every span to a compressed numpy archive."""
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def instrument(tracer: Tracer) -> None:
    """Wrap the entry points of every ebstab layer.  Layer names follow
    the module names; counters are named after the metric they feed."""
    from ebstab import (errors, expressions, geometry, moduli, problems,
                        reports, sampling, sphere, sweep, systems)

    mods = [m for name, m in sorted(sys.modules.items())
            if name == "ebstab" or name.startswith("ebstab.")]
    count = tracer.counters

    def span(layer, observe=None):
        return lambda fn: tracer.spanned(layer, fn, observe)

    def add(key, amount):
        count[key] += amount

    def patch(home, names, make):
        for name in names:
            tracer.patch_function(mods, home, name, make)

    nodes = [c for c in vars(expressions).values()
             if isinstance(c, type) and issubclass(c, expressions.ConvexExpr)
             and c is not expressions.ConvexExpr]
    for cls in nodes:
        tracer.patch_method(cls, "_value", span("expressions.value"))
        tracer.patch_method(cls, "_subdiff", span("expressions.subdiff"))
        tracer.patch_method(cls, "_dd", span("expressions.dd"))
        tracer.patch_method(cls, "_dd_batch", span("expressions.dd"))

    patch(geometry, ["add_sets", "merge_active_subdiffs", "adjoint_image_set",
                     "prune_to_extreme"], span("geometry.set_calculus"))
    patch(geometry, ["min_norm_point"], span(
        "geometry.min_norm",
        lambda a, r: add("geometry.min_norm.wolfe_iters", r.iterations)))
    patch(geometry, ["_inradius_at_origin"], span("geometry.interior_beta"))

    def facets(a, r):
        k, m = a[0].shape
        add("geometry.interior_beta.facet_subsets", math.comb(k, m))

    def undetermined(exc):
        if isinstance(exc, errors.UndeterminedInradius):
            add("geometry.interior_beta.undetermined", 1)

    patch(geometry, ["_hull_facets"], lambda fn: tracer.counted(fn, facets))
    patch(geometry, ["_inradius_sampled"], lambda fn: tracer.counted(
        fn, lambda a, r: add("geometry.interior_beta.sampled", 1),
        undetermined))

    def residual(a, r):
        key = "sphere.beta.max_residual"
        count[key] = max(count[key], r.residual)

    patch(sphere, ["beta"], span("sphere.beta", residual))

    def drawn(a, r):
        add("sampling.points_drawn", r.shape[0])

    def box_drawn(a, r):
        add("sampling.box_draws", 1)
        drawn(a, r)

    patch(sampling, ["box_points"], span("sampling", box_drawn))
    patch(sampling, ["ball_points", "unit_directions"], span("sampling", drawn))

    patch(moduli, ["_bisect_to_boundary"], span(
        "moduli.bisect", lambda a, r: add("moduli.bisect.steps", r[1])))
    patch(moduli, ["distance_to_solution_set"], span("moduli.distance"))

    def certified(a, r):
        add("moduli.projection_certified.calls", 1)
        add("moduli.projection_certified.true", bool(r))

    patch(moduli, ["_projection_certified"],
          lambda fn: tracer.counted(fn, certified))
    patch(moduli, ["_pull_to_solution_set"], span("moduli.pull"))
    patch(moduli, ["eta_global"], span(
        "moduli.eta_global",
        lambda a, r: add("moduli.eta_global.tightened", "tightened" in r.notes)))
    patch(moduli, ["eta_local"], span(
        "moduli.eta_local",
        lambda a, r: add("moduli.eta_local.resampled", "resampled" in r.notes)))
    patch(moduli, ["boundary_sample"], span(
        "moduli.boundary_sample",
        lambda a, r: add("moduli.boundary_sample.points", r.points.shape[0])))
    patch(moduli, ["qc_witness_search"], span(
        "moduli.qc_search",
        lambda a, r: add("moduli.qc_search.witnesses", len(r))))
    patch(moduli, ["check_condition_3_9"], span("moduli.condition39"))

    patch(systems, ["active_set"], span("systems.active_set"))

    def cache_size(a, r):
        key = "systems.interval_cache_members"
        count[key] = max(count[key], len(a[0]._cache))

    tracer.patch_method(systems.IntervalFamily, "member",
                        lambda fn: tracer.counted(fn, cache_size))

    patch(problems, ["parse_problem"], span("problems.parse"))
    patch(reports, ["emit_report"], span(
        "reports.emit", lambda a, r: add("reports.bytes", len(r))))
    patch(sweep, ["run_perturbation_sweep"], span(
        "sweep", lambda a, r: add("sweep.rows", len(r.rows))))
