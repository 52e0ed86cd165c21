"""Span tracer for the traced benchmark run.

The tracer wraps the package's public functions at module boundaries, so
every call into a layer is timed from outside the layer; no source of the
package is edited.  Spans live in memory (name, parent, thread, start, end)
and each span's self time is its duration minus that of its direct children
on the same thread.  Nothing is installed unless `install` is called, so the
untraced runs execute the package exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "rsdiffsfm"

# Every wrap point as (module, attribute).  A module that imports a function
# by name holds its own binding, which a wrapper on the defining module does
# not reach, so each such binding is listed beside its definition.  Spans are
# named after the defining module, so all bindings of one function add up.
WRAP_POINTS = (
    ("experiment", "run_cell"),
    ("synth", "generate_discrete"),
    ("experiment", "generate_discrete"),
    ("cli", "generate_discrete"),
    ("gs_solver", "solve_gs"),
    ("robust", "solve_gs"),
    ("rs_solvers", "solve_const_velocity"),
    ("robust", "solve_const_velocity"),
    ("rs_solvers", "solve_const_accel"),
    ("robust", "solve_const_accel"),
    ("rs_solvers", "det_polynomial"),
    ("robust", "ransac"),
    ("experiment", "ransac"),
    ("cli", "ransac"),
    ("robust", "score_motion"),
    ("robust", "refit_trimmed"),
    ("experiment", "refit_trimmed"),
    ("cli", "refit_trimmed"),
    ("refine", "refine"),
    ("refine", "dense_depth"),
    ("cli", "dense_depth"),
    ("rectify", "warp_field"),
    ("cli", "warp_field"),
    ("rectify", "rectify_image"),
    ("cli", "rectify_image"),
    ("io_formats", "read_flow"),
    ("io_formats", "read_pfm"),
    ("io_formats", "write_pfm"),
    ("io_formats", "read_pnm"),
    ("io_formats", "write_pnm"),
)

MINIMAL_SOLVERS = ("gs_solver.solve_gs", "rs_solvers.solve_const_velocity",
                   "rs_solvers.solve_const_accel")
MINIMAL_FAILURES = ("DegenerateConfiguration", "NoRealSolution", "InvalidScanlinePair")


class Tracer:
    """Collects spans and counters; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, thread id, start, end, self time)
        self.unmeasured = {}  # wrap point -> reason it could not be wrapped
        self._counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._installed = []

    # -- wrapping -----------------------------------------------------------

    def install(self):
        for module_name, attr in WRAP_POINTS:
            point = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError as exc:
                self.unmeasured[point] = f"module not importable: {exc}"
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.unmeasured[point] = f"{PACKAGE}.{module_name} has no attribute {attr!r}"
                continue
            if not callable(fn):
                self.unmeasured[point] = f"{PACKAGE}.{point} is not callable"
                continue
            name = f"{getattr(fn, '__module__', module_name).rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, fn))
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as parent:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    self._on_raise(name, parent, exc)
                    raise
                if parent == "robust.ransac" and name in MINIMAL_SOLVERS:
                    self.add("robust.minimal_calls", 1)
                self.add(f"{name}.ok", 1)
                if hook:
                    self._run_hook(name, hook, signature, args, kwargs, result)
                return result

        return wrapper

    def _run_hook(self, name, hook, signature, args, kwargs, result):
        # a refactor may rename an argument or a result field; the counters
        # of that span then go unmeasured instead of failing the run
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self, bound.arguments, result)
        except (KeyError, AttributeError, TypeError, IndexError) as exc:
            with self._lock:
                self.unmeasured.setdefault(f"{name} counters", f"{type(exc).__name__}: {exc}")

    def _on_raise(self, name, parent, exc):
        if parent == "robust.ransac" and name in MINIMAL_SOLVERS:
            self.add("robust.minimal_calls", 1)
            self.add("robust.minimal_failed", 1)
            self.add(f"robust.minimal_fail.{type(exc).__name__}", 1)
        else:
            self.add(f"{name}.raised.{type(exc).__name__}", 1)

    # -- spans and counters -------------------------------------------------

    @contextmanager
    def span(self, name):
        """Time a block as a span; yields the enclosing span's name."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        entry = [next(self._ids), name, 0.0]  # id, name, children's time
        stack.append(entry)
        start = time.perf_counter()
        try:
            yield parent[1] if parent else None
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent:
                parent[2] += duration
            self.spans.append((entry[0], parent[0] if parent else None, name,
                               threading.get_ident(), start, end, duration - entry[2]))

    def add(self, key, value):
        with self._lock:
            self._counts[key] += value

    # -- summaries ----------------------------------------------------------

    def summary(self):
        """Per span name: calls, self seconds and inclusive seconds."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for _, _, name, _, start, end, self_s in self.spans:
            s = out[name]
            s["calls"] += 1
            s["self_s"] += self_s
            s["total_s"] += end - start
        return dict(out)

    def counters(self):
        return dict(self._counts)


def _on_generate(tr, args, result):
    tr.add("synth.points", args["spec"].n_points)
    tr.add("synth.discarded", result[1].n_discarded)


def _on_accel(tr, args, result):
    tr.add("rs_solvers.roots", len(result))


def _on_ransac(tr, args, result):
    tr.add("robust.iterations", result.n_iterations)
    tr.add("robust.valid_iterations", result.n_valid_iterations)
    tr.add("robust.inlier_share_sum", len(result.inliers) / len(args["samples"]))


def _on_refine(tr, args, result):
    tr.add("refine.cycles", result.n_cycles)
    tr.add("refine.converged", int(result.converged))
    tr.add("refine.capped", int(result.n_cycles >= args["max_cycles"] and not result.converged))


def _on_rectify_image(tr, args, result):
    tr.add("rectify.gap_sum", result[1])


def _on_read_flow(tr, args, result):
    tr.add("io_formats.read_flow.bytes", os.path.getsize(args["path"]))


_HOOKS = {
    "synth.generate_discrete": _on_generate,
    "rs_solvers.solve_const_accel": _on_accel,
    "robust.ransac": _on_ransac,
    "refine.refine": _on_refine,
    "rectify.rectify_image": _on_rectify_image,
    "io_formats.read_flow": _on_read_flow,
}


def _self(name):
    return lambda summ, cnt: summ.get(name, {}).get("self_s", 0.0)


def _calls(name):
    return lambda summ, cnt: summ.get(name, {}).get("calls", 0)


def _ratio(num, den):
    def value(summ, cnt):
        d = cnt.get(den, 0.0)
        return cnt.get(num, 0.0) / d if d else 0.0
    return value


def _count(key):
    return lambda summ, cnt: cnt.get(key, 0.0)


# Per-layer metrics of the traced run: (name, unit, wrap point it needs, value).
# Times are self times summed over threads.  A ratio whose denominator never
# occurred on a workload reads 0.
PER_LAYER = [
    ("experiment.run_cell.s", "s", "experiment.run_cell", _self("experiment.run_cell")),
    ("experiment.run_cell.calls", "count", "experiment.run_cell", _calls("experiment.run_cell")),
    ("synth.generate_discrete.s", "s", "synth.generate_discrete", _self("synth.generate_discrete")),
    ("synth.generate_discrete.calls", "count", "synth.generate_discrete",
     _calls("synth.generate_discrete")),
    ("synth.discard_frac", "ratio", "synth.generate_discrete",
     _ratio("synth.discarded", "synth.points")),
    ("gs_solver.solve_gs.s", "s", "gs_solver.solve_gs", _self("gs_solver.solve_gs")),
    ("gs_solver.solve_gs.calls", "count", "gs_solver.solve_gs", _calls("gs_solver.solve_gs")),
    ("rs_solvers.solve_const_velocity.s", "s", "rs_solvers.solve_const_velocity",
     _self("rs_solvers.solve_const_velocity")),
    ("rs_solvers.solve_const_velocity.calls", "count", "rs_solvers.solve_const_velocity",
     _calls("rs_solvers.solve_const_velocity")),
    ("rs_solvers.solve_const_accel.s", "s", "rs_solvers.solve_const_accel",
     _self("rs_solvers.solve_const_accel")),
    ("rs_solvers.solve_const_accel.calls", "count", "rs_solvers.solve_const_accel",
     _calls("rs_solvers.solve_const_accel")),
    ("rs_solvers.det_polynomial.s", "s", "rs_solvers.det_polynomial",
     _self("rs_solvers.det_polynomial")),
    ("rs_solvers.det_polynomial.calls", "count", "rs_solvers.det_polynomial",
     _calls("rs_solvers.det_polynomial")),
    ("rs_solvers.roots_per_solve", "count", "rs_solvers.solve_const_accel",
     _ratio("rs_solvers.roots", "rs_solvers.solve_const_accel.ok")),
    ("robust.ransac.s", "s", "robust.ransac", _self("robust.ransac")),
    ("robust.ransac.calls", "count", "robust.ransac", _calls("robust.ransac")),
    ("robust.score_motion.s", "s", "robust.score_motion", _self("robust.score_motion")),
    ("robust.score_motion.calls", "count", "robust.score_motion", _calls("robust.score_motion")),
    ("robust.minimal_fail_frac", "ratio", "robust.ransac",
     _ratio("robust.minimal_failed", "robust.minimal_calls")),
    *[(f"robust.minimal_fail.{t}", "count", "robust.ransac", _count(f"robust.minimal_fail.{t}"))
      for t in MINIMAL_FAILURES],
    ("robust.valid_iter_frac", "ratio", "robust.ransac",
     _ratio("robust.valid_iterations", "robust.iterations")),
    ("robust.inlier_frac", "ratio", "robust.ransac",
     _ratio("robust.inlier_share_sum", "robust.ransac.ok")),
    ("robust.refit_trimmed.s", "s", "robust.refit_trimmed", _self("robust.refit_trimmed")),
    ("refine.refine.s", "s", "refine.refine", _self("refine.refine")),
    ("refine.refine.calls", "count", "refine.refine", _calls("refine.refine")),
    ("refine.cycles_mean", "count", "refine.refine", _ratio("refine.cycles", "refine.refine.ok")),
    ("refine.cap_frac", "ratio", "refine.refine", _ratio("refine.capped", "refine.refine.ok")),
    ("refine.converged_frac", "ratio", "refine.refine",
     _ratio("refine.converged", "refine.refine.ok")),
    ("refine.dense_depth.s", "s", "refine.dense_depth", _self("refine.dense_depth")),
    ("rectify.warp_field.s", "s", "rectify.warp_field", _self("rectify.warp_field")),
    ("rectify.rectify_image.s", "s", "rectify.rectify_image", _self("rectify.rectify_image")),
    ("rectify.gap_fraction", "ratio", "rectify.rectify_image",
     _ratio("rectify.gap_sum", "rectify.rectify_image.ok")),
    ("io_formats.read_flow.s", "s", "io_formats.read_flow", _self("io_formats.read_flow")),
    ("io_formats.read_flow.bytes", "bytes", "io_formats.read_flow",
     _count("io_formats.read_flow.bytes")),
    ("io_formats.read_pfm.s", "s", "io_formats.read_pfm", _self("io_formats.read_pfm")),
    ("io_formats.write_pfm.s", "s", "io_formats.write_pfm", _self("io_formats.write_pfm")),
    ("io_formats.read_pnm.s", "s", "io_formats.read_pnm", _self("io_formats.read_pnm")),
    ("io_formats.write_pnm.s", "s", "io_formats.write_pnm", _self("io_formats.write_pnm")),
    # spans the benchmark opens around its in-process CLI calls
    ("cli.estimate.self_s", "s", None, _self("cli.estimate")),
    ("cli.depth.self_s", "s", None, _self("cli.depth")),
    ("cli.rectify.self_s", "s", None, _self("cli.rectify")),
]


def layer_metrics(tracer):
    """(metrics, unmeasured): name -> (value, unit) and name -> reason."""
    summ, cnt = tracer.summary(), tracer.counters()
    metrics, unmeasured = {}, {}
    for name, unit, point, value in PER_LAYER:
        reason = tracer.unmeasured.get(point) if point else None
        if reason is None and point and f"{point} counters" in tracer.unmeasured \
                and not name.endswith((".s", ".calls")):
            reason = tracer.unmeasured[f"{point} counters"]
        if reason is not None:
            unmeasured[name] = reason
        else:
            metrics[name] = (float(value(summ, cnt)), unit)
    return metrics, unmeasured
