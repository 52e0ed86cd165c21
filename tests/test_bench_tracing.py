"""The benchmark's span tracer against the package it wraps.

A refactor that renames a wrapped function, an argument a tracer hook
reads or a result field it reads drops per-layer metrics from the traced
benchmark run's result without failing the run.  This test runs a small
RANSAC and trimmed refit with the tracer installed and checks that every
per-layer metric that BENCHMARK.json declares is still measured.
"""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from rsdiffsfm import RansacConfig, benchmark_config, generate_discrete
from rsdiffsfm.synth import CONST_ACCEL

from conftest import make_spec

ROOT = Path(__file__).resolve().parents[1]

# wrap points the tracer still lists for functions the package no longer
# binds in `robust` or `experiment`; the solver spans are taken from their
# defining modules, and a sweep calls `ransac_stack` and binds
# `generate_discrete` as `generate_scenes`
STALE_POINTS = {"robust.solve_gs", "robust.solve_const_velocity", "robust.solve_const_accel",
                "experiment.ransac", "experiment.generate_discrete"}


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_measures_every_declared_per_layer_metric():
    tracing, run = bench_module("tracing"), bench_module("run")
    robust = importlib.import_module("rsdiffsfm.robust")
    camera = benchmark_config(0.8)
    samples, _ = generate_discrete(make_spec(camera, n_points=200, k=0.1, seed=3))
    tracer = tracing.Tracer()
    with tracer.installed():
        # through module attributes, which the tracer wraps
        result = robust.ransac(samples, CONST_ACCEL, camera, RansacConfig(iterations=30, seed=3))
        robust.refit_trimmed(samples, result, CONST_ACCEL, camera)
    assert set(tracer.unmeasured) == STALE_POINTS
    assert not any(point.endswith(" counters") for point in tracer.unmeasured)
    metrics, unmeasured = tracing.layer_metrics(tracer)
    assert unmeasured == {}
    assert all(math.isfinite(value) for value, _ in metrics.values())
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared <= set(metrics) | {name for name, _ in run.LAYER_EXTRA}
    # the refine hook read the loop's fields
    counts = tracer.counters()
    assert counts["refine.refine.ok"] == 1 and counts["refine.cycles"] > 0
    assert counts["refine.converged"] == 1 and counts.get("refine.capped", 0) == 0
    assert np.isclose(metrics["refine.cycles_mean"][0], counts["refine.cycles"])
