"""Benchmark sweeps over synthetic scenes: the verification harness behind
the trend experiments (readout-ratio and acceleration sweeps)."""

from __future__ import annotations

import logging
from collections import Counter
from itertools import product

import numpy as np

from .errors import RsSfmError
from .io_formats import ExperimentConfig
from .robust import RansacConfig, ransac_stack, refit_trimmed
# a sweep synthesizes each cell's scenes in one call on their spec list,
# through a binding of its own: the benchmark's tracer wraps the bindings
# named `generate_discrete` with a hook that reads one spec
from .synth import SceneSpec, rotation_error, translation_error
from .synth import generate_discrete as generate_scenes

CSV_HEADER = "gamma,norm_translation,w_mag_deg,k,model,trans_err_deg,rot_err_deg,trials"

logger = logging.getLogger(__name__)


def _scene_spec(cfg: ExperimentConfig, gamma, trans, w_mag, k, seed):
    """The scene of a sweep's (gamma, trans, w_mag, k) point with the given seed."""
    return SceneSpec(
        config=cfg.camera(gamma),
        n_points=cfg.n_points,
        depth_range=(cfg.depth_min, cfg.depth_max),
        norm_translation=trans,
        w_mag_deg=w_mag,
        k=k,
        seed=seed,
    )


def _cell_scenes(cfg: ExperimentConfig, gamma, trans, w_mag, k):
    """The seeded trial scenes at one (gamma, trans, w_mag, k) of a sweep,
    one (seed, samples, truth) per trial.

    The scenes are synthesized in one `generate_discrete` call.  They do not
    depend on the model, so a sweep estimates every model on the same ones.
    """
    seeds = [hash((cfg.seed, round(gamma, 9), round(trans, 9), round(w_mag, 9), round(k, 9),
                   trial)) % (2**31) for trial in range(cfg.trials)]
    specs = [_scene_spec(cfg, gamma, trans, w_mag, k, seed) for seed in seeds]
    return [(seed, *scene) for seed, scene in zip(seeds, generate_scenes(specs))]


def run_cell(cfg: ExperimentConfig, gamma, trans, w_mag, k, model, scenes=None):
    """Mean errors of one sweep cell over cfg.trials seeded trials.

    scenes holds the cell's trial scenes, one (seed, samples, truth) per
    trial, as `run_sweep` passes them.  The None default, which synthesizes
    them here, keeps the public single-cell call working.  A trial is dropped
    when its scene has fewer than 9 samples or its RANSAC raises a library
    error (the refit raises none on samples RANSAC took); one log line per
    cell counts the drops by reason, the hypotheses its kept trials' RANSAC
    solved with the subsets that gave none by error type, and the refits by
    stop reason with their cycles.
    """
    if scenes is None:
        scenes = _cell_scenes(cfg, gamma, trans, w_mag, k)
    return _run_cells(cfg, [((gamma, trans, w_mag, k), scenes)], [model])[0][0]


def _run_cells(cfg: ExperimentConfig, cells, models):
    """`run_cell` of each (axes, scenes) cell under each model, as one list
    of rows per model: one `ransac_stack` over the trials of every cell and
    model, then one `refit_trimmed` of every kept trial."""
    trials, few = [], [Counter() for _ in cells]
    for i, ((gamma, *_), scenes) in enumerate(cells):
        camera = cfg.camera(gamma)
        for seed, samples, gt in scenes:
            if len(samples) < 9:
                few[i]["too_few_samples"] += 1
                continue
            rc = RansacConfig(iterations=cfg.ransac_iters, threshold=cfg.threshold, seed=seed + 1)
            trials.append((i, samples, camera, rc, gt.motion))
    # model by model, so that the problems of one subset size run together
    problems = [(m, model, trial) for m, model in enumerate(models) for trial in trials]
    results = ransac_stack([(samples, model, camera, rc)
                            for _, model, (_, samples, camera, rc, _) in problems])
    kept = {(m, i): [] for m in range(len(models)) for i in range(len(cells))}
    dropped = {(m, i): few[i].copy() for m, i in kept}
    for (m, model, (i, samples, camera, _, truth)), result in zip(problems, results):
        if isinstance(result, RsSfmError):
            dropped[m, i][type(result).__name__] += 1
        else:
            kept[m, i].append([model, samples, camera, result, truth, None])
    refits = [trial for cell in kept.values() for trial in cell]
    if cfg.use_refine and refits:
        refit_models, samples, cameras, results, _, _ = zip(*refits)
        for trial, state in zip(refits, refit_trimmed(samples, results, refit_models, cameras)):
            trial[-1] = state
    return [[_cell_row(axes, model, len(scenes), dropped[m, i],
                       [(state, result, truth) for *_, result, truth, state in kept[m, i]])
             for i, (axes, scenes) in enumerate(cells)] for m, model in enumerate(models)]


def _cell_row(axes, model, n_scenes, dropped, mine):
    """The (trans_err, rot_err, trials) row of a cell under a model from the
    (refit state, RANSAC result, truth) of its kept trials, after the
    cell's log line."""
    refits = [state for state, _, _ in mine if state]
    failures = sum((Counter(result.failures) for _, result, _ in mine), Counter())
    logger.info("sweep cell gamma=%r trans=%r w_mag=%r k=%r model=%s: %d of %d trials kept, "
                "dropped %s; %d hypotheses, subset failures %s; refits %s in %d cycles, "
                "%d accepted steps", *axes, model, len(mine), n_scenes, dict(dropped),
                sum(result.n_hypotheses for _, result, _ in mine), dict(failures),
                dict(Counter(s.stop_reason for s in refits)), sum(s.n_cycles for s in refits),
                sum(s.lm_iterations for s in refits))
    if not mine:
        return np.nan, np.nan, 0
    t_errs = [translation_error((state or result).motion.v, gt.v) for state, result, gt in mine]
    r_errs = [rotation_error((state or result).motion.w, gt.w) for state, result, gt in mine]
    return float(np.mean(t_errs)), float(np.mean(r_errs)), len(mine)


def run_sweep(cfg: ExperimentConfig):
    """All cells of the sweep; rows in deterministic axis order.

    Each trial scene is synthesized once and estimated with every model;
    the kept trials of all cells and models are refit as one stack.
    """
    cells = [(axes, _cell_scenes(cfg, *axes))
             for axes in product(cfg.gammas, cfg.translations, cfg.w_mags, cfg.ks)]
    by_model = _run_cells(cfg, cells, cfg.models)
    return [(*axes, model, *rows[i]) for i, (axes, _) in enumerate(cells)
            for model, rows in zip(cfg.models, by_model)]


def sweep_csv(rows):
    lines = [CSV_HEADER]
    for gamma, trans, w_mag, k, model, te, re, n in rows:
        lines.append(f"{gamma!r},{trans!r},{w_mag!r},{k!r},{model},{te!r},{re!r},{n}")
    return "\n".join(lines) + "\n"
