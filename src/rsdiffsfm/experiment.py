"""Benchmark sweeps over synthetic scenes: the verification harness behind
the trend experiments (readout-ratio and acceleration sweeps)."""

from __future__ import annotations

import dataclasses
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


def run_cell(cfg: ExperimentConfig, gamma, trans, w_mag, k, model):
    """Mean errors (trans_err, rot_err, trials) of one cell under one model:
    the row of `run_sweep` on that cell alone, with the scenes and log line a
    larger sweep gives it; only RANSAC's library errors drop a trial."""
    return run_sweep(dataclasses.replace(cfg, gammas=[gamma], translations=[trans],
                                         w_mags=[w_mag], ks=[k], models=[model]))[0][5:]


def _cell_row(axes, model, trials):
    """The (trans_err, rot_err, trials) row of a cell under a model from its
    trials, each the library error of its RANSAC or the (refit state, RANSAC
    result, truth) of a kept trial, after the cell's log line."""
    mine = [trial for trial in trials if not isinstance(trial, RsSfmError)]
    dropped = Counter(type(trial).__name__ for trial in trials if isinstance(trial, RsSfmError))
    refits = [state for state, _, _ in mine if state]
    failures = sum((Counter(result.failures) for _, result, _ in mine), Counter())
    logger.info("sweep cell gamma=%r trans=%r w_mag=%r k=%r model=%s: %d of %d trials kept, "
                "dropped %s; %d hypotheses, subset failures %s; refits %s in %d cycles, "
                "%d accepted steps", *axes, model, len(mine), len(trials), dict(dropped),
                sum(result.n_hypotheses for _, result, _ in mine), dict(failures),
                dict(Counter(s.stop_reason for s in refits)), sum(s.n_cycles for s in refits),
                sum(s.lm_iterations for s in refits))
    if not mine:
        return np.nan, np.nan, 0
    t_errs = [translation_error((state or result).motion.v, gt.v) for state, result, gt in mine]
    r_errs = [rotation_error((state or result).motion.w, gt.w) for state, result, gt in mine]
    return float(np.mean(t_errs)), float(np.mean(r_errs)), len(mine)


def run_sweep(cfg: ExperimentConfig):
    """One (gamma, trans, w_mag, k, model, trans_err, rot_err, trials) row
    per cell and model, in deterministic axis order.

    Each trial scene is synthesized once and estimated with every model: one
    `ransac_stack` over the trials of every cell and model, then one
    `refit_trimmed` of every kept trial.  A trial is dropped only where its
    RANSAC gives a library error, such as RobustFailure for a scene with
    fewer samples than the model's minimal subset; the refit raises none on
    samples RANSAC took.  One log line per cell and model counts the drops
    by error type, the hypotheses its kept trials' RANSAC solved with the
    subsets that gave none by error type, and the refits by stop reason with
    their cycles.
    """
    cells = [(axes, _cell_scenes(cfg, *axes))
             for axes in product(cfg.gammas, cfg.translations, cfg.w_mags, cfg.ks)]
    # model by model, so that the problems of one subset size run together
    problems = [(samples, model, cfg.camera(axes[0]),
                 RansacConfig(iterations=cfg.ransac_iters, threshold=cfg.threshold, seed=seed + 1))
                for model in cfg.models for axes, scenes in cells for seed, samples, _ in scenes]
    results = ransac_stack(problems)
    kept = [(samples, result, model, camera) for (samples, model, camera, _), result
            in zip(problems, results) if not isinstance(result, RsSfmError)]
    states = iter(refit_trimmed(*zip(*kept)) if cfg.use_refine and kept else ())
    truths = [gt.motion for _, scenes in cells for *_, gt in scenes] * len(cfg.models)
    trials = [result if isinstance(result, RsSfmError) else (next(states, None), result, truth)
              for result, truth in zip(results, truths)]
    groups = [trials[p:p + cfg.trials] for p in range(0, len(trials), cfg.trials)]
    return [(*axes, model, *_cell_row(axes, model, groups[m * len(cells) + i]))
            for i, (axes, _) in enumerate(cells) for m, model in enumerate(cfg.models)]


def sweep_csv(rows):
    lines = [CSV_HEADER]
    for gamma, trans, w_mag, k, model, te, re, n in rows:
        lines.append(f"{gamma!r},{trans!r},{w_mag!r},{k!r},{model},{te!r},{re!r},{n}")
    return "\n".join(lines) + "\n"
