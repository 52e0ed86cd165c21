"""Benchmark sweeps over synthetic scenes: the verification harness behind
the trend experiments (readout-ratio and acceleration sweeps)."""

from __future__ import annotations

import logging
from collections import Counter
from itertools import product

import numpy as np

from .errors import RsSfmError
from .geometry import CameraConfig
from .io_formats import ExperimentConfig
from .robust import RansacConfig, ransac, refit_trimmed
from .synth import SceneSpec, generate_discrete, rotation_error, translation_error

CSV_HEADER = "gamma,norm_translation,w_mag_deg,k,model,trans_err_deg,rot_err_deg,trials"

logger = logging.getLogger(__name__)


def _camera(cfg: ExperimentConfig, gamma):
    n = cfg.image_size
    return CameraConfig(
        gamma=gamma, h=n, fx=cfg.focal, fy=cfg.focal, cx=n / 2.0, cy=n / 2.0, width=n
    )


def _scene_spec(cfg: ExperimentConfig, gamma, trans, w_mag, k, seed):
    """The scene of a sweep's (gamma, trans, w_mag, k) point with the given seed."""
    return SceneSpec(
        config=_camera(cfg, gamma),
        n_points=cfg.n_points,
        depth_range=(cfg.depth_min, cfg.depth_max),
        norm_translation=trans,
        w_mag_deg=w_mag,
        k=k,
        seed=seed,
    )


def estimate_motion(samples, model, camera, ransac_iters, threshold, seed, use_refine):
    """One estimation run: RANSAC over the minimal solver, optional refinement."""
    rc = RansacConfig(iterations=ransac_iters, threshold=threshold, seed=seed)
    result = ransac(samples, model, camera, rc)
    motion = result.motion
    if use_refine:
        motion = refit_trimmed(samples, result, model, camera).motion
    return motion


def _cell_scenes(cfg: ExperimentConfig, gamma, trans, w_mag, k):
    """The seeded trial scenes at one (gamma, trans, w_mag, k) of a sweep,
    one (seed, samples, truth) per trial.

    The scenes do not depend on the model, so a sweep estimates every model
    on the same ones.
    """
    scenes = []
    for trial in range(cfg.trials):
        seed = hash((cfg.seed, round(gamma, 9), round(trans, 9), round(w_mag, 9),
                     round(k, 9), trial)) % (2**31)
        scenes.append((seed, *generate_discrete(_scene_spec(cfg, gamma, trans, w_mag, k, seed))))
    return scenes


def run_cell(cfg: ExperimentConfig, gamma, trans, w_mag, k, model, scenes=None):
    """Mean errors of one sweep cell over cfg.trials seeded trials.

    scenes holds the cell's trial scenes, one (seed, samples, truth) per
    trial, as `run_sweep` passes them.  The None default, which synthesizes
    them here, keeps the public single-cell call working.  A trial is dropped
    when its scene has fewer than 9 samples or its estimation raises a
    library error; one log line per cell counts the drops by reason.
    """
    camera = _camera(cfg, gamma)
    if scenes is None:
        scenes = _cell_scenes(cfg, gamma, trans, w_mag, k)
    t_errs, r_errs, dropped = [], [], Counter()
    for seed, samples, gt in scenes:
        if len(samples) < 9:
            dropped["too_few_samples"] += 1
            continue
        try:
            motion = estimate_motion(
                samples, model, camera, cfg.ransac_iters, cfg.threshold,
                seed=seed + 1, use_refine=cfg.use_refine,
            )
        except RsSfmError as exc:
            dropped[type(exc).__name__] += 1
            continue
        t_errs.append(translation_error(motion.v, gt.motion.v))
        r_errs.append(rotation_error(motion.w, gt.motion.w))
    logger.info("sweep cell gamma=%r trans=%r w_mag=%r k=%r model=%s: %d of %d trials kept, "
                "dropped %s", gamma, trans, w_mag, k, model, len(t_errs), len(scenes),
                dict(dropped))
    if not t_errs:
        return np.nan, np.nan, 0
    return float(np.mean(t_errs)), float(np.mean(r_errs)), len(t_errs)


def run_sweep(cfg: ExperimentConfig):
    """All cells of the sweep; rows in deterministic axis order.

    Each trial scene is synthesized once and estimated with every model.
    """
    rows = []
    for axes in product(cfg.gammas, cfg.translations, cfg.w_mags, cfg.ks):
        scenes = _cell_scenes(cfg, *axes)
        rows += [(*axes, model, *run_cell(cfg, *axes, model, scenes)) for model in cfg.models]
    return rows


def sweep_csv(rows):
    lines = [CSV_HEADER]
    for gamma, trans, w_mag, k, model, te, re, n in rows:
        lines.append(f"{gamma!r},{trans!r},{w_mag!r},{k!r},{model},{te!r},{re!r},{n}")
    return "\n".join(lines) + "\n"
