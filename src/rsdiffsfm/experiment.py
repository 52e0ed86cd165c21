"""Benchmark sweeps over synthetic scenes: the verification harness behind
the trend experiments (readout-ratio and acceleration sweeps)."""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import RsSfmError
from .geometry import CameraConfig
from .io_formats import ExperimentConfig
from .robust import RansacConfig, ransac, refit_trimmed
from .synth import (
    CONST_ACCEL,
    CONST_VELOCITY,
    GLOBAL_SHUTTER,
    SceneSpec,
    generate_discrete,
    rotation_error,
    translation_error,
)

CSV_HEADER = "gamma,norm_translation,w_mag_deg,k,model,trans_err_deg,rot_err_deg,trials"


def _camera(cfg: ExperimentConfig, gamma):
    n = cfg.image_size
    return CameraConfig(
        gamma=gamma, h=n, fx=cfg.focal, fy=cfg.focal, cx=n / 2.0, cy=n / 2.0, width=n
    )


def estimate_motion(samples, model, camera, ransac_iters, threshold, seed, use_refine):
    """One estimation run: RANSAC over the minimal solver, optional refinement."""
    rc = RansacConfig(iterations=ransac_iters, threshold=threshold, seed=seed)
    result = ransac(samples, model, camera, rc)
    motion = result.motion
    if use_refine:
        motion = refit_trimmed(samples, result, model, camera).motion
    return motion


def run_cell(cfg: ExperimentConfig, gamma, trans, w_mag, k, model):
    """Mean errors of one sweep cell over cfg.trials seeded trials."""
    camera = _camera(cfg, gamma)
    t_errs, r_errs = [], []
    for trial in range(cfg.trials):
        seed = hash((cfg.seed, round(gamma, 9), round(trans, 9), round(w_mag, 9),
                     round(k, 9), trial)) % (2**31)
        spec = SceneSpec(
            config=camera,
            n_points=cfg.n_points,
            depth_range=(cfg.depth_min, cfg.depth_max),
            norm_translation=trans,
            w_mag_deg=w_mag,
            k=k,
            seed=seed,
        )
        samples, gt = generate_discrete(spec)
        if len(samples) < 9:
            continue
        try:
            motion = estimate_motion(
                samples, model, camera, cfg.ransac_iters, cfg.threshold,
                seed=seed + 1, use_refine=cfg.use_refine,
            )
        except RsSfmError:
            continue
        t_errs.append(translation_error(motion.v, gt.motion.v))
        r_errs.append(rotation_error(motion.w, gt.motion.w))
    if not t_errs:
        return np.nan, np.nan, 0
    return float(np.mean(t_errs)), float(np.mean(r_errs)), len(t_errs)


def run_sweep(cfg: ExperimentConfig):
    """All cells of the sweep; rows in deterministic axis order."""
    cells = product(cfg.gammas, cfg.translations, cfg.w_mags, cfg.ks, cfg.models)
    return [(*cell, *run_cell(cfg, *cell)) for cell in cells]


def sweep_csv(rows):
    lines = [CSV_HEADER]
    for gamma, trans, w_mag, k, model, te, re, n in rows:
        lines.append(f"{gamma!r},{trans!r},{w_mag!r},{k!r},{model},{te!r},{re!r},{n}")
    return "\n".join(lines) + "\n"
