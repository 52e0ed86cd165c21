"""Command-line surface: estimation, depth, rectification, synthesis, sweeps.

Exit codes: 0 success, 1 estimation failure, 2 usage or input error.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import io_formats as iof
from .errors import EmptySelection, InvalidScanlinePair, RsSfmError
from .geometry import CameraConfig
from .experiment import _scene_spec, run_sweep, sweep_csv
from .refine import dense_depth
from .rectify import rectify_image, warp_field
from .robust import (MINIMAL_SIZE, RansacConfig, ranked_pixels, ransac, refit_trimmed,
                     samples_from_pixels)
from .synth import generate_discrete

# the camera record a motion file carries for `rectify`
CAMERA_KEYS = ("gamma", "h", "fx", "fy", "cx", "cy")


@click.group()
def main():
    """Rolling-shutter-aware differential motion, depth and rectification."""


def _samples_from_flow(flow: iof.FlowFile, flow_bwd=None, max_samples=2000, seed=0):
    if flow.is_dense and flow_bwd is not None:
        pixels = ranked_pixels(flow.dense, flow_bwd.dense)
    elif flow.is_dense:
        rows, cols = np.indices(flow.dense.shape[:2]).reshape(2, -1)  # row-major
        pixels = (cols, rows, *flow.dense.reshape(-1, 2).T)
    else:
        pixels = flow.sparse.T
    return samples_from_pixels(*pixels, flow.config, max_samples, seed)


def _input_error(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _read_or_die(read, path, kind):
    """read(path), or exit 2 with a message when the file is missing or malformed."""
    try:
        return read(path)
    except FileNotFoundError:
        _input_error(f"{kind} file not found: {path}")
    except KeyError as exc:
        _input_error(f"{path}: {kind} file has no {exc.args[0]!r} entry")
    except ValueError as exc:
        _input_error(exc)


def _camera_fields(values):
    """The CAMERA_KEYS entries of a mapping, typed: h an integer, the rest floats."""
    return {key: (int if key == "h" else float)(values[key]) for key in CAMERA_KEYS}


@main.command()
@click.option("--flow", "flow_path", required=True, help="RSFLOW1 forward flow file.")
@click.option("--flow-bwd", "bwd_path", default=None, help="Optional backward flow for filtering.")
@click.option("--model", type=click.Choice(["gs", "cv", "ca"]), default="cv")
@click.option("--ransac-iters", default=300, show_default=True, type=click.IntRange(min=1))
@click.option("--threshold", default=0.001, show_default=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--max-samples", default=2000, show_default=True, type=click.IntRange(min=0))
@click.option("--no-refine", is_flag=True, help="Skip nonlinear refinement.")
@click.option("--out", "out_path", required=True)
def estimate(flow_path, bwd_path, model, ransac_iters, threshold, seed, max_samples,
             no_refine, out_path):
    """Estimate relative motion from a flow file.

    The motion file also records the RANSAC counts (hypotheses solved,
    hypotheses scored on every sample, residuals evaluated) and, after
    refinement, why the refit's Levenberg-Marquardt loop stopped, whether
    its result was accepted over the RANSAC motion and how many steps the
    loop accepted.
    """
    try:
        rc = RansacConfig(iterations=ransac_iters, threshold=threshold, seed=seed)
    except ValueError as exc:
        _input_error(exc)
    flow = _read_or_die(iof.read_flow, flow_path, "flow")
    bwd = _read_or_die(iof.read_flow, bwd_path, "flow") if bwd_path else None
    try:
        samples = _samples_from_flow(flow, bwd, max_samples=max_samples, seed=seed)
    except EmptySelection as exc:
        _input_error(exc)
    if len(samples) < MINIMAL_SIZE[model]:
        _input_error(f"model {model} needs at least {MINIMAL_SIZE[model]} usable flow samples, "
                     f"got {len(samples)}")
    try:
        result = ransac(samples, model, flow.config, rc)
        motion, refit = result.motion, {}
        if not no_refine:
            state = refit_trimmed(samples, result, model, flow.config)
            motion, refit = state.motion, {"stop_reason": state.stop_reason,
                                           "polished": int(state.polished),
                                           "lm_iterations": state.lm_iterations}
    except RsSfmError as exc:
        click.echo(f"estimation failed: {exc}", err=True)
        sys.exit(1)
    res = result.residuals
    iof.write_motion(out_path, motion, extra={
        "model": model,
        "n_samples": len(samples),
        "n_inliers": len(result.inliers),
        "residual_mean": float(np.mean(res)),
        "residual_median": float(np.median(res)),
        "n_hypotheses": result.n_hypotheses,
        "n_scored_full": result.n_scored_full,
        "n_residuals": result.n_residuals,
        "draw_s": result.draw_s,
        "solve_s": result.solve_s,
        "score_s": result.score_s,
        **refit,
        **_camera_fields(vars(flow.config)),
    })


@main.command()
@click.option("--flow", "flow_path", required=True)
@click.option("--motion", "motion_path", required=True)
@click.option("--out", "out_path", required=True)
def depth(flow_path, motion_path, out_path):
    """Dense depth map (PFM) from a dense flow field and a motion file."""
    flow = _read_or_die(iof.read_flow, flow_path, "flow")
    if not flow.is_dense:
        _input_error("depth recovery needs a dense flow layout")
    motion = _read_or_die(iof.read_motion, motion_path, "motion")
    try:
        depth_map, _ = dense_depth(flow.dense, motion, flow.config)  # NaN where invalid
    except InvalidScanlinePair as exc:
        _input_error(f"flow moves a pixel too far up for the camera's readout: {exc}")
    iof.write_pfm(out_path, depth_map)


@main.command()
@click.option("--image", "image_path", required=True, help="PGM/PPM input image.")
@click.option("--depth", "depth_path", required=True, help="PFM depth map.")
@click.option("--motion", "motion_path", required=True)
@click.option("--out", "out_path", required=True)
def rectify(image_path, depth_path, motion_path, out_path):
    """Remove rolling-shutter distortion from an image."""
    img = _read_or_die(iof.read_pnm, image_path, "image")
    depth_map = _read_or_die(iof.read_pfm, depth_path, "depth")
    motion = _read_or_die(iof.read_motion, motion_path, "motion")
    if img.shape[:2] != depth_map.shape:
        _input_error(f"image shape {img.shape[:2]} does not match depth {depth_map.shape}")
    kv = iof.read_keyvalues(motion_path)
    missing = [key for key in CAMERA_KEYS if key not in kv]
    if missing:
        _input_error(f"{motion_path} has no camera ({', '.join(missing)} missing); "
                     "write the motion file with `estimate`")
    try:
        camera = CameraConfig(**_camera_fields(kv), width=depth_map.shape[1])
        warp = warp_field(depth_map, motion, camera)
    except ValueError as exc:  # a malformed camera, or one that does not fit the depth map
        _input_error(f"{motion_path}: {exc}")
    out, _ = rectify_image(img, warp)  # logs its gap fraction
    iof.write_pnm(out_path, out)


@main.command()
@click.option("--config", "config_path", required=True)
@click.option("--out-flow", "flow_path", required=True)
@click.option("--out-truth", "truth_path", required=True)
def synth(config_path, flow_path, truth_path):
    """Generate a synthetic sparse flow file with a ground-truth sidecar."""
    cfg = _load_config(config_path)
    spec = _scene_spec(cfg, cfg.gammas[0], cfg.translations[0], cfg.w_mags[0], cfg.ks[0],
                       cfg.seed)
    camera = spec.config
    samples, gt = generate_discrete(spec)
    px, py = camera.normalized_to_pixel(*samples.x.T)
    sparse = np.column_stack([px, py, samples.u[:, 0] * camera.fx,
                              samples.u[:, 1] * camera.fy]).astype(np.float32)
    iof.write_flow(flow_path, iof.FlowFile(
        config=camera, width=camera.width, height=camera.h, sparse=sparse))
    iof.write_motion(truth_path, gt.motion, extra={
        **_camera_fields(vars(camera)), "n_samples": len(samples),
    })


def _load_config(path):
    try:
        return iof.ExperimentConfig.from_file(path)
    except FileNotFoundError:
        _input_error(f"config file not found: {path}")
    except KeyError as exc:
        _input_error(f"unknown config key {exc.args[0]!r}")
    except ValueError as exc:
        _input_error(exc)


@main.command()
@click.option("--config", "config_path", required=True)
@click.option("--out", "out_path", required=True)
def sweep(config_path, out_path):
    """Run a benchmark sweep and write mean errors per cell to CSV."""
    cfg = _load_config(config_path)
    rows = run_sweep(cfg)
    with open(out_path, "w") as f:
        f.write(sweep_csv(rows))


@main.command("convert")
@click.option("--flo", "flo_path", required=True, help="Middlebury .flo input.")
@click.option("--gamma", required=True, type=float)
@click.option("--fx", required=True, type=float)
@click.option("--fy", required=True, type=float)
@click.option("--cx", required=True, type=float)
@click.option("--cy", required=True, type=float)
@click.option("--out", "out_path", required=True)
def convert(flo_path, gamma, fx, fy, cx, cy, out_path):
    """Convert a plain 2-channel .flo field into the RSFLOW1 container."""
    data = _read_or_die(iof.read_flo, flo_path, "flow")
    H, W = data.shape[:2]
    cfg = CameraConfig(gamma=gamma, h=H, fx=fx, fy=fy, cx=cx, cy=cy, width=W)
    iof.write_flow(out_path, iof.FlowFile(config=cfg, width=W, height=H, dense=data))


if __name__ == "__main__":
    main()
