import struct
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from rsdiffsfm import (
    CameraConfig,
    MotionEstimate,
    RansacConfig,
    dense_depth,
    ransac,
    rectify_image,
    refit_trimmed,
    warp_field,
)
from rsdiffsfm.cli import _samples_from_flow, main
from rsdiffsfm.io_formats import (
    FlowFile,
    read_flow,
    read_keyvalues,
    read_motion,
    read_pfm,
    read_pnm,
    write_flow,
    write_motion,
    write_pfm,
    write_pnm,
)
from rsdiffsfm.synth import rotation_error, translation_error


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **overrides):
    base = {
        "models": "cv",
        "gammas": "0.8",
        "ks": "0.0",
        "trials": 1,
        "seed": 3,
        "n_points": 120,
        "ransac_iters": 30,
        "image_size": 900,
        "focal": 810.0,
    }
    base.update(overrides)
    with open(path, "w") as f:
        for key, val in base.items():
            f.write(f"{key}={val}\n")


def run_ok(runner, args):
    res = runner.invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return res


def test_synth_then_estimate(runner, tmp_path):
    cfg = tmp_path / "exp.cfg"
    write_config(cfg)
    flow = tmp_path / "f.rsflow"
    truth = tmp_path / "truth.txt"
    run_ok(runner, ["synth", "--config", str(cfg), "--out-flow", str(flow),
                    "--out-truth", str(truth)])
    gt = read_motion(truth)

    out_cv = tmp_path / "m_cv.txt"
    run_ok(runner, ["estimate", "--flow", str(flow), "--model", "cv",
                    "--ransac-iters", "100", "--seed", "3", "--out", str(out_cv)])
    est = read_motion(out_cv)
    assert translation_error(est.v, gt.v) < 3.0  # degrees
    assert rotation_error(est.w, gt.w) < 0.05
    assert est.k == 0.0
    # the RANSAC counts and the refit's diagnostics are those of the library
    samples = _samples_from_flow(read_flow(flow), seed=3)
    result = ransac(samples, "cv", read_flow(flow).config, RansacConfig(iterations=100, seed=3))
    state = refit_trimmed(samples, result, "cv", read_flow(flow).config)
    kv = read_keyvalues(out_cv)
    assert (int(kv["n_hypotheses"]), int(kv["n_scored_full"]), int(kv["n_residuals"])) == (
        result.n_hypotheses, result.n_scored_full, result.n_residuals)
    assert 0 < result.n_scored_full <= result.n_hypotheses
    assert (kv["stop_reason"], int(kv["polished"]), int(kv["lm_iterations"])) == (
        state.stop_reason, state.polished, state.lm_iterations)
    assert state.lm_iterations > 0
    # and RANSAC's seconds per stage, which only the run itself can measure
    seconds = [float(kv[key]) for key in ("draw_s", "solve_s", "score_s")]
    assert all(np.isfinite(s) and s >= 0.0 for s in seconds) and sum(seconds) > 0.0

    # a global-shutter fit on the same rolling-shutter flow is worse
    out_gs = tmp_path / "m_gs.txt"
    run_ok(runner, ["estimate", "--flow", str(flow), "--model", "gs",
                    "--ransac-iters", "100", "--seed", "3", "--out", str(out_gs)])
    est_gs = read_motion(out_gs)
    assert translation_error(est_gs.v, gt.v) > translation_error(est.v, gt.v)

    # without refinement there is no refit to report on
    out_raw = tmp_path / "m_raw.txt"
    run_ok(runner, ["estimate", "--flow", str(flow), "--ransac-iters", "100", "--seed", "3",
                    "--no-refine", "--out", str(out_raw)])
    kv = read_keyvalues(out_raw)
    assert "n_scored_full" in kv and "stop_reason" not in kv and "polished" not in kv
    assert "lm_iterations" not in kv


def test_estimate_missing_flow(runner, tmp_path):
    res = runner.invoke(main, ["estimate", "--flow", str(tmp_path / "nope.rsflow"),
                               "--out", str(tmp_path / "m.txt")])
    assert res.exit_code == 2
    assert "not found" in res.output


@pytest.mark.parametrize("option, value", [
    ("--threshold", "0"), ("--threshold", "-1"), ("--threshold", "nan"),
    ("--ransac-iters", "0"), ("--max-samples", "-1"), ("--seed", "-1")])
def test_estimate_invalid_option_is_input_error(runner, tmp_path, option, value):
    cam = CameraConfig(gamma=0.8, h=32, fx=30.0, fy=30.0, cx=16.0, cy=16.0, width=32)
    flow, out = tmp_path / "s.rsflow", tmp_path / "m.txt"
    sparse = np.random.default_rng(0).uniform(1.0, 30.0, (40, 4)).astype(np.float32)
    write_flow(flow, FlowFile(config=cam, width=32, height=32, sparse=sparse))
    res = runner.invoke(main, ["estimate", "--flow", str(flow), option, value, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert option.lstrip("-") in res.output
    assert not out.exists()


def test_depth_rejects_sparse_flow(runner, tmp_path):
    cam = CameraConfig(gamma=0.8, h=32, fx=30.0, fy=30.0, cx=16.0, cy=16.0, width=32)
    flow = tmp_path / "s.rsflow"
    write_flow(flow, FlowFile(config=cam, width=32, height=32,
                              sparse=np.zeros((4, 4), dtype=np.float32)))
    res = runner.invoke(main, ["depth", "--flow", str(flow),
                               "--motion", str(tmp_path / "m.txt"),
                               "--out", str(tmp_path / "d.pfm")])
    assert res.exit_code == 2
    assert "dense" in res.output


def test_depth_matches_library(runner, tmp_path):
    cam = CameraConfig(gamma=0.8, h=24, fx=22.0, fy=22.0, cx=12.0, cy=12.0, width=24)
    rng = np.random.default_rng(0)
    dense = rng.normal(scale=0.5, size=(24, 24, 2)).astype(np.float32)
    motion = MotionEstimate(v=np.array([0.02, 0.01, 0.005]),
                            w=np.array([0.01, -0.02, 0.005]), k=0.1)
    flow = tmp_path / "d.rsflow"
    mpath = tmp_path / "m.txt"
    write_flow(flow, FlowFile(config=cam, width=24, height=24, dense=dense))
    write_motion(mpath, motion)
    out = tmp_path / "depth.pfm"
    run_ok(runner, ["depth", "--flow", str(flow), "--motion", str(mpath),
                    "--out", str(out)])
    got = read_pfm(out)
    ref, valid = dense_depth(dense, motion, cam)
    assert np.allclose(got[valid], ref[valid].astype(np.float32), rtol=1e-6)
    assert np.isnan(got[~valid]).all()


def test_rectify_identity_at_zero_motion(runner, tmp_path):
    H = W = 30
    img = np.random.default_rng(1).integers(0, 256, (H, W), dtype=np.uint8)
    ipath = tmp_path / "img.pgm"
    dpath = tmp_path / "d.pfm"
    mpath = tmp_path / "m.txt"
    write_pnm(ipath, img)
    write_pfm(dpath, np.full((H, W), 5.0, dtype=np.float32))
    write_motion(mpath, MotionEstimate(v=np.zeros(3), w=np.zeros(3), k=0.0),
                 extra={"gamma": 0.8, "h": H, "fx": 27.0, "fy": 27.0,
                        "cx": W / 2.0, "cy": H / 2.0})
    out = tmp_path / "rect.pgm"
    run_ok(runner, ["rectify", "--image", str(ipath), "--depth", str(dpath),
                    "--motion", str(mpath), "--out", str(out)])
    assert np.array_equal(read_pnm(out), img)


def test_estimate_then_rectify_uses_flow_camera(runner, tmp_path):
    cfg = tmp_path / "exp.cfg"
    write_config(cfg, image_size=60, focal=54.0)
    flow = tmp_path / "f.rsflow"
    mpath = tmp_path / "m.txt"
    run_ok(runner, ["synth", "--config", str(cfg), "--out-flow", str(flow),
                    "--out-truth", str(tmp_path / "truth.txt")])
    run_ok(runner, ["estimate", "--flow", str(flow), "--ransac-iters", "30",
                    "--out", str(mpath)])
    cam = read_flow(flow).config
    kv = read_keyvalues(mpath)
    assert {key: float(kv[key]) for key in ("gamma", "h", "fx", "fy", "cx", "cy")} == {
        "gamma": cam.gamma, "h": cam.h, "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy}

    H = W = 60
    img = np.random.default_rng(4).integers(0, 256, (H, W), dtype=np.uint8)
    depth_map = np.random.default_rng(5).uniform(4.0, 8.0, (H, W)).astype(np.float32)
    ipath, dpath, out = tmp_path / "img.pgm", tmp_path / "d.pfm", tmp_path / "rect.pgm"
    write_pnm(ipath, img)
    write_pfm(dpath, depth_map)
    run_ok(runner, ["rectify", "--image", str(ipath), "--depth", str(dpath),
                    "--motion", str(mpath), "--out", str(out)])
    expected, _ = rectify_image(img, warp_field(depth_map, read_motion(mpath), cam))
    assert np.array_equal(read_pnm(out), np.clip(np.round(expected), 0, 255).astype(np.uint8))


# each scipy import raises ImportError in this process; the library needs
# numpy and click only
NO_SCIPY_CHAIN = """
import sys
sys.modules["scipy"] = None
import rsdiffsfm.cli
from rsdiffsfm.synth import rotation_error

d = sys.argv[1]
for args in (
    ["estimate", "--flow", f"{d}/f.rsflow", "--ransac-iters", "30", "--out", f"{d}/m.txt"],
    ["depth", "--flow", f"{d}/dense.rsflow", "--motion", f"{d}/m.txt", "--out", f"{d}/d.pfm"],
    ["rectify", "--image", f"{d}/img.pgm", "--depth", f"{d}/d.pfm", "--motion", f"{d}/m.txt",
     "--out", f"{d}/rect.pgm"],
):
    rsdiffsfm.cli.main(args, standalone_mode=False)
assert rotation_error([0.01, 0.02, 0.03], [0.0, 0.0, 0.0]) > 0
"""


def test_cli_chain_runs_without_scipy(runner, tmp_path):
    cfg = tmp_path / "exp.cfg"
    write_config(cfg, image_size=60, focal=54.0)
    flow = tmp_path / "f.rsflow"
    run_ok(runner, ["synth", "--config", str(cfg), "--out-flow", str(flow),
                    "--out-truth", str(tmp_path / "truth.txt")])
    cam = read_flow(flow).config
    dense = np.random.default_rng(0).normal(scale=0.5, size=(60, 60, 2)).astype(np.float32)
    write_flow(tmp_path / "dense.rsflow", FlowFile(config=cam, width=60, height=60, dense=dense))
    write_pnm(tmp_path / "img.pgm",
              np.random.default_rng(4).integers(0, 256, (60, 60), dtype=np.uint8))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHAIN, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    kv = read_keyvalues(tmp_path / "m.txt")
    assert int(kv["polished"]) == 1 and int(kv["lm_iterations"]) > 0
    assert read_pnm(tmp_path / "rect.pgm").shape == (60, 60)


def test_rectify_requires_camera(runner, tmp_path):
    H = W = 20
    ipath, dpath, mpath = tmp_path / "img.pgm", tmp_path / "d.pfm", tmp_path / "m.txt"
    write_pnm(ipath, np.zeros((H, W), dtype=np.uint8))
    write_pfm(dpath, np.full((H, W), 5.0, dtype=np.float32))
    write_motion(mpath, MotionEstimate(v=np.zeros(3), w=np.zeros(3), k=0.0))
    res = runner.invoke(main, ["rectify", "--image", str(ipath), "--depth", str(dpath),
                               "--motion", str(mpath), "--out", str(tmp_path / "o.pgm")])
    assert res.exit_code == 2
    assert "camera" in res.output and "gamma" in res.output
    assert not (tmp_path / "o.pgm").exists()


def test_depth_invalid_scanline_pair_is_input_error(runner, tmp_path):
    cam = CameraConfig(gamma=0.8, h=24, fx=22.0, fy=22.0, cx=12.0, cy=12.0, width=24)
    dense = np.zeros((24, 24, 2), dtype=np.float32)
    dense[20, 5, 1] = -60.0  # more than h / gamma rows upward: alpha <= 0
    flow, mpath = tmp_path / "d.rsflow", tmp_path / "m.txt"
    write_flow(flow, FlowFile(config=cam, width=24, height=24, dense=dense))
    write_motion(mpath, MotionEstimate(v=np.array([0.0, 0.0, 1.0]), w=np.zeros(3), k=0.0))
    res = runner.invoke(main, ["depth", "--flow", str(flow), "--motion", str(mpath),
                               "--out", str(tmp_path / "depth.pfm")])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output and "alpha" in res.output
    assert "rows (20.0, -40.0)" in res.output  # the offending pixel's (y1, y2)


def test_depth_of_an_empty_flow_is_input_error(runner, tmp_path):
    """A dense flow of height 0 is refused as it is read, with the image size
    message of the other readers, and writes no depth map."""
    cam = CameraConfig(gamma=0.8, h=24, fx=22.0, fy=22.0, cx=12.0, cy=12.0, width=4)
    flow, mpath, out = tmp_path / "d.rsflow", tmp_path / "m.txt", tmp_path / "depth.pfm"
    write_flow(flow, FlowFile(config=cam, width=4, height=0,
                              dense=np.zeros((0, 4, 2), dtype=np.float32)))
    write_motion(mpath, MotionEstimate(v=np.array([0.0, 0.0, 1.0]), w=np.zeros(3), k=0.0))
    res = runner.invoke(main, ["depth", "--flow", str(flow), "--motion", str(mpath),
                               "--out", str(out)])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output and "bad image size 4 x 0" in res.output
    assert not out.exists()


@pytest.mark.parametrize("content, message", [(None, "not found"), ("vx=1\n", "'vy'"),
                                              ("vx=abc\n", "'abc'")])
def test_depth_bad_motion_file_is_input_error(runner, tmp_path, content, message):
    cam = CameraConfig(gamma=0.8, h=12, fx=11.0, fy=11.0, cx=6.0, cy=6.0, width=12)
    flow, mpath = tmp_path / "d.rsflow", tmp_path / "m.txt"
    write_flow(flow, FlowFile(config=cam, width=12, height=12,
                              dense=np.zeros((12, 12, 2), dtype=np.float32)))
    if content is not None:
        mpath.write_text(content)
    res = runner.invoke(main, ["depth", "--flow", str(flow), "--motion", str(mpath),
                               "--out", str(tmp_path / "depth.pfm")])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output and message in res.output


@pytest.mark.parametrize("entry", ["vx=nan", "vx=inf", "wz=-inf", "k=nan"])
@pytest.mark.parametrize("command", ["depth", "rectify"])
def test_non_finite_motion_is_input_error(runner, tmp_path, command, entry):
    H = W = 12
    cam = CameraConfig(gamma=0.8, h=H, fx=11.0, fy=11.0, cx=6.0, cy=6.0, width=W)
    mpath = tmp_path / "m.txt"
    write_motion(mpath, MotionEstimate(v=np.array([0.0, 0.0, 1.0]), w=np.zeros(3), k=0.0),
                 extra={key: getattr(cam, key) for key in ("gamma", "h", "fx", "fy", "cx", "cy")})
    key = entry.split("=")[0]
    mpath.write_text("".join(entry + "\n" if line.startswith(key + "=") else line
                             for line in mpath.read_text().splitlines(keepends=True)))
    if command == "depth":
        inputs = ["--flow", str(tmp_path / "d.rsflow")]
        write_flow(inputs[1], FlowFile(config=cam, width=W, height=H,
                                       dense=np.zeros((H, W, 2), dtype=np.float32)))
    else:
        inputs = ["--image", str(tmp_path / "img.pgm"), "--depth", str(tmp_path / "d.pfm")]
        write_pnm(inputs[1], np.zeros((H, W), dtype=np.uint8))
        write_pfm(inputs[3], np.full((H, W), 5.0, dtype=np.float32))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, *inputs, "--motion", str(mpath), "--out", str(out)])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output and f"{key}=" in res.output and "not finite" in res.output
    assert not out.exists()


def test_rectify_truncated_depth_is_input_error(runner, tmp_path):
    ipath, dpath, mpath = tmp_path / "img.pgm", tmp_path / "d.pfm", tmp_path / "m.txt"
    write_pnm(ipath, np.zeros((20, 30), dtype=np.uint8))
    write_pfm(dpath, np.full((20, 30), 5.0, dtype=np.float32))
    dpath.write_bytes(dpath.read_bytes()[:-1])
    write_motion(mpath, MotionEstimate(v=np.zeros(3), w=np.zeros(3), k=0.0))
    res = runner.invoke(main, ["rectify", "--image", str(ipath), "--depth", str(dpath),
                               "--motion", str(mpath), "--out", str(tmp_path / "o.pgm")])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output and "truncated" in res.output


def test_estimate_truncated_sparse_count_is_input_error(runner, tmp_path):
    cam = CameraConfig(gamma=0.8, h=32, fx=30.0, fy=30.0, cx=16.0, cy=16.0, width=32)
    flow = tmp_path / "s.rsflow"
    write_flow(flow, FlowFile(config=cam, width=32, height=32,
                              sparse=np.zeros((0, 4), dtype=np.float32)))
    flow.write_bytes(flow.read_bytes()[:-2])  # half of the sample count
    res = runner.invoke(main, ["estimate", "--flow", str(flow), "--out", str(tmp_path / "m.txt")])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output and "count" in res.output


def test_estimate_empty_bidirectional_selection_is_input_error(runner, tmp_path):
    cam = CameraConfig(gamma=0.8, h=16, fx=15.0, fy=15.0, cx=8.0, cy=8.0, width=16)
    nan_flow = np.full((16, 16, 2), np.nan, dtype=np.float32)
    fwd, bwd = tmp_path / "f.rsflow", tmp_path / "b.rsflow"
    for path in (fwd, bwd):
        write_flow(path, FlowFile(config=cam, width=16, height=16, dense=nan_flow))
    res = runner.invoke(main, ["estimate", "--flow", str(fwd), "--flow-bwd", str(bwd),
                               "--out", str(tmp_path / "m.txt")])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "forward-backward" in res.output


@pytest.mark.parametrize("sparse", [
    np.zeros((0, 4)),
    # every destination row y + flow_y lies outside [0, 32)
    np.array([[5.0, 10.0, 0.5, -11.0], [9.0, 30.0, 0.0, 2.5], [3.0, 0.0, 1.0, -0.5]]),
], ids=["empty", "all-outside"])
def test_estimate_no_usable_sample_is_input_error(runner, tmp_path, sparse):
    cam = CameraConfig(gamma=0.8, h=32, fx=30.0, fy=30.0, cx=16.0, cy=16.0, width=32)
    flow, out = tmp_path / "s.rsflow", tmp_path / "m.txt"
    write_flow(flow, FlowFile(config=cam, width=32, height=32, sparse=sparse.astype(np.float32)))
    res = runner.invoke(main, ["estimate", "--flow", str(flow), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output and "inside the image rows [0, 32)" in res.output
    assert not out.exists()


@pytest.mark.parametrize("model", ["cv", "ca"])
def test_estimate_too_few_samples_is_input_error(runner, tmp_path, model):
    cam = CameraConfig(gamma=0.8, h=32, fx=30.0, fy=30.0, cx=16.0, cy=16.0, width=32)
    sparse = np.array([[5.0, 10.0, 0.5, 0.2], [9.0, 20.0, 0.0, 0.5], [3.0, 4.0, 1.0, -0.5]])
    flow, out = tmp_path / "s.rsflow", tmp_path / "m.txt"
    write_flow(flow, FlowFile(config=cam, width=32, height=32, sparse=sparse.astype(np.float32)))
    res = runner.invoke(main, ["estimate", "--flow", str(flow), "--model", model,
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    minimal = 9 if model == "ca" else 8
    assert f"error: model {model} needs at least {minimal} usable flow samples, got 3" in res.output
    assert not out.exists()


@pytest.mark.parametrize("row", [5000.0, -3000.0])
def test_estimate_drops_source_rows_outside_the_image(runner, tmp_path, row):
    """A sparse entry whose source row lies outside [0, h) is dropped, as one
    whose destination row does: its destination row is inside the image."""
    cfg = tmp_path / "exp.cfg"
    write_config(cfg, image_size=600, focal=540.0, n_points=60)
    flow, out = tmp_path / "f.rsflow", tmp_path / "m.txt"
    run_ok(runner, ["synth", "--config", str(cfg), "--out-flow", str(flow),
                    "--out-truth", str(tmp_path / "truth.txt")])
    good = read_flow(flow)
    bad = np.array([[300.0, row, 0.5, 10.0 - row]], dtype=np.float32)  # ends at row 10
    write_flow(flow, FlowFile(config=good.config, width=600, height=600,
                              sparse=np.concatenate([good.sparse, bad])))
    run_ok(runner, ["estimate", "--flow", str(flow), "--ransac-iters", "30", "--out", str(out)])
    assert int(read_keyvalues(out)["n_samples"]) == len(good.sparse)


def test_estimate_without_a_model_is_estimation_failure(runner, tmp_path):
    """Zero flows leave every subset degenerate: RANSAC finds no model and
    `estimate` exits 1."""
    cam = CameraConfig(gamma=0.8, h=32, fx=30.0, fy=30.0, cx=16.0, cy=16.0, width=32)
    rng = np.random.default_rng(0)
    sparse = np.column_stack([rng.uniform(0, 32, (50, 2)), np.zeros((50, 2))])
    flow, out = tmp_path / "s.rsflow", tmp_path / "m.txt"
    write_flow(flow, FlowFile(config=cam, width=32, height=32, sparse=sparse.astype(np.float32)))
    res = runner.invoke(main, ["estimate", "--flow", str(flow), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "estimation failed: no RANSAC iteration produced a valid model" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command, setting, message", [
    ("convert", ("--gamma", "2"), "gamma must lie in [0, 1]"),
    ("convert", ("--fx", "0"), "focal lengths must be positive"),
    ("sweep", "models=xx", "config: unknown model 'xx': choose from gs, cv, ca"),
    ("sweep", "gammas=1.5", "gamma must lie in [0, 1], got 1.5"),
    ("sweep", "n_points=-5", "n_points must be >= 1"),
    ("sweep", "ransac_iters=0", "iterations must be an integer >= 1"),
    ("sweep", "threshold=-1", "threshold must be positive"),
    ("sweep", None, "config file not found"),
    ("synth", "gammas=1.5", "gamma must lie in [0, 1], got 1.5"),
    ("synth", "n_points=-5", "n_points must be >= 1"),
    ("rectify", "gamma=2", "gamma must lie in [0, 1], got 2.0"),
    ("sweep", "trials=0", "trials must be an integer >= 1"),
    ("sweep", "seed=-1", "config: seed must be a non-negative integer, got -1"),
    ("synth", "seed=-1", "config: seed must be a non-negative integer, got -1"),
])
def test_malformed_config_or_camera_is_input_error(runner, tmp_path, command, setting, message):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
    if command == "convert":
        flo = tmp_path / "x.flo"
        flo.write_bytes(b"PIEH" + struct.pack("<ii", 2, 2) + np.zeros(8, "<f4").tobytes())
        camera = {"--gamma": "0.5", "--fx": "7.0", "--fy": "7.0", "--cx": "1.0", "--cy": "1.0"}
        camera.update([setting])
        args = ["--flo", str(flo), *(x for item in camera.items() for x in item), "--out", str(out)]
    elif command == "rectify":
        ipath, dpath, mpath = tmp_path / "img.pgm", tmp_path / "d.pfm", tmp_path / "m.txt"
        write_pnm(ipath, np.zeros((20, 20), dtype=np.uint8))
        write_pfm(dpath, np.full((20, 20), 5.0, dtype=np.float32))
        camera = dict(gamma=0.8, h=20, fx=19.0, fy=19.0, cx=10.0, cy=10.0)
        camera.update([setting.split("=")])
        write_motion(mpath, MotionEstimate(v=np.array([0.0, 0.0, 1.0]), w=np.zeros(3)),
                     extra=camera)
        args = ["--image", str(ipath), "--depth", str(dpath), "--motion", str(mpath),
                "--out", str(out)]
    else:
        if setting is not None:
            key, value = setting.split("=")
            write_config(cfg, **{key: value})
        args = ["--config", str(cfg)] + (["--out", str(out)] if command == "sweep" else
                                         ["--out-flow", str(out), "--out-truth", str(out) + "t"])
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output and message in res.output
    assert not out.exists()


def test_rectify_shape_mismatch(runner, tmp_path):
    ipath = tmp_path / "img.pgm"
    dpath = tmp_path / "d.pfm"
    mpath = tmp_path / "m.txt"
    write_pnm(ipath, np.zeros((20, 30), dtype=np.uint8))
    write_pfm(dpath, np.full((25, 30), 5.0, dtype=np.float32))
    write_motion(mpath, MotionEstimate(v=np.zeros(3), w=np.zeros(3), k=0.0))
    res = runner.invoke(main, ["rectify", "--image", str(ipath), "--depth", str(dpath),
                               "--motion", str(mpath), "--out", str(tmp_path / "o.pgm")])
    assert res.exit_code == 2
    assert "(20, 30)" in res.output and "(25, 30)" in res.output


def test_synth_deterministic(runner, tmp_path):
    cfg = tmp_path / "exp.cfg"
    write_config(cfg, n_points=40)
    paths = []
    for tag in ("a", "b"):
        flow = tmp_path / f"f_{tag}.rsflow"
        truth = tmp_path / f"t_{tag}.txt"
        run_ok(runner, ["synth", "--config", str(cfg), "--out-flow", str(flow),
                        "--out-truth", str(truth)])
        paths.append((flow, truth))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_sweep_csv_deterministic(runner, tmp_path):
    cfg = tmp_path / "exp.cfg"
    write_config(cfg, models="gs,cv", n_points=40, ransac_iters=15,
                 image_size=200, focal=180.0)
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    run_ok(runner, ["sweep", "--config", str(cfg), "--out", str(out1)])
    run_ok(runner, ["sweep", "--config", str(cfg), "--out", str(out2)])
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.strip().splitlines()
    assert "model" in lines[0] and "trans_err_deg" in lines[0]
    assert len(lines) == 3  # header + one row per model


def test_unknown_config_key(runner, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trials=2\nwhatsit=5\n")
    res = runner.invoke(main, ["sweep", "--config", str(cfg),
                               "--out", str(tmp_path / "s.csv")])
    assert res.exit_code == 2
    assert "whatsit" in res.output


def test_convert_flo(runner, tmp_path):
    rng = np.random.default_rng(2)
    data = rng.normal(size=(6, 8, 2)).astype("<f4")
    flo = tmp_path / "x.flo"
    with open(flo, "wb") as f:
        f.write(b"PIEH")
        f.write(struct.pack("<ii", 8, 6))
        f.write(data.tobytes())
    out = tmp_path / "x.rsflow"
    run_ok(runner, ["convert", "--flo", str(flo), "--gamma", "0.9",
                    "--fx", "7.0", "--fy", "7.0", "--cx", "4.0", "--cy", "3.0",
                    "--out", str(out)])
    back = read_flow(out)
    assert back.config.gamma == 0.9
    assert np.array_equal(back.dense, data)


def reference_samples(flow, max_samples, seed):
    """Per-pixel loop: the sample selection `_samples_from_flow` reproduces."""
    cfg = flow.config
    if flow.is_dense:
        rows, cols = np.nonzero(np.isfinite(flow.dense).all(axis=2))
        entries = [(c, r, *flow.dense[r, c]) for r, c in zip(rows, cols)]
    else:
        entries = list(flow.sparse)
    out = []
    for c, r, u_px, v_px in entries:
        y2 = r + v_px
        if 0 <= r < cfg.h and 0 <= y2 < cfg.h:
            x, y = cfg.pixel_to_normalized(float(c), float(r))
            out.append((float(x), float(y), float(u_px / cfg.fx), float(v_px / cfg.fy),
                        float(r), float(y2)))
    if max_samples and len(out) > max_samples:
        idx = np.sort(np.random.default_rng(seed).choice(len(out), max_samples, replace=False))
        out = [out[i] for i in idx]
    return out


@pytest.mark.parametrize("max_samples", [0, 40])
def test_samples_from_flow_matches_pixel_loop(max_samples):
    H = W = 12
    cam = CameraConfig(gamma=0.8, h=H, fx=10.0, fy=10.0, cx=6.0, cy=6.0, width=W)
    rng = np.random.default_rng(0)
    dense = rng.uniform(-4.0, 4.0, (H, W, 2)).astype(np.float32)
    dense[2, 3] = np.nan
    dense[5, 7, 0] = np.nan
    dense[8, 1, 1] = np.nan
    dense[0, :, 1] = -1.5  # top row flows out of the image
    dense[H - 1, :, 1] = 2.5  # bottom row too
    sparse = np.column_stack([rng.uniform(0, W, 60), rng.uniform(0, H, 60),
                              rng.uniform(-4, 4, 60), rng.uniform(-4, 4, 60)]).astype(np.float32)
    for flow in (FlowFile(config=cam, width=W, height=H, dense=dense),
                 FlowFile(config=cam, width=W, height=H, sparse=sparse)):
        samples = _samples_from_flow(flow, max_samples=max_samples, seed=5)
        got = [(*s.x, *s.u, s.y1, s.y2) for s in samples]
        expected = reference_samples(flow, max_samples, seed=5)
        assert len(expected) < (H * W if flow.is_dense else 60)
        assert got == expected
