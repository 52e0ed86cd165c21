"""End-to-end acceptance checks, one test per advertised guarantee.

Each test exercises the full pipeline at benchmark scale (900x900 image,
810 px focal length, gamma 0.8 unless the sweep varies it) and prints a
one-line pass summary with the measured numbers.
"""

import time

import numpy as np

from rsdiffsfm import (
    CameraConfig,
    MotionEstimate,
    RansacConfig,
    SceneSpec,
    benchmark_config,
    dense_depth,
    exp_so3,
    generate_discrete,
    generate_linearized,
    ransac,
    rectify_image,
    refine,
    rotation_error,
    solve_const_accel,
    solve_const_velocity,
    solve_gs,
    translation_error,
    warp_field,
)
from rsdiffsfm.experiment import run_sweep
from rsdiffsfm.geometry import matrices_ab
from rsdiffsfm.io_formats import ExperimentConfig
from rsdiffsfm.robust import refit_trimmed, score_motion
from rsdiffsfm.rs_solvers import det_polynomial
from rsdiffsfm.synth import CONST_ACCEL, CONST_VELOCITY, GLOBAL_SHUTTER, beta_timestamp

from conftest import gross_outlier, make_spec
from oracles import reference_det_polynomial, refine_objective

CAMERA = benchmark_config(0.8)


def clean_samples(n, seed, k=0.0, camera=CAMERA):
    spec = make_spec(camera, n_points=n + 6, k=k, seed=seed)
    samples, gt = generate_linearized(spec)
    assert len(samples) >= n
    return samples[:n], gt


def test_cv_solver_exact_recovery_and_speed():
    """8-sample constant-velocity solve is exact and takes under 20 ms."""
    worst_v = worst_w = 0.0
    elapsed = []
    for seed in range(100):
        samples, gt = clean_samples(8, seed)
        t0 = time.perf_counter()
        est = solve_const_velocity(samples, CAMERA)
        elapsed.append(time.perf_counter() - t0)
        worst_v = max(worst_v, translation_error(est.v, gt.motion.v))
        worst_w = max(worst_w, float(np.linalg.norm(est.w - gt.motion.w)))
    mean_ms = 1e3 * float(np.mean(elapsed))
    assert worst_v < 1e-5  # degrees
    assert worst_w < 1e-7  # rad
    assert mean_ms < 20.0
    print(f"\n[cv solver] worst v err {worst_v:.2e} deg, "
          f"worst w err {worst_w:.2e} rad, mean {mean_ms:.2f} ms/solve: PASS")


def test_ca_solver_recovers_acceleration():
    """9-sample solver finds k = 0.1 and the selected candidate is exact."""
    worst_k = worst_v = worst_w = worst_deg = worst_rem = 0.0
    for seed in range(100):
        samples, gt = clean_samples(9, seed, k=0.1)
        poly = det_polynomial(samples, CAMERA)
        worst_deg = max(worst_deg, len(np.trim_zeros(poly.coeffs, "b")) - 1)
        worst_rem = max(worst_rem, reference_det_polynomial(samples, CAMERA)[1])
        cands = solve_const_accel(samples, CAMERA)
        worst_k = max(worst_k, min(abs(c.k - 0.1) for c in cands))
        # select the candidate the robust loop would pick: lowest residual
        best = min(cands, key=lambda c: float(np.mean(score_motion(samples, c, CAMERA))))
        worst_v = max(worst_v, translation_error(best.v, gt.motion.v))
        worst_w = max(worst_w, float(np.linalg.norm(best.w - gt.motion.w)))
    assert worst_deg <= 6
    assert worst_rem < 1e-8
    assert worst_k < 1e-5
    assert worst_v < 1e-4  # degrees
    assert worst_w < 1e-6  # rad
    print(f"\n[ca solver] worst k err {worst_k:.2e}, v err {worst_v:.2e} deg, "
          f"w err {worst_w:.2e} rad, poly degree <= {int(worst_deg)}, "
          f"deflation remainder {worst_rem:.2e}: PASS")


def test_reduction_identities():
    """beta(0) = alpha everywhere, and gamma = 0 collapses to global shutter."""
    rng = np.random.default_rng(0)
    n = 1_000_000
    gamma = rng.uniform(0.0, 1.0, n)
    h = rng.uniform(100.0, 2000.0, n)
    y1 = rng.uniform(0.0, 1.0, n) * h
    y2 = rng.uniform(0.0, 1.0, n) * h
    t1 = gamma / h * y1
    t2 = 1.0 + gamma / h * y2
    alpha = t2 - t1
    b = t2 * t2 - t1 * t1
    beta0 = (2.0 * alpha + b * 0.0) / (2.0 + 0.0)
    worst_beta = float(np.max(np.abs(beta0 - alpha)))
    assert worst_beta == 0.0

    cam0 = CameraConfig(gamma=0.0, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)
    worst_cv = worst_ca = 0.0
    for seed in range(20):
        samples, _ = clean_samples(9, seed, camera=cam0)
        gs = solve_gs(samples)
        cv = solve_const_velocity(samples, cam0)
        cands = solve_const_accel(samples, cam0)
        assert len(cands) == 1 and cands[0].k == 0.0
        worst_cv = max(worst_cv, float(np.max(np.abs(cv.v - gs.v))),
                       float(np.max(np.abs(cv.w - gs.w))))
        ca = cands[0]
        worst_ca = max(worst_ca, float(np.max(np.abs(ca.v - gs.v))),
                       float(np.max(np.abs(ca.w - gs.w))))
    assert worst_cv < 1e-10 and worst_ca < 1e-10

    # zero readout ratio: the per-scanline warp is the identity
    motion = MotionEstimate(v=np.array([0.1, 0.1, 0.03]), w=np.array([0.01, 0.01, 0.01]), k=0.1)
    wf = warp_field(np.full((cam0.h, cam0.width), 5.0), motion, cam0)
    assert np.max(np.abs(wf.du)) == 0.0 and np.max(np.abs(wf.dv)) == 0.0
    print(f"\n[reductions] beta(0)-alpha max {worst_beta:.1e} over 1e6 draws, "
          f"gamma=0 solver gaps cv {worst_cv:.1e} / ca {worst_ca:.1e}, "
          f"gamma=0 warp identically zero: PASS")


def test_readout_ratio_sweep_trend():
    """GS errors grow > 3x across the readout sweep; RS errors stay flat."""
    cfg = ExperimentConfig(
        models=[GLOBAL_SHUTTER, CONST_VELOCITY],
        gammas=[round(0.1 * i, 1) for i in range(1, 11)],
        trials=20, n_points=100, ransac_iters=50, use_refine=True, seed=7,
    )
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    te = {(m, g): t for g, _, _, _, m, t, _, _ in rows}
    re = {(m, g): r for g, _, _, _, m, _, r, _ in rows}
    gs_ratio = te[(GLOBAL_SHUTTER, 1.0)] / te[(GLOBAL_SHUTTER, 0.1)]
    cv_te = [te[(CONST_VELOCITY, g)] for g in cfg.gammas]
    cv_ratio = max(cv_te) / min(cv_te)
    gs_rot_ratio = re[(GLOBAL_SHUTTER, 1.0)] / re[(GLOBAL_SHUTTER, 0.1)]
    cv_rot_max = max(re[(CONST_VELOCITY, g)] for g in cfg.gammas)
    assert gs_ratio > 3.0
    assert cv_ratio < 2.0
    # the RS rotation floor is so low that its max/min ratio is dominated by
    # numerical noise; bound the absolute error instead
    assert cv_rot_max < 0.05  # degrees
    assert elapsed < 300.0
    print(f"\n[readout sweep] GS trans x{gs_ratio:.2f} (rot x{gs_rot_ratio:.2f}) "
          f"across gamma, RS trans x{cv_ratio:.2f}, RS rot max {cv_rot_max:.4f} deg, "
          f"{elapsed:.0f}s: PASS")


def test_acceleration_sweep_trend():
    """GS degrades > 2x with |k| = 0.2 while the RS-ca model stays within 1.5x."""
    cfg = ExperimentConfig(
        models=[GLOBAL_SHUTTER, CONST_ACCEL],
        gammas=[0.8],
        ks=[-0.2, -0.1, 0.0, 0.1, 0.2],
        trials=20, n_points=100, ransac_iters=50, use_refine=True, seed=7,
    )
    rows = run_sweep(cfg)
    te = {(m, k): t for _, _, _, k, m, t, _, _ in rows}
    re = {(m, k): r for _, _, _, k, m, _, r, _ in rows}
    gs_neg = te[(GLOBAL_SHUTTER, -0.2)] / te[(GLOBAL_SHUTTER, 0.0)]
    gs_pos = te[(GLOBAL_SHUTTER, 0.2)] / te[(GLOBAL_SHUTTER, 0.0)]
    ca_te = [te[(CONST_ACCEL, k)] for k in cfg.ks]
    ca_re = [re[(CONST_ACCEL, k)] for k in cfg.ks]
    ca_t_ratio = max(ca_te) / min(ca_te)
    ca_r_ratio = max(ca_re) / min(ca_re)
    assert gs_neg > 2.0 and gs_pos > 2.0
    assert ca_t_ratio < 1.5 and ca_r_ratio < 1.5
    print(f"\n[accel sweep] GS x{gs_neg:.2f} / x{gs_pos:.2f} at k = -/+0.2, "
          f"RS-ca spread x{ca_t_ratio:.2f} trans, x{ca_r_ratio:.2f} rot: PASS")


def test_refinement_guarantees():
    """Refinement never raises the objective and drives it to zero from
    robust output."""
    # 1) every refit ends at or below the objective it starts from
    for seed in range(10):
        samples, gt = clean_samples(40, seed, k=0.1)
        rng = np.random.default_rng(seed)
        start = MotionEstimate(
            v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
            w=gt.motion.w + 0.01 * rng.normal(size=3),
            k=0.0,
        )
        unit = start.normalized()  # the gauge `refine` starts in
        initial = refine_objective(samples, unit, CAMERA)
        state = refine(samples, start, CAMERA, CONST_ACCEL)
        assert state.objective <= initial

    # 2) refinement seeded by the robust loop drives the objective to zero
    worst_obj = 0.0
    for seed in range(10):
        samples, gt = clean_samples(60, seed, k=0.1)
        result = ransac(samples, CONST_ACCEL, CAMERA,
                        RansacConfig(iterations=100, seed=seed))
        state = refine(samples, result.motion, CAMERA, CONST_ACCEL)
        worst_obj = max(worst_obj, state.objective)
    assert worst_obj < 1e-16
    print(f"\n[refinement] never above the start, post-robust objective "
          f"max {worst_obj:.1e}: PASS")


def test_outlier_robustness():
    """30% gross outliers: inliers recovered and v error < 0.1 deg, 99/100."""
    fails = 0
    worst_ok = 0.0
    rc = RansacConfig(iterations=300, threshold=0.001)
    for seed in range(100):
        spec = make_spec(CAMERA, n_points=100, seed=seed)
        samples, gt = generate_linearized(spec)
        n_out = int(round(0.3 * len(samples)))
        rng = np.random.default_rng(seed + 50_000)
        mixed = [gross_outlier(s, rng) for s in samples[:n_out]] + list(samples[n_out:])
        true_inl = set(range(n_out, len(mixed)))
        try:
            result = ransac(mixed, CONST_VELOCITY, CAMERA,
                            RansacConfig(iterations=rc.iterations,
                                         threshold=rc.threshold, seed=seed))
            motion = refit_trimmed(mixed, result, CONST_VELOCITY, CAMERA).motion
            err = translation_error(motion.v, gt.motion.v)
            if not true_inl.issubset(set(result.inliers.tolist())) or err >= 0.1:
                fails += 1
            else:
                worst_ok = max(worst_ok, err)
        except Exception:
            fails += 1
    assert fails <= 1
    print(f"\n[robustness] {100 - fails}/100 trials recovered all inliers with "
          f"v err < 0.1 deg (worst pass {worst_ok:.2e} deg): PASS")


def _render_checkerboard_scene(cfg, motion, Z0=6.0):
    """RS and GS views of a textured fronto-parallel plane, with depth."""
    H, W = cfg.h, cfg.width
    py, px = np.mgrid[0:H, 0:W].astype(float)
    x, y = cfg.pixel_to_normalized(px, py)
    betas = beta_timestamp(cfg.timestamp(np.arange(H)), motion.k)
    depth = np.empty((H, W))
    gsx = np.empty((H, W))
    gsy = np.empty((H, W))
    for r in range(H):
        b = betas[r]
        ray = exp_so3(b * motion.w) @ np.stack([x[r], y[r], np.ones(W)])
        t = (Z0 - b * motion.v[2]) / ray[2]
        Xw = ray * t + (b * motion.v)[:, None]
        depth[r] = t
        gsx[r] = Xw[0] / Xw[2]
        gsy[r] = Xw[1] / Xw[2]

    def checker(xn, yn):
        return 255.0 * ((np.floor(24.0 * xn) + np.floor(24.0 * yn)) % 2)

    return checker(gsx, gsy), checker(x, y), depth


def _bench_motion(Z0=6.0, k=0.1):
    v = np.array([1.0, 1.0, 0.3])
    v *= 0.025 * Z0 / np.linalg.norm(v)
    w = np.array([1.0, 1.0, 1.0])
    w *= np.deg2rad(3.0) / np.linalg.norm(w)
    return MotionEstimate(v=v, w=w, k=k)


def test_depth_and_rectification():
    """Dense depth to 1e-6, straightened lines, small residual, tiny gaps."""
    # dense depth from a field exactly consistent with the flow model
    cam = CameraConfig(gamma=0.8, h=90, fx=81.0, fy=81.0, cx=45.0, cy=45.0, width=90)
    motion = MotionEstimate(v=np.array([0.10, 0.10, 0.03]),
                            w=np.deg2rad(3.0) / np.sqrt(3) * np.ones(3), k=0.1)
    py, px = np.mgrid[0:90, 0:90].astype(float)
    x, y = cam.pixel_to_normalized(px, py)
    Z = 5.0 + np.sin(px / 9.0) + np.cos(py / 7.0)
    rho = 1.0 / Z
    g = cam.gamma / cam.h
    ux = np.zeros_like(x)
    uy = np.zeros_like(y)
    for _ in range(60):
        xm = x + 0.5 * ux
        ym = y + 0.5 * uy
        t1 = g * py
        t2 = 1.0 + g * (py + uy * cam.fy)
        beta = ((2.0 * (t2 - t1) + (t2 * t2 - t1 * t1) * motion.k) / (2.0 + motion.k))
        vx, vy, vz = motion.v
        wx, wy, wz = motion.w
        ux_new = beta * ((-vx + xm * vz) * rho
                         + xm * ym * wx - (1.0 + xm * xm) * wy + ym * wz)
        uy_new = beta * ((-vy + ym * vz) * rho
                         + (1.0 + ym * ym) * wx - xm * ym * wy - xm * wz)
        if max(np.max(np.abs(ux_new - ux)), np.max(np.abs(uy_new - uy))) < 1e-16:
            ux, uy = ux_new, uy_new
            break
        ux, uy = ux_new, uy_new
    flow = np.stack([ux * cam.fx, uy * cam.fy], axis=2)
    depth, valid = dense_depth(flow, motion, cam)
    assert valid.all()
    depth_err = float(np.max(np.abs(depth - Z) / Z))
    assert depth_err < 1e-6

    # vertical line scene straightens after rectification
    from test_rectify import render_plane_scene, small_camera

    cfg = small_camera()
    bm = _bench_motion()
    line = lambda xn: 255.0 * np.exp(-(((xn - 0.05) / 0.01) ** 2))
    rs_img, _, pdepth, _ = render_plane_scene(cfg, bm, texture=line)
    wf = warp_field(pdepth, bm, cfg)
    rect, _ = rectify_image(rs_img, wf)
    cents = []
    for r in range(10, cfg.h - 10):
        row = rect[r]
        if row.sum() > 1.0:
            cents.append((row * np.arange(cfg.width)).sum() / row.sum())
    cents = np.array(cents)
    line_dev = float(cents.max() - cents.min())
    assert line_dev < 0.5

    # checkerboard residual against the global-shutter reference
    rs_cb, gs_cb, cb_depth = _render_checkerboard_scene(cfg, bm)
    wf = warp_field(cb_depth, bm, cfg)
    rect_cb, _ = rectify_image(rs_cb, wf)
    m = slice(10, -10)
    before = float(np.abs(rs_cb - gs_cb)[m, m].mean())
    after = float(np.abs(rect_cb - gs_cb)[m, m].mean())
    assert after < 0.25 * before

    # warp gap fraction at benchmark scale
    big = benchmark_config(0.8)
    _, _, big_depth = _render_checkerboard_scene(big, bm)
    wf = warp_field(big_depth, bm, big)
    _, gap = rectify_image(np.zeros((big.h, big.width)), wf)
    assert gap < 0.01
    print(f"\n[depth+rectify] depth rel err {depth_err:.1e}, line spread "
          f"{line_dev:.2f} px, residual ratio {after / before:.2f}, gap "
          f"{gap:.4f}: PASS")


def test_linearization_is_second_order():
    """Discrete-vs-linearized flow gap shrinks at order >= 2 in motion size."""
    scales = [1.0, 0.5, 0.25, 0.125]
    errs = []
    for scale in scales:
        spec = make_spec(CAMERA, n_points=50, norm_translation=0.025 * scale,
                         w_mag_deg=3.0 * scale, k=0.1, seed=11)
        sl, _ = generate_linearized(spec)
        sd, _ = generate_discrete(spec)
        n = min(len(sl), len(sd))
        errs.append(max(np.max(np.abs(a.u - b.u)) for a, b in zip(sl[:n], sd[:n])))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 1.9)
    print(f"\n[linearization] per-halving convergence orders "
          f"{', '.join(f'{s:.2f}' for s in slopes)}: PASS")
