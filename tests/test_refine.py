import importlib

import numpy as np
import pytest

from rsdiffsfm import (
    CameraConfig,
    RansacConfig,
    generate_discrete,
    generate_linearized,
    ransac,
    refine,
    refit_trimmed,
    translation_error,
)
from rsdiffsfm.geometry import FlowBatch, MotionEstimate
from rsdiffsfm.refine import (
    SampleBlocks,
    dense_depth,
    gauss_newton_step,
    objective,
    reduced_jacobian,
    reduced_residuals,
    update_depths,
)
from rsdiffsfm.synth import CONST_ACCEL, CONST_VELOCITY, GLOBAL_SHUTTER

from conftest import gross_outlier, make_spec
from oracles import mgrid_dense_depth


def blocks_for(camera, seed=0, k=0.1, n=40):
    spec = make_spec(camera, n_points=n, k=k, seed=seed)
    samples, gt = generate_linearized(spec)
    return SampleBlocks.build(samples, camera), samples, gt


def start_objective(samples, start, camera, model=CONST_ACCEL):
    """The objective `refine` starts from: over the samples with a valid
    depth at `start` with a unit v, k dropped for the gs and cv models."""
    blocks = SampleBlocks.build(samples, camera, model)
    start = start.normalized()
    motion = MotionEstimate(v=start.v, w=start.w, k=start.k if model == CONST_ACCEL else 0.0)
    rho, valid = update_depths(blocks, motion)
    return objective(blocks, motion, np.where(valid, rho, 0.0), valid)


def test_objective_zero_at_truth(camera):
    blocks, _, gt = blocks_for(camera)
    rho = 1.0 / gt.depths
    assert objective(blocks, gt.motion, rho) < 1e-28


def test_update_depths_recover_truth(camera):
    blocks, _, gt = blocks_for(camera, seed=2)
    rho, valid = update_depths(blocks, gt.motion)
    assert valid.all()
    assert np.max(np.abs(rho - 1.0 / gt.depths)) < 1e-10


def test_refine_monotone_and_converges(camera):
    _, samples, gt = blocks_for(camera, seed=5)
    start = MotionEstimate(
        v=gt.motion.v + np.array([0.01, -0.02, 0.01]),
        w=gt.motion.w + np.array([0.002, 0.001, -0.001]),
        k=0.0,
    )
    state = refine(samples, start, camera, model=CONST_ACCEL)
    assert (state.stop_reason, state.converged, state.polished) == ("converged", True, True)
    assert state.objective < state.start_objective == start_objective(samples, start, camera)


def test_refine_reaches_truth_from_perturbed_start(camera):
    spec = make_spec(camera, n_points=50, k=0.1, seed=6)
    samples, gt = generate_linearized(spec)
    rng = np.random.default_rng(1)
    w_start = gt.motion.w + np.deg2rad(5.0) * rng.normal(size=3) / np.sqrt(3)
    start = MotionEstimate(v=gt.motion.v, w=w_start, k=0.0)
    state = refine(samples, start, camera, CONST_ACCEL)
    assert state.objective < 1e-16
    assert translation_error(state.motion.v, gt.motion.v) < 1e-4
    assert abs(state.motion.k - 0.1) < 1e-6


def test_refine_gs_model_keeps_k_zero(camera):
    spec = make_spec(camera, n_points=30, k=0.0, seed=7)
    samples, gt = generate_linearized(spec)
    start = MotionEstimate(v=gt.motion.v + 0.01, w=gt.motion.w, k=0.5)
    state = refine(samples, start, camera, GLOBAL_SHUTTER)
    assert state.motion.k == 0.0


def test_refine_cv_model_keeps_k_zero(camera):
    spec = make_spec(camera, n_points=30, k=0.0, seed=8)
    samples, gt = generate_linearized(spec)
    start = MotionEstimate(v=gt.motion.v, w=gt.motion.w + 0.001, k=0.3)
    state = refine(samples, start, camera, CONST_VELOCITY)
    assert state.motion.k == 0.0
    assert state.objective < 1e-16


def test_polish_failure_keeps_descent_result(camera, monkeypatch):
    """A ValueError from the Levenberg-Marquardt loop returns the start,
    reported as an invalid start; any other error propagates."""
    refine_module = importlib.import_module("rsdiffsfm.refine")
    spec = make_spec(camera, n_points=30, k=0.1, seed=11)
    samples, gt = generate_linearized(spec)
    start = MotionEstimate(v=gt.motion.v + 0.01, w=gt.motion.w, k=0.0)

    def raising(exc):
        def levenberg_marquardt(*args, **kwargs):
            raise exc
        return levenberg_marquardt

    monkeypatch.setattr(refine_module, "_levenberg_marquardt", raising(ValueError("non-finite")))
    state = refine(samples, start, camera, CONST_ACCEL)
    assert (state.stop_reason, state.polished, state.n_cycles) == ("invalid_start", False, 0)
    assert state.objective == start_objective(samples, start, camera) > 0
    normalized = start.normalized()
    for field in ("v", "w", "k"):
        assert np.array_equal(getattr(state.motion, field), getattr(normalized, field))
    rho, _ = update_depths(SampleBlocks.build(samples, camera), normalized)
    assert np.array_equal(state.inv_depths, rho, equal_nan=True)
    monkeypatch.setattr(refine_module, "_levenberg_marquardt", raising(TypeError("bad call")))
    with pytest.raises(TypeError):
        refine(samples, start, camera, CONST_ACCEL)


def test_dense_depth_invalid_pixels(camera):
    flow = np.full((camera.h, camera.width, 2), np.nan, dtype=float)
    motion = MotionEstimate(v=np.array([0.1, 0.1, 0.0]), w=np.zeros(3), k=0.0)
    depth, valid = dense_depth(flow, motion, camera)
    assert not valid.any()
    assert np.isnan(depth).all()


@pytest.mark.parametrize("gamma, k", [(0.0, 0.0), (0.8, 0.3)])
def test_dense_depth_matches_full_grid_reference(gamma, k):
    cam = CameraConfig(gamma=gamma, h=30, fx=27.0, fy=27.0, cx=15.0, cy=15.0, width=30)
    rng = np.random.default_rng(3)
    flow = rng.normal(0.0, 1.5, (30, 30, 2))
    flow[2, 3, 0], flow[5, 6, 1] = np.nan, np.inf
    motion = MotionEstimate(v=np.array([0.3, -0.2, 1.0]), w=np.array([0.01, -0.02, 0.005]), k=k)
    depth, valid = dense_depth(flow, motion, cam)
    ref_depth, ref_valid = mgrid_dense_depth(flow, motion, cam)
    assert np.array_equal(depth, ref_depth, equal_nan=True)
    assert np.array_equal(valid, ref_valid)
    assert 0 < valid.sum() < 30 * 30 - 2


def test_refine_reports_why_it_stopped(camera):
    spec = make_spec(camera, n_points=40, k=0.1, seed=5)
    samples, gt = generate_linearized(spec)
    start = MotionEstimate(v=gt.motion.v + np.array([0.01, -0.02, 0.01]),
                           w=gt.motion.w + np.array([0.002, 0.001, -0.001]), k=0.0)
    initial = start_objective(samples, start, camera)
    done = refine(samples, start, camera, CONST_ACCEL)
    assert (done.stop_reason, done.converged) == ("converged", True)
    assert 2 < done.n_cycles < 400 and 0 < done.lm_iterations < done.n_cycles
    # two cost evaluations, the start's and one trial step, hit the cap
    capped = refine(samples, start, camera, CONST_ACCEL, max_cycles=2)
    assert (capped.stop_reason, capped.n_cycles, capped.converged) == ("cycle_cap", 2, False)
    assert capped.polished and done.objective < capped.objective < initial
    # 3 samples give 6 residuals for the 7 unknowns of the ca model
    few = refine(samples[:3], start, camera, CONST_ACCEL)
    assert (few.stop_reason, few.n_cycles, few.polished) == ("invalid_start", 0, False)
    # forward motion without rotation from flows u = x at every midpoint x:
    # the gs flow model fits them with rho = 1 and no rounding error
    m = np.random.default_rng(0).uniform(-0.3, 0.3, (10, 2))
    exact = FlowBatch(x=m / 2, u=m, y1=np.zeros(10), y2=np.zeros(10))
    forward = MotionEstimate(v=np.array([0.0, 0.0, 1.0]), w=np.zeros(3), k=0.0)
    fitted = refine(exact, forward, None, GLOBAL_SHUTTER)
    assert (fitted.stop_reason, fitted.objective, fitted.n_cycles) == ("zero_objective", 0.0, 0)
    assert fitted.valid.all() and np.all(fitted.inv_depths == 1.0)


def test_refine_reports_a_start_without_valid_depth(camera):
    """A reversed translation puts every sample behind the camera: no
    sample has a valid depth, so there is no objective to minimize, and the
    refit says so instead of reporting an exact fit."""
    spec = make_spec(camera, n_points=40, k=0.1, seed=5)
    samples, gt = generate_linearized(spec)
    flipped = MotionEstimate(v=-gt.motion.v, w=gt.motion.w, k=0.1)
    state = refine(samples, flipped, camera, CONST_ACCEL)
    assert (state.stop_reason, state.objective, state.start_objective) == (
        "no_valid_depth", np.inf, np.inf)
    assert not (state.valid.any() or state.polished or state.converged)
    assert state.n_cycles == state.lm_iterations == 0


@pytest.mark.parametrize("model", [GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL])
def test_reduced_jacobian_matches_central_differences(camera, model):
    spec = make_spec(camera, n_points=60, k=0.2 if model == CONST_ACCEL else 0.0, seed=3)
    samples, gt = generate_linearized(spec)
    batch = FlowBatch.of(samples)
    u = batch.u.copy()
    # random flows on a fifth of the samples put some behind the camera
    u[::5] = np.random.default_rng(0).uniform(-0.06, 0.06, u[::5].shape)
    blocks = SampleBlocks.build(FlowBatch(x=batch.x, u=u, y1=batch.y1, y2=batch.y2), camera, model)
    start = MotionEstimate(v=gt.motion.v + 0.01, w=gt.motion.w - 0.002,
                           k=0.15 if model == CONST_ACCEL else 0.0)
    theta = np.concatenate([start.v, start.w] + ([[start.k]] if model == CONST_ACCEL else []))
    _, valid = update_depths(blocks, start)
    assert 0 < np.count_nonzero(~valid) < len(valid) // 2
    jac = reduced_jacobian(theta, blocks)
    assert jac.shape == (2 * len(valid), 7 if model == CONST_ACCEL else 6)
    numeric = np.empty_like(jac)
    for j in range(len(theta)):
        e = np.zeros(len(theta))
        e[j] = 1e-6 * max(1.0, abs(theta[j]))
        diff = reduced_residuals(theta + e, blocks) - reduced_residuals(theta - e, blocks)
        numeric[:, j] = diff / (2 * e[j])
    # each column, the k column included, on its own scale
    assert np.all(np.linalg.norm(jac - numeric, axis=0) < 1e-6 * np.linalg.norm(jac, axis=0))


def with_noise(samples, camera, noise_px, rng):
    """The samples as a batch, each flow and its end row moved by Gaussian
    pixel noise."""
    batch = FlowBatch.of(samples)
    e = rng.normal(0.0, noise_px, batch.u.shape)
    return FlowBatch(x=batch.x, u=batch.u + e / camera.fx, y1=batch.y1, y2=batch.y2 + e[:, 1])


@pytest.mark.parametrize("model", [GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL])
def test_few_cycles_reach_the_long_descent_objective(camera, model):
    """From a perturbed start the refit ends at the objective that the refit
    started from the true motion ends at."""
    for seed in range(3):
        spec = make_spec(camera, n_points=100, k=0.2 if model == CONST_ACCEL else 0.0, seed=seed)
        clean, gt = generate_discrete(spec, model)
        rng = np.random.default_rng(seed)
        samples = with_noise(clean, camera, 0.5, rng)
        start = MotionEstimate(v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
                               w=gt.motion.w + 0.005 * rng.normal(size=3), k=0.0)
        perturbed = refine(samples, start, camera, model)
        truth = refine(samples, gt.motion, camera, model)
        assert perturbed.converged and perturbed.polished
        assert abs(perturbed.objective - truth.objective) <= 1e-9 * truth.objective


@pytest.mark.parametrize("model", [GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL])
def test_refit_stable_under_one_ulp_flow_change(camera, model):
    """Moving every flow by one ulp moves the refit motion by far less than
    the refit's own accuracy: it stops at the stationary point, not wherever
    the optimizer's cost test runs out of resolution."""
    spec = make_spec(camera, n_points=400, k=0.15 if model == CONST_ACCEL else 0.0, seed=4)
    clean, _ = generate_discrete(spec, model)
    rng = np.random.default_rng(4)
    samples = [gross_outlier(s, rng) if i % 4 == 0 else s for i, s in enumerate(clean)]
    batch = with_noise(samples, camera, 0.05, rng)
    moved = FlowBatch(x=batch.x, u=np.nextafter(batch.u, np.inf), y1=batch.y1, y2=batch.y2)
    result = ransac(batch, model, camera, RansacConfig(iterations=100, seed=4))
    a = refit_trimmed(batch, result, model, camera).motion
    b = refit_trimmed(moved, result, model, camera).motion
    assert max(np.max(np.abs(a.v - b.v)), np.max(np.abs(a.w - b.w)), abs(a.k - b.k)) < 1e-10


@pytest.mark.parametrize("model", [CONST_VELOCITY, CONST_ACCEL])
def test_gauss_newton_step_is_the_least_squares_step_off_the_gauge(camera, model):
    """The BLAS-free normal-equation step equals the least-squares step of
    the reduced Jacobian, and it takes no step along the scale gauge
    (v / |v|, 0, 0), where the reduced residual does not change."""
    for seed in (4, 7):
        spec = make_spec(camera, n_points=400, k=0.15 if model == CONST_ACCEL else 0.0, seed=seed)
        clean, _ = generate_discrete(spec, model)
        rng = np.random.default_rng(seed)
        samples = [gross_outlier(s, rng) if i % 4 == 0 else s for i, s in enumerate(clean)]
        batch = with_noise(samples, camera, 0.05, rng)
        result = ransac(batch, model, camera, RansacConfig(iterations=100, seed=seed))
        inliers = batch[result.inliers]
        assert refine(inliers, result.motion, camera, model).polished
        start = result.motion.normalized()  # the theta the refit starts from
        theta = np.concatenate([start.v, start.w] + ([[start.k]] if model == CONST_ACCEL else []))
        blocks = SampleBlocks.build(inliers, camera, model)
        J, r = reduced_jacobian(theta, blocks), reduced_residuals(theta, blocks)
        step = gauss_newton_step(J, r)
        expected = np.linalg.lstsq(J, r, rcond=None)[0]
        assert np.linalg.norm(step - expected) < 1e-12 * np.linalg.norm(expected)
        assert abs(step[:3] @ start.v) < 1e-12 * np.linalg.norm(step)


@pytest.mark.parametrize("model", [CONST_VELOCITY, CONST_ACCEL])
def test_polish_evaluates_terms_once_per_theta(camera, model, monkeypatch):
    """Levenberg-Marquardt needs the residuals and the Jacobian at the same
    theta; `_terms` runs once per theta the polish evaluates."""
    refine_module = importlib.import_module("rsdiffsfm.refine")
    spec = make_spec(camera, n_points=100, k=0.2 if model == CONST_ACCEL else 0.0, seed=1)
    clean, gt = generate_discrete(spec, model)
    rng = np.random.default_rng(1)
    samples = with_noise(clean, camera, 0.5, rng)
    start = MotionEstimate(v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
                           w=gt.motion.w + 0.005 * rng.normal(size=3), k=0.0)
    expected = refine(samples, start, camera, model)
    n_terms = 0
    thetas = []  # the bytes of each theta whose terms the polish computes
    jacobian_thetas = []  # the bytes of each theta it evaluates the Jacobian at
    loop_terms = []  # `_terms` calls made inside each polish
    terms, reduced_terms = refine_module._terms, refine_module._reduced_terms
    jacobian = refine_module._jacobian
    levenberg_marquardt = refine_module._levenberg_marquardt

    def counting_terms(blocks, motion):
        nonlocal n_terms
        n_terms += 1
        return terms(blocks, motion)

    def recording_reduced_terms(theta, blocks):
        thetas.append(np.asarray(theta).tobytes())
        return reduced_terms(theta, blocks)

    def recording_jacobian(theta, blocks, theta_terms):
        jacobian_thetas.append(np.asarray(theta).tobytes())
        return jacobian(theta, blocks, theta_terms)

    def counting_loop(*args, **kwargs):
        before = n_terms
        out = levenberg_marquardt(*args, **kwargs)
        loop_terms.append(n_terms - before)
        return out

    monkeypatch.setattr(refine_module, "_terms", counting_terms)
    monkeypatch.setattr(refine_module, "_reduced_terms", recording_reduced_terms)
    monkeypatch.setattr(refine_module, "_jacobian", recording_jacobian)
    monkeypatch.setattr(refine_module, "_levenberg_marquardt", counting_loop)
    state = refine(samples, start, camera, model)
    # the instrumentation changes no bit of the result
    assert state.polished and state.objective == expected.objective
    assert np.array_equal(state.motion.v, expected.motion.v)
    assert np.array_equal(state.motion.w, expected.motion.w) and state.motion.k == expected.motion.k
    # the residuals and the Jacobian at one theta share its terms: each theta
    # has its terms computed once, with one `_terms` call
    assert len(thetas) + len(jacobian_thetas) > 10
    assert len(set(thetas)) == len(thetas) and set(jacobian_thetas) <= set(thetas)
    assert loop_terms == [len(thetas)]


def test_ca_refine_at_zero_readout_keeps_k_and_polishes():
    """At gamma = 0 the scanline factor does not depend on k, so the k column
    of the reduced Jacobian is zero and the damped normal equations stay
    singular there.  The ca refit still polishes, keeps k, and reaches the
    objective of the cv refit, which has no k."""
    camera = CameraConfig(gamma=0.0, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)
    for seed in range(3):
        spec = make_spec(camera, n_points=100, seed=seed)
        clean, gt = generate_discrete(spec, CONST_ACCEL)
        rng = np.random.default_rng(seed)
        samples = with_noise(clean, camera, 0.5, rng)
        start = MotionEstimate(v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
                               w=gt.motion.w + 0.005 * rng.normal(size=3), k=0.1)
        ca = refine(samples, start, camera, CONST_ACCEL)
        cv = refine(samples, start, camera, CONST_VELOCITY)
        assert ca.polished and cv.polished and ca.motion.k == 0.1
        assert abs(ca.objective - cv.objective) <= 1e-12 * cv.objective
