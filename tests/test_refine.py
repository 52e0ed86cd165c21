import dataclasses
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
    _jacobian,
    _motion,
    _reduced_terms,
    _terms,
    dense_depth,
    gauss_newton_step,
    refine_stack,
)
from rsdiffsfm.synth import CONST_ACCEL, CONST_VELOCITY, GLOBAL_SHUTTER

from conftest import cpu_per_wall, gross_outlier, make_spec
from oracles import mgrid_dense_depth, motion_stack, refine_objective


def blocks_for(camera, seed=0, k=0.1, n=40):
    spec = make_spec(camera, n_points=n, k=k, seed=seed)
    samples, gt = generate_linearized(spec)
    return SampleBlocks.of([(samples, camera, CONST_ACCEL)]), samples, gt


def start_objective(samples, start, camera, model=CONST_ACCEL):
    """The objective `refine` starts from: over the samples with a valid
    depth at `start` with a unit v, k dropped for the gs and cv models."""
    start = start.normalized()
    motion = MotionEstimate(v=start.v, w=start.w, k=start.k if model == CONST_ACCEL else 0.0)
    return refine_objective(samples, motion, camera, model)


def residual_vector(theta, blocks):
    """The flow errors (2N,) that the Levenberg-Marquardt loop minimizes at
    motion `theta`, for the stack of one problem `blocks`."""
    return _reduced_terms(blocks, *_motion(theta[None])).r.ravel()


def jacobian(theta, blocks):
    """The loop's analytic Jacobian (2N, n) of `residual_vector` at `theta`."""
    return _jacobian(theta[None], blocks, _reduced_terms(blocks, *_motion(theta[None])))[0]


def test_objective_zero_at_truth(camera):
    """The flow model reproduces the linearized generator's flows at the
    true motion and depths."""
    blocks, _, gt = blocks_for(camera)
    rho = 1.0 / gt.depths
    _, q, c = _terms(blocks, *motion_stack(gt.motion))
    assert np.sum((c[0] - rho[:, None] * q[0]) ** 2) < 1e-28


def test_update_depths_recover_truth(camera):
    """The closed-form inverse depths of the refinement are the true ones."""
    blocks, _, gt = blocks_for(camera, seed=2)
    terms = _reduced_terms(blocks, *motion_stack(gt.motion))
    assert terms.valid.all()
    assert np.max(np.abs(terms.rho[0] - 1.0 / gt.depths)) < 1e-10


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


def test_refine_needs_a_camera(camera):
    """No model is refined under a guessed camera: the camera is required."""
    samples, gt = generate_linearized(make_spec(camera, n_points=20, seed=8))
    with pytest.raises(TypeError, match="config"):
        refine(samples, gt.motion)
    with pytest.raises(TypeError, match="config"):
        refine(samples, gt.motion, model=CONST_ACCEL)


def test_polish_failure_keeps_descent_result(camera, monkeypatch):
    """A start with a non-finite residual returns the start, reported as an
    invalid start; an error raised in the Levenberg-Marquardt loop
    propagates."""
    refine_module = importlib.import_module("rsdiffsfm.refine")
    spec = make_spec(camera, n_points=30, k=0.1, seed=11)
    clean, gt = generate_linearized(spec)
    batch = FlowBatch.of(clean)
    u = batch.u.copy()
    u[4] = np.nan  # no valid depth there, and a NaN flow error
    samples = FlowBatch(x=batch.x, u=u, y1=batch.y1, y2=batch.y2)
    start = MotionEstimate(v=gt.motion.v + 0.01, w=gt.motion.w, k=0.0)
    state = refine(samples, start, camera, CONST_ACCEL)
    assert (state.stop_reason, state.polished, state.n_cycles) == ("invalid_start", False, 0)
    assert state.objective == start_objective(samples, start, camera) > 0
    normalized = start.normalized()
    for field in ("v", "w", "k"):
        assert np.array_equal(getattr(state.motion, field), getattr(normalized, field))
    blocks = SampleBlocks.of([(samples, camera, CONST_ACCEL)])
    rho = _reduced_terms(blocks, *motion_stack(normalized)).rho[0]
    assert np.array_equal(state.inv_depths, rho, equal_nan=True)

    def raising(*args, **kwargs):
        raise TypeError("bad call")

    monkeypatch.setattr(refine_module, "_levenberg_marquardt", raising)
    with pytest.raises(TypeError):
        refine(clean, start, camera, CONST_ACCEL)


@pytest.mark.parametrize("reliable", [False, True])
def test_refine_keeps_the_start_v_reliable(camera, reliable):
    """The refit's motion carries its start's v_reliable flag, whether the
    loop's result is accepted or the start is returned."""
    clean, gt = generate_discrete(make_spec(camera, n_points=40, k=0.1, seed=3))
    start = MotionEstimate(v=gt.motion.v + 0.01, w=gt.motion.w, k=0.0, v_reliable=reliable)
    states = refine_stack([(clean, start, camera, CONST_ACCEL),
                           (clean[:3], start, camera, CONST_ACCEL)])
    assert [(s.stop_reason, s.polished) for s in states] == [
        ("converged", True), ("invalid_start", False)]
    assert [s.motion.v_reliable for s in states] == [reliable, reliable]


def assert_same_state(a, b):
    """Two refine states are equal, bit for bit."""
    for field in ("v", "w"):
        assert np.array_equal(getattr(a.motion, field), getattr(b.motion, field))
    assert a.motion.k == b.motion.k
    assert np.array_equal(a.inv_depths, b.inv_depths, equal_nan=True)
    assert np.array_equal(a.valid, b.valid)
    fields = ("objective", "start_objective", "n_cycles", "lm_iterations", "converged",
              "stop_reason", "polished")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


@pytest.mark.parametrize("model", [CONST_VELOCITY, CONST_ACCEL])
def test_stacked_refits_equal_refits_alone(camera, model):
    """In one stack padded to its largest problem, each problem gets the
    state `refine` gives it alone, bit for bit: noisy problems of 25 to 60
    samples (one ca start below the k bound, one farther from the truth),
    too few samples for the unknowns, a reversed translation and an exact
    fit at gamma 0.  The noisy problems converge on three different loop
    iterations, and their single polish stack changes no bit either."""
    problems = []
    for seed, n, k in ((5, 40, 0.0), (6, 25, -1.995), (7, 60, 0.0)):
        spec = make_spec(camera, n_points=n, k=0.1 if model == CONST_ACCEL else 0.0, seed=seed)
        clean, gt = generate_discrete(spec)
        rng = np.random.default_rng(seed)
        start = MotionEstimate(v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
                               w=gt.motion.w + 0.005 * rng.normal(size=3), k=k)
        problems.append((with_noise(clean, camera, 0.5, rng), start, camera, model))
    few = problems[0][0][:3 if model == CONST_ACCEL else 2]
    flipped = MotionEstimate(v=-gt.motion.v, w=gt.motion.w, k=0.1)
    m = np.random.default_rng(0).uniform(-0.3, 0.3, (10, 2))
    exact = FlowBatch(x=m / 2, u=m, y1=np.zeros(10), y2=np.zeros(10))
    forward = MotionEstimate(v=np.array([0.0, 0.0, 1.0]), w=np.zeros(3), k=0.0)
    rng = np.random.default_rng(8)
    far = MotionEstimate(v=gt.motion.v * (1.0 + 0.5 * rng.normal(size=3)),
                         w=gt.motion.w + 0.05 * rng.normal(size=3), k=0.0)
    problems[1:1] = [(few, problems[0][1], camera, model), (problems[2][0], flipped, camera, model),
                     (exact, forward, dataclasses.replace(camera, gamma=0.0), model)]
    problems.append((problems[-1][0], far, camera, model))
    stacked = refine_stack(problems)
    assert [s.stop_reason for s in stacked] == [
        "converged", "invalid_start", "no_valid_depth", "zero_objective"] + ["converged"] * 3
    assert len({s.n_cycles for s in stacked if s.converged}) == 3
    for state, problem in zip(stacked, problems, strict=True):
        assert_same_state(state, refine(*problem))


def test_refit_trimmed_on_sequences_equals_single_refits(camera):
    """Equal-length sequences of samples, results and cameras give the list
    of the single refits' states, bit for bit, from one stack."""
    batches, results, cameras = [], [], []
    for seed, gamma in ((1, 0.8), (2, 0.4), (3, 1.0)):
        cam = CameraConfig(gamma=gamma, h=camera.h, fx=camera.fx, fy=camera.fy, cx=camera.cx,
                           cy=camera.cy, width=camera.width)
        clean, _ = generate_discrete(make_spec(cam, n_points=60 + 30 * seed, k=0.1, seed=seed))
        rng = np.random.default_rng(seed)
        samples = [gross_outlier(s, rng) if i % 4 == 0 else s for i, s in enumerate(clean)]
        batches.append(with_noise(samples, cam, 0.05, rng))
        rc = RansacConfig(iterations=50, seed=seed)
        results.append(ransac(batches[-1], CONST_ACCEL, cam, rc))
        cameras.append(cam)
    states = refit_trimmed(batches, results, [CONST_ACCEL] * 3, cameras)
    assert len(states) == 3 and all(s.polished for s in states)
    for state, batch, result, cam in zip(states, batches, results, cameras):
        assert_same_state(state, refit_trimmed(batch, result, CONST_ACCEL, cam))
    with pytest.raises(ValueError):
        refit_trimmed(batches, results[:2], [CONST_ACCEL] * 3, cameras)


def test_refit_trimmed_stacks_gs_and_cv_problems(camera):
    """gs, cv and ca problems in one stack each get, bit for bit, the state
    of its refit alone; the gs and cv refits keep k at exactly 0."""
    samples, results, cameras, models = [], [], [], []
    for seed, gamma in ((1, 0.8), (2, 0.4), (3, 1.0)):
        cam = dataclasses.replace(camera, gamma=gamma)
        clean, _ = generate_discrete(make_spec(cam, n_points=50 + 20 * seed, seed=seed))
        rng = np.random.default_rng(seed)
        batch = with_noise([gross_outlier(s, rng) if i % 5 == 0 else s
                            for i, s in enumerate(clean)], cam, 0.5, rng)
        for model in (GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL):
            samples.append(batch)
            results.append(ransac(batch, model, cam, RansacConfig(iterations=50, seed=seed)))
            cameras.append(cam)
            models.append(model)
    states = refit_trimmed(samples, results, models, cameras)
    for state, *problem in zip(states, samples, results, models, cameras, strict=True):
        assert_same_state(state, refit_trimmed(*problem))
    assert {s.stop_reason for s in states} == {"converged"}
    assert all(s.polished for s in states)
    assert [s.motion.k == 0.0 for s in states] == [m != CONST_ACCEL for m in models]


def test_stacked_refits_run_on_one_thread(camera):
    """Every product of the stacked loop is an `einsum` or a batched
    pseudo-inverse of 6 x 6 or 7 x 7 systems, too small to wake OpenBLAS's
    worker threads: a stack of the readout sweep's shape (200 cv problems of
    50 samples) and one 2000-sample ca refit use no more CPU time than wall
    time, within 1.5x."""
    problems = []
    for seed in range(200):
        clean, gt = generate_discrete(make_spec(camera, n_points=50, seed=seed))
        rng = np.random.default_rng(seed)
        start = MotionEstimate(v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
                               w=gt.motion.w + 0.005 * rng.normal(size=3))
        problems.append((with_noise(clean, camera, 0.5, rng), start, camera, CONST_VELOCITY))
    assert cpu_per_wall(lambda: refine_stack(problems), 2) <= 1.5
    clean, gt = generate_discrete(make_spec(camera, n_points=2000, k=0.1, seed=1))
    rng = np.random.default_rng(1)
    samples = with_noise(clean, camera, 0.5, rng)
    start = MotionEstimate(v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
                           w=gt.motion.w + 0.005 * rng.normal(size=3), k=0.0)
    assert refine(samples, start, camera, CONST_ACCEL).polished
    assert cpu_per_wall(lambda: refine(samples, start, camera, CONST_ACCEL), 3) <= 1.5


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
    blocks = SampleBlocks.of([(FlowBatch(x=batch.x, u=u, y1=batch.y1, y2=batch.y2), camera, model)])
    start = MotionEstimate(v=gt.motion.v + 0.01, w=gt.motion.w - 0.002,
                           k=0.15 if model == CONST_ACCEL else 0.0)
    theta = np.concatenate([start.v, start.w, [start.k]])
    valid = _reduced_terms(blocks, *motion_stack(start)).valid[0]
    assert 0 < np.count_nonzero(~valid) < len(valid) // 2
    jac = jacobian(theta, blocks)
    assert jac.shape == (2 * len(valid), 7)
    numeric = np.empty_like(jac)
    for j in range(len(theta)):
        e = np.zeros(len(theta))
        e[j] = 1e-6 * max(1.0, abs(theta[j]))
        diff = residual_vector(theta + e, blocks) - residual_vector(theta - e, blocks)
        numeric[:, j] = diff / (2 * e[j])
    # each column on its own scale, ca's k column included; under gs and cv
    # beta does not depend on k, whose column is exactly 0 (the numeric one
    # holds the rounding of beta(a, a, k) at k != 0)
    cols = 7 if model == CONST_ACCEL else 6
    error = np.linalg.norm(jac - numeric, axis=0)[:cols]
    assert np.all(error < 1e-6 * np.linalg.norm(jac, axis=0)[:cols])
    if model != CONST_ACCEL:
        assert not jac[:, 6].any()


def with_noise(samples, camera, noise_px, rng):
    """The samples as a batch, each flow and its end row moved by Gaussian
    pixel noise."""
    batch = FlowBatch.of(samples)
    e = rng.normal(0.0, noise_px, batch.u.shape)
    return FlowBatch(x=batch.x, u=batch.u + e / camera.fx, y1=batch.y1, y2=batch.y2 + e[:, 1])


def perturbed_problem(camera, model, seed):
    """Noisy samples of a 100-point scene, a start perturbed from its true
    motion, and that motion."""
    spec = make_spec(camera, n_points=100, k=0.2 if model == CONST_ACCEL else 0.0, seed=seed)
    clean, gt = generate_discrete(spec)
    rng = np.random.default_rng(seed)
    samples = with_noise(clean, camera, 0.5, rng)
    start = MotionEstimate(v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
                           w=gt.motion.w + 0.005 * rng.normal(size=3), k=0.0)
    return samples, start, gt


@pytest.mark.parametrize("model", [GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL])
def test_few_cycles_reach_the_long_descent_objective(camera, model):
    """From a perturbed start the refit ends at the objective that the refit
    started from the true motion ends at."""
    for seed in range(3):
        samples, start, gt = perturbed_problem(camera, model, seed)
        perturbed = refine(samples, start, camera, model)
        truth = refine(samples, gt.motion, camera, model)
        assert perturbed.converged and perturbed.polished
        assert abs(perturbed.objective - truth.objective) <= 1e-9 * truth.objective


@pytest.mark.parametrize("model", [GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL])
def test_converged_refit_ends_without_a_tail_of_rejected_trials(camera, model):
    """Once no step's linear model predicts a decrease the rounded cost can
    resolve, the loop stops before evaluating the trial: from a perturbed
    start it rejects at most one trial, where raising lam until the step
    vanished rejected up to 16."""
    for seed in range(6):
        samples, start, _ = perturbed_problem(camera, model, seed)
        state = refine(samples, start, camera, model)
        assert state.converged and state.polished
        assert state.n_cycles - 1 - state.lm_iterations <= 1


@pytest.mark.parametrize("model", [GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL])
def test_refit_stable_under_one_ulp_flow_change(camera, model):
    """Moving every flow by one ulp moves the refit motion by far less than
    the refit's own accuracy: it stops at the stationary point, not wherever
    the optimizer's cost test runs out of resolution."""
    spec = make_spec(camera, n_points=400, k=0.15 if model == CONST_ACCEL else 0.0, seed=4)
    clean, _ = generate_discrete(spec)
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
        clean, _ = generate_discrete(spec)
        rng = np.random.default_rng(seed)
        samples = [gross_outlier(s, rng) if i % 4 == 0 else s for i, s in enumerate(clean)]
        batch = with_noise(samples, camera, 0.05, rng)
        result = ransac(batch, model, camera, RansacConfig(iterations=100, seed=seed))
        inliers = batch[result.inliers]
        assert refine(inliers, result.motion, camera, model).polished
        start = result.motion.normalized()  # the theta the refit starts from
        theta = np.concatenate([start.v, start.w, [start.k if model == CONST_ACCEL else 0.0]])
        blocks = SampleBlocks.of([(inliers, camera, model)])
        J, r = jacobian(theta, blocks), residual_vector(theta, blocks)
        step = gauss_newton_step(J[None], r[None], theta[None])[0]
        expected = np.linalg.lstsq(J, r, rcond=None)[0]
        assert np.linalg.norm(step - expected) < 1e-12 * np.linalg.norm(expected)
        assert abs(step[:3] @ start.v) < 1e-12 * np.linalg.norm(step)


def motion_key(motion):
    return motion.v.tobytes(), motion.w.tobytes(), motion.k


def row_keys(v, w, k):
    """The `motion_key` of each motion of a stack."""
    return [(v[p].tobytes(), w[p].tobytes(), float(k[p])) for p in range(len(k))]


@pytest.mark.parametrize("model", [CONST_VELOCITY, CONST_ACCEL])
def test_polish_evaluates_terms_once_per_theta(camera, model, monkeypatch):
    """A refit evaluates the flow model once per theta: `_terms` runs once
    for each distinct motion, the start and the final one included, and the
    residuals, the Jacobian and the objective at one theta share that call:
    the loop's cost evaluations and the two polish steps' motions.  The
    start is far enough from the truth for the loop to reject some steps."""
    refine_module = importlib.import_module("rsdiffsfm.refine")
    spec = make_spec(camera, n_points=100, k=0.2 if model == CONST_ACCEL else 0.0, seed=1)
    clean, gt = generate_discrete(spec)
    rng = np.random.default_rng(1)
    samples = with_noise(clean, camera, 0.5, rng)
    start = MotionEstimate(v=gt.motion.v * (1.0 + 2.0 * rng.normal(size=3)),
                           w=gt.motion.w + 0.1 * rng.normal(size=3), k=0.0)
    expected = refine(samples, start, camera, model)
    keys = []  # the motion of each `_terms` call, as bytes
    terms, jacobian = refine_module._terms, refine_module._jacobian

    def recording_terms(blocks, v, w, k):
        keys.extend(row_keys(v, w, k))
        return terms(blocks, v, w, k)

    def checking_jacobian(theta, blocks, theta_terms):
        # formed from the terms of its own theta, computed before
        expected = row_keys(*_motion(theta))
        for key, own in zip(row_keys(*theta_terms[:3]), expected, strict=True):
            assert key == own in keys
        return jacobian(theta, blocks, theta_terms)

    monkeypatch.setattr(refine_module, "_terms", recording_terms)
    monkeypatch.setattr(refine_module, "_jacobian", checking_jacobian)
    state = refine(samples, start, camera, model)
    # the instrumentation changes no bit of the result
    assert state.polished and state.objective == expected.objective
    assert np.array_equal(state.motion.v, expected.motion.v)
    assert np.array_equal(state.motion.w, expected.motion.w) and state.motion.k == expected.motion.k
    assert len(keys) > 10 and len(set(keys)) == len(keys)
    assert len(keys) == state.n_cycles + 2 and state.lm_iterations < state.n_cycles - 1
    unit = start.normalized()
    assert keys[0] == motion_key(MotionEstimate(v=unit.v, w=unit.w, k=0.0))
    v, w, k = keys[-1]
    final = MotionEstimate(v=np.frombuffer(v), w=np.frombuffer(w), k=k).normalized()
    assert motion_key(final) == motion_key(state.motion)


def test_ca_refine_at_zero_readout_keeps_k_and_polishes():
    """At gamma = 0 the scanline factor does not depend on k, so the k column
    of the reduced Jacobian is zero and the damped normal equations stay
    singular there.  The ca refit still polishes, keeps k, and reaches the
    objective of the cv refit, which has no k."""
    camera = CameraConfig(gamma=0.0, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)
    for seed in range(3):
        spec = make_spec(camera, n_points=100, seed=seed)
        clean, gt = generate_discrete(spec)
        rng = np.random.default_rng(seed)
        samples = with_noise(clean, camera, 0.5, rng)
        start = MotionEstimate(v=gt.motion.v * (1.0 + 0.2 * rng.normal(size=3)),
                               w=gt.motion.w + 0.005 * rng.normal(size=3), k=0.1)
        ca = refine(samples, start, camera, CONST_ACCEL)
        cv = refine(samples, start, camera, CONST_VELOCITY)
        assert ca.polished and cv.polished and ca.motion.k == 0.1
        assert abs(ca.objective - cv.objective) <= 1e-12 * cv.objective


def test_ca_refine_from_k_near_its_bound(camera):
    """A start at k = -1.995, below the -1.99 that the loop clamps k to: the
    start objective is that of the caller's k, and the refit returns the
    clamped k with the objective, depths and validity of its own motion."""
    spec = make_spec(camera, n_points=60, k=0.1, seed=3)
    clean, gt = generate_discrete(spec)
    samples = with_noise(clean, camera, 0.5, np.random.default_rng(3))
    start = MotionEstimate(v=gt.motion.v, w=gt.motion.w, k=-1.995)
    state = refine(samples, start, camera, CONST_ACCEL)
    unit = start.normalized()
    assert state.start_objective == start_objective(samples, start, camera)
    clamped = refine_objective(samples, MotionEstimate(v=unit.v, w=unit.w, k=-1.99), camera)
    assert state.start_objective != clamped
    assert (state.stop_reason, state.converged, state.polished) == ("converged", True, True)
    assert state.motion.k == -1.99 and state.objective < min(state.start_objective, clamped)
    assert state.objective == pytest.approx(
        refine_objective(samples, state.motion, camera), rel=1e-12)
    terms = _reduced_terms(SampleBlocks.of([(samples, camera, CONST_ACCEL)]),
                           *motion_stack(state.motion))
    assert np.array_equal(state.valid, terms.valid[0])
    assert np.allclose(state.inv_depths, terms.rho[0], rtol=1e-12, atol=0.0, equal_nan=True)
