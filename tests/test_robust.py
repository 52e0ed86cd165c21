import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rsdiffsfm import (
    RansacConfig,
    forward_backward_error,
    generate_linearized,
    ransac,
    refine,
    translation_error,
)
from rsdiffsfm.errors import (
    DegenerateConfiguration,
    EmptySelection,
    InvalidScanlinePair,
    NoRealSolution,
    RobustFailure,
)
from rsdiffsfm.geometry import (
    CameraConfig,
    FlowBatch,
    FlowSample,
    MotionEstimate,
    beta,
    depth_terms,
    inv_depth,
    scanline_ab,
)
from rsdiffsfm import robust
from rsdiffsfm.robust import (
    BLOCK_RESIDUALS,
    MINIMAL_SIZE,
    SOLVE_BLOCK,
    STACK_SUBSETS,
    RansacResult,
    _coefficients,
    _sample_terms,
    _score_block,
    draw_subsets,
    ranked_pixels,
    ransac_stack,
    refit_trimmed,
    samples_from_pixels,
    score_motion,
)
from rsdiffsfm.gs_solver import solve_gs
from rsdiffsfm.rs_solvers import solve_const_accel, solve_const_velocity, solve_stack
from rsdiffsfm.synth import CONST_ACCEL, CONST_VELOCITY, GLOBAL_SHUTTER

from conftest import cpu_per_wall, gross_outlier, make_spec


def contaminated_scene(camera, seed, n_points=60, n_out=18, k=0.0):
    spec = make_spec(camera, n_points=n_points, k=k, seed=seed)
    samples, gt = generate_linearized(spec)
    rng = np.random.default_rng(seed + 10_000)
    mixed = [gross_outlier(s, rng) for s in samples[:n_out]] + list(samples[n_out:])
    return mixed, gt, set(range(n_out, len(mixed)))


def test_residual_zero_for_consistent_sample(camera):
    spec = make_spec(camera, n_points=5, seed=1)
    samples, gt = generate_linearized(spec)
    for s in samples:
        assert score_motion([s], gt.motion, camera)[0] < 1e-14


MODELS = (GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL)


def oracle_residuals(samples, motion, camera, model):
    """The differential re-projection error written out step by step: the
    depth terms (q, c), the optimal inverse depth rho of c = rho q (0 where
    it is undefined or not positive), then |c - rho q|."""
    batch = FlowBatch.of(samples)
    bt = beta(*scanline_ab(batch.y1, batch.y2, camera, model), motion.k)
    q, c = depth_terms(*batch.x.T, *batch.u.T, motion.v, motion.w, bt)
    rho, valid = inv_depth(q, c)
    rho = np.where(valid, rho, 0.0)
    return np.hypot(c[0] - rho * q[0], c[1] - rho * q[1])


# h = 1024 makes the row times exact: rows (256, 768) at gamma 1 give
# t1 + t2 = 2, so beta is exactly 0 at k = -1
ORACLE_CAMERA = CameraConfig(gamma=1.0, h=1024, fx=800.0, fy=800.0, cx=512.0, cy=512.0)
BETA_ZERO_ROWS = (256.0, 768.0)
coord = st.floats(-0.6, 0.6)
flow = st.one_of(st.just(0.0), st.floats(-0.05, 0.05))
row = st.floats(0.0, 1023.0)
oracle_samples = st.lists(st.tuples(coord, coord, flow, flow, row, row), min_size=1, max_size=30)


@given(samples=oracle_samples,
       v=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       w=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
       # -1.9 gives negative beta on almost every row at gamma 1, -1 zero
       # beta on BETA_ZERO_ROWS
       k=st.one_of(st.sampled_from([0.0, -1.0, -1.9]), st.floats(-1.9, 10.0)),
       gamma=st.sampled_from([0.0, 0.8, 1.0]),
       model=st.sampled_from(MODELS),
       threshold=st.floats(1e-6, 0.1))
@example(samples=[(0.1, 0.2, 0.01, -0.02, 100.0, 101.0)], v=(0.25, -0.5, 1.0),
         w=(0.01, 0.0, -0.02), k=-1.0, gamma=1.0, model=CONST_ACCEL, threshold=0.01)
@example(samples=[(0.1, 0.2, 0.01, -0.02, 100.0, 101.0)], v=(-1e-12, 0.0, 0.0),
         w=(0.0, 0.0, 0.0), k=-0.560546875, gamma=0.0, model=CONST_ACCEL, threshold=0.01)
@settings(max_examples=200, deadline=None)
def test_score_motion_matches_oracle(samples, v, w, k, gamma, model, threshold):
    """score_motion equals the step-by-step residual, and so does the inlier
    count at a threshold away from every residual.  Each draw also holds a
    sample with zero flow, one on BETA_ZERO_ROWS and, when the translation
    epipole is in view, one at it (zero flow there, so q = 0) and one just
    off it.  The first example puts the epipole where q is exactly 0; in the
    second, |q|^2 = beta^2 1e-24 sits on the 1e-24 guard of rho, so beta
    must round alike in scoring and in `geometry.beta`."""
    camera = dataclasses.replace(ORACLE_CAMERA, gamma=gamma)
    motion = MotionEstimate(v=v, w=w, k=0.0 if model != CONST_ACCEL else k)
    rows = list(samples)
    rows.append((0.3, -0.1, 0.0, 0.0, 500.0, 500.0))
    rows.append((0.2, 0.1, 0.03, -0.02, *BETA_ZERO_ROWS))
    if abs(v[2]) >= max(abs(v[0]), abs(v[1]), 1e-3):  # the epipole is in view
        rows.append((v[0] / v[2], v[1] / v[2], 0.0, 0.0, 500.0, 500.0))
        # 1e-13 off it, |q| = |beta v_z| 1e-13: rho is undefined there
        # while |beta v_z| < 10, and defined where |beta| is larger (at
        # k = -1.9 on these rows, |beta| is 13.8 at gamma 0.8, 17.5 at 1)
        rows.append((v[0] / v[2] + 1e-13, v[1] / v[2], 0.0, 0.0, 500.0, 500.0))
    arr = np.array(rows)
    batch = FlowBatch(x=arr[:, :2], u=arr[:, 2:4], y1=arr[:, 4], y2=arr[:, 5])
    got = score_motion(batch, motion, camera, model)
    want = oracle_residuals(batch, motion, camera, model)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assume(np.all(np.abs(want - threshold) > 1e-12))
    assert np.count_nonzero(got <= threshold) == np.count_nonzero(want <= threshold)


def test_score_motion_just_off_the_epipole():
    """P = A v rounds as `geometry.translation_flow` rounds it.  1e-13 off
    the translation epipole its last bits set the residual: a kernel that
    fused v_z xm - v_x into one rounding scored this draw of
    `test_score_motion_matches_oracle` 1.1e-4 where the oracle gives 4.3e-14."""
    camera = dataclasses.replace(ORACLE_CAMERA, gamma=0.8)
    motion = MotionEstimate(v=(0.0, -0.5, 0.75), w=(0.0, 0.0, 0.03125), k=-1.9)
    epipole = (0.0, -0.5 / 0.75)
    arr = np.array([(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                    (0.3, -0.1, 0.0, 0.0, 500.0, 500.0),
                    (0.2, 0.1, 0.03, -0.02, *BETA_ZERO_ROWS),
                    (*epipole, 0.0, 0.0, 500.0, 500.0),
                    (epipole[0] + 1e-13, epipole[1], 0.0, 0.0, 500.0, 500.0)])
    batch = FlowBatch(x=arr[:, :2], u=arr[:, 2:4], y1=arr[:, 4], y2=arr[:, 5])
    np.testing.assert_allclose(score_motion(batch, motion, camera, CONST_ACCEL),
                               oracle_residuals(batch, motion, camera, CONST_ACCEL),
                               rtol=1e-12, atol=1e-15)


def test_gs_hypothesis_scores_under_gs_model(camera):
    """GS hypotheses are scored with beta = 1, whatever the camera's gamma."""
    spec = make_spec(dataclasses.replace(camera, gamma=0.0), n_points=40, seed=12)
    samples, _ = generate_linearized(spec)
    motion = solve_gs(samples)
    assert np.max(score_motion(samples, motion, camera, GLOBAL_SHUTTER)) < 1e-12
    r = ransac(samples, GLOBAL_SHUTTER, camera, RansacConfig(iterations=20, seed=12))
    assert len(r.inliers) == len(samples)
    assert np.max(r.residuals) < 1e-12


def test_score_motion_flags_outliers(camera):
    mixed, gt, true_inl = contaminated_scene(camera, seed=2)
    errs = score_motion(mixed, gt.motion, camera)
    assert np.all(errs[sorted(true_inl)] < 1e-12)
    assert np.all(errs[: len(mixed) - len(true_inl)] > 1e-4)


def test_ransac_recovers_inliers_cv(camera):
    mixed, gt, true_inl = contaminated_scene(camera, seed=3)
    r = ransac(mixed, CONST_VELOCITY, camera, RansacConfig(iterations=200, seed=3))
    assert true_inl.issubset(set(r.inliers.tolist()))
    assert translation_error(r.motion.v, gt.motion.v) < 0.1


def test_ransac_recovers_k_ca(camera):
    mixed, gt, true_inl = contaminated_scene(camera, seed=4, k=0.1)
    r = ransac(mixed, CONST_ACCEL, camera, RansacConfig(iterations=200, seed=4))
    assert true_inl.issubset(set(r.inliers.tolist()))
    assert abs(r.motion.k - 0.1) < 1e-3


def test_ransac_deterministic(camera):
    mixed, _, _ = contaminated_scene(camera, seed=5)
    cfg = RansacConfig(iterations=100, seed=9)
    r1 = ransac(mixed, CONST_VELOCITY, camera, cfg)
    r2 = ransac(mixed, CONST_VELOCITY, camera, cfg)
    assert np.array_equal(r1.inliers, r2.inliers)
    assert np.array_equal(r1.motion.v, r2.motion.v)


def test_ransac_same_on_list_and_batch(camera):
    samples, _, _ = contaminated_scene(camera, seed=6, k=0.1)
    batch = FlowBatch.of(samples)
    assert FlowBatch.of(batch) is batch
    assert len(batch) == len(samples)
    for i in (0, 7, len(samples) - 1):
        got, want = batch[i], samples[i]
        assert isinstance(got, FlowSample)
        assert np.array_equal(got.x, want.x) and np.array_equal(got.u, want.u)
        assert (got.y1, got.y2) == (want.y1, want.y2)
    assert np.array_equal(batch[[3, 1]].x, np.array([samples[3].x, samples[1].x]))
    assert len(batch[2:5]) == 3
    for model in (GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL):
        rc = RansacConfig(iterations=30, seed=2)
        res_list = ransac(samples, model, camera, rc)
        res_batch = ransac(batch, model, camera, rc)
        assert np.array_equal(res_list.inliers, res_batch.inliers)
        assert np.array_equal(res_list.residuals, res_batch.residuals)
        assert np.array_equal(res_list.motion.v, res_batch.motion.v)
        assert np.array_equal(res_list.motion.w, res_batch.motion.w)
        assert res_list.motion.k == res_batch.motion.k
        ref_list = refit_trimmed(samples, res_list, model, camera).motion
        ref_batch = refit_trimmed(batch, res_batch, model, camera).motion
        assert np.array_equal(ref_list.v, ref_batch.v)
        assert np.array_equal(ref_list.w, ref_batch.w)
        assert ref_list.k == ref_batch.k


def sequential_ransac(samples, model, camera, rc):
    """Reference RANSAC: the subsets drawn block by block with
    `draw_subsets`, as `ransac` draws them, then per subset one
    single-subset solve and one `score_motion` per hypothesis; returns
    (inliers, n_valid_iterations)."""
    batch = FlowBatch.of(samples)
    rng = np.random.default_rng(rc.seed)
    subsets = np.concatenate([
        draw_subsets(rng, len(batch), MINIMAL_SIZE[model], min(SOLVE_BLOCK, rc.iterations - start))
        for start in range(0, rc.iterations, SOLVE_BLOCK)])
    best, n_valid = None, 0
    for subset in batch[subsets]:
        try:
            if model == GLOBAL_SHUTTER:
                motions = [solve_gs(subset)]
            elif model == CONST_VELOCITY:
                motions = [solve_const_velocity(subset, camera)]
            else:
                motions = solve_const_accel(subset, camera)
        except (DegenerateConfiguration, NoRealSolution, InvalidScanlinePair):
            continue
        n_valid += 1
        for motion in motions:
            errs = score_motion(batch, motion, camera, model)
            inl = errs <= rc.threshold
            count = int(np.count_nonzero(inl))
            mean = float(np.mean(errs[inl])) if count else np.inf
            if best is None or count > best[0] or (count == best[0] and mean < best[1]):
                best = (count, mean, inl)
    return np.flatnonzero(best[2]), n_valid


def duplicated_scene(camera, seed, k=0.1, n_points=60, n_out=18):
    """A contaminated scene with a third of its samples listed twice, so
    that some minimal subsets are rank deficient."""
    mixed, _, _ = contaminated_scene(camera, seed=seed, n_points=n_points, n_out=n_out, k=k)
    return mixed + mixed[::3]


# 80 samples are scored in one chunk; at 2000 samples the bail-out drops
# hypotheses between chunks
@pytest.mark.parametrize("model, n_points, iterations, chunked", [
    *[pytest.param(model, 60, 60, False, id=model) for model in MODELS],
    *[pytest.param(model, 1500, 150, True, id=f"{model}-chunked") for model in MODELS],
])
def test_ransac_matches_sequential_reference(camera, caplog, model, n_points, iterations,
                                             chunked):
    samples = duplicated_scene(camera, seed=8, n_points=n_points, n_out=int(0.3 * n_points))
    rc = RansacConfig(iterations=iterations, seed=8)
    with caplog.at_level(logging.INFO, logger="rsdiffsfm.robust"):
        r = ransac(samples, model, camera, rc)
    inliers, n_valid = sequential_ransac(samples, model, camera, rc)
    assert np.array_equal(r.inliers, inliers)
    assert r.n_valid_iterations == n_valid
    assert np.array_equal(r.residuals, score_motion(samples, r.motion, camera, model))
    # the inlier set, the residual vector and the logged best count agree
    [record] = [rec for rec in caplog.records if rec.name == "rsdiffsfm.robust"]
    best = np.count_nonzero(r.residuals <= rc.threshold)
    assert len(r.inliers) == best
    assert f"best {best} of {len(samples)} inliers" in record.getMessage()
    if chunked:
        assert r.n_scored_full < r.n_hypotheses
        assert r.n_residuals < r.n_hypotheses * len(samples)
    else:
        assert r.n_residuals == r.n_hypotheses * len(samples)


@given(m=st.sampled_from([8, 9]), extra=st.integers(0, 2000), size=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_draw_subsets_rows_hold_distinct_indices(m, extra, size, seed):
    """Every row of a block holds m distinct indices of the n >= m samples."""
    n = m + extra
    subsets = draw_subsets(np.random.default_rng(seed), n, m, size)
    assert subsets.shape == (size, m)
    assert subsets.min() >= 0 and subsets.max() < n
    assert all(len(set(row)) == m for row in subsets.tolist())


@pytest.mark.parametrize("n, m", [(100, 8), (2000, 9), (12, 8)])
def test_draw_subsets_is_uniform(n, m):
    """At a fixed seed, each index is drawn as often as a uniform draw over
    the m-subsets draws it, in m / n of the rows, within 5 binomial standard
    deviations: also where most rows are redrawn (n = 12, m = 8 keeps 5 %
    of the rows of a draw)."""
    rng = np.random.default_rng(3)
    rows = np.concatenate([draw_subsets(rng, n, m, SOLVE_BLOCK) for _ in range(200)])
    counts = np.bincount(rows.ravel(), minlength=n)
    p = m / n
    assert np.all(np.abs(counts - len(rows) * p) <= 5 * np.sqrt(len(rows) * p * (1 - p)))
    with pytest.raises(ValueError):
        draw_subsets(rng, m - 1, m, 1)


def test_draw_subsets_bounds_its_redraws_at_n_close_to_m():
    """At n = m = 9 a uniform 9-tuple holds distinct indices with
    probability 9! / 9^9 = 1e-3, so nearly every row ends in the bounded
    redraws' permutation fallback: each row is a permutation of the nine
    samples, and each sample comes first in 1 / 9 of the rows, within 5
    binomial standard deviations.  A block takes at most ten calls of the
    generator, not the thousands that unbounded rejection takes."""

    class Counting:
        """A generator that counts the draws asked of it."""

        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def __getattr__(self, name):
            self.calls += 1
            return getattr(self.rng, name)

    rng = Counting(np.random.default_rng(5))
    rows = np.concatenate([draw_subsets(rng, 9, 9, SOLVE_BLOCK) for _ in range(200)])
    assert rng.calls <= 10 * 200
    assert np.array_equal(np.sort(rows, axis=1), np.tile(np.arange(9), (len(rows), 1)))
    counts = np.bincount(rows[:, 0], minlength=9)
    p = 1 / 9
    assert np.all(np.abs(counts - len(rows) * p) <= 5 * np.sqrt(len(rows) * p * (1 - p)))


def ca_block(camera, seed=11, n_points=2000, noise_px=0.05):
    """A contaminated ca scene of n_points samples with noisy inlier flows,
    its `_sample_terms` table and the hypotheses of one SOLVE_BLOCK of
    minimal subsets, drawn one at a time and solved as one stack."""
    samples, _, _ = contaminated_scene(camera, seed=seed, n_points=n_points,
                                       n_out=int(0.3 * n_points), k=0.1)
    batch = FlowBatch.of(samples)
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, noise_px, batch.u.shape)
    batch = FlowBatch(x=batch.x, u=batch.u + e / camera.fx, y1=batch.y1, y2=batch.y2 + e[:, 1])
    terms = _sample_terms(batch, camera, CONST_ACCEL)
    a, b = scanline_ab(batch.y1, batch.y2, camera, CONST_ACCEL)
    subsets = np.array([rng.choice(len(batch), size=MINIMAL_SIZE[CONST_ACCEL], replace=False)
                        for _ in range(SOLVE_BLOCK)])
    return batch, terms, solve_stack(batch[subsets], a[subsets], b[subsets])


def test_score_block_matches_score_motion(camera):
    """Scoring a block of hypotheses at once gives each the inlier count and,
    to rounding, the inlier-residual sum of scoring it alone.  The block's
    products and the one-row products of `score_motion` round apart by a
    few ulps of c = u - beta B w, which grows with |w|: a 1e-12 relative
    bound alone fails on hypotheses with |w| of several radians and one or
    two inliers, so each inlier adds 1e-15 (1 + |w|)."""
    batch, terms, hyps = ca_block(camera)
    threshold = 1e-3
    counts, sums, n_residuals = _score_block(terms, _coefficients(hyps.v, hyps.w, hyps.k),
                                             threshold, best_count=0)
    assert n_residuals == len(hyps) * len(batch)  # best_count 0 drops none
    for i in range(len(hyps)):
        errs = score_motion(batch, hyps.motion(i), camera, CONST_ACCEL)
        assert np.min(np.abs(errs - threshold)) > 1e-12
        inl = errs <= threshold
        assert counts[i] == np.count_nonzero(inl)
        np.testing.assert_allclose(sums[i], np.sum(errs[inl]), rtol=1e-12,
                                   atol=1e-15 * counts[i] * (1 + np.linalg.norm(hyps.w[i])))
    assert np.max(counts) > 0.5 * len(batch)  # the block holds a good hypothesis


def test_scoring_runs_on_one_thread(camera):
    """Scoring cuts every matrix product to at most BLOCK_RESIDUALS samples
    times hypotheses, too small to wake OpenBLAS's worker threads: a block
    over 2000 samples, and `score_motion` over 100k, use no more CPU time
    than wall time, within 1.5x."""
    batch, terms, hyps = ca_block(camera)
    coefs = _coefficients(hyps.v, hyps.w, hyps.k)
    assert cpu_per_wall(lambda: _score_block(terms, coefs, 1e-3, best_count=0), 5) <= 1.5
    reps = 50
    big = FlowBatch(x=np.tile(batch.x, (reps, 1)), u=np.tile(batch.u, (reps, 1)),
                    y1=np.tile(batch.y1, reps), y2=np.tile(batch.y2, reps))
    assert len(big) > 12 * BLOCK_RESIDUALS
    motion = hyps.motion(0)
    assert cpu_per_wall(lambda: score_motion(big, motion, camera, CONST_ACCEL), 5) <= 1.5


@pytest.mark.parametrize("model", [GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL])
def test_ransac_counts_failures(camera, model):
    samples = duplicated_scene(camera, seed=9)
    r = ransac(samples, model, camera, RansacConfig(iterations=200, seed=9))
    assert set(r.failures) <= {"DegenerateConfiguration", "NoRealSolution"}
    assert sum(r.failures.values()) > 0
    assert sum(r.failures.values()) + r.n_valid_iterations == r.n_iterations
    assert r.n_hypotheses >= r.n_valid_iterations


def test_ransac_reports_counts_and_stage_times(camera, caplog):
    samples, _, _ = contaminated_scene(camera, seed=3, n_points=1000, n_out=300)
    with caplog.at_level(logging.INFO, logger="rsdiffsfm.robust"):
        r = ransac(samples, CONST_VELOCITY, camera, RansacConfig(iterations=200, seed=3))
    assert 0 < r.n_scored_full < r.n_hypotheses
    assert min(r.draw_s, r.solve_s, r.score_s) > 0
    [record] = [rec for rec in caplog.records if rec.name == "rsdiffsfm.robust"]
    message = record.getMessage()
    assert (f"{r.n_hypotheses} hypotheses, {r.n_scored_full} scored in full, "
            f"{r.n_residuals} residuals") in message
    assert 0 < r.n_residuals < r.n_hypotheses * len(samples)
    assert all(f"{stage} {t:.4f} s" in message
               for stage, t in (("draw", r.draw_s), ("solve", r.solve_s), ("score", r.score_s)))


@pytest.mark.parametrize("model", [GLOBAL_SHUTTER, CONST_ACCEL])
def test_ransac_memory_does_not_grow_with_iterations(camera, model):
    """Subsets are drawn, solved and scored in blocks: ten times the
    iterations leave the peak of traced allocations where it was."""
    samples, _, _ = contaminated_scene(camera, seed=5, n_points=400, n_out=120, k=0.1)
    block = BLOCK_RESIDUALS // len(samples)

    def peak(iterations):
        tracemalloc.start()
        try:
            ransac(samples, model, camera, RansacConfig(iterations=iterations, seed=5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(30 * block) < 1.2 * peak(3 * block)


@pytest.mark.parametrize("model", [CONST_VELOCITY, CONST_ACCEL])
def test_invalid_scanline_pair_is_rejected_at_the_entry(camera, model):
    """One sample whose scanline pair has alpha <= 0 fails the whole call of
    `ransac`, `score_motion` and the single-subset solver with
    InvalidScanlinePair, rather than the subsets that draw it."""
    samples, gt = generate_linearized(make_spec(camera, n_points=30, k=0.1, seed=14))
    samples = list(samples)
    bad = samples[3]
    samples[3] = FlowSample(x=bad.x, u=bad.u, y1=bad.y1, y2=bad.y1 - 2.0 * camera.h / camera.gamma)
    with pytest.raises(InvalidScanlinePair):
        ransac(samples, model, camera, RansacConfig(iterations=20, seed=14))
    with pytest.raises(InvalidScanlinePair):
        score_motion(samples, gt.motion, camera, model)
    solve = solve_const_velocity if model == CONST_VELOCITY else solve_const_accel
    with pytest.raises(InvalidScanlinePair):
        solve(samples[:MINIMAL_SIZE[model]], camera)


def test_ransac_stack_matches_ransac_alone(camera, monkeypatch):
    """`ransac_stack` gives each problem what `ransac` gives it alone, bit
    for bit, over several runs of STACK_SUBSETS subsets: gs, cv and ca
    problems in one call with mixed sample counts, ca problems of several
    blocks (the bail-out carries from block to block), a problem with too
    few samples and one with an invalid scanline pair, each failing on its
    own.  No solve stack mixes the subset sizes of the models (8 and 9)."""
    bad, _, _ = contaminated_scene(camera, seed=21, n_points=40, n_out=10)
    bad[5] = FlowSample(x=bad[5].x, u=bad[5].u, y1=bad[5].y1,
                        y2=bad[5].y1 - 2.0 * camera.h / camera.gamma)
    few = list(generate_linearized(make_spec(camera, n_points=5, seed=22))[0])
    gamma0_camera = dataclasses.replace(camera, gamma=0.0)
    problems = []
    for model in MODELS:
        for p, n_points in enumerate((30, 60, 200, 45, 120, 60, 80, 30)):
            samples = duplicated_scene(camera, seed=30 + p, n_points=n_points,
                                       n_out=n_points // 3, k=0.1)
            iterations = 150 if model == CONST_ACCEL and p % 2 else 50 + 7 * p
            problems.append((samples, model, gamma0_camera if p == 3 else camera,
                             RansacConfig(iterations=iterations, seed=p)))
        problems += [(few, model, camera, None),
                     (bad, model, camera, RansacConfig(iterations=20, seed=1))]
    assert sum(min(SOLVE_BLOCK, (rc or RansacConfig()).iterations)
               for *_, rc in problems) > 3 * STACK_SUBSETS
    shapes = []

    def recording(stack, a, b):
        shapes.append(stack.y1.shape)
        return solve_stack(stack, a, b)

    with monkeypatch.context() as m:
        m.setattr(robust, "solve_stack", recording)
        results = ransac_stack(problems)
    assert len(results) == len(problems)
    # blocks of several problems share a solve, never of more than the cap,
    # and every solve holds the subsets of one size
    assert max(n for n, _ in shapes) <= STACK_SUBSETS and max(n for n, _ in shapes) > SOLVE_BLOCK
    assert {m for _, m in shapes} == {MINIMAL_SIZE[CONST_VELOCITY], MINIMAL_SIZE[CONST_ACCEL]}
    for problem, got in zip(problems, results):
        try:
            want = ransac(*problem)
        except (RobustFailure, InvalidScanlinePair) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert np.array_equal(got.motion.v, want.motion.v)
        assert np.array_equal(got.motion.w, want.motion.w)
        assert (got.motion.k, got.motion.v_reliable) == (want.motion.k, want.motion.v_reliable)
        assert np.array_equal(got.inliers, want.inliers)
        assert np.array_equal(got.residuals, want.residuals)
        for name in ("n_valid_iterations", "n_iterations", "n_hypotheses", "n_scored_full",
                     "n_residuals", "failures"):
            assert getattr(got, name) == getattr(want, name), name
        assert min(got.draw_s, got.solve_s, got.score_s) > 0
    for i, model in enumerate(MODELS):
        mine = results[10 * i:10 * (i + 1)]
        assert isinstance(mine[-2], RobustFailure) and "at least" in str(mine[-2])
        if model != GLOBAL_SHUTTER:
            assert isinstance(mine[-1], InvalidScanlinePair)
        done = [r for r in mine if isinstance(r, RansacResult)]
        assert any(r.n_valid_iterations < r.n_iterations for r in done)
        if model == CONST_ACCEL:  # the bail-out dropped hypotheses past the first block
            assert any(r.n_iterations > SOLVE_BLOCK and r.n_scored_full < r.n_hypotheses
                       for r in done)


@pytest.mark.parametrize("model", [CONST_VELOCITY, CONST_ACCEL])
def test_rolling_shutter_models_need_a_camera(camera, model):
    """Without a camera, RANSAC and scoring under a cv or ca model fail with
    a TypeError that names the model and the camera; gs needs none."""
    samples, gt = generate_linearized(make_spec(camera, n_points=30, seed=15))
    with pytest.raises(TypeError, match=f"model {model} needs a camera"):
        ransac(samples, model, None, RansacConfig(iterations=5))
    with pytest.raises(TypeError, match=f"model {model} needs a camera"):
        score_motion(samples, gt.motion, None, model)
    assert np.array_equal(score_motion(samples, gt.motion, None, GLOBAL_SHUTTER),
                          score_motion(samples, gt.motion, camera, GLOBAL_SHUTTER))
    ransac(samples, GLOBAL_SHUTTER, None, RansacConfig(iterations=5))


def test_ransac_too_few_samples(camera):
    spec = make_spec(camera, n_points=5, seed=6)
    samples, _ = generate_linearized(spec)
    with pytest.raises(RobustFailure):
        ransac(samples, CONST_VELOCITY, camera)


@pytest.mark.parametrize("entry", ["score_motion", "ransac", "refine", "refit_trimmed"])
def test_unknown_model_is_a_value_error(camera, entry):
    """No entry point runs an unknown model as ca, nor fails on it with a
    KeyError or a per-problem result."""
    samples, gt = generate_linearized(make_spec(camera, n_points=20, seed=6))
    result = ransac(samples, CONST_VELOCITY, camera, RansacConfig(iterations=5, seed=6))
    calls = {"score_motion": lambda: score_motion(samples, gt.motion, camera, "xx"),
             "ransac": lambda: ransac(samples, "xx", camera),
             "refine": lambda: refine(samples, gt.motion, camera, "xx"),
             "refit_trimmed": lambda: refit_trimmed(samples, result, "xx", camera)}
    with pytest.raises(ValueError, match=r"^unknown model 'xx': choose from gs, cv, ca$"):
        calls[entry]()


def test_refit_trimmed_exact_on_clean_consensus(camera):
    mixed, gt, _ = contaminated_scene(camera, seed=7, n_points=80, n_out=24)
    r = ransac(mixed, CONST_VELOCITY, camera, RansacConfig(iterations=200, seed=7))
    state = refit_trimmed(mixed, r, CONST_VELOCITY, camera)
    assert translation_error(state.motion.v, gt.motion.v) < 1e-4
    assert state.objective < 1e-16


def test_ransac_config_validation():
    for threshold in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            RansacConfig(threshold=threshold)
    for iterations in (0, -3, 2.5, 300.0, True):
        with pytest.raises(ValueError):
            RansacConfig(iterations=iterations)
    for seed in (-1, 1.5, None):
        with pytest.raises(ValueError):
            RansacConfig(seed=seed)
    RansacConfig(iterations=np.int64(5), seed=np.uint32(7))


def test_forward_backward_error_consistent_pair():
    H = W = 32
    fwd = np.zeros((H, W, 2))
    fwd[..., 0] = 1.5  # uniform shift right
    bwd = np.zeros((H, W, 2))
    bwd[..., 0] = -1.5
    err = forward_backward_error(fwd, bwd)
    inside = ~np.isnan(err)
    assert inside.any()
    assert np.nanmax(err) < 1e-12


def test_forward_backward_error_shape_mismatch():
    with pytest.raises(ValueError):
        forward_backward_error(np.zeros((4, 4, 2)), np.zeros((5, 4, 2)))


def test_filter_flows_selects_consistent_pixels(camera):
    H = W = 40
    cam = type(camera)(gamma=0.8, h=H, fx=36.0, fy=36.0, cx=W / 2, cy=H / 2, width=W)
    fwd = np.zeros((H, W, 2))
    bwd = np.zeros((H, W, 2))
    fwd[..., 0] = 1.0
    bwd[..., 0] = -1.0
    # corrupt one block so it ranks last
    fwd[:10, :10, 0] = 5.0
    samples = samples_from_pixels(*ranked_pixels(fwd, bwd), cam)
    n_keep = int(round(0.2 * H * W))
    assert len(samples) == n_keep
    for s in samples:
        assert np.isclose(s.u[0] * cam.fx, 1.0)


def test_filter_flows_empty():
    cam_cls = None
    from rsdiffsfm import CameraConfig

    cam = CameraConfig(gamma=0.8, h=8, fx=8.0, fy=8.0, cx=4.0, cy=4.0, width=8)
    fwd = np.full((8, 8, 2), np.nan)
    bwd = np.zeros((8, 8, 2))
    with pytest.raises(EmptySelection):
        samples_from_pixels(*ranked_pixels(fwd, bwd), cam)
