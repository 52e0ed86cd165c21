import numpy as np
import pytest

from rsdiffsfm import (
    CameraConfig,
    generate_linearized,
    solve_const_accel,
    solve_const_velocity,
    translation_error,
)
from rsdiffsfm.errors import DegenerateConfiguration, InvalidScanlinePair, NoRealSolution
from rsdiffsfm.geometry import (
    CONST_ACCEL,
    CONST_VELOCITY,
    GLOBAL_SHUTTER,
    K_MIN,
    FlowBatch,
    beta,
    scanline_ab,
)
from rsdiffsfm.gs_solver import gs_rows, solve_gs, unit_rows
from rsdiffsfm.rs_solvers import ROOT_WINDOW, _pencil, affine_rows, det_polynomial, solve_stack

from conftest import gross_outlier, make_spec
from oracles import k_free_hypotheses, reference_det_polynomial, s_to_vech, symmetric_s


def test_scanline_factors_basic(camera):
    a, b = scanline_ab(100.0, 130.0, camera)
    g = camera.gamma / camera.h
    assert np.isclose(a, 1.0 + g * 30.0)  # a is the constant-velocity alpha
    assert np.isclose(beta(a, b, 0.0), a)
    # beta(k) interpolates between 2a/2 and b as k grows
    assert np.isclose(beta(a, b, 1e12), b, rtol=1e-9)


def test_beta_equals_alpha_at_k0_bulk():
    rng = np.random.default_rng(0)
    n = 1_000_000
    gamma = rng.uniform(0.0, 1.0, n)
    h = rng.integers(100, 2000, n).astype(float)
    y1 = rng.uniform(0, h)
    y2 = rng.uniform(0, h)
    t1 = gamma * y1 / h
    t2 = 1.0 + gamma * y2 / h
    a = t2 - t1
    b = t2 * t2 - t1 * t1
    beta0 = (2.0 * a + b * 0.0) / 2.0
    assert np.max(np.abs(beta0 - a)) == 0.0


def test_invalid_scanline_pair(camera):
    with pytest.raises(InvalidScanlinePair):
        scanline_ab(899.0, -2000.0, camera)


def test_cv_exact_recovery(camera):
    spec = make_spec(camera, n_points=8, seed=4)
    samples, gt = generate_linearized(spec)
    assert len(samples) == 8
    m = solve_const_velocity(samples, camera)
    assert translation_error(m.v, gt.motion.v) < 1e-6
    assert np.linalg.norm(m.w - gt.motion.w) < 1e-9
    assert m.k == 0.0


def test_accel_row_affine_in_k(camera):
    spec = make_spec(camera, n_points=1, k=0.1, seed=1)
    samples, _ = generate_linearized(spec)
    batch = FlowBatch.of(samples)
    a, b = scanline_ab(batch.y1, batch.y2, camera)
    r0, r1 = affine_rows(batch, a, b)
    base = gs_rows(batch)
    for k in (-1.5, 0.0, 0.3, 2.0):
        # the (2+k)-cleared constraint: (2+k) on the v-block, 2a + b k on the s-block
        cleared = np.hstack([(2.0 + k) * base[:, :3], (2.0 * a + b * k)[:, None] * base[:, 3:]])
        assert np.allclose(cleared, r0 + k * r1)


def test_accel_row_annihilates_truth(camera):
    spec = make_spec(camera, n_points=10, k=0.1, seed=2)
    samples, gt = generate_linearized(spec)
    e = np.concatenate([gt.motion.v, s_to_vech(symmetric_s(gt.motion.v, gt.motion.w))])
    batch = FlowBatch.of(samples)
    r0, r1 = affine_rows(batch, *scanline_ab(batch.y1, batch.y2, camera))
    assert np.max(np.abs((r0 + 0.1 * r1) @ e)) < 1e-12


def test_det_polynomial_properties(camera):
    spec = make_spec(camera, n_points=9, k=0.1, seed=7)
    samples, _ = generate_linearized(spec)
    poly = det_polynomial(samples, camera)
    assert len(poly.coeffs) <= 7  # degree <= 6
    _, remainder_ratio, _ = reference_det_polynomial(samples, camera)
    assert remainder_ratio < 1e-8
    # poly equals det Z(k) / (2+k)^3 up to roundoff at the polynomial's scale
    batch = FlowBatch.of(samples)
    R0, R1 = affine_rows(batch, *scanline_ab(batch.y1, batch.y2, camera))
    probes = np.linspace(-1.5, 3.0, 13)
    scale = max(abs(poly(k)) for k in probes)
    for k in probes:
        direct = np.linalg.det(R0 + k * R1) / (2.0 + k) ** 3
        assert abs(poly(k) - direct) < 1e-9 * scale


def test_ca_exact_recovery(camera):
    spec = make_spec(camera, n_points=9, k=0.1, seed=11)
    samples, gt = generate_linearized(spec)
    cands = solve_const_accel(samples, camera)
    best = min(cands, key=lambda c: abs(c.k - 0.1))
    assert abs(best.k - 0.1) < 1e-6
    assert translation_error(best.v, gt.motion.v) < 1e-6
    assert np.linalg.norm(best.w - gt.motion.w) < 1e-9


def test_ca_negative_k(camera):
    spec = make_spec(camera, n_points=9, k=-0.15, seed=13)
    samples, gt = generate_linearized(spec)
    cands = solve_const_accel(samples, camera)
    best = min(cands, key=lambda c: abs(c.k + 0.15))
    assert abs(best.k + 0.15) < 1e-6
    assert translation_error(best.v, gt.motion.v) < 1e-5


def test_gamma_zero_collapses_to_gs():
    cam0 = CameraConfig(gamma=0.0, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)
    spec = make_spec(cam0, n_points=12, seed=5)
    samples, _ = generate_linearized(spec)
    m_gs = solve_gs(samples)
    m_cv = solve_const_velocity(samples, cam0)
    assert np.allclose(m_cv.v, m_gs.v, atol=1e-10)
    assert np.allclose(m_cv.w, m_gs.w, atol=1e-10)
    cands = solve_const_accel(samples[:9], cam0)
    assert len(cands) == 1
    assert cands[0].k == 0.0
    m9 = solve_gs(samples[:9])
    assert np.allclose(cands[0].v, m9.v, atol=1e-10)
    assert np.allclose(cands[0].w, m9.w, atol=1e-10)


def test_ca_needs_nine_samples(camera):
    spec = make_spec(camera, n_points=8, k=0.1, seed=3)
    samples, _ = generate_linearized(spec)
    with pytest.raises(ValueError):
        solve_const_accel(samples, camera)


def test_batched_ca_roots_match_det_polynomial(camera):
    """The stacked solver's roots are the oracle's Newton-polished roots of
    det M(k), `solve_const_accel` of a subset gives them bit for bit, and
    `det_polynomial` of the subset vanishes at them."""
    spec = make_spec(camera, n_points=120, k=0.1, seed=21)
    samples, _ = generate_linearized(spec)
    rng = np.random.default_rng(21)
    samples = [gross_outlier(s, rng) if i % 3 == 0 else s for i, s in enumerate(samples)]
    batch = FlowBatch.of(samples)
    subsets = np.array([rng.choice(len(batch), size=9, replace=False) for _ in range(100)])
    stack = batch[subsets]
    hyps = solve_stack(stack, *scanline_ab(stack.y1, stack.y2, camera))
    n_roots = 0
    for j, subset in enumerate(subsets):
        _, _, want = reference_det_polynomial(batch[subset], camera)
        got = hyps.k[hyps.subset == j]
        if j in hyps.failures:
            with pytest.raises(type(hyps.failures[j])):
                solve_const_accel(batch[subset], camera)
        else:
            assert [m.k for m in solve_const_accel(batch[subset], camera)] == list(got)
        poly = det_polynomial(batch[subset], camera)
        scale = max(abs(poly(k)) for k in np.linspace(-1.5, 3.0, 13))
        assert all(abs(poly(k)) < 1e-9 * scale for k in got)
        assert len(got) == len(want)
        assert (j in hyps.failures) == (not want)
        if want:
            assert np.max(np.abs(got - want)) <= 1e-8
        n_roots += len(want)
    assert len(hyps) == n_roots


def test_roots_at_or_below_k_min_are_not_admitted():
    """A root in (-2, K_MIN] lies outside the root window: refinement holds
    k at K_MIN and could not move it.  Complex and infinite roots are not
    candidates either."""
    assert ROOT_WINDOW[0] == K_MIN
    # rows whose pencil is diagonal but for a rotation block: det M(k) has
    # the roots -1.995, 0.5 and 3.0, the complex pair 1 +- 0.5i from the
    # rotation block, and one at infinity from its constant last entry
    R1 = np.zeros((9, 9))
    R1[:3, :3] = np.eye(3)
    R1[3:, 3:] = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    R0 = 2.0 * R1
    R0[3:, 3:] = np.diag([1.995, -0.5, -3.0, -1.0, -1.0, 1.0])
    R0[6, 7], R0[7, 6] = -0.5, 0.5
    k, E, lam = _pencil(R0[np.newaxis], R1[np.newaxis])
    np.testing.assert_allclose(k[0, :2], [0.5, 3.0], rtol=1e-12)
    assert np.isnan(k[0, 2:]).all()
    # every root but the infinite one is an eigenvalue lambda = -1 / (2 + k)
    assert np.count_nonzero(lam[0] == 0) == 1
    np.testing.assert_allclose(np.sort_complex(-2.0 - 1.0 / lam[0][lam[0] != 0]),
                               [-1.995, 0.5, 1.0 - 0.5j, 1.0 + 0.5j, 3.0], rtol=1e-12)
    for root, e in zip(k[0, :2], E[0]):
        assert np.linalg.norm((R0 + root * R1) @ e) < 1e-12 * np.linalg.norm(e)


def test_ca_subsets_singular_for_every_k_fail(camera):
    """A curved subset whose rows are rank-deficient for every k, because a
    sample repeats or because no sample moves, fails with
    DegenerateConfiguration and gives no hypotheses."""
    samples, _ = generate_linearized(make_spec(camera, n_points=120, k=0.1, seed=23))
    rng = np.random.default_rng(23)
    subsets = np.array([rng.choice(len(samples), size=9, replace=False) for _ in range(200)])
    moving = samples[subsets[:20]]
    still = FlowBatch(x=moving.x, u=np.zeros_like(moving.u), y1=moving.y1, y2=moving.y1)
    subsets[:, 8] = subsets[:, rng.integers(0, 8)]
    for part in (samples[subsets], still):
        hyps = solve_stack(part, *scanline_ab(part.y1, part.y2, camera))
        assert len(hyps) == 0
        assert set(failure_types(hyps).values()) == {DegenerateConfiguration}
        assert set(hyps.failures) == set(range(len(part.y1)))


def test_ca_finds_k_zero(camera):
    """Exact ca data with k = 0 has a candidate at k = 0, where an unshifted
    pencil would be singular."""
    for seed in range(20):
        samples, _ = generate_linearized(make_spec(camera, n_points=9, k=0.0, seed=seed))
        assert min(abs(m.k) for m in solve_const_accel(samples, camera)) < 1e-9


def failure_types(hyps):
    return {j: type(exc) for j, exc in hyps.failures.items()}


# model, camera gamma (None: no camera) and subset size of k-free stacks
K_FREE = {
    "gs-no-camera": (GLOBAL_SHUTTER, None, 8),
    "gs": (GLOBAL_SHUTTER, 0.8, 8),
    "cv": (CONST_VELOCITY, 0.8, 8),
    "ca-gamma-0": (CONST_ACCEL, 0.0, 9),
}


@pytest.mark.parametrize("case", sorted(K_FREE))
def test_k_free_stack_matches_the_8_point_oracle(case):
    """A k-free subset's k = 0 candidate is the 8-point solution of its
    flows scaled by 1/a: the same failures, and the same hypotheses, bit for
    bit where a = 1."""
    model, gamma, m = K_FREE[case]
    camera = CameraConfig(gamma=gamma or 0.0, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0,
                          width=900)
    samples, _ = generate_linearized(make_spec(camera, n_points=60, seed=6))
    rotation, _ = generate_linearized(make_spec(camera, n_points=m, norm_translation=0.0, seed=7))
    batch = FlowBatch.of([*samples, *rotation])
    rng = np.random.default_rng(6)
    subsets = [rng.choice(len(samples), size=m, replace=False) for _ in range(40)]
    # one sample m times, and a pure rotation
    subsets += [np.full(m, 3), len(samples) + np.arange(m)]
    stack = batch[np.array(subsets)]
    a, b = scanline_ab(stack.y1, stack.y2, None if gamma is None else camera, model)
    got = solve_stack(stack, a, b)
    want = k_free_hypotheses(stack, a)
    assert failure_types(got) == failure_types(want)
    # gs flows at gamma 0.8 carry alpha, so the rotation is not pure for gs
    assert set(got.failures) == ({40} if case == "gs" else {40, 41})
    assert np.array_equal(got.subset, want.subset) and np.array_equal(got.k, want.k)
    assert np.array_equal(got.v_reliable, want.v_reliable)
    if np.all(a == 1.0):
        assert np.array_equal(got.v, want.v) and np.array_equal(got.w, want.w)
    else:
        # the rows differ in rounding only, scaled by 2a rather than built
        # from u / a: the null vector moves by a few eps sigma_1/sigma_8
        sv = np.linalg.svd(unit_rows(gs_rows(stack.rescaled(a)[want.subset])), compute_uv=False)
        bound = 8 * np.finfo(float).eps * sv[:, 0] / sv[:, 7]
        for x, y in ((got.v, want.v), (got.w, want.w)):
            assert np.all(np.linalg.norm(x - y, axis=1) <= bound * np.linalg.norm(y, axis=1))


def test_mixed_stack_keeps_each_subsets_hypotheses(camera):
    """k-free, curved, rank-deficient and root-less subsets in one block.

    Each subset gets, in subset order, the failure and the hypotheses it
    gets as a stack of one, in a shuffled block and in a stack of its own
    kind, bit for bit.
    """
    samples, _ = generate_linearized(make_spec(camera, n_points=120, k=0.1, seed=21))
    rng = np.random.default_rng(21)
    samples = [gross_outlier(s, rng) if i % 3 == 0 else s for i, s in enumerate(samples)]
    batch = FlowBatch.of(samples)
    subsets = np.array([rng.choice(len(batch), size=9, replace=False) for _ in range(60)])
    subsets[3] = 5  # one sample nine times
    stack = batch[subsets]
    a, b = scanline_ab(stack.y1, stack.y2, camera)
    k_free = np.arange(len(subsets)) % 3 == 0  # with constant-velocity coefficients
    b[k_free] = a[k_free]
    hyps = solve_stack(stack, a, b)
    assert failure_types(hyps)[3] is DegenerateConfiguration
    assert NoRealSolution in failure_types(hyps).values()
    assert np.any(np.bincount(hyps.subset) > 1)
    assert np.all(np.diff(hyps.subset) >= 0)
    perm = rng.permutation(len(subsets))
    shuffled = solve_stack(stack[perm], a[perm], b[perm])
    for j, at in enumerate(np.argsort(perm)):
        one = solve_stack(stack[j:j + 1], a[j:j + 1], b[j:j + 1])
        assert failure_types(hyps).get(j) is failure_types(one).get(0)
        assert failure_types(hyps).get(j) is failure_types(shuffled).get(at)
        assert np.count_nonzero(hyps.subset == j) == len(one)
        assert np.all(np.diff(hyps.k[hyps.subset == j]) > 0)
        for name in ("k", "v", "w", "v_reliable"):
            mine = getattr(hyps, name)[hyps.subset == j]
            assert np.array_equal(mine, getattr(one, name))
            assert np.array_equal(mine, getattr(shuffled, name)[shuffled.subset == at])
    for index in (np.flatnonzero(k_free), np.flatnonzero(~k_free)):
        part = solve_stack(stack[index], a[index], b[index])
        assert {int(index[j]): t for j, t in failure_types(part).items()} == {
            j: t for j, t in failure_types(hyps).items() if j in index}
        mine = np.isin(hyps.subset, index)
        assert np.array_equal(hyps.subset[mine], index[part.subset])
        for name in ("k", "v", "w", "v_reliable"):
            assert np.array_equal(getattr(hyps, name)[mine], getattr(part, name))
