import numpy as np

from rsdiffsfm import CameraConfig, SceneSpec, generate_linearized, translation_error
from rsdiffsfm.errors import DegenerateConfiguration
from rsdiffsfm.geometry import FlowBatch, FlowSample, canonicalize_e, depth_terms, inv_depth
from rsdiffsfm.gs_solver import cheirality_vote, gs_rows, recover_stack, solve_gs
from rsdiffsfm.rs_solvers import solve_stack

from conftest import make_spec
from oracles import project_flow, s_to_vech, symmetric_s


def subset_failure(samples):
    """The error `solve_stack` reports for a stack of one global-shutter
    sample subset, or None."""
    ones = np.ones((1, len(samples)))
    return solve_stack(FlowBatch.of(samples)[np.newaxis], ones, ones).failures.get(0)


def gs_camera():
    return CameraConfig(gamma=0.0, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)


def gs_samples(v, w, n=20, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        x = rng.uniform(-0.4, 0.4, 2)
        Z = rng.uniform(4.0, 8.0)
        u = project_flow(x, Z, v, w)
        # make the sample consistent with midpoint evaluation
        for _ in range(40):
            u_new = project_flow(x + 0.5 * u, Z, v, w)
            if np.max(np.abs(u_new - u)) < 1e-16:
                break
            u = u_new
        samples.append(FlowSample(x=x, u=u, y1=0.0, y2=0.0))
    return samples


def test_gs_row_annihilates_true_epipolar_vector():
    v = np.array([0.6, -0.3, 0.1])
    w = np.array([0.02, 0.01, -0.015])
    e = np.concatenate([v, s_to_vech(symmetric_s(v, w))])
    assert np.max(np.abs(gs_rows(FlowBatch.of(gs_samples(v, w, n=10))) @ e)) < 1e-12


def test_exact_recovery():
    v = np.array([0.10, 0.08, 0.03])
    w = np.array([0.02, -0.01, 0.03])
    m = solve_gs(gs_samples(v, w))
    assert translation_error(m.v, v) < 1e-6
    assert np.linalg.norm(m.w - w) < 1e-9
    assert m.v_reliable


def test_minimum_sample_count():
    v = np.array([0.1, 0.0, 0.0])
    w = np.zeros(3)
    assert isinstance(subset_failure(gs_samples(v, w, n=7)), DegenerateConfiguration)


def test_degenerate_planar_points_raise():
    # all samples at the same image point: rank collapses
    s = gs_samples(np.array([0.1, 0.05, 0.0]), np.zeros(3), n=1)[0]
    assert isinstance(subset_failure([s] * 10), DegenerateConfiguration)


def test_cheirality_sign_resolution():
    v = np.array([0.12, -0.05, 0.02])
    w = np.array([0.01, 0.02, -0.01])
    samples = gs_samples(v, w, seed=3)
    m = solve_gs(samples)
    # sign must match the positive-depth interpretation, not its mirror
    assert m.v @ v > 0
    assert cheirality_vote(FlowBatch.of(samples), m.v, m.w) == len(samples)


def test_closed_form_depth_recovers_truth():
    v = np.array([0.1, 0.06, -0.02])
    w = np.array([0.015, -0.02, 0.01])
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-0.4, 0.4, 2)
        Z = rng.uniform(4.0, 8.0)
        u = project_flow(x, Z, v, w)
        for _ in range(40):
            u = project_flow(x + 0.5 * u, Z, v, w)
        s = FlowSample(x=x, u=u, y1=0.0, y2=0.0)
        rho, valid = inv_depth(*depth_terms(*s.x, *s.u, v, w, 1.0))
        assert valid
        assert abs(1.0 / rho - Z) < 1e-9 * Z


def test_pure_rotation_data_is_degenerate():
    # with no translation the epipolar system loses rank
    w = np.array([0.02, -0.03, 0.01])
    samples = gs_samples(np.zeros(3), w)
    assert isinstance(subset_failure(samples), DegenerateConfiguration)


def test_near_pure_rotation_flagged():
    w = np.array([0.02, -0.03, 0.01])
    samples = gs_samples(np.zeros(3), w)
    e = canonicalize_e(np.concatenate([np.full(3, 1e-12), [1.0], np.zeros(5)]))
    _, w_hat, reliable = recover_stack(e[np.newaxis], FlowBatch.of(samples)[np.newaxis])
    assert not reliable[0]
    assert np.linalg.norm(w_hat[0] - w) < 1e-8


def test_solve_gs_on_generated_scene(camera):
    spec = make_spec(gs_camera(), n_points=40, seed=2)
    samples, gt = generate_linearized(spec)
    m = solve_gs(samples)
    assert translation_error(m.v, gt.motion.v) < 1e-6
    assert np.linalg.norm(m.w - gt.motion.w) < 1e-9
