import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from rsdiffsfm import (
    CameraConfig,
    SceneSpec,
    exp_so3,
    generate_discrete,
    generate_linearized,
    benchmark_config,
    rotation_error,
    translation_error,
)
from rsdiffsfm.geometry import FlowBatch, matrices_ab
from rsdiffsfm.synth import _sample_positions, beta_timestamp, scanline_pose

from conftest import make_spec


def test_benchmark_config():
    cfg = benchmark_config(0.5)
    assert cfg.h == cfg.width == 900
    assert cfg.fx == cfg.fy == 810.0
    assert cfg.gamma == 0.5


def test_beta_timestamp_limits():
    assert beta_timestamp(0.0, 0.3) == 0.0
    assert np.isclose(beta_timestamp(1.0, 0.3), 1.0)  # full frame period
    assert np.isclose(beta_timestamp(0.5, 0.0), 0.5)  # no acceleration: linear


def test_scanline_pose_scales_motion():
    from rsdiffsfm.geometry import MotionEstimate

    m = MotionEstimate(v=np.array([1.0, 2.0, 3.0]), w=np.array([0.1, 0.0, 0.0]), k=0.2)
    p, r = scanline_pose(0.4, m)
    b = beta_timestamp(0.4, 0.2)
    assert np.allclose(p, b * m.v)
    assert np.allclose(r, b * m.w)


def test_linearized_samples_satisfy_model(camera):
    spec = make_spec(camera, n_points=40, k=0.1, seed=9)
    samples, gt = generate_linearized(spec)
    g = camera.gamma / camera.h
    for s, Z in zip(samples, gt.depths):
        A, B = matrices_ab(s.x + 0.5 * s.u)
        base = A @ gt.motion.v / Z + B @ gt.motion.w
        t1 = g * s.y1
        t2 = 1.0 + g * s.y2
        beta = beta_timestamp(t2, 0.1) - beta_timestamp(t1, 0.1)
        assert np.max(np.abs(s.u - beta * base)) < 1e-14
        # the recorded scanlines agree with the image rows
        assert np.isclose(s.y1, camera.row_of(s.x[1]))
        assert np.isclose(s.y2, camera.row_of(s.x[1] + s.u[1]))



def per_point_linearized(spec):
    """Reference for `generate_linearized`: each point's fixed point solved
    in its own scalar loop."""
    rng = np.random.default_rng(spec.seed)
    cfg = spec.config
    motion = spec.motion()
    xs, Zs = _sample_positions(spec, rng)
    g = cfg.gamma / cfg.h
    samples, depths, discarded = [], [], 0
    for x, Z in zip(xs, Zs):
        y1 = cfg.row_of(x[1])
        y2 = y1
        u = np.zeros(2)
        converged = False
        for _ in range(50):
            A, B = matrices_ab(x + 0.5 * u)
            base = A @ motion.v / Z + B @ motion.w
            beta = beta_timestamp(1.0 + g * y2, motion.k) - beta_timestamp(g * y1, motion.k)
            u_new = beta * base
            y2_new = cfg.row_of(x[1] + u_new[1])
            done = np.max(np.abs(u_new - u)) < 1e-15 and abs(y2_new - y2) < 1e-12
            u, y2 = u_new, y2_new
            if done:
                converged = True
                break
        if not converged or not (0 <= y2 < cfg.h):
            discarded += 1
            continue
        samples.append((x, u, y1, y2))
        depths.append(Z)
    return samples, np.array(depths), discarded


@pytest.mark.parametrize("kw", [
    dict(k=0.1, seed=9),
    dict(k=-0.4, seed=3, n_points=200),
    # points near the image border whose flow leaves the image are discarded
    dict(k=0.3, seed=5, n_points=200, margin=0.0, norm_translation=0.1, w_mag_deg=8.0),
])
def test_linearized_matches_per_point_loop(camera, kw):
    spec = make_spec(camera, **kw)
    samples, gt = generate_linearized(spec)
    ref, depths, discarded = per_point_linearized(spec)
    # the arithmetic of each point is unchanged, so the results are equal
    assert gt.n_discarded == discarded
    assert len(samples) == len(ref)
    assert np.array_equal(gt.depths, depths)
    for s, (x, u, y1, y2) in zip(samples, ref):
        assert np.array_equal(s.x, x) and np.array_equal(s.u, u)
        assert (s.y1, s.y2) == (y1, y2)


def per_point_discrete(spec):
    """Reference for `generate_discrete`: each point's two row fixed points
    solved in its own scalar loop, one rotation per step."""
    rng = np.random.default_rng(spec.seed)
    cfg = spec.config
    motion = spec.motion()
    xs, Zs = _sample_positions(spec, rng)
    g = cfg.gamma / cfg.h

    def project(point, t):
        p, r = scanline_pose(t, motion)
        Xc = exp_so3(r).T @ (point - p)
        if Xc[2] <= 1e-9:
            return None, None
        return Xc[:2] / Xc[2], Xc[2]

    def fixed_row(point, y, t0):
        """(projection at the row before the last update, row) or None."""
        x = None
        for _ in range(50):
            x, _ = project(point, t0 + g * y)
            if x is None:
                return None
            y_new = cfg.row_of(x[1])
            if abs(y_new - y) < 1e-12:
                return x, y_new
            y = y_new
        return x, y

    samples, depths, discarded = [], [], 0
    for x0, Z0 in zip(xs, Zs):
        point = Z0 * np.array([x0[0], x0[1], 1.0])
        first = fixed_row(point, cfg.row_of(x0[1]), 0.0)
        if first is None or not (0 <= first[1] < cfg.h):
            discarded += 1
            continue
        y1 = first[1]
        x1, Z1 = project(point, g * y1)
        second = fixed_row(point, y1, 1.0)
        if x1 is None or second is None or not (0 <= second[1] < cfg.h):
            discarded += 1
            continue
        x2, y2 = second
        samples.append((x1, x2 - x1, y1, y2))
        depths.append(Z1)
    return samples, np.array(depths), discarded


# "cv": the scene at k = 0, as constant-velocity data is made
@pytest.mark.parametrize("zero_k", [False, True], ids=["ca", "cv"])
@pytest.mark.parametrize("kw", [
    dict(k=0.1, seed=9),
    dict(k=-0.4, seed=3, n_points=200),
    # points near the image border whose rows leave the image are discarded
    dict(k=0.3, seed=5, n_points=200, margin=0.0, norm_translation=0.1, w_mag_deg=8.0),
])
def test_discrete_matches_per_point_loop(camera, kw, zero_k):
    spec = make_spec(camera, **({**kw, "k": 0.0} if zero_k else kw))
    samples, gt = generate_discrete(spec)
    ref, depths, discarded = per_point_discrete(spec)
    assert isinstance(samples, FlowBatch)
    if kw.get("margin") == 0.0:
        assert discarded > 0
    # each point runs the same arithmetic as in its own loop, and the
    # stacked rotations equal the per-vector ones bit for bit
    assert gt.n_discarded == discarded
    assert len(samples) == len(ref)
    assert np.array_equal(gt.depths, depths)
    for s, (x, u, y1, y2) in zip(samples, ref):
        assert np.array_equal(s.x, x) and np.array_equal(s.u, u)
        assert (s.y1, s.y2) == (y1, y2)


def test_discrete_spec_list_matches_each_spec(camera):
    """A list of specs with one camera and one motion gives each spec's
    output alone, bit for bit, whatever their seeds, point counts and
    margins; a list that mixes cameras or motions is refused."""
    motion = dict(k=0.3, norm_translation=0.1, w_mag_deg=8.0)
    specs = [make_spec(camera, seed=5, n_points=200, margin=0.0, **motion),
             make_spec(camera, seed=6, n_points=1, **motion),
             make_spec(camera, seed=7, n_points=300, margin=0.0, **motion),
             make_spec(camera, seed=8, n_points=40, **motion)]
    out = generate_discrete(specs)
    assert len(out) == len(specs)
    assert sum(truth.n_discarded for _, truth in out) > 0
    for spec, (samples, truth) in zip(specs, out):
        alone, alone_truth = generate_discrete(spec)
        for field in ("x", "u", "y1", "y2"):
            assert np.array_equal(getattr(samples, field), getattr(alone, field))
        assert np.array_equal(truth.depths, alone_truth.depths)
        assert truth.n_discarded == alone_truth.n_discarded
        assert np.array_equal(truth.motion.v, alone_truth.motion.v)
        assert np.array_equal(truth.motion.w, alone_truth.motion.w)
        assert truth.motion.k == alone_truth.motion.k
    [(samples, _)] = generate_discrete(specs[:1])
    assert np.array_equal(samples.x, generate_discrete(specs[0])[0].x)
    for other in (make_spec(benchmark_config(0.5), seed=6, **motion),
                  make_spec(camera, seed=6, **{**motion, "k": 0.2}),
                  make_spec(camera, seed=6, **{**motion, "depth_range": (4.0, 9.0)})):
        with pytest.raises(ValueError, match="share camera and motion"):
            generate_discrete([specs[0], other])


def test_exp_so3_stack_matches_each_vector():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-14, 0.5, (500, 1))
    w[0] = 0.0  # zero vector
    w[1] = [3e-11, -2e-11, 0.0]  # below the 1e-10 Taylor switch
    w[2] = [1e-10, 0.0, 0.0]  # at the switch: Rodrigues
    stack = exp_so3(w)
    assert stack.shape == (500, 3, 3)
    for R, wi in zip(stack, w):
        assert np.array_equal(R, exp_so3(wi))
    assert np.array_equal(exp_so3(w.reshape(20, 25, 3)), stack.reshape(20, 25, 3, 3))
    assert np.array_equal(stack[0], np.eye(3))


def test_discrete_rows_self_consistent(camera):
    spec = make_spec(camera, n_points=30, k=0.1, seed=1)
    samples, _ = generate_discrete(spec)
    assert len(samples) > 0
    for s in samples:
        assert np.isclose(s.y1, camera.row_of(s.x[1]))
        assert np.isclose(s.y2, camera.row_of(s.x[1] + s.u[1]))


def test_discrete_truth_mid_exposure_frame(camera):
    spec = make_spec(camera, k=0.1, seed=2)
    _, gt = generate_discrete(spec)
    raw = spec.motion()
    b_mid = beta_timestamp(0.5 * camera.gamma, 0.1)
    assert np.allclose(gt.motion.v, exp_so3(b_mid * raw.w).T @ raw.v)
    assert np.allclose(gt.motion.w, raw.w)


def test_discrete_truth_at_gamma_zero_is_frame_motion():
    cam0 = CameraConfig(gamma=0.0, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)
    spec = make_spec(cam0, seed=3)
    _, gt = generate_discrete(spec)
    assert np.allclose(gt.motion.v, spec.motion().v)


def test_discrete_converges_to_linearized(camera):
    """Flow discrepancy must shrink at second order in the motion size."""
    errs = []
    for scale in (1.0, 0.5, 0.25):
        spec = make_spec(camera, n_points=50, norm_translation=0.025 * scale,
                         w_mag_deg=3.0 * scale, k=0.1, seed=11)
        sl, _ = generate_linearized(spec)
        sd, _ = generate_discrete(spec)
        n = min(len(sl), len(sd))
        errs.append(max(np.max(np.abs(a.u - b.u)) for a, b in zip(sl[:n], sd[:n])))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_error_metrics():
    v = np.array([1.0, 0.0, 0.0])
    assert translation_error(v, v) == 0.0
    assert np.isclose(translation_error(v, np.array([0.0, 1.0, 0.0])), 90.0)
    assert np.isclose(translation_error(2.5 * v, v), 0.0)  # scale invariant
    with pytest.raises(ValueError):
        translation_error(np.zeros(3), v)
    w = np.array([0.01, 0.02, 0.03])
    assert rotation_error(w, w) < 1e-12
    assert rotation_error(w, np.zeros(3)) > 0


rotation_vectors = st.lists(st.floats(-0.8, 0.8), min_size=3, max_size=3).map(np.array)


@settings(max_examples=300, deadline=None)
@given(w_est=rotation_vectors, w_true=rotation_vectors)
def test_rotation_error_matches_scipy_euler_angles(w_est, w_true):
    """The closed-form intrinsic-XYZ Euler angles agree with scipy's for
    rotation differences below 80 degrees, away from gimbal lock."""
    R = exp_so3(w_est) @ exp_so3(w_true).T
    assume(np.degrees(np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))) < 80.0)
    expected = np.linalg.norm(Rotation.from_matrix(R).as_euler("XYZ", degrees=True))
    assert abs(rotation_error(w_est, w_true) - expected) <= 1e-12 * expected + 1e-12


def test_generators_deterministic(camera):
    spec = make_spec(camera, seed=21)
    s1, _ = generate_discrete(spec)
    s2, _ = generate_discrete(spec)
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.u, b.u)
