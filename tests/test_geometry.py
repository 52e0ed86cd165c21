import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdiffsfm.geometry import (
    CONST_ACCEL,
    CONST_VELOCITY,
    GLOBAL_SHUTTER,
    CameraConfig,
    FlowBatch,
    FlowSample,
    MotionEstimate,
    beta,
    beta_timestamp,
    canonicalize_e,
    depth_terms,
    exp_so3,
    inv_depth,
    matrices_ab,
    midpoint,
    scanline_ab,
    skew,
)
from rsdiffsfm.refine import SampleBlocks, _reduced_terms, dense_depth
from rsdiffsfm.robust import score_motion

from oracles import (
    epipolar_residual,
    log_so3,
    motion_stack,
    project_flow,
    s_to_vech,
    symmetric_s,
)

finite = st.floats(-1.0, 1.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def test_skew_cross_product():
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([0.5, 4.0, -1.0])
    assert np.allclose(skew(a) @ b, np.cross(a, b))


@given(vec3)
@settings(max_examples=50, deadline=None)
def test_exp_log_roundtrip(w):
    R = exp_so3(w)
    # rotation matrix invariants
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(R), 1.0)
    assert np.allclose(log_so3(R), w, atol=1e-9)


def test_exp_so3_small_angle():
    w = np.array([1e-12, -2e-12, 1e-12])
    R = exp_so3(w)
    assert np.allclose(R, np.eye(3) + skew(w), atol=1e-20)


@given(vec3, vec3, finite, finite, st.floats(1.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_epipolar_identity(v, w, px, py, Z):
    """Flow from the projection model satisfies the epipolar constraint."""
    x = np.array([px, py])
    u = project_flow(x, Z, v, w)
    assert abs(epipolar_residual(x, u, v, w)) < 1e-12


def test_project_flow_rejects_nonpositive_depth():
    with pytest.raises(ValueError):
        project_flow(np.zeros(2), 0.0, np.ones(3), np.zeros(3))


def test_matrices_ab_match_projection_derivative():
    x = np.array([0.2, -0.3])
    v = np.array([0.1, -0.2, 0.05])
    w = np.array([0.01, 0.02, -0.03])
    A, B = matrices_ab(x)
    assert np.allclose(A @ v / 2.0 + B @ w, project_flow(x, 2.0, v, w))


@given(vec3, vec3)
@settings(max_examples=50, deadline=None)
def test_symmetric_s_vech_roundtrip(v, w):
    """s is symmetric, and its vech lists the upper triangle row by row, so
    that it and the symmetry give s back."""
    s = symmetric_s(v, w)
    assert np.allclose(s, s.T)
    assert np.array_equal(s_to_vech(s), s[np.triu_indices(3)])


def test_camera_pixel_roundtrip(camera):
    px = np.array([0.0, 123.4, 899.0])
    py = np.array([0.0, 500.5, 899.0])
    x, y = camera.pixel_to_normalized(px, py)
    px2, py2 = camera.normalized_to_pixel(x, y)
    assert np.allclose(px2, px)
    assert np.allclose(py2, py)


def test_row_of_matches_pixel_mapping(camera):
    x, y = camera.pixel_to_normalized(450.0, 321.0)
    assert np.isclose(camera.row_of(y), 321.0)


@pytest.mark.parametrize("setting, message", [
    ({"gamma": -0.1}, r"gamma must lie in \[0, 1\]"),
    ({"gamma": 1.5}, r"gamma must lie in \[0, 1\]"),
    ({"h": 1}, "h must be >= 2"),
    ({"fx": 0.0}, "focal lengths must be positive"),
    ({"fy": -1.0}, "focal lengths must be positive"),
])
def test_camera_config_rejects_bad_values(setting, message):
    values = dict(gamma=0.5, h=10, fx=9.0, fy=9.0, cx=5.0, cy=5.0)
    values.update(setting)
    with pytest.raises(ValueError, match=message):
        CameraConfig(**values)


def test_flow_sample_is_a_batch_of_shape_nothing():
    """One flow sample is the batch whose fields have the leading shape ();
    integer indexing and iteration of a batch give such samples."""
    assert FlowSample is FlowBatch
    s = FlowSample(x=[0.1, 0.2], u=[0.02, -0.04], y1=10.0, y2=8.0)
    assert s.x.dtype == s.u.dtype == float and s.x.shape == s.u.shape == (2,)
    batch = FlowBatch.of([s, s])
    assert batch.x.shape == (2, 2) and np.array_equal(batch.y1, [10.0, 10.0])
    for got in (batch[1], *batch):
        assert isinstance(got, FlowBatch) and got.x.shape == (2,) and np.ndim(got.y1) == 0
        assert np.array_equal(got.x, s.x) and (got.y1, got.y2) == (10.0, 8.0)
    assert len(list(batch)) == 2
    # rows given as lists are arrays too, so a stack index reaches them
    listed = FlowBatch(x=[[0.1, 0.2], [0.3, 0.4]], u=[[0.0, 0.1], [0.1, 0.0]],
                       y1=[1.0, 2.0], y2=[1.0, 2.0])
    stack = listed[np.array([[0, 1]])]
    assert stack.y1.dtype == float and np.array_equal(stack.y2, [[1.0, 2.0]])


def test_midpoint():
    s = FlowSample(x=np.array([0.1, 0.2]), u=np.array([0.02, -0.04]), y1=10.0, y2=8.0)
    assert np.allclose(midpoint(s), [0.11, 0.18])


def test_epipolar_vector_canonical_sign():
    e = canonicalize_e(np.concatenate([[-0.5], np.zeros(8)]))
    assert e[0] > 0
    assert np.isclose(np.linalg.norm(e), 1.0)


def test_motion_estimate_normalized():
    m = MotionEstimate(v=np.array([3.0, 0.0, 4.0]), w=np.zeros(3), k=0.1)
    n = m.normalized()
    assert np.isclose(np.linalg.norm(n.v), 1.0)
    assert n.k == m.k


MODELS = st.sampled_from([GLOBAL_SHUTTER, CONST_VELOCITY, CONST_ACCEL])
rows = st.floats(allow_nan=False, allow_infinity=False)


@given(rows, rows, MODELS)
@settings(max_examples=200, deadline=None)
def test_scanline_factors_at_gamma_zero_are_one(y1, y2, model):
    """At gamma = 0 every row of a frame is exposed at the frame's start,
    t1 = 0 and t2 = 1, so every model has a = b = 1 bit for bit."""
    camera = CameraConfig(gamma=0.0, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0)
    t1, t2 = camera.timestamp(y1), camera.timestamp(y2, 1.0)
    assert (t1, t2) == (0.0, 1.0)
    a, b = scanline_ab(y1, y2, camera, model)
    assert a == b == t2 - t1 == t2 * t2 - t1 * t1 == 1.0


@given(st.floats(0.0, 1.0), st.floats(0.0, 899.0), st.floats(0.0, 899.0))
@settings(max_examples=200, deadline=None)
def test_scanline_factors_come_from_the_camera_clock(gamma, y1, y2):
    """(a, b) are the differences of the camera's timestamps of row y1 in
    frame 0 and row y2 in frame 1, bit for bit."""
    camera = CameraConfig(gamma=gamma, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0)
    t1, t2 = camera.timestamp(y1), camera.timestamp(y2, 1.0)
    assert t1 == gamma / 900 * y1 and t2 == 1.0 + gamma / 900 * y2
    assert scanline_ab(y1, y2, camera, CONST_ACCEL) == (t2 - t1, t2 * t2 - t1 * t1)
    assert scanline_ab(y1, y2, camera, CONST_VELOCITY) == (t2 - t1, t2 - t1)


@pytest.mark.parametrize("model", [CONST_VELOCITY, CONST_ACCEL])
def test_rolling_shutter_factors_need_a_camera(model):
    """Only the global-shutter model gives beta = 1 without a camera; the
    rolling-shutter models fail rather than fall back to it."""
    assert scanline_ab(10.0, 12.0, None, GLOBAL_SHUTTER) == (1.0, 1.0)
    with pytest.raises(TypeError, match=f"model {model} needs a camera"):
        scanline_ab(10.0, 12.0, None, model)


KERNEL_CAMERA = CameraConfig(gamma=0.8, h=24, fx=20.0, fy=20.0, cx=12.0, cy=12.0, width=24)
pixel_flows = st.lists(
    st.tuples(st.integers(0, 23), st.integers(0, 23), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    min_size=1, max_size=12, unique_by=lambda p: p[:2])


@given(pixel_flows, vec3, vec3, st.floats(-0.5, 0.5))
@settings(max_examples=100, deadline=None)
def test_flow_model_consumers_agree(pixels, v, w, k):
    """Scoring, refinement, dense depth and the GS depth share one inverse
    depth and cheirality, and beta_timestamp differences are beta."""
    cam = KERNEL_CAMERA
    motion = MotionEstimate(v=v, w=w, k=k)
    field = np.full((cam.h, cam.width, 2), np.nan)
    samples = []
    for c, r, fx_px, fy_px in pixels:
        field[r, c] = fx_px, fy_px
        samples.append(FlowSample(x=cam.pixel_to_normalized(float(c), float(r)),
                                  u=[fx_px / cam.fx, fy_px / cam.fy], y1=float(r), y2=r + fy_px))
    blocks = SampleBlocks.of([(FlowBatch.of(samples), cam, CONST_ACCEL)])
    terms = _reduced_terms(blocks, *motion_stack(motion))
    valid, rho = terms.valid[0], terms.rho[0]
    depth, dense_valid = dense_depth(field, motion, cam)
    g = cam.gamma / cam.h
    for i, (s, (c, r, _, _)) in enumerate(zip(samples, pixels)):
        bt = beta(*scanline_ab(s.y1, s.y2, cam), k)
        assert abs(beta_timestamp(1.0 + g * s.y2, k) - beta_timestamp(g * s.y1, k) - bt) < 1e-12
        A, B = matrices_ab(midpoint(s))
        rho_cf = float(inv_depth(*depth_terms(*s.x, *s.u, v, w, bt))[0])
        residual = score_motion([s], motion, cam)[0]
        if np.isnan(rho_cf):
            assert np.isnan(rho[i]) and not valid[i] and not dense_valid[r, c]
            assert residual == pytest.approx(np.linalg.norm(s.u - bt * (B @ w)))
            continue
        tol = 1e-9 * (1.0 + abs(rho_cf))
        assert abs(rho[i] - rho_cf) <= tol
        if abs(rho_cf) > tol:  # the sign is resolved: cheirality agrees
            assert valid[i] == dense_valid[r, c] == (rho_cf > 0)
        if dense_valid[r, c]:
            assert abs(1.0 / depth[r, c] - rho_cf) <= tol
        pred = bt * ((A @ v) * (rho_cf if valid[i] else 0.0) + B @ w)
        assert abs(residual - np.linalg.norm(s.u - pred)) < 1e-9
