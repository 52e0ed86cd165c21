"""Synthetic rolling-shutter scene and flow generation with ground truth.

Two generators are provided.  `generate_linearized` emits samples that
satisfy the differential RS epipolar constraint exactly, so solvers must
recover the truth to machine precision on them.  `generate_discrete`
projects 3D points through full per-scanline camera poses with finite
rotations, matching the linearized model only to second order in the motion
magnitude; it is the independent oracle for the small-motion approximation.

Both return (samples, truth): the samples as one `FlowBatch`, whose integer
indexing and iteration give single samples (batches of leading shape ()),
and a `GroundTruth` with the motion and the depth of each sample.  Both
iterate all points of a scene together, each point on its own convergence
test, so a scene of a few thousand points takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (  # the model names are re-exported from here
    CONST_ACCEL,
    CONST_VELOCITY,
    GLOBAL_SHUTTER,
    CameraConfig,
    FlowBatch,
    MotionEstimate,
    beta_timestamp,
    exp_so3,
    matrices_ab,
)

# the unit translation and rotation directions of every scene
V_DIR = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
W_DIR = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)


@dataclass(frozen=True)
class SceneSpec:
    """Random-scene description with the motion ground truth.

    The translation (along V_DIR) is given as the normalized translation:
    its magnitude over the mean scene depth.  The rotation is about W_DIR.
    """

    config: CameraConfig
    n_points: int = 300
    depth_range: tuple = (4.0, 8.0)
    norm_translation: float = 0.025
    w_mag_deg: float = 3.0
    k: float = 0.0
    seed: int = 0
    margin: float = 0.1

    def motion(self) -> MotionEstimate:
        depth_mean = 0.5 * (self.depth_range[0] + self.depth_range[1])
        v = V_DIR * self.norm_translation * depth_mean
        w = W_DIR * np.deg2rad(self.w_mag_deg)
        return MotionEstimate(v=v, w=w, k=self.k, v_reliable=True)


@dataclass(frozen=True)
class GroundTruth:
    """True motion and per-sample depths matching the emitted samples."""

    motion: MotionEstimate
    depths: np.ndarray
    n_discarded: int = 0


def benchmark_config(gamma=0.8):
    """900x900 image with an 810 px focal length."""
    return CameraConfig(gamma=gamma, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)


def scanline_pose(t, motion: MotionEstimate):
    """Translation and rotation vector of the scanline at timestamp t.

    An array of timestamps gives (..., 3) stacks of both.
    """
    b = np.asarray(beta_timestamp(t, motion.k))[..., None]
    return b * motion.v, b * motion.w


def _sample_positions(spec: SceneSpec, rng):
    cfg = spec.config
    w_px = cfg.width if cfg.width is not None else cfg.h
    m = spec.margin
    px = rng.uniform(m * w_px, (1 - m) * w_px, spec.n_points)
    py = rng.uniform(m * cfg.h, (1 - m) * cfg.h, spec.n_points)
    x, y = cfg.pixel_to_normalized(px, py)
    Z = rng.uniform(spec.depth_range[0], spec.depth_range[1], spec.n_points)
    return np.column_stack([x, y]), Z


def generate_linearized(spec: SceneSpec):
    """Samples exactly consistent with the linearized RS epipolar model.

    The flow and destination row are solved jointly by fixed-point iteration
    of u = beta(k; y1, y2) (A v / Z + B w) with the model matrices evaluated
    at the flow midpoint x + u/2, matching the solvers' convention.  All
    points iterate together; each stops on its own convergence test.
    """
    rng = np.random.default_rng(spec.seed)
    cfg = spec.config
    motion = spec.motion()
    xs, Zs = _sample_positions(spec, rng)
    y1 = cfg.row_of(xs[:, 1])
    y2 = y1.copy()
    u = np.zeros_like(xs)
    converged = np.zeros(len(xs), dtype=bool)
    active = np.arange(len(xs))
    for _ in range(50):
        if not active.size:
            break
        xa, ua, y2a = xs[active], u[active], y2[active]
        A, B = matrices_ab(xa + 0.5 * ua)
        base = A @ motion.v / Zs[active, None] + B @ motion.w
        bt = (beta_timestamp(cfg.timestamp(y2a, 1.0), motion.k)
              - beta_timestamp(cfg.timestamp(y1[active]), motion.k))
        u_new = bt[:, None] * base
        y2_new = cfg.row_of(xa[:, 1] + u_new[:, 1])
        done = (np.max(np.abs(u_new - ua), axis=1) < 1e-15) & (np.abs(y2_new - y2a) < 1e-12)
        u[active] = u_new
        y2[active] = y2_new
        converged[active[done]] = True
        active = active[~done]
    keep = np.flatnonzero(converged & (0 <= y2) & (y2 < cfg.h))
    samples = FlowBatch(x=xs[keep], u=u[keep], y1=y1[keep], y2=y2[keep])
    return samples, GroundTruth(motion=motion, depths=Zs[keep], n_discarded=len(xs) - len(keep))


def _camera_points(points, t, motion):
    """Camera-frame coordinates (N, 3) of world points at scanline timestamps t (N,)."""
    p, r = scanline_pose(t, motion)
    return (np.swapaxes(exp_so3(r), -1, -2) @ (points - p)[..., None])[..., 0]


def _row_fixed_point(points, rows, t0, motion, cfg):
    """Rows at which each world point is seen by the scanline exposing it.

    Iterates row <- row of the projection at the row's timestamp in frame
    t0, for all points together, each until its own row changes by less
    than 1e-12 or for 50 steps.  Returns (x, rows, ok): x is each point's
    projection at the row before its last update, and ok is False for a
    point that fell behind the camera, which stops iterating there.
    """
    rows = rows.copy()
    x = np.zeros((len(rows), 2))
    ok = np.ones(len(rows), dtype=bool)
    active = np.arange(len(rows))
    for _ in range(50):
        if not active.size:
            break
        Xc = _camera_points(points[active], cfg.timestamp(rows[active], t0), motion)
        behind = Xc[:, 2] <= 1e-9
        ok[active[behind]] = False
        active, Xc = active[~behind], Xc[~behind]
        xa = Xc[:, :2] / Xc[:, 2:]
        rows_new = cfg.row_of(xa[:, 1])
        done = np.abs(rows_new - rows[active]) < 1e-12
        x[active] = xa
        rows[active] = rows_new
        active = active[~done]
    return x, rows, ok


def generate_discrete(spec):
    """Exact two-view projections through per-scanline finite poses.

    For each 3D point, both observed rows are solved by fixed-point
    iteration so the projection row matches the scanline that captured it;
    all points iterate together, each stopping on its own convergence test.
    A point is discarded when it falls behind the camera or either row
    leaves the image.  The ground-truth motion is reported in the
    mid-exposure camera frame: with finite rotation the per-scanline
    relative translation direction is rotated by each scanline's own
    attitude, and the mid-exposure frame is the one a single-frame
    differential estimate corresponds to.  At gamma = 0 this coincides with
    the frame-start pose.

    spec may also be a non-empty sequence of specs with one camera and one
    motion; their points then iterate together, and a list of the (samples,
    truth) of each spec comes back, equal to its output alone.  Raises
    ValueError when the specs' cameras or motions differ.
    """
    specs = [spec] if isinstance(spec, SceneSpec) else list(spec)
    cfg, motion = specs[0].config, specs[0].motion()
    if len({(s.config, *s.motion().v, *s.motion().w, s.k) for s in specs}) > 1:
        raise ValueError("the specs of one generate_discrete call must share camera and motion")
    xs, Zs = (np.concatenate(parts) for parts in
              zip(*(_sample_positions(s, np.random.default_rng(s.seed)) for s in specs)))
    points = Zs[:, None] * np.column_stack([xs, np.ones(len(xs))])
    # frame i: the row consistent with its own scanline pose, then the
    # projection at that row
    _, y1, ok = _row_fixed_point(points, cfg.row_of(xs[:, 1]), 0.0, motion, cfg)
    keep = np.flatnonzero(ok & (0 <= y1) & (y1 < cfg.h))
    X1 = _camera_points(points[keep], cfg.timestamp(y1[keep]), motion)
    # frame i+1, starting from the frame-i row
    x2, y2, ok = _row_fixed_point(points[keep], y1[keep], 1.0, motion, cfg)
    kept = ok & (X1[:, 2] > 1e-9) & (0 <= y2) & (y2 < cfg.h)
    X1, x2, y2, source = X1[kept], x2[kept], y2[kept], keep[kept]
    x1 = X1[:, :2] / X1[:, 2:]
    y1 = y1[source]
    b_mid = beta_timestamp(0.5 * cfg.gamma, motion.k)
    gt_motion = MotionEstimate(
        v=exp_so3(b_mid * motion.w).T @ motion.v,
        w=motion.w,
        k=motion.k,
        v_reliable=True,
    )
    # each spec's points are a run of the concatenation, and so are its kept ones
    counts = [s.n_points for s in specs]
    bounds = np.searchsorted(source, np.cumsum([0, *counts]))
    out = []
    for n, lo, hi in zip(counts, bounds[:-1], bounds[1:]):
        samples = FlowBatch(x=x1[lo:hi], u=x2[lo:hi] - x1[lo:hi], y1=y1[lo:hi], y2=y2[lo:hi])
        out.append((samples, GroundTruth(motion=gt_motion, depths=X1[lo:hi, 2],
                                         n_discarded=n - (hi - lo))))
    return out[0] if isinstance(spec, SceneSpec) else out


def translation_error(v_est, v_true):
    """Angle between translation directions, in degrees."""
    v_est = np.asarray(v_est, float)
    v_true = np.asarray(v_true, float)
    ne, nt = np.linalg.norm(v_est), np.linalg.norm(v_true)
    if ne < 1e-15 or nt < 1e-15:
        raise ValueError("translation error undefined for zero vectors")
    c = np.clip(v_est @ v_true / (ne * nt), -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))


def rotation_error(w_est, w_true):
    """Norm of the intrinsic-XYZ Euler angles (a, b, c) of R_est R_true^T =
    Rx(a) Ry(b) Rz(c), in degrees."""
    R = exp_so3(w_est) @ exp_so3(w_true).T
    angles = (np.arctan2(-R[1, 2], R[2, 2]), np.arcsin(np.clip(R[0, 2], -1.0, 1.0)),
              np.arctan2(-R[0, 1], R[0, 0]))
    return float(np.degrees(np.linalg.norm(angles)))
