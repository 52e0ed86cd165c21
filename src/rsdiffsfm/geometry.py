"""Core geometric types and the differential flow-projection model.

All solver math operates on the normalized image plane.  Pixel <-> normalized
conversion happens only at module boundaries (file I/O, synthesis).  Image
points are lifted to homogeneous 3-vectors x~ = (x, y, 1) and flows to
(u_x, u_y, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidScanlinePair

CONST_VELOCITY = "cv"
CONST_ACCEL = "ca"
GLOBAL_SHUTTER = "gs"


def skew(v):
    """Skew-symmetric matrix: skew(v) @ x == cross(v, x).

    v may be a stack (..., 3); the result is then (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    K = np.zeros(v.shape + (3,))
    K[..., 0, 1], K[..., 0, 2] = -v[..., 2], v[..., 1]
    K[..., 1, 0], K[..., 1, 2] = v[..., 2], -v[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -v[..., 1], v[..., 0]
    return K


def exp_so3(w):
    """Rotation matrix from a rotation vector (Rodrigues formula).

    w may be a stack (..., 3); the result is then (..., 3, 3), each matrix
    bit-identical to that of its own vector.  The angle is the square root
    of `np.vecdot` (NumPy 2.0 and later) and theta^2 comes from
    `float_power`: both round as `np.linalg.norm` and `theta**2` of a
    single vector do.
    """
    w = np.asarray(w, dtype=float)
    theta = np.sqrt(np.vecdot(w, w))[..., None, None]
    K = skew(w)
    small = theta < 1e-10
    # second-order Taylor below 1e-10: exact to machine precision at that scale
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(t) / t)
    b = np.where(small, 0.5, (1.0 - np.cos(t)) / np.float_power(t, 2))
    return np.eye(3) + a * K + b * (K @ K)


def translation_flow(x, y, v):
    """A v per component: flow at (x, y) of a unit-inverse-depth point under
    translation v.  x and y may be arrays of any common shape."""
    vx, vy, vz = v
    return -vx + x * vz, -vy + y * vz


def rotation_flow(x, y, w):
    """B w per component: flow at (x, y) under rotation w."""
    wx, wy, wz = w
    return (
        x * y * wx - (1.0 + x * x) * wy + y * wz,
        (1.0 + y * y) * wx - x * y * wy - x * wz,
    )


def matrices_ab(x):
    """Flow-projection matrices A, B at normalized point(s) x of shape (..., 2).

    Returns two (..., 2, 3) arrays whose columns are the flow kernels at the
    unit vectors, so A @ v and B @ w reproduce `translation_flow` and
    `rotation_flow`.
    """
    px, py = np.moveaxis(np.asarray(x, dtype=float), -1, 0)

    def columns(kernel):
        # + 0.0 turns the -0.0 of zero entries into 0.0
        return np.stack([np.stack(kernel(px, py, e), axis=-1) for e in np.eye(3)], axis=-1) + 0.0

    return columns(translation_flow), columns(rotation_flow)


def beta(a, b, k):
    """Pose scale alpha a + kappa b of the constant-acceleration model.

    Between scanline timestamps t1 and t2, a = t2 - t1 and b = t2^2 - t1^2;
    the pose of timestamp t relative to t = 0 scales by beta(t, t^2, k).
    The weights alpha = 2 / (2 + k) = beta(1, 0, k) and kappa = k / (2 + k)
    = beta(0, 1, k) are exact, and beta(a, b, 0) == a.
    """
    return 2.0 / (2.0 + k) * a + k / (2.0 + k) * b


def beta_timestamp(t, k):
    """Pose scale at scanline timestamp t (fraction of the frame period)."""
    return beta(t, t * t, k)


def scanline_ab(y1, y2, config: CameraConfig | None, model=CONST_ACCEL):
    """Coefficients (a, b) of beta for flows from row y1 to row y2 under a model.

    The coefficients are where the model is chosen: a = b = 1 (beta = 1)
    for the global-shutter model, the only one that needs no camera; b = a
    (beta = alpha for every k) for the constant-velocity model; a = t2 - t1
    and b = t2^2 - t1^2 for the constant-acceleration model, t1 and t2 the
    camera's timestamps of y1 in frame 0 and y2 in frame 1 (so a = b = 1 at
    gamma = 0).  Raises InvalidScanlinePair where a <= 0, and TypeError for
    a rolling-shutter model without a camera.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if model == GLOBAL_SHUTTER:
        ones = np.ones(np.broadcast(y1, y2).shape)
        return ones, ones
    if config is None:
        raise TypeError(f"model {model} needs a camera (config), got None: its scanline "
                        f"factor reads the camera's row times")
    t1 = config.timestamp(y1)
    t2 = config.timestamp(y2, 1.0)
    a = t2 - t1
    if np.any(a <= 0):
        y1, y2 = np.broadcast_arrays(y1, y2)  # rows may come as an (H, 1) column
        i = np.argmin(a)
        raise InvalidScanlinePair(f"alpha = {a.flat[i]:.4f} <= 0 for rows ({y1.flat[i]}, {y2.flat[i]})")
    return a, a if model == CONST_VELOCITY else t2 * t2 - t1 * t1


def depth_terms(x, y, ux, uy, v, w, bt):
    """(q, c) = (beta A v, u - beta B w) per component at the flow midpoints.

    The flow model u = beta (A v rho + B w), with A and B evaluated at the
    midpoint x + u/2, reads c = rho q in the inverse depth rho.
    """
    xm = x + 0.5 * ux
    ym = y + 0.5 * uy
    ax, ay = translation_flow(xm, ym, v)
    bx, by = rotation_flow(xm, ym, w)
    return (bt * ax, bt * ay), (ux - bt * bx, uy - bt * by)


def inv_depth(q, c):
    """Least-squares inverse depth rho = (c . q) / (q . q) of c = rho q.

    Returns (rho, valid): rho is NaN where q vanishes (the translation
    epipole) and valid marks a defined, positive rho (cheirality).
    """
    qx, qy = q
    cx, cy = c
    qq = qx * qx + qy * qy
    degenerate = qq < 1e-24
    rho = np.where(degenerate, np.nan, (cx * qx + cy * qy) / np.where(degenerate, 1.0, qq))
    return rho, ~degenerate & (rho > 0)


def midpoint(sample):
    """Flow-midpoint evaluation position x + u/2 of a sample or a batch.

    Evaluating the differential model halfway along the measured flow makes
    the fit second-order accurate in the motion magnitude (a central
    difference), which matters for flows measured between finite frames.
    """
    return sample.x + 0.5 * sample.u


@dataclass(frozen=True)
class CameraConfig:
    """Rolling-shutter camera: readout ratio, scanline count and intrinsics.

    gamma is the readout time ratio (readout span over frame period); h is
    the number of scanlines; fx, fy, cx, cy are pinhole intrinsics in pixels.
    The top row (y = 0) is the first-exposed scanline.
    """

    gamma: float
    h: int
    fx: float
    fy: float
    cx: float
    cy: float
    width: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.h < 2:
            raise ValueError(f"h must be >= 2, got {self.h}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    def pixel_to_normalized(self, px, py):
        return (np.asarray(px) - self.cx) / self.fx, (np.asarray(py) - self.cy) / self.fy

    def normalized_to_pixel(self, x, y):
        return np.asarray(x) * self.fx + self.cx, self.row_of(y)

    def row_of(self, y_norm):
        """Pixel row of a normalized y coordinate, or of an array of them."""
        return np.asarray(y_norm, float) * self.fy + self.cy

    def timestamp(self, rows, frame=0.0):
        """Exposure time of pixel rows of frame `frame`, in frame periods."""
        return frame + self.gamma / self.h * np.asarray(rows, float)


@dataclass(frozen=True, eq=False)
class FlowBatch:
    """Flow measurements as arrays: the library's one flow-sample type.

    x is the normalized image position in frame i, u the flow displacement
    in normalized units, y1/y2 the pixel rows of the point in frames i and
    i+1.  N samples have fields x (N, 2), u (N, 2), y1 (N,) and y2 (N,); one
    sample, `FlowSample`, is the batch whose fields have the leading shape
    (): x (2,), u (2,) and scalar rows.  An index gives a sub-batch with the
    index's shape, so an integer gives one sample, as does iteration, and an
    (S, m) index array a stack of S subsets, whose fields carry the leading
    shape (S, m); the row and solver kernels take such stacks, `len` of one
    is S.  The entry points stack a sequence of samples once, with `of`.
    """

    x: np.ndarray
    u: np.ndarray
    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        # [()]: one sample's rows stay numpy scalars, a third the size of 0-d arrays
        object.__setattr__(self, "y1", np.asarray(self.y1, dtype=float)[()])
        object.__setattr__(self, "y2", np.asarray(self.y2, dtype=float)[()])

    @classmethod
    def of(cls, samples):
        """The batch itself, or the stacked arrays of a sequence of samples."""
        if isinstance(samples, cls):
            return samples
        return cls(
            x=np.array([s.x for s in samples], dtype=float).reshape(-1, 2),
            u=np.array([s.u for s in samples], dtype=float).reshape(-1, 2),
            y1=np.array([s.y1 for s in samples], dtype=float),
            y2=np.array([s.y2 for s in samples], dtype=float),
        )

    @classmethod
    def concatenate(cls, batches):
        """The batches joined along their leading axis."""
        return cls(x=np.concatenate([b.x for b in batches]),
                   u=np.concatenate([b.u for b in batches]),
                   y1=np.concatenate([b.y1 for b in batches]),
                   y2=np.concatenate([b.y2 for b in batches]))

    def __len__(self):
        return len(self.y1)

    def __getitem__(self, i):
        return FlowBatch(x=self.x[i], u=self.u[i], y1=self.y1[i], y2=self.y2[i])

    def rescaled(self, scales):
        """Each flow divided by its scale; x is shifted so that x + u/2 stays
        at the measured flow midpoint, where the constraint rows are evaluated."""
        u = self.u / scales[..., None]
        return FlowBatch(x=self.x + 0.5 * (self.u - u), u=u, y1=self.y1, y2=self.y2)


# one flow measurement: a batch of leading shape ()
FlowSample = FlowBatch


# the solvers admit the roots k > K_MIN and refinement holds k >= K_MIN,
# clear of beta's pole at k = -2
K_MIN = -1.99


@dataclass(frozen=True)
class MotionEstimate:
    """Relative motion hypothesis: translation direction, rotation, accel factor.

    v is the translation direction (unit norm, scale ambiguous), w the
    rotation vector, k the constant-acceleration factor (0 for the
    constant-velocity and global-shutter models).
    """

    v: np.ndarray
    w: np.ndarray
    k: float = 0.0
    v_reliable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.k <= -2.0:
            raise ValueError(f"acceleration factor must exceed -2, got {self.k}")

    def normalized(self):
        n = np.linalg.norm(self.v)
        if n < 1e-15:
            return self
        return MotionEstimate(self.v / n, self.w, self.k, self.v_reliable)


def canonicalize_e(e):
    """Scale to unit norm with the first nonzero component positive.

    e may be a stack (..., 9); each vector is canonicalized on its own.
    """
    e = np.asarray(e, dtype=float)
    n = np.linalg.norm(e, axis=-1, keepdims=True)
    e = e / np.where(n == 0, 1.0, n)
    # the first component above 1e-12 in magnitude sets the sign; argmax
    # gives component 0 when there is none, which then flips nothing
    first = np.take_along_axis(e, np.argmax(np.abs(e) > 1e-12, axis=-1)[..., None], axis=-1)
    return np.where(first < -1e-12, -e, e)
