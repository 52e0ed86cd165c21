"""Rolling-shutter minimal solvers.

Constant velocity: every flow vector is rescaled by its scanline factor
alpha, after which the global-shutter 8-point solver applies unchanged.

Constant acceleration: the constraint of each of 9 samples is affine in the
acceleration factor k once the rational scanline factor beta(k) is cleared
of its (2 + k) denominator.  Stacking gives a 9x9 matrix Z(k) whose
determinant must vanish; det Z(k) carries a structural (2 + k)^3 factor
(one per translation column) and deflating it leaves a degree-6 polynomial
whose real roots are the candidate k values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, polynomial as npoly

from .errors import NoRealSolution
from .geometry import (
    CameraConfig,
    EpipolarVector,
    FlowBatch,
    MotionEstimate,
    beta,
    scanline_ab,
)
from .gs_solver import gs_rows, recover_motion, solve_linear, unit_rows

DEFLATION_TOL = 1e-8
DEFAULT_ROOT_WINDOW = (-2.0, 10.0)


def rectified_samples(samples, config: CameraConfig) -> FlowBatch:
    """Constant-velocity rectification: scale each flow by 1/alpha."""
    batch = FlowBatch.of(samples)
    alpha, _ = scanline_ab(batch.y1, batch.y2, config)
    return batch.rescaled(alpha)


def solve_const_velocity(samples, config: CameraConfig) -> MotionEstimate:
    """8-point constant-velocity RS solver (alpha-scaled flows)."""
    rect = rectified_samples(samples, config)
    e = solve_linear(rect)
    return recover_motion(e, rect, k=0.0)


def affine_rows(samples, a, b):
    """Affine decomposition Z(k) = R0 + k R1 of the cleared constraint rows.

    The cleared constraint is (2+k) u^T v^ x~ - (2a + b k) x~^T s x~ = 0 per
    sample, with (a, b) its beta coefficients; the GS rows already carry the
    minus sign on their s-block.  Returns two (N, 9) arrays.
    """
    base = gs_rows(samples)
    v_part, s_part = base[:, :3], base[:, 3:]
    R0 = np.hstack([2.0 * v_part, 2.0 * a[:, None] * s_part])
    R1 = np.hstack([v_part, b[:, None] * s_part])
    return R0, R1


@dataclass(frozen=True)
class DetPolynomial:
    """Deflated determinant polynomial det Z(k) / (2+k)^3, degree <= 6."""

    coeffs: np.ndarray  # ascending powers
    remainder_ratio: float

    def __call__(self, k):
        return npoly.polyval(k, self.coeffs)

    def real_roots(self, window=DEFAULT_ROOT_WINDOW, imag_tol=1e-6):
        """Real roots inside the window via the companion matrix."""
        c = np.trim_zeros(self.coeffs, "b")
        if len(c) <= 1:
            return []
        roots = npoly.polyroots(c)
        out = []
        for r in roots:
            if abs(r.imag) < imag_tol * (1.0 + abs(r.real)):
                k = float(r.real)
                if window[0] < k <= window[1] and abs(k + 2.0) > 1e-9:
                    out.append(k)
        return sorted(out)


def det_polynomial(samples, config: CameraConfig) -> DetPolynomial:
    """Determinant of the stacked 9x9 affine-in-k system as a polynomial.

    The rows are the `affine_rows` of the 9 samples, with their beta
    coefficients (a, b) taken from the camera `config`.

    Every entry of the three translation columns of Z(k) carries a (2+k)
    factor, so det Z(k) = (2+k)^3 det M(k) with M(k) the matrix whose
    translation columns have the factor removed.  det M is degree <= 6 and
    is interpolated directly from Chebyshev-node evaluations, which is far
    better conditioned than deflating the degree-9 interpolant.  The
    synthetic-division remainder of the degree-9 path is still computed as
    the degeneracy signal: it vanishes only when the sample set is
    numerically sound.
    """
    if len(samples) != 9:
        raise ValueError(f"the 9-point solver needs exactly 9 samples, got {len(samples)}")
    batch = FlowBatch.of(samples)
    R0, R1 = affine_rows(batch, *scanline_ab(batch.y1, batch.y2, config))
    # column equilibration; a pure per-column scale leaves roots unchanged
    col = np.sqrt(np.linalg.norm(R0, axis=0) ** 2 + np.linalg.norm(R1, axis=0) ** 2)
    col[col < 1e-300] = 1.0
    R0e = R0 / col
    R1e = R1 / col

    # M(k) = M0 + k M1: translation columns constant, s columns affine
    M0 = R0e.copy()
    M1 = R1e.copy()
    M0[:, :3] = R1e[:, :3]  # r1 v-entries hold the unscaled translation block
    M1[:, :3] = 0.0
    nodes = chebyshev.chebpts1(9)
    vals = np.array([np.linalg.det(M0 + k * M1) for k in nodes])
    coeffs = chebyshev.cheb2poly(chebyshev.chebfit(nodes, vals, 6))

    # degeneracy check: deflate the degree-9 interpolant of det Z(k); the
    # node window brackets k = -2 so deflation needs no extrapolation
    nodes9 = 2.0 * chebyshev.chebpts1(12) - 1.0
    vals9 = np.array([np.linalg.det(R0e + k * R1e) for k in nodes9])
    coeffs9 = npoly.polyfit(nodes9, vals9, 9)
    ref = max(np.max(np.abs(coeffs9)), 1e-300)
    rem_max = 0.0
    for _ in range(3):
        coeffs9, rem = _divide_linear(coeffs9, -2.0)
        rem_max = max(rem_max, abs(rem) / ref)
    # undo the equilibration so the polynomial equals det Z(k) / (2+k)^3
    return DetPolynomial(coeffs=np.asarray(coeffs) * np.prod(col), remainder_ratio=rem_max)


def _divide_linear(coeffs, root):
    """Synthetic division of a polynomial (ascending coeffs) by (k - root)."""
    c = list(coeffs)
    q = [0.0] * (len(c) - 1)
    acc = 0.0
    for i in range(len(c) - 1, 0, -1):
        acc = c[i] + root * acc
        q[i - 1] = acc
    rem = c[0] + root * acc
    return np.array(q), rem


@dataclass(frozen=True)
class AccelCandidate:
    """One root of the determinant polynomial with its motion estimate."""

    motion: MotionEstimate
    k: float
    smallest_singular_value: float


def solve_const_accel(
    samples,
    config: CameraConfig,
    root_window=DEFAULT_ROOT_WINDOW,
):
    """9-point constant-acceleration solver returning all root candidates.

    When b == a for every sample (gamma = 0, or all flows confined to one
    scanline pair pattern with t1 + t2 = 1), beta(k) = alpha for every k and
    the acceleration factor is unobservable; the constant-velocity solution
    is returned as the single candidate with the convention k = 0.
    """
    batch = FlowBatch.of(samples)
    a, b = scanline_ab(batch.y1, batch.y2, config)
    if np.max(np.abs(b - a)) < 1e-12:
        motion = solve_const_velocity(batch, config)
        return [AccelCandidate(motion=motion, k=0.0, smallest_singular_value=0.0)]
    poly = det_polynomial(batch, config)
    roots = poly.real_roots(window=root_window)
    if not roots:
        raise NoRealSolution("determinant polynomial has no admissible real root")
    R0, R1 = affine_rows(batch, a, b)
    candidates = []
    for k in roots:
        _, sv, Vt = np.linalg.svd(unit_rows(R0 + k * R1))
        e = EpipolarVector(Vt[-1])
        # recover (v, w) against beta(k)-rectified flows so the closed-form
        # depth votes use the right per-sample scale
        motion = recover_motion(e, batch.rescaled(beta(a, b, k)), k=k)
        candidates.append(
            AccelCandidate(motion=motion, k=k, smallest_singular_value=float(sv[-1]))
        )
    return candidates
