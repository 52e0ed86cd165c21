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
    FlowSample,
    MotionEstimate,
    beta,
    scanline_ab,
    stack_samples,
)
from .gs_solver import gs_row, recover_motion, solve_linear

DEFLATION_TOL = 1e-8
DEFAULT_ROOT_WINDOW = (-2.0, 10.0)


@dataclass(frozen=True)
class ScanlineFactors:
    """Per-sample scanline scale factors.

    alpha is the constant-velocity pose scale; a and b parameterize the
    constant-acceleration scale beta(k) = (2a + b k) / (2 + k), with
    beta(0) == alpha.
    """

    alpha: float
    a: float
    b: float

    def beta(self, k):
        return beta(self.a, self.b, k)


def scanline_factors(sample: FlowSample, config: CameraConfig) -> ScanlineFactors:
    """Scale factors for the scanline pair of one flow sample."""
    return _factors([sample], config)[0]


def _factors(samples, config: CameraConfig):
    _, _, y1, y2 = stack_samples(samples)
    a, b = scanline_ab(y1, y2, config)
    return [ScanlineFactors(alpha=ai, a=ai, b=bi) for ai, bi in zip(a.tolist(), b.tolist())]


def _rescaled(samples, scales):
    """Samples with each flow divided by its scale; x is shifted so that
    x + u/2 stays at the measured flow midpoint, where the downstream
    constraint rows are evaluated."""
    out = []
    for s, f in zip(samples, scales):
        u = s.u / f
        out.append(FlowSample(x=s.x + 0.5 * (s.u - u), u=u, y1=s.y1, y2=s.y2))
    return out


def rectified_samples(samples, config: CameraConfig):
    """Constant-velocity rectification: scale each flow by 1/alpha."""
    return _rescaled(samples, [f.alpha for f in _factors(samples, config)])


def solve_const_velocity(samples, config: CameraConfig) -> MotionEstimate:
    """8-point constant-velocity RS solver (alpha-scaled flows)."""
    rect = rectified_samples(samples, config)
    e = solve_linear(rect)
    return recover_motion(e, rect, k=0.0)


def accel_row(sample: FlowSample, factors: ScanlineFactors, k: float):
    """Row of the (2+k)-cleared constant-acceleration constraint at k."""
    r0, r1 = accel_row_coeffs(sample, factors)
    return r0 + k * r1


def accel_row_coeffs(sample: FlowSample, factors: ScanlineFactors):
    """Affine decomposition row(k) = r0 + k r1 of the cleared constraint.

    The cleared constraint is (2+k) u^T v^ x~ - (2a + b k) x~^T s x~ = 0;
    the base GS row already carries the minus sign on its s-block.
    """
    base = gs_row(sample)
    v_part = np.concatenate([base[:3], np.zeros(6)])
    s_part = np.concatenate([np.zeros(3), base[3:]])
    r0 = 2.0 * v_part + 2.0 * factors.a * s_part
    r1 = v_part + factors.b * s_part
    return r0, r1


def _stack_affine(samples, factor_list):
    R0 = np.empty((9, 9))
    R1 = np.empty((9, 9))
    for i, (s, f) in enumerate(zip(samples, factor_list)):
        R0[i], R1[i] = accel_row_coeffs(s, f)
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


def det_polynomial(samples, factor_list) -> DetPolynomial:
    """Determinant of the stacked 9x9 affine-in-k system as a polynomial.

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
    R0, R1 = _stack_affine(samples, factor_list)
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
    factor_list = _factors(samples, config)
    if max(abs(f.b - f.a) for f in factor_list) < 1e-12:
        motion = solve_const_velocity(samples, config)
        return [AccelCandidate(motion=motion, k=0.0, smallest_singular_value=0.0)]
    poly = det_polynomial(samples, factor_list)
    roots = poly.real_roots(window=root_window)
    if not roots:
        raise NoRealSolution("determinant polynomial has no admissible real root")
    R0, R1 = _stack_affine(samples, factor_list)
    candidates = []
    for k in roots:
        Zk = R0 + k * R1
        norms = np.linalg.norm(Zk, axis=1)
        norms[norms < 1e-300] = 1.0
        Zk = Zk / norms[:, None]
        _, sv, Vt = np.linalg.svd(Zk)
        e = EpipolarVector(Vt[-1])
        # recover (v, w) against beta(k)-rectified flows so the closed-form
        # depth votes use the right per-sample scale
        rect = _rescaled(samples, [f.beta(k) for f in factor_list])
        motion = recover_motion(e, rect, k=k)
        candidates.append(
            AccelCandidate(motion=motion, k=k, smallest_singular_value=float(sv[-1]))
        )
    return candidates
