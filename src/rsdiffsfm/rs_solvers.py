"""Minimal solvers of all three motion models.

The models differ only in the scanline factor beta(a, b, k) of each
sample, whose coefficients (a, b) `geometry.scanline_ab` gives per model;
`solve_stack` solves a stack of subsets from its flows and coefficients.

Cleared of the (2 + k) denominator of beta, the constraint of each sample
is affine in the acceleration factor k: Z(k) = R0 + k R1 (`affine_rows`).
Where b = a (global shutter, constant velocity, and constant acceleration
when beta does not depend on k) Z(k) = (2 + k) Z(0), so every k has the
null vector of Z(0): the differential 8-point system of the flows scaled
by 1/a, solved with k = 0.  Otherwise 9 samples stack to a 9x9 matrix Z(k)
whose determinant must vanish; det Z(k) carries a structural (2 + k)^3
factor (one per translation column) and deflating it leaves a degree-6
polynomial whose real roots in ROOT_WINDOW are the candidate k values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, polynomial as npoly

from .errors import DegenerateConfiguration, NoRealSolution
from .geometry import (
    CONST_ACCEL,
    CONST_VELOCITY,
    K_MIN,
    CameraConfig,
    FlowBatch,
    MotionEstimate,
    beta,
    canonicalize_e,
    scanline_ab,
)
from .gs_solver import gs_rows, recover_stack, unit_rows

# the admissible acceleration factors (lo, hi]
ROOT_WINDOW = (K_MIN, 10.0)
RANK_TOL = 1e-10

# det M(k) is sampled at 9 Chebyshev nodes; this fixed (7, 9) map takes the
# samples to the power-basis coefficients of their degree-6 Chebyshev fit.
# At these nodes T_0..T_6 are orthogonal, so the least-squares fit of
# `chebfit` is T_j(nodes) . samples, scaled by 1/9 for j = 0 and 2/9 else.
_NODES = chebyshev.chebpts1(9)
_NODES_TO_COEFFS = np.column_stack(
    [np.pad(chebyshev.cheb2poly(t), (0, 6 - j)) for j, t in enumerate(np.eye(7))]
) @ (chebyshev.chebvander(_NODES, 6).T * np.r_[1.0, np.full(6, 2.0)][:, None] / 9)


@dataclass(frozen=True, eq=False)
class Hypotheses:
    """Motion hypotheses solved from a stack of S sample subsets.

    Hypothesis i has translation v[i] (H, 3), rotation w[i] (H, 3),
    acceleration factor k[i] and reliability flag v_reliable[i]; it was
    solved from subset `subset[i]`.  Hypotheses come in subset order, those
    of one subset in ascending k.  `failures` maps each subset that gave no
    hypothesis to the error it failed with.
    """

    v: np.ndarray
    w: np.ndarray
    k: np.ndarray
    v_reliable: np.ndarray
    subset: np.ndarray
    failures: dict

    def __len__(self):
        return len(self.k)

    def of_subsets(self, lo, hi) -> Hypotheses:
        """The hypotheses of subsets lo to hi - 1, numbered from 0: those of
        a stack of only these subsets."""
        i, j = np.searchsorted(self.subset, [lo, hi])
        failures = {s - lo: exc for s, exc in self.failures.items() if lo <= s < hi}
        return Hypotheses(v=self.v[i:j], w=self.w[i:j], k=self.k[i:j],
                          v_reliable=self.v_reliable[i:j], subset=self.subset[i:j] - lo,
                          failures=failures)

    def motion(self, i) -> MotionEstimate:
        return MotionEstimate(v=self.v[i], w=self.w[i], k=float(self.k[i]),
                              v_reliable=bool(self.v_reliable[i]))

    def motions(self):
        """The hypotheses of a one-subset stack; raises the subset's failure."""
        if self.failures:
            raise self.failures[0]
        return [self.motion(i) for i in range(len(self))]


def solve_stack(stack, a, b) -> Hypotheses:
    """Hypotheses of a (S, m) stack whose samples have the beta coefficients
    a, b (S, m) of `scanline_ab`: in subset order, those of one subset in
    ascending k.

    Each subset gives candidate k values: 0 where beta does not depend on
    k (b = a), which needs m >= 8 and a system of rank 8; otherwise, with
    m = 9, the roots of its determinant polynomial in ROOT_WINDOW (det M(k)
    at the Chebyshev nodes, one fixed map to the coefficients and the roots
    as companion-matrix eigenvalues; `det_polynomial` and
    `DetPolynomial.real_roots` are this kernel on one subset).
    Every candidate takes its null vector from one SVD of its rows Z(k) and
    its motion from `recover_stack` against the flows scaled by 1/beta(k).
    A subset's hypotheses do not depend on the stack it is solved in.
    """
    n, m = stack.y1.shape
    flat = np.max(np.abs(b - a), axis=-1) < 1e-12
    if not flat.all() and m != 9:
        raise ValueError(f"the 9-point solver needs exactly 9 samples, got {m}")
    R0, R1 = affine_rows(stack, a, b)
    candidates = np.full((n, 6), np.nan)  # ascending, NaN-padded
    if m >= 8:
        candidates[flat, 0] = 0.0
    if not flat.all():
        candidates[~flat] = _real_roots(_det_coefficients(R0[~flat], R1[~flat]))
    failures = {
        int(j): DegenerateConfiguration(f"need at least 8 samples, got {m}") if flat[j]
        else NoRealSolution("determinant polynomial has no admissible real root")
        for j in np.flatnonzero(np.isnan(candidates).all(axis=-1))
    }
    owner, slot = np.nonzero(~np.isnan(candidates))
    k = candidates[owner, slot]
    Z = R1[owner] * k[:, None, None]
    Z += R0[owner]
    _, sv, Vt = np.linalg.svd(unit_rows(Z))
    # a root's rows are singular by construction: only the k-free
    # candidates (none where m < 8) are tested for rank 8
    free = np.flatnonzero(flat[owner])
    deficient = free[sv[free, 7] <= RANK_TOL * sv[free, 0]] if len(free) else free
    for i in deficient:
        failures[int(owner[i])] = DegenerateConfiguration(
            f"stacked system rank below 8 (sigma_8/sigma_1 = {sv[i, 7] / sv[i, 0]:.2e})")
    if len(deficient):
        owner, k, Vt = (np.delete(x, deficient, axis=0) for x in (owner, k, Vt))
    # recover (v, w) against beta(k)-rectified flows so the closed-form
    # depth votes use the right per-sample scale
    rect = stack[owner].rescaled(beta(a[owner], b[owner], k[:, None]))
    v, w, reliable = recover_stack(canonicalize_e(Vt[:, -1]), rect)
    return Hypotheses(v=v, w=w, k=k, v_reliable=reliable, subset=owner, failures=failures)


def _solve_one(samples, config, model):
    """`solve_stack` of the samples as a stack of one subset."""
    batch = FlowBatch.of(samples)
    a, b = scanline_ab(batch.y1, batch.y2, config, model)
    return solve_stack(batch[np.newaxis], a[np.newaxis], b[np.newaxis])


def solve_const_velocity(samples, config: CameraConfig) -> MotionEstimate:
    """8-point constant-velocity RS solver (alpha-scaled flows)."""
    return _solve_one(samples, config, CONST_VELOCITY).motions()[0]


def affine_rows(samples, a, b):
    """Affine decomposition Z(k) = R0 + k R1 of the cleared constraint rows.

    The cleared constraint is (2+k) u^T v^ x~ - (2a + b k) x~^T s x~ = 0 per
    sample, with (a, b) its beta coefficients; the GS rows already carry the
    minus sign on their s-block.  Returns two (..., N, 9) arrays.
    """
    base = gs_rows(samples)
    v_part, s_part = base[..., :3], base[..., 3:]
    R0 = np.concatenate([2.0 * v_part, 2.0 * a[..., None] * s_part], axis=-1)
    R1 = np.concatenate([v_part, b[..., None] * s_part], axis=-1)
    return R0, R1


@dataclass(frozen=True)
class DetPolynomial:
    """Deflated determinant polynomial det Z(k) / (2+k)^3, degree <= 6."""

    coeffs: np.ndarray  # ascending powers

    def __call__(self, k):
        return npoly.polyval(k, self.coeffs)

    def real_roots(self):
        """Real roots inside ROOT_WINDOW, ascending: `_real_roots` of one row."""
        roots = _real_roots(self.coeffs[np.newaxis])[0]
        return [float(r) for r in roots[~np.isnan(roots)]]


def det_polynomial(samples, config: CameraConfig) -> DetPolynomial:
    """Determinant polynomial of the `affine_rows` of 9 samples, with their
    beta coefficients from the camera `config`: `solve_stack`'s kernel on
    a stack of one."""
    if len(samples) != 9:
        raise ValueError(f"the 9-point solver needs exactly 9 samples, got {len(samples)}")
    batch = FlowBatch.of(samples)
    R0, R1 = affine_rows(batch, *scanline_ab(batch.y1, batch.y2, config))
    return DetPolynomial(coeffs=_det_coefficients(R0[np.newaxis], R1[np.newaxis])[0])


def _det_coefficients(R0, R1):
    """Power-basis coefficients (S, 7) of det Z(k) / (2+k)^3 = det M(k) for
    a stack of affine rows Z(k) = R0 + k R1, with M(k) the rows whose
    translation columns have their (2+k) factor removed."""
    # column equilibration; a pure per-column scale leaves roots unchanged
    col = np.sqrt(np.linalg.norm(R0, axis=-2) ** 2 + np.linalg.norm(R1, axis=-2) ** 2)
    col[col < 1e-300] = 1.0
    R0e = R0 / col[:, None, :]
    R1e = R1 / col[:, None, :]
    # M(k) = M0 + k M1: translation columns constant, s columns affine
    M0 = R0e.copy()
    M1 = R1e.copy()
    M0[..., :3] = R1e[..., :3]
    M1[..., :3] = 0.0
    # one node at a time: a (S, 9, 9, 9) stack of all nodes would be the
    # largest array of a RANSAC call
    vals = np.stack([np.linalg.det(M0 + t * M1) for t in _NODES], axis=-1)
    # a sum, unlike a BLAS product, rounds a row alike in any stack
    return np.sum(vals[:, None, :] * _NODES_TO_COEFFS, axis=-1) * np.prod(col, axis=-1)[:, None]


def _real_roots(coeffs):
    """Real roots in ROOT_WINDOW of each row of coeffs (S, d + 1), ascending
    powers, as companion-matrix eigenvalues.

    Returns (S, d): each row's real roots in ascending order, padded with
    NaN.  Rows are grouped by degree, so each group shares one batched
    eigenvalue call.
    """
    out = np.full((len(coeffs), coeffs.shape[1] - 1), np.nan)
    nonzero = coeffs != 0
    degree = np.where(nonzero.any(axis=1),
                      coeffs.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    for d in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == d)
        c = coeffs[rows, :d + 1]
        # numpy's companion matrix (`polycompanion`), flipped as `polyroots` does
        comp = np.zeros((len(rows), d, d))
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, -1] -= c[:, :-1] / c[:, -1:]
        r = np.linalg.eigvals(comp[:, ::-1, ::-1])
        k = np.real(r)
        ok = ((np.abs(np.imag(r)) < 1e-6 * (1.0 + np.abs(k)))
              & (ROOT_WINDOW[0] < k) & (k <= ROOT_WINDOW[1]))
        out[rows, :d] = np.where(ok, k, np.nan)
    return np.sort(out, axis=1)


def solve_const_accel(samples, config: CameraConfig):
    """9-point constant-acceleration solver returning all root candidates.

    When b == a for every sample (gamma = 0, or all flows confined to one
    scanline pair pattern with t1 + t2 = 1), beta(k) = alpha for every k and
    the acceleration factor is unobservable; the constant-velocity solution
    is returned as the single candidate with the convention k = 0.
    """
    return _solve_one(samples, config, CONST_ACCEL).motions()
