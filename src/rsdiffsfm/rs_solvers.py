"""Minimal solvers of all three motion models.

The models differ only in the scanline factor beta(a, b, k) of each
sample, whose coefficients (a, b) `geometry.scanline_ab` gives per model;
`solve_stack` solves a stack of subsets from its flows and coefficients.

Cleared of the (2 + k) denominator of beta, the constraint of each sample
is affine in the acceleration factor k: Z(k) = R0 + k R1 (`affine_rows`).
Where b = a (global shutter, constant velocity, and constant acceleration
when beta does not depend on k) Z(k) = (2 + k) Z(0), so every k has the
null vector of Z(0): the differential 8-point system of the flows scaled
by 1/a, solved with k = 0; for 8 rows, the null vector is the last column
of the complete QR of Z(0)^T.  Otherwise 9 samples stack to a 9x9 matrix
Z(k) whose determinant must vanish: the candidate k values are the real
roots in ROOT_WINDOW of a 6x6 pencil, shifted to beta's pole k = -2, whose
eigenvectors give their null vectors (`_pencil`; Kukelova, Bujnak and
Pajdla, "Polynomial eigenvalue solutions to minimal problems in computer
vision", TPAMI 2012).  Both paths decide rank with one rule, the SVD's
sigma_min > RANK_TOL sigma_1, which a Frobenius condition number certifies
for most subsets; an SVD decides the rest (`_full_rank`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

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

    A subset where beta does not depend on k (b = a) needs m >= 8 and unit
    rows Z(0) of rank 8 (sigma_8 > RANK_TOL sigma_1); its one candidate,
    k = 0, takes the null vector of Z(0): for m = 8 the last column of the
    complete QR Z(0)^T = Q R, with the rank rule of `_full_rank` screened by
    R, and for m > 8 the least-squares one of their SVD.  Otherwise, with
    m = 9, the candidates are the admissible roots of the subset's shifted
    pencil and their null vectors its eigenvectors (`_pencil`, from which
    `det_polynomial` also comes); `solve_const_accel` is this kernel on one
    subset.  Every candidate takes its motion from `recover_stack` against
    the flows scaled by 1/beta(k).  A subset's hypotheses do not
    depend on the stack it is solved in.
    """
    n, m = stack.y1.shape
    flat = np.max(np.abs(b - a), axis=-1) < 1e-12
    if not flat.all() and m != 9:
        raise ValueError(f"the 9-point solver needs exactly 9 samples, got {m}")
    R0, R1 = affine_rows(stack, a, b)
    k = np.full((n, 6), np.nan)  # candidates, ascending, NaN-padded
    E = np.zeros((n, 6, 9))  # their null vectors
    failures = {}
    free, curved = np.flatnonzero(flat), np.flatnonzero(~flat)
    if m < 8:  # every subset is k-free
        failures = {j: DegenerateConfiguration(f"need at least 8 samples, got {m}")
                    for j in range(n)}
    elif len(free):
        Z = unit_rows(R0[free])
        if m == 8:  # Z q_9 = R^T Q^T q_9 = 0 for the complete QR Z^T = Q R
            Q, R = np.linalg.qr(np.swapaxes(Z, -1, -2), mode="complete")
            null = Q[..., -1]
            ok, sv = _full_rank(R[:, :8], Z)
        else:  # the least-squares null vector of m > 8 rows
            _, sv, Vt = np.linalg.svd(Z)
            null = Vt[:, -1]
            ok = sv[:, 7] > RANK_TOL * sv[:, 0]
        k[free[ok], 0] = 0.0
        E[free[ok], 0] = null[ok]
        failures.update({int(j): DegenerateConfiguration(
            f"stacked system rank below 8 (sigma_8/sigma_1 = {s[7] / s[0]:.2e})")
            for j, s in zip(free[~ok], sv[~ok])})
    if len(curved):
        k[curved], E[curved], lam = _pencil(R0[curved], R1[curved])
        failures.update({int(j): DegenerateConfiguration(
            "singular pencil: det M(k) vanishes for every k or at -2")
            for j in curved[np.isnan(lam).all(axis=-1)]})
    for j in np.flatnonzero(np.isnan(k).all(axis=-1)):
        failures.setdefault(
            int(j), NoRealSolution("determinant polynomial has no admissible real root"))
    owner, slot = np.nonzero(~np.isnan(k))
    k = k[owner, slot]
    # recover (v, w) against beta(k)-rectified flows so the closed-form
    # depth votes use the right per-sample scale
    rect = stack[owner].rescaled(beta(a[owner], b[owner], k[:, None]))
    v, w, reliable = recover_stack(canonicalize_e(E[owner, slot]), rect)
    return Hypotheses(v=v, w=w, k=k, v_reliable=reliable, subset=owner, failures=failures)


def _full_rank(screen, rows):
    """Whether sigma_min > RANK_TOL sigma_1 for each matrix of a stack rows
    (S, r, c), as its SVD decides, and those singular values (S, r), NaN
    where the screen decided.  screen (S, n, n) has the singular values of
    rows up to rounding; cond_F(screen) >= sigma_1 / sigma_min certifies
    those with cond_F < 0.5 / RANK_TOL (the 0.5 covers the rounding; a
    singular screen reads inf), and an SVD of rows decides the rest."""
    ok = np.linalg.cond(screen, "fro") < 0.5 / RANK_TOL
    sv = np.full(rows.shape[:-1], np.nan)
    unsure = np.flatnonzero(~ok)
    if len(unsure):
        sv[unsure] = np.linalg.svd(rows[unsure], compute_uv=False)
        ok[unsure] = sv[unsure, -1] > RANK_TOL * sv[unsure, 0]
    return ok, sv


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


def det_polynomial(samples, config: CameraConfig) -> DetPolynomial:
    """Determinant polynomial of the `affine_rows` of 9 samples, with their
    beta coefficients from the camera `config`, from the eigenvalues of its
    shifted pencil (`_pencil`): det M(-2) prod_i (1 + lambda_i (2 + k)).
    Samples whose pencil is singular raise DegenerateConfiguration, as
    `solve_const_accel` does."""
    if len(samples) != 9:
        raise ValueError(f"the 9-point solver needs exactly 9 samples, got {len(samples)}")
    batch = FlowBatch.of(samples)
    R0, R1 = affine_rows(batch, *scanline_ab(batch.y1, batch.y2, config))
    _, _, lam = _pencil(R0[np.newaxis], R1[np.newaxis])
    if np.isnan(lam).all():
        raise DegenerateConfiguration("singular pencil: det M(k) vanishes for every k or at -2")
    shifted = R0 - 2.0 * R1  # M(-2): Z(-2) with the translation columns of R1
    shifted[:, :3] = R1[:, :3]
    coeffs = np.array([np.linalg.det(shifted)])
    for eigenvalue in lam[0]:
        coeffs = npoly.polymul(coeffs, [1.0 + 2.0 * eigenvalue, eigenvalue])
    return DetPolynomial(coeffs=coeffs.real)


def _pencil(R0, R1):
    """Roots and null vectors of a stack of affine rows Z(k) = R0 + k R1
    (S, 9, 9) from their pencil, shifted to beta's pole k = -2.

    With the columns equilibrated by the scales col (S, 9), which leave the
    roots unchanged, M(k) = [T, S0 + k S1] is Z(k) with the (2 + k) factor
    taken out of its translation columns.  The full QR T = [Q1 Q2] R gives
    Q^T M(k) = [[R, Q1^T (S0 + k S1)], [0, C + (2 + k) B]], with
    C = Q2^T (S0 - 2 S1) and B = Q2^T S1, so det M(k) is
    det M(-2) prod_i (1 + lambda_i (2 + k)) over the eigenvalues lambda (S, 6)
    of C^-1 B.  Its real roots k = -2 - 1/lambda in ROOT_WINDOW, ascending
    and NaN-padded (S, 6), are the candidates; an eigenvector of lambda is
    the s part of the null vector, and back-substitution with R gives its
    translation part.  Where M(-2) fails `_full_rank`, for example where a
    sample repeats, lambda is NaN and there is no candidate.  Returns k, the null vectors (S, 6, 9) and lambda.
    """
    col = np.sqrt(np.linalg.norm(R0, axis=-2) ** 2 + np.linalg.norm(R1, axis=-2) ** 2)
    col[col < 1e-300] = 1.0
    T = R1[..., :3] / col[:, None, :3]
    S = np.stack([R0[..., 3:], R1[..., 3:]], axis=1) / col[:, None, None, 3:]
    shifted = np.concatenate([T, S[:, 0] - 2.0 * S[:, 1]], axis=-1)
    ok, _ = _full_rank(shifted, shifted)
    Q, R = np.linalg.qr(T[ok], mode="complete")
    # contiguous operands: a product rounds a subset alike in any stack
    QS = np.ascontiguousarray(np.swapaxes(Q, -1, -2))[:, None] @ S[ok]  # (S, 2, 9, 6)
    lam = np.full((len(R0), 6), np.nan, dtype=complex)
    X = np.zeros((len(R0), 6, 6), dtype=complex)
    lam[ok], X[ok] = np.linalg.eig(np.linalg.solve(QS[:, 0, 3:] - 2.0 * QS[:, 1, 3:],
                                                   QS[:, 1, 3:]))
    P = np.zeros((len(R0), 2, 3, 6))  # R^-1 Q1^T [S0, S1]
    P[ok] = np.linalg.solve(R[:, None, :3], QS[:, :, :3])
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = -2.0 - 1.0 / lam
    k = np.where((np.abs(roots.imag) < 1e-6 * (1.0 + np.abs(roots.real)))
                 & (ROOT_WINDOW[0] < roots.real) & (roots.real <= ROOT_WINDOW[1]),
                 roots.real, np.nan)
    order = np.argsort(k, axis=-1)  # NaN last
    k = np.take_along_axis(k, order, axis=-1)
    s = np.take_along_axis(np.swapaxes(X.real, -1, -2), order[..., None], axis=-2)
    # the translation part of M's null vector, -(P0 + k P1) s, then Z's
    # (2 + k) factor and the scales
    t = -np.sum((P[:, None, 0] + k[..., None, None] * P[:, None, 1]) * s[..., None, :], axis=-1)
    E = np.concatenate([t / (2.0 + k[..., None]), s], axis=-1) / col[:, None]
    return k, E, lam


def solve_const_accel(samples, config: CameraConfig):
    """9-point constant-acceleration solver returning all root candidates.

    When b == a for every sample (gamma = 0, or all flows confined to one
    scanline pair pattern with t1 + t2 = 1), beta(k) = alpha for every k and
    the acceleration factor is unobservable; the constant-velocity solution
    is returned as the single candidate with the convention k = 0.
    """
    return _solve_one(samples, config, CONST_ACCEL).motions()
