"""Global-shutter constraint rows and motion recovery.

Each flow measurement gives one linear constraint z . e = 0 on the stacked
unknown e = [v; vech(s)]: `gs_rows`.  (v, w) is recovered from a solved e
and the sign of v fixed by positive-depth voting: `recover_stack`, for a
stack of S sample subsets at once (a `FlowBatch` with leading shape (S, m)).
`rs_solvers.solve_stack` solves e for every model; `solve_gs` is its
global-shutter case for one subset.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    GLOBAL_SHUTTER,
    MotionEstimate,
    depth_terms,
    inv_depth,
    matrices_ab,
    midpoint,
)


def gs_rows(batch):
    """Constraint rows (..., 9): coefficients of u^T v^ x~ - x~^T s x~ in e-ordering.

    The constraint is evaluated at the flow midpoint x + u/2.  Off-diagonal
    s coefficients are doubled so that the s-block dot product reproduces
    x~^T s x~ exactly.
    """
    px, py = np.moveaxis(midpoint(batch), -1, 0)
    ux, uy = np.moveaxis(batch.u, -1, 0)
    # u^T v^ x~ = v . (x~ x u~) with x~ = (px, py, 1), u~ = (ux, uy, 0)
    return np.stack([
        -uy, ux, px * uy - py * ux,
        -px * px, -2 * px * py, -2 * px, -py * py, -2 * py, -np.ones_like(px),
    ], axis=-1)


def unit_rows(Z):
    """Rows of Z (..., 9) scaled to unit norm; all-zero rows are left as they are."""
    norms = np.linalg.norm(Z, axis=-1, keepdims=True)
    norms[norms < 1e-300] = 1.0
    return Z / norms


def _w_from_s(v, s_vech):
    """Least-squares w solving vech(s(v, w)) = s_vech for fixed v, per row of
    v (H, 3) and s_vech (H, 6)."""
    v1, v2, v3 = v.T
    z = np.zeros_like(v1)
    # s(v, w) = (w v^T + v w^T) / 2 - (v . w) I is linear in w; the rows of
    # M(v) are its vech entries in e-ordering (s11, s12, s13, s22, s23, s33);
    # matmul of a strided view would round a row by the stack height H
    M = np.moveaxis(np.array([
        [z, -v2, -v3],
        [v2 / 2, v1 / 2, z],
        [v3 / 2, z, v1 / 2],
        [-v1, z, -v3],
        [z, v3 / 2, v2 / 2],
        [-v1, -v2, z],
    ]), -1, 0).copy()
    Mt = np.swapaxes(M, -1, -2)
    return np.linalg.solve(Mt @ M, Mt @ s_vech[..., None])[..., 0]


def cheirality_vote(batch, v, w):
    """Number of samples whose closed-form depth is positive under (v, w).

    For a (H, m) stack, v and w are (H, 3) and the result holds H counts.
    """
    # motion components first, with an axis to broadcast over the samples
    v, w = (np.moveaxis(np.asarray(t, dtype=float), -1, 0)[..., None] for t in (v, w))
    _, valid = inv_depth(*depth_terms(*np.moveaxis(batch.x, -1, 0), *np.moveaxis(batch.u, -1, 0),
                                      v, w, 1.0))
    return np.count_nonzero(valid, axis=-1)


def recover_stack(E, stack):
    """(v, w, v_reliable) of epipolar vectors E (H, 9), hypothesis i against
    subset i of a (H, m) stack.

    w is the least-squares solution of s(v, w) = s_e, which is linear in w
    for fixed v.  The global sign of (v, s) is chosen so that the closed-form
    depths are positive for the majority of the subset's samples.
    """
    vnorm = np.linalg.norm(E[:, :3], axis=-1)
    reliable = vnorm >= 1e-9
    # near pure rotation the v direction is unreliable: those rows get
    # v = (1, 0, 0) and, below, a rotation-only fit of w
    scale = np.where(reliable, vnorm, 1.0)[:, None]
    v = np.where(reliable[:, None], E[:, :3] / scale, [1.0, 0.0, 0.0])
    w = _w_from_s(v, E[:, 3:] / scale)
    # s flips with v; w solved from (-v, -s) is unchanged
    flip = reliable & (cheirality_vote(stack, v, w) * 2 < stack.y1.shape[-1])
    v = np.where(flip[:, None], -v, v)
    if not reliable.all():
        w[~reliable] = _fit_rotation_only(stack[~reliable])
    return v, w, reliable


def _fit_rotation_only(samples):
    """Least-squares w assuming zero translation, per subset of a stack."""
    _, B = matrices_ab(midpoint(samples))
    B = B.reshape(*B.shape[:-3], -1, 3)
    return (np.linalg.pinv(B) @ samples.u.reshape(*B.shape[:-1], 1))[..., 0]


def solve_gs(samples) -> MotionEstimate:
    """Full global-shutter pipeline: linear solve plus motion recovery."""
    from .rs_solvers import _solve_one

    return _solve_one(samples, None, GLOBAL_SHUTTER).motions()[0]
