"""Linear 8-point global-shutter differential pose solver.

Each flow measurement gives one linear constraint z . e = 0 on the stacked
unknown e = [v; vech(s)].  e is solved by SVD and (v, w) recovered from it;
the sign of v is fixed by positive-depth voting.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateConfiguration
from .geometry import (
    EpipolarVector,
    FlowBatch,
    FlowSample,
    MotionEstimate,
    depth_terms,
    inv_depth,
    matrices_ab,
    midpoint,
    s_to_vech,
    skew,
)

RANK_TOL = 1e-10


def gs_rows(samples):
    """Constraint rows (N, 9): coefficients of u^T v^ x~ - x~^T s x~ in e-ordering.

    The constraint is evaluated at the flow midpoint x + u/2.  Off-diagonal
    s coefficients are doubled so that the s-block dot product reproduces
    x~^T s x~ exactly.
    """
    batch = FlowBatch.of(samples)
    px, py = midpoint(batch).T
    ux, uy = batch.u.T
    # u^T v^ x~ = v . (x~ x u~) with x~ = (px, py, 1), u~ = (ux, uy, 0)
    return np.column_stack([
        -uy, ux, px * uy - py * ux,
        -px * px, -2 * px * py, -2 * px, -py * py, -2 * py, -np.ones_like(px),
    ])


def unit_rows(Z):
    """Rows of Z scaled to unit norm; all-zero rows are left as they are."""
    norms = np.linalg.norm(Z, axis=1)
    norms[norms < 1e-300] = 1.0
    return Z / norms[:, None]


def solve_linear(samples) -> EpipolarVector:
    """Least-squares epipolar vector from >= 8 flow samples."""
    if len(samples) < 8:
        raise DegenerateConfiguration(f"need at least 8 samples, got {len(samples)}")
    Z = unit_rows(gs_rows(samples))
    _, sv, Vt = np.linalg.svd(Z, full_matrices=True)
    if sv[7] <= RANK_TOL * sv[0]:
        raise DegenerateConfiguration(
            f"stacked system rank below 8 (sigma_8/sigma_1 = {sv[7] / sv[0]:.2e})"
        )
    return EpipolarVector(Vt[8 if Vt.shape[0] > 8 else -1])


def _w_from_s(v, s_vech):
    """Least squares w solving vech(s(v, w)) = s_vech for fixed v."""
    basis = np.eye(3)
    M = np.column_stack([s_to_vech(_s_of(v, basis[i])) for i in range(3)])
    w, *_ = np.linalg.lstsq(M, s_vech, rcond=None)
    return w


def _s_of(v, w):
    vh = skew(v)
    wh = skew(w)
    return 0.5 * (vh @ wh + wh @ vh)


def closed_form_inv_depth(sample: FlowSample, v, w, beta=1.0):
    """Per-sample optimal inverse depth for the flow prediction model."""
    rho, _ = inv_depth(*depth_terms(*sample.x, *sample.u, v, w, beta))
    return None if np.isnan(rho) else float(rho)


def cheirality_vote(samples, v, w):
    """Number of samples whose closed-form depth is positive under (v, w)."""
    batch = FlowBatch.of(samples)
    _, valid = inv_depth(*depth_terms(*batch.x.T, *batch.u.T, v, w, 1.0))
    return int(np.count_nonzero(valid))


def recover_motion(e: EpipolarVector, samples, k: float = 0.0) -> MotionEstimate:
    """Extract (v, w) from the epipolar vector, resolving the sign of v.

    w is the least-squares solution of s(v, w) = s_e, which is linear in w
    for fixed v.  The global sign of (v, s) is chosen so that the closed-form
    depths are positive for the majority of samples.
    """
    samples = FlowBatch.of(samples)
    v = e.v.copy()
    s_vech = e.e[3:].copy()
    vnorm = np.linalg.norm(v)
    if vnorm < 1e-9:
        # near pure rotation: v direction is unreliable, fit w directly
        w = _fit_rotation_only(samples)
        return MotionEstimate(v=np.array([1.0, 0.0, 0.0]), w=w, k=k, v_reliable=False)
    v = v / vnorm
    s_vech = s_vech / vnorm
    w = _w_from_s(v, s_vech)
    if cheirality_vote(samples, v, w) * 2 < len(samples):
        v = -v
        # s flips with v; w solved from (-v, -s) is unchanged
    return MotionEstimate(v=v, w=w, k=k)


def _fit_rotation_only(samples):
    """Least-squares w assuming zero translation."""
    _, B = matrices_ab(midpoint(samples))
    w, *_ = np.linalg.lstsq(B.reshape(-1, 3), samples.u.reshape(-1), rcond=None)
    return w


def solve_gs(samples) -> MotionEstimate:
    """Full global-shutter pipeline: linear solve plus motion recovery."""
    samples = FlowBatch.of(samples)
    e = solve_linear(samples)
    return recover_motion(e, samples)
