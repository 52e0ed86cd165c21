"""Refinement of (k, v, w, depths) and dense depth recovery.

The flow model is u_i = beta_i(k) (A_i v rho_i + B_i w) in the inverse
depths rho_i.  `refine` minimizes its squared error with Levenberg-Marquardt
over (v, w[, k]) alone, the depths eliminated in closed form: variable
projection (Golub and Pereyra, 2003) with an analytic Jacobian, in
Marquardt's loop scaled as by More (1978); two Gauss-Newton steps finish
it.  Two sums of the same per-sample errors are in play:

- the loop minimizes the error over every sample, a sample whose optimal
  inverse depth is undefined (at the translation epipole) or not positive
  taken at rho = 0;
- the objective that `refine` reports, and compares to accept the loop's
  result, sums the error over the samples with a valid depth only.

`gauss_newton_step` solves every step from normal equations formed with
`einsum`, so that no BLAS call wakes OpenBLAS threads that would spin
after it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    CONST_ACCEL,
    CameraConfig,
    FlowBatch,
    MotionEstimate,
    beta,
    depth_terms,
    inv_depth,
    matrices_ab,
    midpoint,
    scanline_ab,
)


@dataclass
class SampleBlocks:
    """Precomputed per-sample quantities: A, B, flows and scanline factors."""

    A: np.ndarray  # (N, 2, 3)
    B: np.ndarray  # (N, 2, 3)
    u: np.ndarray  # (N, 2)
    a: np.ndarray  # (N,)
    b: np.ndarray  # (N,)

    @classmethod
    def build(cls, samples, config: CameraConfig | None, model=CONST_ACCEL):
        batch = FlowBatch.of(samples)
        A, B = matrices_ab(midpoint(batch))
        a, b = scanline_ab(batch.y1, batch.y2, config, model)
        return cls(A=A, B=B, u=batch.u, a=a, b=b)


def _terms(blocks: SampleBlocks, motion: MotionEstimate):
    """(beta, q, c) = (beta, beta A v, u - beta B w) per sample: (N,), (N, 2), (N, 2).

    The flow model u = beta (A v rho + B w) reads c = rho q in the inverse
    depth rho.
    """
    bt = beta(blocks.a, blocks.b, motion.k)
    q = bt[:, None] * _apply(blocks.A, motion.v)
    return bt, q, blocks.u - bt[:, None] * _apply(blocks.B, motion.w)


def _apply(M, x):
    """M @ x for a stack M of (2, 3) matrices, as one matrix-vector product."""
    return (M.reshape(-1, 3) @ x).reshape(M.shape[:-1])


@dataclass
class RefineState:
    """Refinement output: motion, per-sample inverse depths, diagnostics.

    inv_depths holds each sample's optimal inverse depth under `motion`,
    NaN at the translation epipole and negative behind the camera; valid
    marks the defined, positive ones.  objective and start_objective sum
    the squared flow errors over the valid samples only, unlike the cost
    the loop minimizes (see the module docstring).

    stop_reason says why refinement stopped: "converged" or "cycle_cap" (the
    Levenberg-Marquardt loop converged, or made max_cycles cost evaluations
    first), "invalid_start" (the start has fewer residuals than unknowns or
    non-finite ones), "zero_objective" (the start fits exactly) or
    "no_valid_depth" (no sample has a valid depth at the start; both
    objectives are then inf).  n_cycles counts the loop's cost evaluations
    and lm_iterations the steps it accepted; polished says whether its
    result was accepted over the start, whose objective is start_objective.
    """

    motion: MotionEstimate
    inv_depths: np.ndarray
    valid: np.ndarray
    objective: float
    start_objective: float
    n_cycles: int
    converged: bool
    stop_reason: str
    polished: bool
    lm_iterations: int


def refine(
    samples,
    initial: MotionEstimate,
    config: CameraConfig | None = None,
    model: str = CONST_ACCEL,
    max_cycles: int = 400,
) -> RefineState:
    """Levenberg-Marquardt from `initial` with the depths eliminated.

    The gauge freedom (v, Z) -> (cv, cZ) is fixed by a unit-norm v, the
    depths absorbing the scale.  max_cycles caps the loop's cost
    evaluations.  Its result is accepted only when it lowers the objective
    of the start; otherwise the start is returned.
    """
    blocks = SampleBlocks.build(samples, config, model)
    v = np.asarray(initial.v, float).copy()
    n = np.linalg.norm(v)
    if n > 0:
        v = v / n
    w = np.asarray(initial.w, float).copy()
    k = float(initial.k) if model == CONST_ACCEL else 0.0
    terms = _reduced_terms(MotionEstimate(v=v, w=w, k=k), blocks)
    motion, _, _, valid, rho, _ = terms
    obj = _objective(terms)
    start = RefineState(
        motion=motion, inv_depths=rho, valid=valid, objective=obj, start_objective=obj,
        n_cycles=0, converged=False, stop_reason="zero_objective", polished=False,
        lm_iterations=0)
    if not valid.any():
        # the objective over no samples would read 0, as if the fit were exact
        return replace(start, objective=np.inf, start_objective=np.inf,
                       stop_reason="no_valid_depth")
    if obj == 0:
        return start
    theta = np.concatenate([v, w, [k]]) if model == CONST_ACCEL else np.concatenate([v, w])
    if _motion(theta).k != k:  # the loop starts at k clamped to -1.99
        terms = _reduced_terms(_motion(theta), blocks)
    try:
        terms, n_steps, n_evals, converged = _levenberg_marquardt(theta, terms, blocks, max_cycles)
    except ValueError:  # non-finite start residuals, or fewer residuals than unknowns
        return replace(start, stop_reason="invalid_start")
    loop = replace(start, n_cycles=n_evals, converged=converged, lm_iterations=n_steps,
                   stop_reason="converged" if converged else "cycle_cap")
    obj = _objective(terms)
    if not obj < start.objective:  # also rejects a NaN objective
        return loop
    m, _, _, valid, rho, _ = terms
    vn = np.linalg.norm(m.v)  # back to a unit v: the depths absorb the scale
    return replace(
        loop, motion=m.normalized(), inv_depths=rho * vn, valid=valid, objective=obj,
        polished=True)


def _motion(theta):
    """Motion of a parameter vector (v, w), or (v, w, k) for the constant
    acceleration model; k is kept above -2."""
    k = max(float(theta[6]), -1.99) if len(theta) == 7 else 0.0
    return MotionEstimate(v=theta[:3], w=theta[3:6], k=k)


def _reduced_terms(motion: MotionEstimate, blocks: SampleBlocks):
    """(motion, beta, q, valid, rho, r) at `motion`: the `_terms`, each
    sample's optimal inverse depth rho with its validity (see
    `geometry.inv_depth`), and the flow errors r = c - rho q (N, 2) with
    rho taken as 0 where it is not valid."""
    bt, q, c = _terms(blocks, motion)
    rho, valid = inv_depth(q.T, c.T)
    return motion, bt, q, valid, rho, c - np.where(valid, rho, 0.0)[:, None] * q


def _objective(terms):
    """Sum of the squared flow errors of the `_reduced_terms` over the
    samples with a valid depth."""
    _, _, _, valid, _, r = terms
    return float(np.sum(np.sum(r ** 2, axis=1)[valid]))


def _jacobian(theta, blocks: SampleBlocks, terms):
    """Analytic Jacobian (2N, len(theta)) of the flow errors r, raveled, of
    the `_reduced_terms` of theta.

    With q = beta A v, c = u - beta B w, r = c - rho q and the projection
    P = I - q q^T / (q . q), a valid sample has
    dr = P dc - rho P dq - q (r . dq) / (q . q); an invalid one has rho = 0,
    so dr = dc.  dq/dv = beta A, dc/dw = -beta B, and k enters through
    dbeta/dk = 2 (b - a) / (2 + k)^2.
    """
    motion, bt, q, valid, rho, r = terms
    # per-sample arrays carry a trailing parameter axis: (N, 2, 1)
    rho = np.where(valid, rho, 0.0)[:, None, None]
    q = q[..., None]
    r = r[..., None]

    def dot(x, y):  # per-sample dot product over the two flow components
        return x[:, :1] * y[:, :1] + x[:, 1:] * y[:, 1:]

    valid = valid[:, None, None]
    inv_qq = valid / np.where(valid, dot(q, q), 1.0)

    def columns(dq, dc):
        """dr for derivatives dq, dc of shape (N, 2, m)."""
        g = dc - rho * dq
        return g - q * (inv_qq * (dot(q, g) + dot(r, dq)))

    bt = bt[:, None, None]
    zero = np.zeros_like(blocks.A)
    jac = [columns(bt * blocks.A, zero), columns(zero, -bt * blocks.B)]
    if len(theta) == 7:
        # dbeta/dk, zero where `_motion` clamps k to -1.99
        dbt = 2.0 * (blocks.b - blocks.a) / (2.0 + motion.k) ** 2 * (theta[6] > -1.99)
        dbt = dbt[:, None, None]
        jac.append(columns(dbt * _apply(blocks.A, motion.v)[..., None],
                           -dbt * _apply(blocks.B, motion.w)[..., None]))
    return np.concatenate(jac, axis=2).reshape(-1, len(theta))


def gauss_newton_step(J, r):
    """Least-squares solution s of J s = r, from the normal equations.

    J^T J and J^T r are formed with `einsum`, which without `optimize` never
    calls BLAS: a BLAS product with a 2N x 7 Jacobian wakes OpenBLAS's worker
    threads, which then spin for about 0.1 s of CPU after the call.  Forming
    J^T J squares the condition number, so one round of iterative refinement
    on the residual r - J s brings s back to the accuracy of `lstsq` on J.  The
    small systems are solved with `lstsq` and its rank cutoff, not `solve`:
    the reduced residual does not change under v -> s v, so J^T J is
    singular along (v, 0, 0), and only the cutoff keeps the step off that
    gauge direction.
    """
    JtJ = np.einsum("ni,nj->ij", J, J)
    step = np.linalg.lstsq(JtJ, np.einsum("ni,n->i", J, r), rcond=None)[0]
    rest = r - np.einsum("ni,i->n", J, step)
    return step + np.linalg.lstsq(JtJ, np.einsum("ni,n->i", J, rest), rcond=None)[0]


def _levenberg_marquardt(theta, terms, blocks, max_evals):
    """Marquardt's loop on the reduced cost from `theta`, whose
    `_reduced_terms` are `terms`, then two Gauss-Newton steps if it
    converged; returns (the `_reduced_terms` of the final theta, accepted
    steps, cost evaluations, converged).

    A step solves [J; sqrt(lam D)] s = [r; 0], D the running maximum of
    diag(J^T J) (More, 1978); lam falls tenfold on a step that lowers the
    cost, else rises tenfold.  A step that lowers the cost by at most 1e-15
    of it, or that shrinks to 1e-15 |theta|, converges the loop; max_evals
    cost evaluations, the start's included, stop it unconverged.  Raises
    ValueError for non-finite start residuals or fewer residuals than
    unknowns.
    """
    r = terms[-1].ravel()
    if r.size < theta.size or not np.all(np.isfinite(r)):
        raise ValueError(f"{r.size} residuals for {theta.size} unknowns, or non-finite ones")
    J = _jacobian(theta, blocks, terms)
    D, cost, lam = np.sum(J * J, axis=0), np.sum(r * r), 1e-3
    n_evals, n_steps, converged = 1, 0, False
    while n_evals < max_evals and not converged:
        # D is 0 on a column that never moves the residual, k at gamma = 0:
        # only the rank cutoff of `gauss_newton_step` keeps that k fixed
        step = gauss_newton_step(np.vstack([J, np.diag(np.sqrt(lam * D))]),
                                 np.concatenate([r, np.zeros(theta.size)]))
        trial_terms = _reduced_terms(_motion(theta - step), blocks)
        trial_r = trial_terms[-1].ravel()
        trial_cost, n_evals = np.sum(trial_r * trial_r), n_evals + 1
        if trial_cost < cost:
            converged = cost - trial_cost <= 1e-15 * cost
            theta, terms, r, cost = theta - step, trial_terms, trial_r, trial_cost
            J = _jacobian(theta, blocks, terms)
            D = np.maximum(D, np.sum(J * J, axis=0))
            lam, n_steps = lam / 10.0, n_steps + 1
        else:
            lam *= 10.0
        converged |= np.linalg.norm(step) <= 1e-15 * np.linalg.norm(theta)
    if converged:
        # steps taken only on a decrease the rounded cost resolves leave the
        # flat translation/rotation valley settled to about 1e-9; Gauss-Newton
        # steps compare no costs, and two of them reach the stationary point
        # to about 1e-12, so that refits of nearly equal flows agree
        theta = theta - gauss_newton_step(J, r)
        terms = _reduced_terms(_motion(theta), blocks)
        theta = theta - gauss_newton_step(_jacobian(theta, blocks, terms), terms[-1].ravel())
        terms = _reduced_terms(_motion(theta), blocks)
    return terms, n_steps, n_evals, bool(converged)


def dense_depth(flow, motion: MotionEstimate, config: CameraConfig):
    """Per-pixel depth map from a dense flow field and a refined motion.

    `flow` is an (H, W, 2) array of pixel-unit displacements; NaN entries
    mark invalid pixels.  Returns (depth, valid) where depth is in scene
    units and invalid pixels hold NaN.
    """
    H, W = flow.shape[:2]
    py = np.arange(H, dtype=float)[:, None]
    px = np.arange(W, dtype=float)[None, :]
    x, y = config.pixel_to_normalized(px, py)
    finite = np.isfinite(flow[..., 0]) & np.isfinite(flow[..., 1])
    flow_x = np.where(finite, flow[..., 0], 0.0)
    flow_y = np.where(finite, flow[..., 1], 0.0)
    bt = beta(*scanline_ab(py, py + flow_y, config), motion.k)
    q, c = depth_terms(x, y, flow_x / config.fx, flow_y / config.fy, motion.v, motion.w, bt)
    rho, valid = inv_depth(q, c)
    valid &= finite
    depth = np.where(valid, 1.0 / np.where(valid, rho, 1.0), np.nan)
    return depth, valid
