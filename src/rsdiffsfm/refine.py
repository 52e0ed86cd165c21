"""Refinement of (k, v, w, depths) and dense depth recovery.

The flow model is u_i = beta_i(k) (A_i v rho_i + B_i w) in the inverse
depths rho_i.  `refine` minimizes its squared error with Levenberg-Marquardt
over (v, w, k) alone, the depths eliminated in closed form: variable
projection (Golub and Pereyra, 2003) with an analytic Jacobian, in
Marquardt's loop scaled as by More (1978).  The loop stops, as MINPACK
does, once the decrease a step's linear model predicts is below the
rounding of the cost, before the trial is evaluated; two Gauss-Newton
steps finish it, taken once for every problem that converged.  Two sums
of the same per-sample errors are in play:

- the loop minimizes the error over every sample, a sample whose optimal
  inverse depth is undefined (at the translation epipole) or not positive
  taken at rho = 0;
- the objective that `refine` reports, and compares to accept the loop's
  result, sums the error over the samples with a valid depth only.

Every model has the same unknowns (v, w, k).  The gs and cv models have
b = a in beta = (2 a + k b) / (2 + k), so dbeta/dk = 2 (b - a) / (2 + k)^2
is exactly 0, as it is for ca at gamma = 0.  The k column of the Jacobian
is then zero, and the rank cutoff of `gauss_newton_step` holds k at its
start, 0 for gs and cv.

`refine_stack` refines P problems of any models in one loop, and `refine`
is a stack of one.  Every array carries a leading problem axis, each
problem keeps its own damping, scaling, cost and stop flags, and a problem
that stops leaves the stack.  Each problem is padded with zero rows to the
largest sample count N: a zero row has beta = 0, so q = c = 0, no valid
depth, a zero residual and a zero Jacobian row, and it adds nothing to any
sum.  The small damped systems of all problems are solved with one
batched pseudo-inverse at `lstsq`'s rank cutoff (see `gauss_newton_step`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    CONST_ACCEL,
    K_MIN,
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


class SampleBlocks(namedtuple("SampleBlocks", "A B u a b")):
    """Per-sample quantities of a stack of P problems, each padded with zero
    rows to the largest sample count N: the columns of A and B (P, 3, N, 2),
    the flows u (P, N, 2) and the scanline factors a and b (P, N)."""

    @classmethod
    def of(cls, batches):
        """The blocks of a sequence of (batch, config, model) problems."""
        ends = np.cumsum([len(batch) for batch, _, _ in batches], dtype=int)
        P, n = len(batches), max((len(batch) for batch, _, _ in batches), default=0)
        out = cls(np.zeros((P, 3, n, 2)), np.zeros((P, 3, n, 2)), np.zeros((P, n, 2)),
                  np.zeros((P, n)), np.zeros((P, n)))
        # one call of the kernel for the samples of every problem
        A, B = matrices_ab(np.concatenate([np.zeros((0, 2))]
                                          + [midpoint(b) for b, _, _ in batches]))
        for p, (batch, config, model) in enumerate(batches):
            rows, m = slice(ends[p] - len(batch), ends[p]), len(batch)
            out.A[p, :, :m] = A[rows].transpose(2, 0, 1)
            out.B[p, :, :m] = B[rows].transpose(2, 0, 1)
            out.u[p, :m] = batch.u
            out.a[p, :m], out.b[p, :m] = scanline_ab(batch.y1, batch.y2, config, model)
        return out


# The flow model of a stack of problems at motions v (P, 3), w (P, 3), k (P,):
# per sample beta (P, N), q = beta A v (P, N, 2), the optimal inverse depth
# rho (P, N) with its validity (see `geometry.inv_depth`), and the flow error
# r = c - rho q (P, N, 2) of c = u - beta B w, rho taken as 0 where not valid
Terms = namedtuple("Terms", "v w k bt q valid rho r")


def _rows(arrays, rows):
    """The given rows (problems) of each array of a SampleBlocks or Terms."""
    return type(arrays)(*(x[rows] for x in arrays))


def _terms(blocks: SampleBlocks, v, w, k):
    """(beta, q, c) = (beta, beta A v, u - beta B w) per sample of each
    problem, at its motion v, w, k: (P, N), (P, N, 2), (P, N, 2).

    The flow model u = beta (A v rho + B w) reads c = rho q in the inverse
    depth rho.
    """
    bt = beta(blocks.a, blocks.b, k[:, None])
    q = bt[..., None] * _apply(blocks.A, v)
    return bt, q, blocks.u - bt[..., None] * _apply(blocks.B, w)


def _apply(M, x):
    """M @ x (P, N, 2) per sample of matrices M (P, 3, N, 2), given by their
    columns, and vectors x (P, 3)."""
    return np.einsum("pjnc,pj->pnc", M, x)


def _reduced_terms(blocks: SampleBlocks, v, w, k) -> Terms:
    """The `Terms` of each problem at its motion v, w, k."""
    bt, q, c = _terms(blocks, v, w, k)
    rho, valid = inv_depth((q[..., 0], q[..., 1]), (c[..., 0], c[..., 1]))
    return Terms(v, w, k, bt, q, valid, rho, c - np.where(valid, rho, 0.0)[..., None] * q)


def _flat(r):
    """Flow errors (P, N, 2) as one residual vector (P, 2N) per problem."""
    return r.reshape(len(r), -1)


def _cost(terms: Terms):
    """Per problem, the sum of its squared flow errors, added up sample by
    sample so that zero rows of padding change no bit."""
    sums = np.einsum("pnc,pnc->pc", terms.r, terms.r)
    return sums[:, 0] + sums[:, 1]


def _objectives(terms: Terms):
    """Per problem, the sum of its squared flow errors over the samples with
    a valid depth."""
    errs = np.sum(terms.r ** 2, axis=2)
    return [float(np.sum(e[valid])) for e, valid in zip(errs, terms.valid)]


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
    first), "invalid_start" (the start has fewer residuals than the model
    has free unknowns, or non-finite ones), "zero_objective" (the start
    fits exactly) or "no_valid_depth" (no sample has a valid depth at the
    start; both objectives are then inf).  n_cycles counts the loop's cost
    evaluations and lm_iterations the steps it accepted; polished says
    whether its result was accepted over the start, whose objective is
    start_objective.
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


def refine(samples, initial: MotionEstimate, config: CameraConfig, model: str = CONST_ACCEL,
           max_cycles: int = 400) -> RefineState:
    """Levenberg-Marquardt from `initial` with the depths eliminated.

    The gauge freedom (v, Z) -> (cv, cZ) is fixed by a unit-norm v, the
    depths absorbing the scale.  max_cycles caps the loop's cost
    evaluations.  Its result is accepted only when it lowers the objective
    of the start; otherwise the start is returned.
    """
    return refine_stack([(samples, initial, config, model)], max_cycles)[0]


def refine_stack(problems, max_cycles: int = 400) -> list[RefineState]:
    """`refine` of each (samples, initial, config, model) problem, in one
    stacked loop: a list of the states that `refine` gives the problems
    alone.  The problems whose start has no valid depth, fits exactly or is
    invalid are sorted out before the loop and stay out of it.
    """
    batches = [FlowBatch.of(samples) for samples, _, _, _ in problems]
    blocks = SampleBlocks.of([(b, config, model) for b, (_, _, config, model)
                              in zip(batches, problems)])
    start = np.array([_start(initial, model) for _, initial, _, model in problems]).reshape(-1, 7)
    terms = _reduced_terms(blocks, start[:, :3], start[:, 3:6], start[:, 6])
    states, loop = [], []
    for p, (batch, (_, initial, _, model), obj) in enumerate(zip(batches, problems,
                                                                 _objectives(terms))):
        n = len(batch)
        state = RefineState(
            motion=MotionEstimate(v=start[p, :3], w=start[p, 3:6], k=float(start[p, 6]),
                                  v_reliable=initial.v_reliable),
            inv_depths=terms.rho[p, :n], valid=terms.valid[p, :n], objective=obj,
            start_objective=obj, n_cycles=0, converged=False, stop_reason="zero_objective",
            polished=False, lm_iterations=0)
        if not state.valid.any():
            # the objective over no samples would read 0, as if the fit were exact
            state = replace(state, objective=np.inf, start_objective=np.inf,
                            stop_reason="no_valid_depth")
        elif obj != 0 and (2 * n < (7 if model == CONST_ACCEL else 6)
                           or not np.isfinite(terms.r[p, :n]).all()):
            state = replace(state, stop_reason="invalid_start")
        elif obj != 0:
            loop.append(p)
        states.append(state)
    if not loop:
        return states
    theta, terms, blocks = start[loop], _rows(terms, loop), _rows(blocks, loop)
    clamped = _motion(theta)[2] != terms.k  # the loop starts at k clamped to K_MIN
    if clamped.any():
        for x, y in zip(terms, _reduced_terms(_rows(blocks, clamped), *_motion(theta[clamped]))):
            x[clamped] = y
    final, n_steps, n_evals, converged = _levenberg_marquardt(theta, terms, blocks, max_cycles)
    for i, (p, obj) in enumerate(zip(loop, _objectives(final))):
        n, state = len(batches[p]), replace(
            states[p], n_cycles=int(n_evals[i]), converged=bool(converged[i]),
            lm_iterations=int(n_steps[i]), stop_reason="converged" if converged[i] else "cycle_cap")
        if obj < state.start_objective:  # also rejects a NaN objective
            m = replace(state.motion, v=final.v[i], w=final.w[i], k=float(final.k[i]))
            # back to a unit v: the depths absorb the scale
            state = replace(state, motion=m.normalized(), valid=final.valid[i, :n],
                            inv_depths=final.rho[i, :n] * np.linalg.norm(m.v), objective=obj,
                            polished=True)
        states[p] = state
    return states


def _start(initial: MotionEstimate, model):
    """(v, w, k) of a start with a unit v, k 0 unless the model is ca."""
    v, n = np.asarray(initial.v, float), np.linalg.norm(initial.v)
    k = initial.k if model == CONST_ACCEL else 0.0
    return np.concatenate([v / n if n > 0 else v, initial.w, [k]])


def _motion(theta):
    """(v, w, k) of parameter vectors theta (P, 7); k is kept >= K_MIN."""
    return theta[:, :3], theta[:, 3:6], np.maximum(theta[:, 6], K_MIN)


def _jacobian(theta, blocks: SampleBlocks, terms: Terms):
    """Analytic Jacobians (P, 2N, 7) of the flow errors r, raveled per
    problem, of the `_reduced_terms` of theta (P, 7).

    With q = beta A v, c = u - beta B w, r = c - rho q and the projection
    P = I - q q^T / (q . q), a valid sample has
    dr = P dc - rho P dq - q (r . dq) / (q . q); an invalid one has rho = 0,
    so dr = dc.  dq/dv = beta A, dc/dw = -beta B, and k enters through
    dbeta/dk = 2 (b - a) / (2 + k)^2.
    """
    # the columns are formed parameter axis first, (P, n, N, 2), where each
    # operation runs over contiguous memory; per-sample arrays are (P, 1, N, 2)
    rho = np.where(terms.valid, terms.rho, 0.0)[:, None, :, None]
    q = terms.q[:, None]
    r = terms.r[:, None]

    def dot(x, y):  # per-sample dot product over the two flow components
        return x[..., :1] * y[..., :1] + x[..., 1:] * y[..., 1:]

    valid = terms.valid[:, None, :, None]
    inv_qq = valid / np.where(valid, dot(q, q), 1.0)

    def columns(dq, dc):
        """dr for derivatives dq, dc of shape (P, m, N, 2)."""
        g = dc - rho * dq
        return g - q * (inv_qq * (dot(q, g) + dot(r, dq)))

    bt = terms.bt[:, None, :, None]
    zero = np.zeros(2)
    # dbeta/dk, zero at or below K_MIN, where `_motion` holds k at K_MIN
    dbt = 2.0 * (blocks.b - blocks.a) / (2.0 + terms.k[:, None]) ** 2 * (theta[:, 6:] > K_MIN)
    dbt = dbt[:, None, :, None]
    jac = [columns(bt * blocks.A, zero), columns(zero, -bt * blocks.B),
           columns(dbt * _apply(blocks.A, terms.v)[:, None],
                   -dbt * _apply(blocks.B, terms.w)[:, None])]
    jac = np.ascontiguousarray(np.moveaxis(np.concatenate(jac, axis=1), 1, -1))
    return jac.reshape(len(theta), -1, 7)


def _normal_equations(J, r):
    """J^T J and J^T r of a stack J (P, M, n), r (P, M)."""
    return np.einsum("pmi,pmj->pij", J, J), np.einsum("pmi,pm->pi", J, r)


def gauss_newton_step(J, r, theta, damping=0.0, normal=None):
    """Least-squares solutions s (P, n) of [J; sqrt(diag(damping))] s = [r; 0]
    off the scale gauge, for a stack J (P, M, n), r (P, M) at thetas (P, n),
    damping (P, n) or 0, from the normal equations; normal holds their
    `_normal_equations` if the caller has them.

    `einsum` without `optimize` never calls BLAS, whose product with a 2N x 7
    Jacobian wakes OpenBLAS's worker threads to spin for about 0.1 s of CPU.
    With the sample axis of J before its parameter axis, `einsum` adds the
    samples up one at a time, in order, so padding changes no bit of a step.
    The residual does not change under v -> s v, so J g = 0 along the gauge
    g = (v / |v|, 0, 0), and J^T J is singular there.  The matrix that
    is inverted takes s g g^T, s its largest diagonal entry, which leaves
    J^T J's other eigenvalues as they are and makes the solve as well
    conditioned as J is off the gauge.  One round of iterative refinement
    on the residual of the normal equations without that term then undoes
    the squared condition number of J^T J, and reaches the least-squares
    step, whose g component is 0 up to the rounding of J.  The systems are
    solved with one batched pseudo-inverse at `lstsq`'s rank cutoff, n eps
    of the largest singular value, which keeps a zero column fixed: k's for
    gs and cv, and for ca at gamma = 0.
    """
    n = J.shape[-1]
    JtJ, Jtr = _normal_equations(J, r) if normal is None else normal
    v = theta[:, :3]
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    g = np.zeros_like(theta)
    np.divide(v, norm, out=g[:, :3], where=norm > 0)
    g *= np.sqrt(JtJ.diagonal(0, 1, 2).max(axis=1, keepdims=True))
    inverse = np.linalg.pinv(JtJ + g[:, :, None] * g[:, None, :]
                             + np.asarray(damping)[..., None] * np.eye(n),
                             rcond=n * np.finfo(float).eps)
    step = np.einsum("pij,pj->pi", inverse, Jtr)
    rest = np.einsum("pmi,pm->pi", J, r - np.einsum("pmi,pi->pm", J, step)) - damping * step
    return step + np.einsum("pij,pj->pi", inverse, rest)


def _levenberg_marquardt(theta, terms: Terms, blocks: SampleBlocks, max_evals):
    """Marquardt's loop on each problem's reduced cost from theta (P, 7),
    whose `_reduced_terms` are terms, then two Gauss-Newton steps on each
    problem that converged; returns the `Terms` of the final thetas and, per
    problem, its accepted steps, cost evaluations and whether it converged.

    A step s solves [J; sqrt(lam D)] s = [r; 0], D the running maximum of
    diag(J^T J) (More, 1978); lam falls tenfold on a step that lowers the
    cost, else rises tenfold.  Before its trial is evaluated, a step whose
    linear model predicts a decrease 2 s.J^T r - s.J^T J s of at most 1e-15
    of the cost converges the loop untried: no step can then lower the
    cost by more than its rounding.  A trial that lowers the cost by at most
    1e-15 of it, or a step that shrinks to 1e-15 |theta|, converges it too;
    max_evals cost evaluations, the start's included, stop it unconverged.
    A problem that stops leaves the stack, whose rows are then only those
    that change.  The problems that converged are polished in one stack at
    the end, from the theta, Jacobian and normal equations they stopped at;
    every kernel is row by row, so a problem's polish does not depend on
    when it converged or what it is stacked with.
    """
    # the rows of final, and of the arrays a problem stops at, are written as
    # problems leave the stack
    final, ids = terms, np.arange(len(theta))
    counts = np.zeros((3, len(ids)), dtype=int)  # accepted steps, cost evaluations, converged
    steps, evals, converged = (np.full(len(ids), x) for x in (0, 1, False))
    J = _jacobian(theta, blocks, terms)
    JtJ, Jtr = _normal_equations(J, _flat(terms.r))
    stopped, all_blocks = (theta, J, JtJ, Jtr), blocks
    D, cost, lam = JtJ.diagonal(0, 1, 2).copy(), _cost(terms), np.full(len(ids), 1e-3)
    step = None  # the damped step of each problem in the stack, once solved
    while True:
        done = converged | (evals >= max_evals)
        if done.any():
            for x, y in zip((*final, *counts, *stopped),
                            (*terms, steps, evals, converged, theta, J, JtJ, Jtr)):
                x[ids[done]] = y[done]
            keep = ~done
            ids, theta, J, JtJ, Jtr, D, cost, lam, steps, evals, converged = (
                x[keep] for x in (ids, theta, J, JtJ, Jtr, D, cost, lam, steps, evals, converged))
            terms, blocks = _rows(terms, keep), _rows(blocks, keep)
            step = None if step is None else step[keep]
        if not ids.size:
            break
        if step is None:
            # D is 0 on a column that never moves the residual, a zero k column:
            # only the rank cutoff of `gauss_newton_step` keeps that k fixed
            step = gauss_newton_step(J, _flat(terms.r), theta, lam[:, None] * D, (JtJ, Jtr))
            predicted = np.einsum("pi,pi->p", step,
                                  2.0 * Jtr - np.einsum("pij,pj->pi", JtJ, step))
            converged = predicted <= 1e-15 * cost
            if converged.any():
                continue  # those leave untried, the others keep their steps
        trial = theta - step
        trial_terms = _reduced_terms(blocks, *_motion(trial))
        trial_cost = _cost(trial_terms)
        evals += 1
        better = trial_cost < cost
        converged = better & (cost - trial_cost <= 1e-15 * cost)
        lam = np.where(better, lam / 10.0, lam * 10.0)
        if better.any():
            trial_J = _jacobian(trial, blocks, trial_terms)
            new = (trial, trial_cost, trial_J, *_normal_equations(trial_J, _flat(trial_terms.r)))
            if better.all():  # no row to keep: take the trial's arrays
                (theta, cost, J, JtJ, Jtr), terms = new, trial_terms
            else:
                for x, y in zip((theta, cost, J, JtJ, Jtr, *terms), (*new, *trial_terms)):
                    x[better] = y[better]
            steps += better
            D = np.maximum(D, JtJ.diagonal(0, 1, 2))
        converged |= np.sum(step * step, axis=1) <= 1e-30 * np.sum(theta * theta, axis=1)
        step = None
    # steps taken only on a decrease the rounded cost resolves leave the flat
    # translation/rotation valley settled to about 1e-9; Gauss-Newton steps
    # compare no costs, and two of them reach the stationary point to about
    # 1e-12, so that refits of nearly equal flows agree
    rows = np.flatnonzero(counts[2])
    if rows.size:
        theta, J, JtJ, Jtr = (x[rows] for x in stopped)
        blocks = _rows(all_blocks, rows)
        at = theta - gauss_newton_step(J, _flat(final.r[rows]), theta, normal=(JtJ, Jtr))
        at_terms = _reduced_terms(blocks, *_motion(at))
        at -= gauss_newton_step(_jacobian(at, blocks, at_terms), _flat(at_terms.r), at)
        for x, y in zip(final, _reduced_terms(blocks, *_motion(at))):
            x[rows] = y
    return final, counts[0], counts[1], counts[2].astype(bool)


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
