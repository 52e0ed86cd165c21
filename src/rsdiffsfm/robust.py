"""RANSAC over the minimal solvers with per-sample optimal-depth scoring.

The inlier criterion is the differential re-projection error: the distance
between the measured flow and the closest predicted flow over all positive
depths.  The best hypothesis has the most inliers over the full sample set;
ties on inlier count break on the lower mean inlier residual.

RANSAC draws its sample subsets in blocks of SOLVE_BLOCK and solves each
block as one stack with `rs_solvers.solve_stack`.  It scores the block's
hypotheses over the samples in chunks, and after each chunk drops every
hypothesis whose inlier count plus the samples still unscored cannot reach
the best count of the earlier blocks.  This bail-out is exact: a dropped
hypothesis could not have won, and only hypotheses scored on every sample
compete.  RansacResult.n_scored_full counts them.

`ransac_stack` runs this loop over many problems at once, each under its
own model: each problem draws and scores as `ransac` does, and a block of
each of several problems of one subset size is solved in one `solve_stack`
call.  `ransac` is that loop on one problem.

Scoring evaluates the squared distance (c x P)^2 / |P|^2, with P = A v and
c = u - beta B w at the flow midpoint: the closed-form depth residual
|c - rho q| of `geometry.depth_terms` and `geometry.inv_depth` (q = beta P)
squared, by Lagrange's identity, and beta cancels.  c, P and beta are
five small matrix products of per-block hypothesis coefficients
(`_coefficients`) with row groups of a per-call sample feature table
(`_sample_terms`); each product holds at most BLOCK_RESIDUALS x 7
multiply-adds, which keeps OpenBLAS on one thread.  They round unlike
element-wise arithmetic: residuals agree with the step-by-step form of
`geometry` within 1e-12 relative (1e-15 absolute), and a block's with
those of one hypothesis scored alone within a few ulps of c.  The inlier
test compares the square root with the threshold.
"""

from __future__ import annotations

import logging
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySelection, RobustFailure, RsSfmError
from .geometry import (
    CONST_ACCEL,
    CONST_VELOCITY,
    GLOBAL_SHUTTER,
    CameraConfig,
    FlowBatch,
    MotionEstimate,
    beta,
    check_model,
    midpoint,
    scanline_ab,
)
from .rs_solvers import solve_stack

logger = logging.getLogger(__name__)

MINIMAL_SIZE = {GLOBAL_SHUTTER: 8, CONST_VELOCITY: 8, CONST_ACCEL: 9}
# RANSAC draws and solves its subsets in blocks of SOLVE_BLOCK subsets, and
# scores H live hypotheses over chunks of BLOCK_RESIDUALS // H samples, so
# its memory stays fixed whatever the iteration count.  The solvers' cost
# per call dominates on small stacks; a 256-subset stack already holds
# several times the memory of a 60-subset one
SOLVE_BLOCK = 64
BLOCK_RESIDUALS = 2 ** 13
# `ransac_stack` solves the blocks of several problems in one stack of at
# most STACK_SUBSETS subsets: fewer calls cost less, and the cap keeps the
# stack's memory at a few blocks' whatever the number of problems
STACK_SUBSETS = 4 * SOLVE_BLOCK
# the share of a dense flow pair's pixels that `ranked_pixels` keeps
KEEP_FRACTION = 0.2


@dataclass(frozen=True)
class RansacConfig:
    """Robust estimation parameters.

    The threshold applies to the differential re-projection error on the
    normalized image plane.  The constant-acceleration solver admits the
    roots k in `rs_solvers.ROOT_WINDOW`, which is fixed.
    """

    iterations: int = 300
    threshold: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if not _is_integer(self.iterations) or self.iterations < 1:
            raise ValueError(f"iterations must be an integer >= 1, got {self.iterations!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class RansacResult:
    """Best hypothesis with its inlier set and per-sample residuals.

    n_hypotheses counts the candidates solved, n_scored_full those scored
    on every sample (the others were dropped by the bail-out) and
    n_residuals the residuals evaluated, so n_residuals / (n_hypotheses N)
    is the share of the full scoring work the bail-out left; failures
    counts the subsets that gave none, by the name of the error the solver
    raised for them.  draw_s, solve_s and score_s are the seconds (wall
    clock) spent drawing subsets, solving them and scoring hypotheses; a
    problem of `ransac_stack` has, of each stacked solve, the share of its
    subsets in the stack.
    """

    motion: MotionEstimate
    inliers: np.ndarray
    residuals: np.ndarray
    n_valid_iterations: int
    n_iterations: int
    n_hypotheses: int = 0
    n_scored_full: int = 0
    n_residuals: int = 0
    failures: dict = field(default_factory=dict)
    draw_s: float = 0.0
    solve_s: float = 0.0
    score_s: float = 0.0


def score_motion(samples, motion: MotionEstimate, config: CameraConfig,
                 model: str = CONST_ACCEL):
    """Residual vector of a motion hypothesis over all samples.

    Flows are scaled by the model's beta: 1 for the global-shutter model,
    which alone takes config None, the rolling-shutter scanline factor of
    the camera's row times otherwise.
    """
    coefs = _coefficients(motion.v[np.newaxis], motion.w[np.newaxis], np.array([motion.k]))
    return _residual_vector(_sample_terms(FlowBatch.of(samples), config, model), coefs)


# the row groups of a `_sample_terms` table that the products of
# `_residuals` read: the features of c_x, c_y, P_x, P_y and beta (the two P
# products share theirs)
_GROUPS = (slice(0, 7), slice(7, 14), slice(14, 16), slice(14, 16), slice(16, 18))


def _sample_terms(batch, config, model):
    """(18, N) table of the per-sample features of the residual kernel.

    With the flow midpoint (xm, ym), the flow (ux, uy) and the scanline
    coefficients a, b of beta, the rows are, by `_GROUPS`:
    c_x: ux, a xm ym, a (1 + xm^2), a ym, b xm ym, b (1 + xm^2), b ym;
    c_y: uy, a (1 + ym^2), a xm ym, -a xm, b (1 + ym^2), b xm ym, -b xm;
    P: xm, ym;  beta: a, b.
    """
    a, b = scanline_ab(batch.y1, batch.y2, config, model)
    xm, ym = midpoint(batch).T
    ux, uy = batch.u.T
    xy = xm * ym
    oxx = 1.0 + xm * xm
    oyy = 1.0 + ym * ym
    return np.stack([ux, a * xy, a * oxx, a * ym, b * xy, b * oxx, b * ym,
                     uy, a * oyy, a * xy, -a * xm, b * oyy, b * xy, -b * xm,
                     xm, ym, a, b])


def _coefficients(v, w, k):
    """Coefficient matrices of hypotheses v (H, 3), w (H, 3), k (H,): one
    per `_GROUPS` row group, then v's (v_x, v_y) columns.

    With the weights alpha = beta(1, 0, k), kappa = beta(0, 1, k) of
    `geometry.beta`, c = u - beta B w takes (1, -alpha w_x, alpha w_y,
    -alpha w_z, -kappa w_x, kappa w_y, -kappa w_z) on both c groups (the
    table negates the c_y features that need it) and beta (alpha, kappa).
    P = A v takes (v_z, 0) and (0, v_z) on (xm, ym), and `_residuals`
    subtracts v_x and v_y from the products.
    """
    alpha, kappa = beta(1.0, 0.0, k), beta(0.0, 1.0, k)
    sw = w * [-1.0, 1.0, -1.0]
    c = np.column_stack([np.ones_like(k), alpha[:, None] * sw, kappa[:, None] * sw])
    vz = v[:, 2:]
    zero = np.zeros_like(vz)
    return (c, c, np.hstack([vz, zero]), np.hstack([zero, vz]), np.column_stack([alpha, kappa]),
            v[:, :2])


def _residuals(terms, coefs):
    """Residuals (H, n) of the hypotheses of `_coefficients` matrices coefs
    over the columns (18, n) of a `_sample_terms` table.

    c, P and beta are one (H, F) @ (F, n) product per row group; the rest is
    element-wise on (H, n) arrays.  The optimal inverse depth
    rho = (c . q) / (q . q) of q = beta P leaves the squared residual
    |c - rho q|^2 = (c x P)^2 / |P|^2.  Where rho is undefined
    (beta^2 |P|^2 < 1e-24) or not positive (beta (c . P) <= 0), rho is 0
    and the squared residual is |c|^2.  A residual above about 1e154
    overflows to inf, which fails any finite threshold.
    """
    cx, cy, px, py, bt = (coef @ terms[group] for coef, group in zip(coefs, _GROUPS))
    # P = A v as `geometry.translation_flow` rounds it: v_z xm, rounded, then
    # minus v_x.  A product over (1, xm) would fuse the two into one
    # rounding, and just off the translation epipole that last bit sets
    # the direction of P and so the residual
    px -= coefs[-1][:, :1]
    py -= coefs[-1][:, 1:]
    pp = px * px
    tmp = py * py
    pp += tmp
    # valid: rho defined and positive
    dot = cx * px
    dot += np.multiply(cy, py, out=tmp)
    dot *= bt
    valid = dot > 0
    bt *= bt
    bt *= pp
    valid &= bt >= 1e-24
    cross = np.multiply(cx, py, out=dot)
    cross -= np.multiply(cy, px, out=tmp)
    cross *= cross
    # 0 / 0 only where P = 0, which is never valid; a divide with where=
    # takes several times as long as the whole division and select
    with np.errstate(invalid="ignore"):
        cross /= pp
    err = np.multiply(cx, cx, out=px)
    err += np.multiply(cy, cy, out=tmp)
    err = np.where(valid, cross, err)
    return np.sqrt(err, out=err)


def _residual_vector(terms, coefs):
    """Residuals (N,) of the one hypothesis of coefs over a whole table.

    The samples go through `_residuals` in chunks of BLOCK_RESIDUALS, as a
    block's do: one product over more samples wakes OpenBLAS's worker
    threads, which then spin on the second core.
    """
    n = terms.shape[1]
    out = np.empty(n)
    for start in range(0, n, BLOCK_RESIDUALS):
        stop = start + BLOCK_RESIDUALS
        out[start:stop] = _residuals(terms[:, start:stop], coefs)[0]
    return out


def _score_block(terms, coefs, threshold, best_count):
    """Inlier counts and inlier-residual sums of a block of hypotheses (the
    rows of their `_coefficients` matrices coefs), and the number of
    residuals evaluated.

    The samples (the columns of the `_sample_terms` table) are scored in
    chunks of BLOCK_RESIDUALS // (live hypotheses).  After each chunk a
    hypothesis whose count plus the samples left is below best_count is
    dropped, with its rows of coefs; its count reads -1.
    """
    n = terms.shape[1]
    counts = np.zeros(len(coefs[0]), dtype=np.intp)
    sums = np.zeros(len(counts))
    live = np.arange(len(counts))
    n_residuals = start = 0
    while start < n and live.size:
        stop = min(n, start + max(1, BLOCK_RESIDUALS // live.size))
        errs = _residuals(terms[:, start:stop], coefs)
        n_residuals += errs.size
        inl = errs <= threshold
        counts[live] += np.count_nonzero(inl, axis=1)
        sums[live] += np.sum(np.where(inl, errs, 0.0), axis=1)
        start = stop
        reachable = counts[live] + (n - stop) >= best_count
        if not reachable.all():
            counts[live[~reachable]] = -1
            live = live[reachable]
            coefs = [coef[reachable] for coef in coefs]
    return counts, sums, n_residuals


def ransac(samples, model: str, config: CameraConfig,
           ransac_config: RansacConfig | None = None) -> RansacResult:
    """Robust motion estimate from contaminated flow samples.

    Deterministic under a fixed seed.  For the constant-acceleration model
    every real root of the minimal solver is scored as its own hypothesis.
    The best hypothesis has the most inliers, then the lowest mean inlier
    residual, then the earliest subset.  Only the gs model takes config
    None.  This is `ransac_stack` of one problem; its library error is
    raised.
    """
    [result] = ransac_stack([(samples, model, config, ransac_config)])
    if isinstance(result, RsSfmError):
        raise result
    return result


def ransac_stack(problems) -> list:
    """`ransac` of each (samples, model, config, ransac_config) problem, in
    one loop: per problem, the RansacResult that `ransac` returns or the
    library error (an RsSfmError) that it raises.

    Each problem draws its subsets from its own generator and scores its
    hypotheses against its own samples, incumbent and bail-out.  Only the
    solves are shared: the problems are taken in runs of one subset size
    whose first blocks hold at most STACK_SUBSETS subsets together, and each
    block of a run is one `solve_stack` call.  A subset's hypotheses do not
    depend on its stack, so each result is the one `ransac` gives the
    problem alone.  An unknown model raises ValueError before any run.
    """
    problems = [(FlowBatch.of(samples), check_model(model), config, rc or RansacConfig())
                for samples, model, config, rc in problems]
    results = [None] * len(problems)
    for run in _runs(problems):
        searches = []
        for p in run:
            try:
                searches.append((p, _Search(*problems[p])))
            except RsSfmError as exc:
                results[p] = exc
        live, start = [s for _, s in searches], 0
        while live:
            blocks = [(s, s.draw(start)) for s in live]
            t0 = time.perf_counter()
            stack = FlowBatch.concatenate([s.samples[sub] for s, sub in blocks])
            # _sample_terms checked every scanline pair: no subset fails on one
            a, b = np.concatenate([s.terms[_GROUPS[-1]][:, sub] for s, sub in blocks], axis=1)
            hyps = solve_stack(stack, a, b)
            solve_s = time.perf_counter() - t0
            bounds = np.cumsum([0] + [len(sub) for _, sub in blocks])
            for s, lo, hi in zip(live, bounds[:-1], bounds[1:]):
                s.seconds[1] += solve_s * (hi - lo) / bounds[-1]
                s.score(hyps.of_subsets(lo, hi))
            start += SOLVE_BLOCK
            live = [s for s in live if start < s.rc.iterations]
        for p, s in searches:
            results[p] = s.result()
    return results


def draw_subsets(rng, n, m, size):
    """(size, m) indices into n >= m samples, each row m distinct ones drawn
    uniformly over the ordered m-subsets.

    One integer draw for the whole block, then up to eight redraws of only
    the rows that repeat an index: a row kept on a draw is a uniform m-tuple
    conditioned on distinct entries.  A row that still repeats one takes
    the first m entries of a uniform random permutation, which is uniform
    over the ordered m-subsets too, so the bound changes no distribution;
    it caps the work where n is close to m (n = m = 9 keeps a row with
    probability 9! / 9^9 = 1e-3).  The subsets of a generator depend on the
    block sizes it is asked for.
    """
    if n < m:
        raise ValueError(f"cannot draw {m} distinct indices from {n}")

    def repeating(rows):
        ordered = np.sort(subsets[rows], axis=1)
        return rows[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]

    subsets = rng.integers(0, n, (size, m))
    rows = repeating(np.arange(size))
    for _ in range(8):
        if not rows.size:
            return subsets
        subsets[rows] = rng.integers(0, n, (rows.size, m))
        rows = repeating(rows)
    if rows.size:
        subsets[rows] = rng.permuted(np.tile(np.arange(n), (rows.size, 1)), axis=1)[:, :m]
    return subsets


def _runs(problems):
    """Runs of consecutive problem indices of one subset size whose first
    blocks hold at most STACK_SUBSETS subsets together."""
    run, size = [], 0
    for p, (_, model, _, rc) in enumerate(problems):
        block = min(SOLVE_BLOCK, rc.iterations)
        if run and (size + block > STACK_SUBSETS
                    or MINIMAL_SIZE[model] != MINIMAL_SIZE[problems[run[0]][1]]):
            yield run
            run, size = [], 0
        run.append(p)
        size += block
    if run:
        yield run


class _Search:
    """One problem of `ransac_stack`: its samples, feature table and
    generator, its incumbent and its counts."""

    def __init__(self, samples, model, config, rc):
        self.samples = samples
        self.model, self.rc, self.m = model, rc, MINIMAL_SIZE[model]
        if len(self.samples) < self.m:
            raise RobustFailure(f"model {model} needs at least {self.m} samples, "
                                f"got {len(self.samples)}")
        self.rng = np.random.default_rng(rc.seed)
        self.terms = _sample_terms(self.samples, config, model)
        self.failures = Counter()
        self.n_hypotheses = self.n_scored_full = self.n_residuals = 0
        self.seconds = np.zeros(3)  # drawing, solving, scoring
        self.best_count, self.best_mean, self.best_motion, self.best_errs = 0, np.inf, None, None

    def draw(self, start):
        """The (S, m) sample indices of the block of subsets from iteration
        start on."""
        t0 = time.perf_counter()
        subsets = draw_subsets(self.rng, len(self.samples), self.m,
                               min(SOLVE_BLOCK, self.rc.iterations - start))
        self.seconds[0] += time.perf_counter() - t0
        return subsets

    def score(self, hyps):
        """Score the hypotheses of a block, and keep the best of them if it
        beats the incumbent."""
        t0 = time.perf_counter()
        self.failures.update(type(exc).__name__ for exc in hyps.failures.values())
        self.n_hypotheses += len(hyps)
        if len(hyps):
            terms, threshold = self.terms, self.rc.threshold
            coefs = _coefficients(hyps.v, hyps.w, hyps.k)
            counts, sums, n_scored = _score_block(terms, coefs, threshold, self.best_count)
            self.n_scored_full += np.count_nonzero(counts >= 0)
            self.n_residuals += n_scored
            means = sums / np.maximum(counts, 1)
            i = np.lexsort((means, -counts))[0]  # stable: the first of equals
            if counts[i] > self.best_count or (counts[i] == self.best_count > 0
                                               and means[i] < self.best_mean):
                self.best_motion = hyps.motion(i)
                # a one-row product need not round as the block's did, so the
                # incumbent's count and mean come from the residual vector
                # that the result reports, which equals `score_motion`'s
                self.best_errs = _residual_vector(terms, [coef[i:i + 1] for coef in coefs])
                inl = self.best_errs <= threshold
                self.best_count = np.count_nonzero(inl)
                self.best_mean = np.sum(self.best_errs[inl]) / max(self.best_count, 1)
        self.seconds[2] += time.perf_counter() - t0

    def result(self):
        """The RansacResult of the search, or RobustFailure if no hypothesis
        has an inlier."""
        rc, seconds = self.rc, self.seconds
        n_valid = rc.iterations - sum(self.failures.values())
        logger.info("ransac %s: %d of %d subsets solved (failures %s), %d hypotheses, %d scored "
                    "in full, %d residuals, best %d of %d inliers; draw %.4f s, solve %.4f s, "
                    "score %.4f s", self.model, n_valid, rc.iterations, dict(self.failures),
                    self.n_hypotheses, self.n_scored_full, self.n_residuals, self.best_count,
                    len(self.samples), *seconds)
        if self.best_count == 0:
            return RobustFailure("no RANSAC iteration produced a valid model")
        return RansacResult(
            motion=self.best_motion,
            inliers=np.flatnonzero(self.best_errs <= rc.threshold),
            residuals=self.best_errs,
            n_valid_iterations=n_valid,
            n_iterations=rc.iterations,
            n_hypotheses=self.n_hypotheses,
            n_scored_full=self.n_scored_full,
            n_residuals=self.n_residuals,
            failures=dict(self.failures),
            draw_s=float(seconds[0]),
            solve_s=float(seconds[1]),
            score_s=float(seconds[2]),
        )


def refit_trimmed(samples, result, model, config: CameraConfig):
    """Nonlinear refit on the best-scoring half of the inlier set.

    Samples just under the threshold can be geometrically consistent with
    the hypothesis without belonging to the clean consensus, and the
    near-ambiguity between translation and rotation amplifies their pull on
    a full-inlier refit.  Trimming to the best half (by residual
    under the selected hypothesis) drops them; with genuinely noisy data
    this is an ordinary trimmed least-squares refit.  Only the gs model
    takes config None.

    samples, result, model and config may also be equal-length sequences,
    one entry per problem: the refits then run as one `refine.refine_stack`,
    and a list of their states comes back.
    """
    from .refine import refine, refine_stack

    if isinstance(result, RansacResult):
        return refine(*_trimmed(samples, result, model), config, model)
    return refine_stack([(*_trimmed(s, r, m), c, m) for s, r, m, c
                         in zip(samples, result, model, config, strict=True)])


def _trimmed(samples, result: RansacResult, model):
    """The best-scoring half of the inlier set of a RANSAC result, as a batch
    of only those samples, and its motion."""
    idx = result.inliers
    order = np.argsort(result.residuals[idx], kind="stable")
    keep = idx[order[:max(MINIMAL_SIZE[check_model(model)], int(round(0.5 * len(idx))))]]
    kept = samples[keep] if isinstance(samples, FlowBatch) else [samples[i] for i in keep]
    return FlowBatch.of(kept), result.motion


def forward_backward_error(forward, backward):
    """Per-pixel forward-backward flow consistency error, in pixels.

    error(p) = || u_fwd(p) + u_bwd(p + u_fwd(p)) || with bilinear lookup of
    the backward field; lookups landing outside the image are NaN.
    """
    if forward.shape != backward.shape:
        raise ValueError(f"flow shapes differ: {forward.shape} vs {backward.shape}")
    H, W = forward.shape[:2]
    py, px = np.mgrid[0:H, 0:W].astype(float)
    tx = px + forward[..., 0]
    ty = py + forward[..., 1]
    bwd_x = _bilinear(backward[..., 0], tx, ty)
    bwd_y = _bilinear(backward[..., 1], tx, ty)
    return np.hypot(forward[..., 0] + bwd_x, forward[..., 1] + bwd_y)


def _bilinear(img, x, y):
    H, W = img.shape
    finite = np.isfinite(x) & np.isfinite(y)
    x = np.where(finite, x, -1.0)
    y = np.where(finite, y, -1.0)
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    inside = (x0 >= 0) & (x0 <= W - 2) & (y0 >= 0) & (y0 <= H - 2)
    x0c = np.clip(x0, 0, W - 2)
    y0c = np.clip(y0, 0, H - 2)
    fx = x - x0c
    fy = y - y0c
    v = (
        img[y0c, x0c] * (1 - fx) * (1 - fy)
        + img[y0c, x0c + 1] * fx * (1 - fy)
        + img[y0c + 1, x0c] * (1 - fx) * fy
        + img[y0c + 1, x0c + 1] * fx * fy
    )
    return np.where(inside, v, np.nan)


def ranked_pixels(forward, backward):
    """The most consistent KEEP_FRACTION of a dense bidirectional flow pair.

    Pixels are ranked by ascending forward-backward error (row-major order
    breaks ties) and the top KEEP_FRACTION returned in rank order as
    (cols, rows, flow_x, flow_y) arrays, in the forward flow's dtype.
    """
    err = forward_backward_error(forward, backward)
    finite_flow = np.isfinite(forward[..., 0]) & np.isfinite(forward[..., 1])
    usable = np.isfinite(err) & finite_flow
    flat_err = np.where(usable.ravel(), err.ravel(), np.inf)
    n_usable = int(np.count_nonzero(usable))
    if n_usable == 0:
        raise EmptySelection("no pixel has a finite forward-backward error")
    n_keep = max(1, int(round(KEEP_FRACTION * usable.size)))
    n_keep = min(n_keep, n_usable)
    order = np.argsort(flat_err, kind="stable")[:n_keep]
    rows, cols = np.divmod(order, err.shape[1])
    flow = forward.reshape(-1, 2)[order]
    # integer coordinates in the flow's dtype: the destination row is then
    # rounded to the flow's precision
    return cols.astype(flow.dtype), rows.astype(flow.dtype), flow[:, 0], flow[:, 1]


def samples_from_pixels(cols, rows, flow_x, flow_y, config: CameraConfig, max_samples=0,
                        seed=0):
    """Flow batch of pixels (cols, rows) with pixel-unit flows (flow_x, flow_y).

    Keeps, in the given order, the finite entries whose source row rows
    and destination row rows + flow_y (computed in the precision of the
    inputs) both lie in [0, h).  When more than `max_samples` (if nonzero)
    remain, a seeded random subset of that size is kept, still in order.
    Raises EmptySelection when no entry is kept.
    """
    y2 = rows + flow_y
    inside = (rows >= 0) & (rows < config.h) & (y2 >= 0) & (y2 < config.h)
    keep = np.flatnonzero(np.isfinite(cols) & np.isfinite(flow_x) & inside)
    if not len(keep):
        raise EmptySelection(f"none of {len(cols)} flow samples has a finite flow that starts "
                             f"and ends inside the image rows [0, {config.h})")
    if max_samples and len(keep) > max_samples:
        rng = np.random.default_rng(seed)
        keep = keep[np.sort(rng.choice(len(keep), max_samples, replace=False))]
    y1 = rows[keep].astype(float)
    x = np.column_stack(config.pixel_to_normalized(cols[keep].astype(float), y1))
    u = np.column_stack([flow_x[keep] / config.fx, flow_y[keep] / config.fy]).astype(float)
    return FlowBatch(x=x, u=u, y1=y1, y2=y2[keep].astype(float))
