"""Test-side reference implementations.

Each one is a slower or more literal form of a library function, or a
formula of the model written out on its own, kept to check the library
against: exact back-projection for `warp_field`, the masked splat and
boolean-indexed gap fill for `rectify_image`, full `np.mgrid` pixel grids
for `warp_field` and `dense_depth`, the refinement objective, the 8-point
solver of k-free subsets on their rescaled flows, the determinant
polynomial of 9 samples as a Chebyshev fit of its own with Newton-polished
roots, and the single-point flow model with its epipolar constraint.
"""

import numpy as np
from numpy.polynomial import chebyshev, polynomial as npoly

from rsdiffsfm.errors import DegenerateConfiguration
from rsdiffsfm.geometry import (
    CONST_ACCEL,
    FlowBatch,
    beta,
    beta_timestamp,
    canonicalize_e,
    exp_so3,
    matrices_ab,
    rotation_flow,
    scanline_ab,
    skew,
    translation_flow,
)
from rsdiffsfm.gs_solver import gs_rows, recover_stack, unit_rows
from rsdiffsfm.rectify import WarpField, _fill_holes
from rsdiffsfm.refine import SampleBlocks, _terms, depth_terms, inv_depth
from rsdiffsfm.rs_solvers import RANK_TOL, ROOT_WINDOW, Hypotheses, affine_rows


def log_so3(R):
    """Rotation vector of R for rotation angles below pi."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta < 1e-10:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2.0
    axis = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return theta / (2.0 * np.sin(theta)) * axis


def project_flow(x, Z, v, w):
    """Instantaneous image motion at x for depth Z and camera motion (v, w)."""
    if Z <= 0:
        raise ValueError(f"depth must be positive, got {Z}")
    A, B = matrices_ab(x)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return A @ v / Z + B @ w


def symmetric_s(v, w):
    """Symmetric matrix s = (v^ w^ + w^ v^) / 2 of the epipolar constraint."""
    vh = skew(v)
    wh = skew(w)
    s = 0.5 * (vh @ wh + wh @ vh)
    return 0.5 * (s + s.T)


def epipolar_residual(x, u, v, w):
    """Residual of the differential epipolar constraint u~^T v^ x~ - x~^T s x~
    with the lifted point x~ = (x, y, 1) and flow u~ = (u_x, u_y, 0)."""
    xt = np.array([float(x[0]), float(x[1]), 1.0])
    ut = np.array([float(u[0]), float(u[1]), 0.0])
    return float(ut @ skew(v) @ xt - xt @ symmetric_s(v, w) @ xt)


def s_to_vech(s):
    """Upper-triangular entries (s11, s12, s13, s22, s23, s33) of s: the
    ordering of the s-block of the 9-vector e = [v; vech(s)]."""
    s = np.asarray(s, dtype=float)
    return np.array([s[i, j] for i, j in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]])


def k_free_hypotheses(stack, a):
    """`Hypotheses` of a (S, m) stack of k-free subsets (b = a): the
    differential 8-point solution of the flows scaled by 1/a, with k = 0.

    The SVD of the unit `gs_rows` of the rescaled flows gives each subset's
    epipolar vector; a subset with sigma_8 <= RANK_TOL sigma_1 fails with
    DegenerateConfiguration, and `recover_stack` recovers the others
    against the rescaled flows.  Needs m >= 8.
    """
    scaled = stack.rescaled(a)
    _, sv, Vt = np.linalg.svd(unit_rows(gs_rows(scaled)))
    deficient = sv[:, 7] <= RANK_TOL * sv[:, 0]
    failures = {
        int(j): DegenerateConfiguration(
            f"stacked system rank below 8 (sigma_8/sigma_1 = {sv[j, 7] / sv[j, 0]:.2e})")
        for j in np.flatnonzero(deficient)
    }
    ok = np.flatnonzero(~deficient)
    v, w, reliable = recover_stack(canonicalize_e(Vt[ok, 8]), scaled[ok])
    return Hypotheses(v=v, w=w, k=np.zeros(len(ok)), v_reliable=reliable, subset=ok,
                      failures=failures)


def reference_det_polynomial(samples, config):
    """det Z(k) / (2+k)^3 of 9 samples, with Z(k) = R0 + k R1 their
    `affine_rows`, fitted on its own: (coeffs, remainder_ratio, roots).

    det M(k), with the (2+k) factor taken out of the translation columns,
    is evaluated at 9 Chebyshev nodes one `np.linalg.det` at a time and
    fitted by `chebfit`.  remainder_ratio is the largest remainder of three
    divisions by (k + 2) of the degree-9 interpolant of det Z(k), relative
    to its largest coefficient: it vanishes only when the sample set is
    numerically sound.  roots are the real roots of the fit by
    `npoly.polyroots`, each polished by two Newton steps on det M(k) itself,
    that lie in ROOT_WINDOW, ascending.
    """
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
        coeffs9, rem = npoly.polydiv(coeffs9, [2.0, 1.0])
        rem_max = max(rem_max, abs(rem[0]) / ref)
    # undo the equilibration so the polynomial equals det Z(k) / (2+k)^3
    coeffs = np.asarray(coeffs) * np.prod(col)

    c = np.trim_zeros(coeffs, "b")
    roots = [] if len(c) <= 1 else sorted(
        polished for r in npoly.polyroots(c) if abs(r.imag) < 1e-6 * (1.0 + abs(r.real))
        for polished in [_newton_det(M0, M1, float(r.real))]
        if ROOT_WINDOW[0] < polished <= ROOT_WINDOW[1])
    return coeffs, rem_max, roots


def _newton_det(M0, M1, k):
    """k after two Newton steps on det(M0 + k M1), whose derivative is taken
    by a complex step: Im det(M0 + (k + ih) M1) / h."""
    h = 1e-20
    for _ in range(2):
        k -= np.linalg.det(M0 + k * M1) * h / np.linalg.det(M0 + complex(k, h) * M1).imag
    return float(k)


def motion_stack(motion):
    """(v, w, k) of a motion as a stack of one, as the refine kernels take it."""
    return motion.v[None], motion.w[None], np.array([float(motion.k)])


def refine_objective(samples, motion, config, model=CONST_ACCEL):
    """The objective of `refine` at `motion`: each sample's optimal inverse
    depth, its squared flow error summed over the two components, and the
    sum over the samples with a valid depth."""
    _, q, c = (x[0] for x in _terms(SampleBlocks.of([(samples, config, model)]),
                                    *motion_stack(motion)))
    rho, valid = inv_depth(q.T, c.T)
    errs = np.sum((c - np.where(valid, rho, 0.0)[:, None] * q) ** 2, axis=1)
    return float(np.sum(errs[valid]))


def warp_field_backprojection(depth, motion, config):
    """Exact rectifying displacement via back-projection.

    Back-project each pixel through its scanline pose into the scene, then
    project in the first-scanline camera; the displacement is the difference
    of the two image positions.  Cross-check for `warp_field`.
    """
    H, W = depth.shape
    py, px = np.mgrid[0:H, 0:W].astype(float)
    x, y = config.pixel_to_normalized(px, py)
    valid = np.isfinite(depth) & (depth > 0)
    Z = np.where(valid, depth, 1.0)
    du = np.zeros((H, W))
    dv = np.zeros((H, W))
    betas = beta_timestamp(config.timestamp(np.arange(H)), motion.k)[:, None]
    Rs = exp_so3(betas * motion.w)  # (H, 3, 3): one scanline pose per row
    ps = betas * motion.v
    for r in range(H):
        Xc = np.stack([x[r] * Z[r], y[r] * Z[r], Z[r]])  # (3, W)
        Xw = Rs[r] @ Xc + ps[r][:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            xg = Xw[0] / Xw[2]
            yg = Xw[1] / Xw[2]
        ok = Xw[2] > 1e-9
        du[r] = np.where(ok, (xg - x[r]) * config.fx, 0.0)
        dv[r] = np.where(ok, (yg - y[r]) * config.fy, 0.0)
        valid[r] &= ok
    return WarpField(du=np.where(valid, du, 0.0), dv=np.where(valid, dv, 0.0), valid=valid)


def mgrid_warp_field(depth, motion, config):
    """`warp_field` on full (H, W) pixel grids."""
    H, W = depth.shape
    py, px = np.mgrid[0:H, 0:W].astype(float)
    x, y = config.pixel_to_normalized(px, py)
    beta1 = beta_timestamp(config.timestamp(py), motion.k)
    valid = np.isfinite(depth) & (depth > 0)
    rho = np.where(valid, 1.0 / np.where(valid, depth, 1.0), 0.0)
    ax, ay = translation_flow(x, y, motion.v)
    bx, by = rotation_flow(x, y, motion.w)
    du = -beta1 * (ax * rho + bx) * config.fx
    dv = -beta1 * (ay * rho + by) * config.fy
    return WarpField(du=np.where(valid, du, 0.0), dv=np.where(valid, dv, 0.0), valid=valid)


def mgrid_dense_depth(flow, motion, config):
    """`dense_depth` on full (H, W) pixel grids."""
    H, W = flow.shape[:2]
    py, px = np.mgrid[0:H, 0:W].astype(float)
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


def masked_rectify_image(image, warp, fill_gaps=True):
    """`rectify_image` that masks and compresses the in-frame corners before
    each bincount, normalises and passes invalid entries through by boolean
    assignment, and fills gaps by chained boolean indexing."""
    img = np.asarray(image, dtype=float)
    H, W = img.shape[:2]
    channels = img if img.ndim == 3 else img[..., None]
    C = channels.shape[2]
    acc = np.zeros((H, W, C))
    wgt = np.zeros((H, W))

    py, px = np.mgrid[0:H, 0:W].astype(float)
    tx = (px + warp.du).ravel()
    ty = (py + warp.dv).ravel()
    vals = channels.reshape(-1, C)
    x0 = np.floor(tx).astype(int)
    y0 = np.floor(ty).astype(int)
    fx = tx - x0
    fy = ty - y0
    for dx, dy, wq in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xi = x0 + dx
        yi = y0 + dy
        ok = (xi >= 0) & (xi < W) & (yi >= 0) & (yi < H)
        flat = yi[ok] * W + xi[ok]
        wq = wq[ok]
        wgt += np.bincount(flat, wq, minlength=H * W).reshape(H, W)
        for c in range(C):
            acc[..., c] += np.bincount(flat, vals[ok, c] * wq, minlength=H * W).reshape(H, W)

    filled = wgt > 1e-8
    out = np.zeros_like(acc)
    out[filled] = acc[filled] / wgt[filled, None]
    gap = ~filled
    gap_fraction = float(np.count_nonzero(gap & _fill_holes(filled))) / (H * W)
    if fill_gaps and np.any(gap):
        out = masked_fill_from_neighbors(out, gap)
    out[~warp.valid] = channels[~warp.valid]
    out = out[..., 0] if img.ndim == 2 else out
    return out, gap_fraction


def masked_fill_from_neighbors(img, gap):
    """4-neighbourhood average fill of gap pixels by boolean indexing."""
    out = img.copy()
    acc = np.zeros_like(img)
    cnt = np.zeros(img.shape[:2])
    known = ~gap
    head, tail, every = slice(None, -1), slice(1, None), slice(None)
    for dst, src in (((tail, every), (head, every)), ((head, every), (tail, every)),
                     ((every, tail), (every, head)), ((every, head), (every, tail))):
        take = gap[dst] & known[src]
        acc[dst][take] += img[src][take]
        cnt[dst][take] += 1
    have = gap & (cnt > 0)
    out[have] = acc[have] / cnt[have, None]
    return out
