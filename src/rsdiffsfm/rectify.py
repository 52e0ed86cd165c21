"""Rolling-shutter-aware warping onto the first-scanline frame.

Each pixel on scanline y was exposed by a camera displaced by the fraction
beta1(k; y) of the frame motion.  Undoing that per-scanline pose moves the
pixel to where the first-scanline (global-shutter) camera would have seen
it.  Two paths are provided: the small-motion displacement field (default)
and exact back-projection through the scanline pose; they agree to
sub-pixel accuracy at the motion scales the model is valid for.

`rectify_image` forward-splats with one `np.bincount` per bilinear corner
and accumulator, added in corner order.  `np.add.at` gives the same sums
in about twice the time; the two differ only in the order in which the
contributions of one corner to one pixel are summed.  The four corners are
not joined into one bincount, which would hold four times the index and
weight arrays at once.  The splatted footprint, inside which `gap_fraction`
counts unfilled pixels as holes, comes from `_fill_holes`, in numpy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import CameraConfig, MotionEstimate, beta, exp_so3, rotation_flow, translation_flow

logger = logging.getLogger(__name__)


@dataclass
class WarpField:
    """Per-pixel rectification displacement in pixel units, plus validity."""

    du: np.ndarray  # (H, W) displacement along x, pixels
    dv: np.ndarray  # (H, W) displacement along y, pixels
    valid: np.ndarray  # (H, W) bool


def beta_first_scanline(rows, k, gamma, h):
    """Pose fraction beta1 of scanline `rows` relative to the first scanline."""
    t = gamma * np.asarray(rows, dtype=float) / h
    return beta(t, t * t, k)


def warp_field(depth, motion: MotionEstimate, config: CameraConfig) -> WarpField:
    """Rectifying displacement field from a dense depth map.

    The scanline camera is displaced by +beta1 (v, w) relative to the frame
    start, so the rectifying image displacement is the flow induced by the
    inverse motion: -beta1 (A v / Z + B w), converted to pixels.
    """
    H, W = depth.shape
    if H != config.h:
        raise ValueError(f"depth has {H} rows but the camera has {config.h} scanlines")
    py, px = np.mgrid[0:H, 0:W].astype(float)
    x, y = config.pixel_to_normalized(px, py)
    beta1 = beta_first_scanline(py, motion.k, config.gamma, config.h)
    valid = np.isfinite(depth) & (depth > 0)
    rho = np.where(valid, 1.0 / np.where(valid, depth, 1.0), 0.0)
    ax, ay = translation_flow(x, y, motion.v)
    bx, by = rotation_flow(x, y, motion.w)
    du = -beta1 * (ax * rho + bx) * config.fx
    dv = -beta1 * (ay * rho + by) * config.fy
    return WarpField(du=np.where(valid, du, 0.0), dv=np.where(valid, dv, 0.0), valid=valid)


def warp_field_backprojection(depth, motion: MotionEstimate, config: CameraConfig) -> WarpField:
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
    betas = beta_first_scanline(np.arange(H), motion.k, config.gamma, config.h)[:, None]
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


def rectify_image(image, warp: WarpField, fill_gaps: bool = True):
    """Forward-splat an image through a warp field with bilinear weights.

    Unfilled pixels are inpainted from their 4-neighborhood average; pixels
    with invalid warp entries are copied through unchanged.  Returns
    (rectified, gap_fraction).  gap_fraction counts unfilled pixels inside
    the splatted footprint (true holes); the uncovered band where content
    moved out of view is not a hole and is excluded.
    """
    img = np.asarray(image, dtype=float)
    if img.shape[:2] != warp.du.shape:
        raise ValueError(f"image shape {img.shape[:2]} does not match warp {warp.du.shape}")
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
    footprint = _fill_holes(filled)
    gap_fraction = float(np.count_nonzero(gap & footprint)) / (H * W)
    logger.info("rectify_image %dx%d: gap_fraction %.4g", W, H, gap_fraction)
    if fill_gaps and np.any(gap):
        out = _fill_from_neighbors(out, gap)
    # invalid warp entries pass the source through
    out[~warp.valid] = channels[~warp.valid]
    out = out[..., 0] if img.ndim == 2 else out
    return out, gap_fraction


def _fill_holes(filled):
    """`filled` with its holes filled, as `scipy.ndimage.binary_fill_holes`
    fills them with its default 4-connectivity.  From the unfilled border
    pixels, row and column passes mark each run of unfilled pixels that holds
    a marked pixel until a round marks nothing new; the rest is the footprint.
    """
    gap = ~filled
    runs = []  # run labels of the unfilled pixels along rows, then along columns
    for g in (gap, gap.T):
        starts = g & ~np.pad(g, ((0, 0), (1, 0)))[:, :-1]
        runs.append(np.cumsum(starts[g]) - 1)  # in the row-major order of g
    by_column = np.empty(gap.T.shape, dtype=runs[1].dtype)
    by_column[gap.T] = runs[1]
    runs[1] = by_column.T[gap]  # the column runs in the row-major order of gap
    marked = gap.copy()
    marked[1:-1, 1:-1] = False
    marked = marked[gap]
    n_marked = -1
    while n_marked != np.count_nonzero(marked):
        n_marked = np.count_nonzero(marked)
        for run in runs:
            hit = np.zeros(len(run), dtype=bool)  # a run holds at least one pixel
            hit[run[marked]] = True
            marked = hit[run]
    footprint = np.ones_like(filled)
    footprint[gap] = ~marked
    return footprint


def _fill_from_neighbors(img, gap):
    """Single-pass 4-neighborhood average fill of gap pixels."""
    out = img.copy()
    acc = np.zeros_like(img)
    cnt = np.zeros(img.shape[:2])
    known = ~gap
    head, tail, every = slice(None, -1), slice(1, None), slice(None)
    # (destination, source) slices for the neighbor above, below, left, right
    for dst, src in (((tail, every), (head, every)), ((head, every), (tail, every)),
                     ((every, tail), (every, head)), ((every, head), (every, tail))):
        take = gap[dst] & known[src]
        acc[dst][take] += img[src][take]
        cnt[dst][take] += 1
    have = gap & (cnt > 0)
    out[have] = acc[have] / cnt[have, None]
    return out
