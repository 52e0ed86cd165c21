"""Rolling-shutter-aware warping onto the first-scanline frame.

Each pixel on scanline y was exposed by a camera displaced by the fraction
beta1(k; y) of the frame motion.  Undoing that per-scanline pose moves the
pixel to where the first-scanline (global-shutter) camera would have seen
it.  `warp_field` gives that move as the small-motion displacement field,
which agrees with exact back-projection through the scanline pose to
sub-pixel accuracy at the motion scales the model is valid for.

`rectify_image` forward-splats into a frame padded by a 2-pixel border.
With each pixel's top-left corner clamped to [-2, W] x [-2, H], all four
corners land in the padded frame, so every bincount runs over all pixels
without a mask; corners outside the image fall in the border, which is
sliced off.  Each accumulator (the weights, and each channel) takes one
`np.bincount` per bilinear corner over the top-left corner's index, added
in corner order at the corner's offset in the padded frame, so each image
pixel sums the same terms in the same order as a masked splat.  `np.add.at`
gives the same sums in about twice the time; the two differ only in the
order in which the contributions of one corner to one pixel are summed.
The four corners are not joined into one bincount, which would hold four
times the index and weight arrays at once.  The splatted footprint, inside
which `gap_fraction` counts unfilled pixels as holes, comes from
`_fill_holes`, in numpy.  Gaps are filled from their 4-neighbours by
summing shifted slices of a zero-padded frame, without boolean indexing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import CameraConfig, MotionEstimate, beta_timestamp, rotation_flow, translation_flow

logger = logging.getLogger(__name__)


@dataclass
class WarpField:
    """Per-pixel rectification displacement in pixel units, plus validity."""

    du: np.ndarray  # (H, W) displacement along x, pixels
    dv: np.ndarray  # (H, W) displacement along y, pixels
    valid: np.ndarray  # (H, W) bool


def warp_field(depth, motion: MotionEstimate, config: CameraConfig) -> WarpField:
    """Rectifying displacement field from a dense depth map.

    The scanline camera is displaced by +beta1 (v, w) relative to the frame
    start, so the rectifying image displacement is the flow induced by the
    inverse motion: -beta1 (A v / Z + B w), converted to pixels.
    """
    H, W = depth.shape
    if H != config.h:
        raise ValueError(f"depth has {H} rows but the camera has {config.h} scanlines")
    py = np.arange(H, dtype=float)[:, None]
    px = np.arange(W, dtype=float)[None, :]
    x, y = config.pixel_to_normalized(px, py)
    beta1 = beta_timestamp(config.timestamp(py), motion.k)
    valid = np.isfinite(depth) & (depth > 0)
    rho = np.where(valid, 1.0 / np.where(valid, depth, 1.0), 0.0)
    ax, ay = translation_flow(x, y, motion.v)
    bx, by = rotation_flow(x, y, motion.w)
    du = -beta1 * (ax * rho + bx) * config.fx
    dv = -beta1 * (ay * rho + by) * config.fy
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
    wgt, acc = _splat(channels, warp.du, warp.dv)
    filled = wgt > 1e-8
    out = np.where(filled[..., None], acc / np.where(filled, wgt, 1.0)[..., None], 0.0)
    gap = ~filled
    footprint = _fill_holes(filled)
    gap_fraction = float(np.count_nonzero(gap & footprint)) / (H * W)
    logger.info("rectify_image %dx%d: gap_fraction %.4g", W, H, gap_fraction)
    if fill_gaps and np.any(gap):
        out = _fill_from_neighbors(out, gap)
    # invalid warp entries pass the source through
    out = np.where(warp.valid[..., None], out, channels)
    out = out[..., 0] if img.ndim == 2 else out
    return out, gap_fraction


def _splat(channels, du, dv):
    """Bilinear forward splat of (H, W, C) `channels` displaced by (du, dv).

    Returns the summed weights (H, W) and weighted values (H, W, C), as
    views into the padded frame.
    """
    H, W, C = channels.shape
    Hp, Wp = H + 4, W + 4  # padded by a 2-pixel border
    n = Hp * Wp
    # the target position, split in place into its floor and fraction
    fx = np.arange(W, dtype=float) + du
    fy = np.arange(H, dtype=float)[:, None] + dv
    x0 = np.floor(fx).astype(int)
    y0 = np.floor(fy).astype(int)
    fx -= x0
    fy -= y0
    gx = 1 - fx
    gy = 1 - fy
    # each pixel's top-left corner in the padded frame; the other corners
    # are 1, Wp and Wp + 1 bins on, so their bincounts over `base` are added
    # that many bins on
    base = ((np.clip(y0, -2, H) + 2) * Wp + np.clip(x0, -2, W) + 2).ravel()
    vals = channels.reshape(-1, C)
    wgt = np.zeros(n)
    acc = np.zeros((C, n))
    for offset, a, b in ((0, gx, gy), (1, fx, gy), (Wp, gx, fy), (Wp + 1, fx, fy)):
        wq = (a * b).ravel()
        wgt[offset:] += np.bincount(base, wq, minlength=n)[:n - offset]
        for c in range(C):
            acc[c, offset:] += np.bincount(base, vals[:, c] * wq, minlength=n)[:n - offset]
    acc = acc.reshape(C, Hp, Wp)[:, 2:-2, 2:-2]
    return wgt.reshape(Hp, Wp)[2:-2, 2:-2], np.moveaxis(acc, 0, -1)


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
    """Single-pass 4-neighborhood average fill of gap pixels.

    The known pixels and their count are summed over the neighbour above,
    below, left and right, in that order, through a frame padded by one
    pixel of zeros.  The sum starts from 0.0 and unknown or missing
    neighbours add 0.0, so each gap pixel gets the sum over its known
    neighbours alone.
    """
    H, W = gap.shape
    known = np.zeros((H + 2, W + 2), dtype=np.uint8)
    known[1:-1, 1:-1] = ~gap
    vals = np.zeros((H + 2, W + 2) + img.shape[2:])
    np.copyto(vals[1:-1, 1:-1], img, where=~gap[..., None])
    above, below = (slice(None, -2), slice(1, -1)), (slice(2, None), slice(1, -1))
    left, right = (slice(1, -1), slice(None, -2)), (slice(1, -1), slice(2, None))
    acc = 0.0 + vals[above]
    for s in (below, left, right):
        acc += vals[s]
    cnt = known[above] + known[below] + known[left] + known[right]
    acc /= np.maximum(cnt, 1)[..., None]
    np.copyto(acc, img, where=~(gap & (cnt > 0))[..., None])
    return acc
