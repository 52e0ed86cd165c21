"""Ground-truth rolling-shutter scene for the dense-chain workload.

A textured, non-planar surface is seen by a rolling-shutter camera whose
scanlines each have their own pose.  Every pixel is ray-cast through its
scanline pose, so the flow, the depth and both images follow from the scene
geometry alone.  Nothing here calls the package under test: the scene is an
independent reference for what the CLI recovers.

Conventions match the package: the camera at timestamp t (in frame periods)
sits at beta(t) v with attitude exp(beta(t) w), beta(t) = (2t + k t^2)/(2+k);
scanline r of frame one is exposed at t = gamma r / h, of frame two at
1 + gamma r / h.  The global-shutter reference is the t = 0 camera, which is
the frame that rectification maps onto.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DenseScene:
    """Inputs and truth of one rendered scene (arrays are (H, W) or (H, W, 2))."""

    gamma: float
    size: int
    focal: float
    v: np.ndarray
    w: np.ndarray
    k: float
    flow: np.ndarray  # float32 pixel flow with noise, NaNs and corrupted pixels
    depth: np.ndarray  # frame-one depth of every pixel
    rs_image: np.ndarray  # uint8, what the rolling shutter records
    gs_image: np.ndarray  # uint8, what the t = 0 global-shutter camera records

    def truth_motion(self):
        """(v, w) in the mid-exposure frame, the frame a single-frame
        differential estimate refers to (the same convention as the
        package's discrete generator)."""
        b_mid = _beta(0.5 * self.gamma, self.k)
        return _rotate(self.v[:, None], self.w, -b_mid)[:, 0], self.w


def _beta(t, k):
    return (2.0 * t + k * t * t) / (2.0 + k)


def _rotate(q, w, scale):
    """Rotate the columns of q (3, N) by exp(scale * w), scale per column."""
    theta = np.linalg.norm(w)
    axis = w / theta
    angle = scale * theta
    c, s = np.cos(angle), np.sin(angle)
    kxq = np.stack([
        axis[1] * q[2] - axis[2] * q[1],
        axis[2] * q[0] - axis[0] * q[2],
        axis[0] * q[1] - axis[1] * q[0],
    ])
    kdq = axis @ q
    return q * c + kxq * s + axis[:, None] * (kdq * (1.0 - c))


def _checker(xn, yn):
    return np.where((np.floor(24.0 * xn) + np.floor(24.0 * yn)) % 2 > 0, 255, 0).astype(np.uint8)


GAMMA = 0.8
NOISE_PX = 0.1  # Gaussian flow noise
NAN_FRAC = 0.01  # pixels whose flow is lost
CORRUPT_FRAC = 0.02  # pixels whose flow is replaced by a random one


def render(seed: int, size: int) -> DenseScene:
    """Render one size x size scene; the same seed gives the same scene."""
    rng = np.random.default_rng(seed)
    focal = 0.9 * size
    c0 = size / 2.0
    g = GAMMA / size
    z0 = 6.0
    # the motion of the package's benchmark scenes; the seed varies the
    # surface, the noise and which pixels are lost or corrupted
    v = np.array([1.0, 1.0, 0.3])
    v *= 0.025 * z0 / np.linalg.norm(v)
    w = np.ones(3) * np.deg2rad(3.0) / np.sqrt(3.0)
    # constant-velocity motion: the CLI's default model is the matching one
    k = 0.0
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)

    def surface(xg, yg):
        # depth along the t = 0 camera's rays; smooth and far from planar
        return (z0 + 0.8 * np.sin(7.0 * xg + phase[0]) + 0.6 * np.cos(5.0 * yg + phase[1])
                + 0.4 * np.sin(9.0 * (xg + yg) + phase[2]))

    py, px = np.mgrid[0:size, 0:size].astype(float)
    x = ((px - c0) / focal).ravel()
    y = ((py - c0) / focal).ravel()
    rows = py.ravel()

    # frame one: intersect each pixel's scanline ray with the surface
    b1 = _beta(g * rows, k)
    d = _rotate(np.stack([x, y, np.ones_like(x)]), w, b1)
    origin = b1 * v[:, None]
    dist = np.full(x.shape, z0)
    for _ in range(60):
        p = origin + dist * d
        new = (surface(p[0] / p[2], p[1] / p[2]) - origin[2]) / d[2]
        step = np.max(np.abs(new - dist))
        dist = new
        if step < 1e-9:
            break
    else:
        raise RuntimeError(f"surface intersection did not converge (last step {step:.1e})")
    point = origin + dist * d
    depth = dist.reshape(size, size)  # camera-frame z of x~ * dist
    rs_image = _checker(point[0] / point[2], point[1] / point[2]).reshape(size, size)
    gs_image = _checker(x, y).reshape(size, size)

    # frame two: the row that sees the point must be the row its pose belongs to
    y2 = rows.copy()
    for _ in range(60):
        b2 = _beta(1.0 + g * y2, k)
        xc = _rotate(point - b2 * v[:, None], w, -b2)
        new = xc[1] / xc[2] * focal + c0
        step = np.max(np.abs(new - y2))
        y2 = new
        if step < 1e-7:
            break
    else:
        raise RuntimeError(f"frame-two row did not converge (last step {step:.1e})")
    flow = np.stack([(xc[0] / xc[2] - x) * focal, y2 - rows], axis=1)
    flow += rng.normal(0.0, NOISE_PX, flow.shape)
    n = flow.shape[0]
    bad = rng.choice(n, int(round((NAN_FRAC + CORRUPT_FRAC) * n)), replace=False)
    n_nan = int(round(NAN_FRAC * n))
    flow[bad[:n_nan]] = np.nan
    flow[bad[n_nan:]] = rng.uniform(-30.0, 30.0, (len(bad) - n_nan, 2))
    return DenseScene(
        gamma=GAMMA, size=size, focal=focal, v=v, w=w, k=k,
        flow=flow.reshape(size, size, 2).astype(np.float32),
        depth=depth, rs_image=rs_image, gs_image=gs_image,
    )
