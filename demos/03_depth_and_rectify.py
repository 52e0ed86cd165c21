"""Dense depth recovery and rolling-shutter image rectification.

Renders a striped fronto-parallel plane through a rolling-shutter camera
(each scanline has its own pose), recovers per-pixel depth from the exact
flow field, and undoes the distortion by splatting each pixel to where the
first scanline's camera would have seen it.  Writes before/after PGM
images next to this script.
"""

from pathlib import Path

import numpy as np

from rsdiffsfm import (
    CameraConfig,
    MotionEstimate,
    exp_so3,
    rectify_image,
    warp_field,
    write_pnm,
)
from rsdiffsfm.geometry import beta_timestamp

H = W = 300
camera = CameraConfig(gamma=0.8, h=H, fx=270.0, fy=270.0, cx=W / 2, cy=H / 2, width=W)
Z0 = 6.0
v = np.array([1.0, 1.0, 0.3])
v *= 0.025 * Z0 / np.linalg.norm(v)
w = np.deg2rad(3.0) / np.sqrt(3) * np.ones(3)
motion = MotionEstimate(v=v, w=w, k=0.1)

# render the plane scanline by scanline through each scanline's own pose
py, px = np.mgrid[0:H, 0:W].astype(float)
x, y = camera.pixel_to_normalized(px, py)
betas = beta_timestamp(camera.timestamp(np.arange(H)), motion.k)
depth = np.empty((H, W))
gsx = np.empty((H, W))
for r in range(H):
    ray = exp_so3(betas[r] * motion.w) @ np.stack([x[r], y[r], np.ones(W)])
    t = (Z0 - betas[r] * motion.v[2]) / ray[2]
    depth[r] = t
    gsx[r] = (ray[0] * t + betas[r] * motion.v[0]) / (ray[2] * t + betas[r] * motion.v[2])

stripes = lambda xn: 255.0 * (0.5 + 0.5 * np.sign(np.cos(60.0 * xn)))
rs_img = stripes(gsx)        # what the rolling shutter records
gs_img = stripes(x)          # what a global shutter would have recorded

wf = warp_field(depth, motion, camera)
rect, gap = rectify_image(rs_img, wf)

out = Path(__file__).parent
write_pnm(out / "rolling_shutter.pgm", rs_img)
write_pnm(out / "rectified.pgm", rect)
write_pnm(out / "global_shutter_reference.pgm", gs_img)
m = slice(10, -10)
print(f"gap fraction: {gap:.4f}")
print(f"mean |image - reference| before: {np.abs(rs_img - gs_img)[m, m].mean():.2f}")
print(f"mean |image - reference| after:  {np.abs(rect - gs_img)[m, m].mean():.2f}")
print(f"wrote rolling_shutter.pgm / rectified.pgm / global_shutter_reference.pgm to {out}")
