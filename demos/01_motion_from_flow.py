"""Minimal-solver walkthrough on synthetic rolling-shutter flow.

Generates a random scene at benchmark scale (900x900 image, readout ratio
0.8), then runs the three minimal solvers on noise-free samples:

  gs  8-point global-shutter solver (ignores scanline timing)
  cv  8-point constant-velocity solver (per-scanline alpha rectification)
  ca  9-point constant-acceleration solver (hidden-variable resultant in k)

With an accelerating camera (k = 0.15) only the ca solver is exact; cv
absorbs part of the timing mismatch and gs pays for both.
"""

import numpy as np

from rsdiffsfm import (
    SceneSpec,
    benchmark_config,
    generate_linearized,
    rotation_error,
    solve_const_accel,
    solve_const_velocity,
    solve_gs,
    translation_error,
)

camera = benchmark_config(gamma=0.8)
spec = SceneSpec(config=camera, n_points=9, k=0.15, seed=4)
samples, gt = generate_linearized(spec)
print(f"scene: {len(samples)} samples, gamma={camera.gamma}, k={gt.motion.k}")
print(f"truth: v dir {gt.motion.v / np.linalg.norm(gt.motion.v)}, w {gt.motion.w}")

est_gs = solve_gs(samples[:8])
est_cv = solve_const_velocity(samples[:8], camera)
cands = solve_const_accel(samples, camera)
est_ca = min(cands, key=lambda c: abs(c.k - gt.motion.k))

print(f"\n{'model':<6} {'v err (deg)':>12} {'w err (deg)':>12} {'k':>8}")
for name, est in [("gs", est_gs), ("cv", est_cv), ("ca", est_ca)]:
    print(f"{name:<6} {translation_error(est.v, gt.motion.v):>12.6f} "
          f"{rotation_error(est.w, gt.motion.w):>12.6f} {est.k:>8.4f}")
print(f"\nca candidate roots: {[round(c.k, 4) for c in cands]}")
