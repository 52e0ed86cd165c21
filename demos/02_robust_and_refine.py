"""Robust estimation and refinement on contaminated flow.

30% of the samples are replaced with gross outliers, then:
  1. RANSAC over the constant-velocity minimal solver finds the consensus
  2. a trimmed nonlinear refit polishes the motion on the best inliers
The refit's start and final objectives and why it stopped are printed at
the end.
"""

import numpy as np

from rsdiffsfm import (
    RansacConfig,
    SceneSpec,
    benchmark_config,
    generate_linearized,
    ransac,
    refit_trimmed,
    translation_error,
)
from rsdiffsfm.geometry import FlowSample
from rsdiffsfm.synth import CONST_VELOCITY

camera = benchmark_config(gamma=0.8)
spec = SceneSpec(config=camera, n_points=100, seed=12)
samples, gt = generate_linearized(spec)

rng = np.random.default_rng(0)
n_out = int(0.3 * len(samples))
mixed = [
    FlowSample(x=s.x, u=rng.uniform(-0.06, 0.06, 2), y1=s.y1, y2=s.y2)
    for s in samples[:n_out]
] + list(samples[n_out:])
print(f"{len(mixed)} samples, {n_out} gross outliers")

result = ransac(mixed, CONST_VELOCITY, camera,
                RansacConfig(iterations=300, threshold=0.001, seed=1))
print(f"RANSAC: {len(result.inliers)} inliers "
      f"({result.n_valid_iterations}/{result.n_iterations} valid iterations)")
print(f"  v err {translation_error(result.motion.v, gt.motion.v):.2e} deg")

state = refit_trimmed(mixed, result, CONST_VELOCITY, camera)
print(f"after trimmed refit: v err "
      f"{translation_error(state.motion.v, gt.motion.v):.2e} deg, "
      f"objective {state.start_objective:.2e} -> {state.objective:.2e}")
print(f"Levenberg-Marquardt stopped on {state.stop_reason} after "
      f"{state.n_cycles} cost evaluations and {state.lm_iterations} accepted steps; "
      f"result {'accepted' if state.polished else 'rejected'}")
