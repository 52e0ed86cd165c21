import time

import numpy as np
import pytest

from rsdiffsfm import CameraConfig, SceneSpec
from rsdiffsfm.geometry import FlowSample


@pytest.fixture
def camera():
    """Benchmark-scale 900x900 camera, gamma 0.8."""
    return CameraConfig(gamma=0.8, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)


def make_spec(camera, **kw):
    defaults = dict(config=camera, n_points=60, norm_translation=0.025,
                    w_mag_deg=3.0, k=0.0, seed=0)
    defaults.update(kw)
    return SceneSpec(**defaults)


def gross_outlier(sample, rng, min_dist=0.005):
    """Replacement flow at least min_dist away from the true flow."""
    while True:
        u = rng.uniform(-0.06, 0.06, 2)
        if np.linalg.norm(u - sample.u) > min_dist:
            return FlowSample(x=sample.x, u=u, y1=sample.y1, y2=sample.y2)


def cpu_per_wall(run, repeats):
    """process_time over wall time of repeated run() calls, measured after
    a pause in which BLAS worker threads woken before it go idle."""
    time.sleep(0.3)
    cpu, wall = time.process_time(), time.perf_counter()
    for _ in range(repeats):
        run()
    return (time.process_time() - cpu) / (time.perf_counter() - wall)
