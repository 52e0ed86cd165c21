import numpy as np
import pytest

from rsdiffsfm import experiment
from rsdiffsfm.errors import RobustFailure
from rsdiffsfm.io_formats import ExperimentConfig


def small_config():
    return ExperimentConfig(models=["cv"], trials=2, n_points=30, ransac_iters=5,
                            image_size=200, focal=180.0)


def test_run_cell_drops_library_failures(monkeypatch):
    def no_model(*args, **kwargs):
        raise RobustFailure("no RANSAC iteration produced a valid model")

    monkeypatch.setattr(experiment, "estimate_motion", no_model)
    t_err, r_err, n = experiment.run_cell(small_config(), 0.8, 0.025, 3.0, 0.0, "cv")
    assert n == 0 and np.isnan(t_err) and np.isnan(r_err)


def test_run_cell_propagates_program_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a library failure")

    monkeypatch.setattr(experiment, "estimate_motion", broken)
    with pytest.raises(TypeError):
        experiment.run_cell(small_config(), 0.8, 0.025, 3.0, 0.0, "cv")
