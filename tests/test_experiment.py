import dataclasses
import logging
import re
from collections import Counter

import numpy as np
import pytest

from rsdiffsfm import experiment
from rsdiffsfm.errors import RobustFailure
from rsdiffsfm.io_formats import ExperimentConfig
from rsdiffsfm.robust import RansacConfig, ransac


def small_config():
    return ExperimentConfig(models=["cv"], trials=2, n_points=30, ransac_iters=5,
                            image_size=200, focal=180.0)


AXES = (0.8, 0.025, 3.0, 0.0)


def run_cell(cfg):
    """The cv row of the cell at AXES."""
    return experiment.run_cell(cfg, *AXES, "cv")


def test_run_cell_drops_library_failures(monkeypatch, caplog):
    def no_model(problems):
        return [RobustFailure("no RANSAC iteration produced a valid model") for _ in problems]

    monkeypatch.setattr(experiment, "ransac_stack", no_model)
    with caplog.at_level(logging.INFO, logger=experiment.logger.name):
        t_err, r_err, n = run_cell(small_config())
    assert n == 0 and np.isnan(t_err) and np.isnan(r_err)
    [record] = [r for r in caplog.records if r.name == experiment.logger.name]
    assert "0 of 2 trials kept" in record.getMessage()
    assert "{'RobustFailure': 2}" in record.getMessage()


def test_run_cell_counts_scenes_with_too_few_samples(caplog):
    """Only RANSAC drops a trial for too few samples: an 8-sample scene is
    solved under cv, whose minimal subset has 8 samples, and dropped as
    RobustFailure under ca, whose subset has 9."""
    cfg = dataclasses.replace(small_config(), n_points=8)
    assert all(len(samples) == 8 for _, samples, _ in experiment._cell_scenes(cfg, *AXES))
    with caplog.at_level(logging.INFO, logger=experiment.logger.name):
        cv = run_cell(cfg)
        t_err, _, n = experiment.run_cell(cfg, *AXES, "ca")
    assert cv[2] == cfg.trials and np.isfinite(cv[0])
    assert n == 0 and np.isnan(t_err)
    cv_log, ca_log = [r.getMessage() for r in caplog.records if r.name == experiment.logger.name]
    assert "2 of 2 trials kept, dropped {};" in cv_log
    assert "0 of 2 trials kept, dropped {'RobustFailure': 2};" in ca_log


def test_run_cell_logs_why_its_refits_stopped(caplog):
    cfg = dataclasses.replace(small_config(), use_refine=True, ransac_iters=50)
    with caplog.at_level(logging.INFO, logger=experiment.logger.name):
        _, _, n = run_cell(cfg)
    [record] = [r for r in caplog.records if r.name == experiment.logger.name]
    assert n == 2 and "2 of 2 trials kept" in record.getMessage()
    assert "refits {'converged': 2} in " in record.getMessage()
    # each refit's start is one cost evaluation and no step
    cycles, steps = map(int, re.search(r"in (\d+) cycles, (\d+) accepted steps",
                                       record.getMessage()).groups())
    assert 0 < steps <= cycles - 2


def test_run_cell_logs_its_hypotheses_and_subset_failures(caplog):
    """The cell's log line sums what each kept trial's RANSAC reports: the
    hypotheses solved and the subsets that gave none, by error type."""
    cfg = dataclasses.replace(small_config(), models=["ca"], ransac_iters=200)
    scenes = experiment._cell_scenes(cfg, *AXES)
    alone = [ransac(samples, "ca", cfg.camera(AXES[0]),
                    RansacConfig(iterations=cfg.ransac_iters, threshold=cfg.threshold,
                                 seed=seed + 1)) for seed, samples, _ in scenes]
    failures = sum((Counter(r.failures) for r in alone), Counter())
    assert failures  # the ca solver finds no admissible root on some subsets
    with caplog.at_level(logging.INFO, logger=experiment.logger.name):
        _, _, n = experiment.run_cell(cfg, *AXES, "ca")
    [record] = [r for r in caplog.records if r.name == experiment.logger.name]
    assert n == len(alone)
    assert (f"{sum(r.n_hypotheses for r in alone)} hypotheses, subset failures "
            f"{dict(failures)}") in record.getMessage()


def test_run_cell_propagates_program_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a library failure")

    monkeypatch.setattr(experiment, "ransac_stack", broken)
    with pytest.raises(TypeError):
        run_cell(small_config())


def test_run_cell_is_its_row_of_a_sweep():
    """`run_cell` is a sweep of one cell: it gives, bit for bit, the row of
    that cell and model in a sweep of several cells and models."""
    cfg = dataclasses.replace(small_config(), gammas=[0.4, 0.8], ks=[0.0, 0.1],
                              models=["gs", "cv", "ca"], use_refine=True, ransac_iters=30)
    rows = experiment.run_sweep(cfg)
    assert len(rows) == 12 and all(n == cfg.trials for *_, n in rows)
    for gamma, trans, w_mag, k, model, *row in rows:
        assert experiment.run_cell(cfg, gamma, trans, w_mag, k, model) == tuple(row)


def test_sweep_synthesizes_each_trial_once(monkeypatch):
    cfg = dataclasses.replace(small_config(), gammas=[0.4, 0.8], models=["gs", "cv"])
    single = [experiment.run_sweep(dataclasses.replace(cfg, models=[m])) for m in cfg.models]
    generate = experiment.generate_scenes
    specs = []

    def counting(cell_specs, *args, **kwargs):
        specs.extend(cell_specs)
        return generate(cell_specs, *args, **kwargs)

    monkeypatch.setattr(experiment, "generate_scenes", counting)
    rows = experiment.run_sweep(cfg)
    assert len(specs) == len(cfg.gammas) * cfg.trials
    assert len({s.seed for s in specs}) == len(specs)
    # each cell's rows are those of the single-model sweeps, bit for bit
    expected = [row for pair in zip(*single) for row in pair]
    assert [r[:5] for r in rows] == [r[:5] for r in expected]
    assert experiment.sweep_csv(rows) == experiment.sweep_csv(expected)
    assert all(r[7] == cfg.trials for r in rows)


def test_sweep_refits_each_parameter_count_in_one_stack(monkeypatch):
    """A sweep refits the kept trials of every model, gs, cv and ca, in one
    `refit_trimmed` call, and its rows are those of the single-model
    sweeps."""
    cfg = dataclasses.replace(small_config(), gammas=[0.4, 0.8], models=["gs", "cv", "ca"],
                              use_refine=True, ransac_iters=30)
    single = [experiment.run_sweep(dataclasses.replace(cfg, models=[m])) for m in cfg.models]
    refit, calls = experiment.refit_trimmed, []

    def recording(samples, results, models, cameras):
        calls.append(sorted(set(models)))
        return refit(samples, results, models, cameras)

    monkeypatch.setattr(experiment, "refit_trimmed", recording)
    rows = experiment.run_sweep(cfg)
    assert calls == [["ca", "cv", "gs"]]
    expected = [row for triple in zip(*single) for row in triple]
    assert experiment.sweep_csv(rows) == experiment.sweep_csv(expected)
