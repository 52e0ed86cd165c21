import importlib

import pytest

import rsdiffsfm

# names the package no longer defines, by module: single-subset solver and
# depth shims (their batched kernels remain), the second residual path of
# the refinement, and the test-side reference formulas now in tests/oracles.py
REMOVED = {
    "": ["EpipolarVector", "epipolar_residual", "log_so3", "project_flow", "recover_motion",
         "solve_linear", "symmetric_s"],
    "geometry": ["EpipolarVector", "_S_INDEX", "epipolar_residual", "log_so3", "project_flow",
                 "s_to_vech", "symmetric_s", "vech_to_s"],
    "gs_solver": ["closed_form_inv_depth", "recover_motion", "solve_linear"],
    "robust": ["residual"],
    "refine": ["_flow_errors", "objective", "reduced_jacobian", "reduced_residuals",
               "update_depths"],
}


def test_all_names_resolve_and_star_import_works():
    assert len(set(rsdiffsfm.__all__)) == len(rsdiffsfm.__all__)
    for name in rsdiffsfm.__all__:
        assert getattr(rsdiffsfm, name) is not None, name
    namespace = {}
    exec("from rsdiffsfm import *", namespace)
    assert set(rsdiffsfm.__all__) <= set(namespace)


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(f"rsdiffsfm.{module}" if module else "rsdiffsfm")
    for name in REMOVED[module]:
        assert not hasattr(mod, name), f"rsdiffsfm{'.' + module if module else ''}.{name}"
        assert name not in getattr(mod, "__all__", ())

