import ast
import importlib
from pathlib import Path

import pytest

import rsdiffsfm

# names the package no longer defines, by module: single-subset solver and
# depth shims (their batched kernels remain), the second residual path of
# the refinement, the test-side reference formulas now in tests/oracles.py,
# the per-model stack solvers and scanline checks that `solve_stack` and
# `scanline_ab` replace, and the separate k-free and root solvers that the
# single path of `solve_stack` replaces (`Hypotheses` and `RANK_TOL` moved
# to rs_solvers), the Chebyshev fit and companion roots that the shifted
# pencil replaces, `filter_flows`, which was `samples_from_pixels` of
# `ranked_pixels`, and `beta_first_scanline`, which `CameraConfig.timestamp`
# replaces
REMOVED = {
    "": ["EpipolarVector", "epipolar_residual", "log_so3", "project_flow", "recover_motion",
         "solve_linear", "symmetric_s", "filter_flows"],
    "cli": ["MODELS"],
    "geometry": ["EpipolarVector", "_S_INDEX", "epipolar_residual", "log_so3", "project_flow",
                 "s_to_vech", "symmetric_s", "vech_to_s", "stacked_scanline_ab", "_unchecked_ab"],
    "gs_solver": ["closed_form_inv_depth", "recover_motion", "solve_linear", "solvable",
                  "epipolar_stack", "solve_gs_stack", "Hypotheses", "RANK_TOL"],
    "robust": ["residual", "filter_flows"],
    "rs_solvers": ["solve_const_velocity_stack", "solve_const_accel_stack",
                   "DEFAULT_ROOT_WINDOW", "DEFLATION_TOL", "AccelCandidate", "_accel_roots",
                   "_divide_linear", "_NODES", "_NODES_TO_COEFFS", "_det_coefficients",
                   "_real_roots"],
    "rectify": ["beta_first_scanline"],
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


def test_hypotheses_have_no_merge_or_singular_values():
    from rsdiffsfm.rs_solvers import Hypotheses

    assert not hasattr(Hypotheses, "merge")
    assert "sigma" not in Hypotheses.__dataclass_fields__


def test_det_polynomial_holds_only_its_coefficients():
    from rsdiffsfm.rs_solvers import DetPolynomial

    assert list(DetPolynomial.__dataclass_fields__) == ["coeffs"]
    assert not hasattr(DetPolynomial, "real_roots")


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a module imports is used in it, unless `__init__` re-exports
    the name from that module (as it does synth's model names)."""
    src = Path(rsdiffsfm.__file__).parent
    reexported = {(node.module, alias.asname or alias.name)
                  for node in ast.walk(ast.parse((src / "__init__.py").read_text()))
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in reexported:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


def test_every_private_function_and_class_is_used():
    """Each private top-level function or class of the package is referenced
    somewhere in it, so a deletion leaves no orphaned helper behind."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(rsdiffsfm.__file__).parent.glob("*.py"))]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    private = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private and not [name for name in private if name not in referenced]


def test_samples_are_stacked_only_where_they_enter():
    """`FlowBatch.of` is called only by the functions that take samples from
    outside the library; the kernels behind them take batches."""
    callers = set()
    for path in sorted(Path(rsdiffsfm.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "of"
                    and isinstance(node.value, ast.Name) and node.value.id == "FlowBatch"
                    for node in ast.walk(func)):
                callers.add(f"{path.stem}.{func.name}")
    assert callers == {"robust.ransac_stack", "robust.score_motion", "robust._trimmed",
                       "refine.refine_stack", "rs_solvers._solve_one",
                       "rs_solvers.det_polynomial"}
