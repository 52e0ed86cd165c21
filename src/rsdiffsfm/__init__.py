"""Differential structure from motion for rolling-shutter cameras.

Estimates instantaneous camera motion (translation direction, angular
velocity and, optionally, an acceleration factor) from optical flow, with
the scanline timing of a rolling shutter folded into the measurement
model.  Includes robust estimation, nonlinear refinement, dense depth
recovery, image rectification and a synthetic data generator.
"""

from .errors import (
    DegenerateConfiguration,
    EmptySelection,
    InvalidScanlinePair,
    NoRealSolution,
    RobustFailure,
    RsSfmError,
)
from .geometry import (
    CameraConfig,
    FlowBatch,
    FlowSample,
    MotionEstimate,
    exp_so3,
    matrices_ab,
    skew,
)
from .gs_solver import solve_gs
from .rs_solvers import (
    DetPolynomial,
    det_polynomial,
    solve_const_accel,
    solve_const_velocity,
)
from .robust import (
    RansacConfig,
    RansacResult,
    forward_backward_error,
    ransac,
    ransac_stack,
    refit_trimmed,
)
from .refine import RefineState, dense_depth, refine, refine_stack
from .rectify import WarpField, rectify_image, warp_field
from .synth import (
    CONST_ACCEL,
    CONST_VELOCITY,
    GLOBAL_SHUTTER,
    GroundTruth,
    SceneSpec,
    generate_discrete,
    generate_linearized,
    benchmark_config,
    rotation_error,
    translation_error,
)
from .io_formats import (
    ExperimentConfig,
    FlowFile,
    read_flo,
    read_flow,
    read_motion,
    read_pfm,
    read_pnm,
    write_flow,
    write_motion,
    write_pfm,
    write_pnm,
)
from .experiment import run_cell, run_sweep, sweep_csv

__version__ = "0.1.0"

__all__ = [
    "CameraConfig",
    "CONST_ACCEL",
    "CONST_VELOCITY",
    "DegenerateConfiguration",
    "DetPolynomial",
    "EmptySelection",
    "ExperimentConfig",
    "FlowBatch",
    "FlowFile",
    "FlowSample",
    "GLOBAL_SHUTTER",
    "GroundTruth",
    "InvalidScanlinePair",
    "MotionEstimate",
    "NoRealSolution",
    "RansacConfig",
    "RansacResult",
    "RefineState",
    "RobustFailure",
    "RsSfmError",
    "SceneSpec",
    "WarpField",
    "dense_depth",
    "det_polynomial",
    "exp_so3",
    "forward_backward_error",
    "generate_discrete",
    "generate_linearized",
    "matrices_ab",
    "benchmark_config",
    "ransac",
    "ransac_stack",
    "read_flo",
    "read_flow",
    "read_motion",
    "read_pfm",
    "read_pnm",
    "rectify_image",
    "refine",
    "refine_stack",
    "refit_trimmed",
    "rotation_error",
    "run_cell",
    "run_sweep",
    "skew",
    "solve_const_accel",
    "solve_const_velocity",
    "solve_gs",
    "sweep_csv",
    "translation_error",
    "warp_field",
    "write_flow",
    "write_motion",
    "write_pfm",
    "write_pnm",
]
