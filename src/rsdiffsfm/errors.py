"""Exception types raised by the solvers and pipelines."""


class RsSfmError(Exception):
    """Base class for all library errors."""


class DegenerateConfiguration(RsSfmError):
    """Sample set is rank-deficient; the linear solve is underdetermined."""


class InvalidScanlinePair(RsSfmError):
    """Scanline rows produce a non-positive pose scaling factor."""


class NoRealSolution(RsSfmError):
    """The determinant polynomial has no admissible real root."""


class RobustFailure(RsSfmError):
    """No RANSAC iteration produced a valid model."""


class EmptySelection(RsSfmError):
    """Flow filtering left no usable samples."""
