"""Exception hierarchy and the size bound shared across the package."""

import numpy as np

# The largest size (sample count or grid length) any validator accepts: an
# array of that many doubles still has a byte count numpy can index.
MAX_SIZE = np.iinfo(np.intp).max // 8


class MaxminError(Exception):
    """Base class for all package errors."""


class DomainError(MaxminError, ValueError):
    """An input lies outside the mathematically valid domain."""


class ConvergenceError(MaxminError, RuntimeError):
    """An iterative routine exhausted its budget without meeting tolerance."""


class DegenerateError(MaxminError, RuntimeError):
    """The quadratic structure of the pointwise problem is invalid (concave)."""


class MeanMismatchError(MaxminError, ValueError):
    """A supplied distribution does not have the required mean."""
