"""Second-moment variant and mean-preserving-spread admissibility checks.

When only the second moment delta of the signal distribution is known, the
uniform reserve makes every admissible signal distribution yield the same
truthful revenue: the interim revenue at a signal pair is (s1^2 + s2^2)/2, so
expected revenue equals delta exactly.  The matching worst-case signal CDF is
the unit-elastic one with a = 1 - sqrt(1 - delta), whose second moment is
2a - a^2 = delta.

With more than two prior valuation levels, the solved pair remains a saddle
point as long as the prior is a mean-preserving spread of the worst-case
signal CDF, i.e. the integrated prior CDF dominates the integrated signal CDF
everywhere with equality at 1.  ``mps_check`` tests that inequality on a grid
using exact integrated CDFs on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SolvedConstants, constants_from_a
from .distributions import PiecewiseCdf
from .errors import DomainError, MeanMismatchError

__all__ = [
    "SecondMomentParams",
    "SecondMomentSolution",
    "MpsReport",
    "second_moment_solution",
    "mps_check",
]

# Interior maxima of the integrated-CDF gap can fall between grid nodes;
# with the default grid the interpolation slack is far below this.
_MPS_PASS_TOL = 1e-6
# Allowed gap between the prior's mean and mu.
_MPS_MEAN_TOL = 1e-6


@dataclass(frozen=True)
class SecondMomentParams:
    """The known second moment of the signal distribution."""

    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"second moment must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class SecondMomentSolution:
    """Saddle point under a known second moment: uniform reserve, unit-elastic signals."""

    reserve: PiecewiseCdf
    signal: PiecewiseCdf
    guarantee: float
    a: float


@dataclass(frozen=True)
class MpsReport:
    """Outcome of the integrated-CDF dominance check."""

    passed: bool
    max_violation: float
    worst_x: float
    gap_at_one: float
    grid_size: int


def second_moment_solution(p: SecondMomentParams) -> SecondMomentSolution:
    """Saddle point when only the second moment is known.

    The reserve is uniform on [0, 1]; the signal CDF is unit-elastic with
    a = 1 - sqrt(1 - delta); the revenue guarantee is delta itself.
    """
    a = 1.0 - math.sqrt(1.0 - p.delta)
    c = constants_from_a(a * (1.0 - math.log(a)), a)
    return SecondMomentSolution(
        reserve=PiecewiseCdf.uniform(),
        signal=PiecewiseCdf.signal(c),
        guarantee=p.delta,
        a=a,
    )


def mps_check(prior: PiecewiseCdf, c: SolvedConstants, grid: int = 4001) -> MpsReport:
    """Check that ``prior`` is a mean-preserving spread of the worst-case signals.

    Compares the exact integrated CDFs on a grid that includes the prior's
    own knots and the signal kink; passes when the integrated prior CDF is
    never below the integrated signal CDF by more than a small interpolation
    allowance.  Equal means force equality at x = 1, which is reported as
    ``gap_at_one``.
    """
    if grid < 1:
        raise DomainError(f"grid must have at least 1 point, got {grid}")
    prior_mean = prior.mean()
    if abs(prior_mean - c.mu) > _MPS_MEAN_TOL:
        raise MeanMismatchError(
            f"prior mean {prior_mean} does not match mu = {c.mu}"
        )
    signal = PiecewiseCdf.signal(c)
    xs = np.unique(
        np.concatenate(
            (
                np.linspace(0.0, 1.0, grid),
                np.asarray(prior.breakpoints, dtype=float),
                np.array([c.a]),
            )
        )
    )
    gap = np.asarray(signal.integral_to(xs)) - np.asarray(prior.integral_to(xs))
    worst = int(np.argmax(gap))
    gap_at_one = float(
        signal.integral_to(1.0) - prior.integral_to(1.0)
    )
    return MpsReport(
        passed=bool(gap[worst] <= _MPS_PASS_TOL),
        max_violation=float(max(gap[worst], 0.0)),
        worst_x=float(xs[worst]),
        gap_at_one=gap_at_one,
        grid_size=int(xs.size),
    )
