"""Second-moment variant and mean-preserving-spread admissibility checks.

When only the second moment delta of the signal distribution is known, the
uniform reserve makes every admissible signal distribution yield the same
truthful revenue: the interim revenue at a signal pair is (s1^2 + s2^2)/2, so
expected revenue equals delta exactly.  The matching worst-case signal CDF is
the unit-elastic one with a = 1 - sqrt(1 - delta), whose second moment is
2a - a^2 = delta.

With more than two prior valuation levels, the solved pair remains a saddle
point as long as the prior F is a mean-preserving spread of the worst-case
signal CDF G (Rothschild & Stiglitz 1970): equal means, and
D(x) = integral over [0, x] of (G - F) <= 0 for every x.  D peaks only where
``mps_check`` evaluates it:

* below ``a``, D' = -F <= 0, and at a knot of the prior an atom makes D'
  drop, so the knots and ``a`` are candidates;
* on a linear piece F = v + s(x - x0) inside [a, 1], D' = 1 - a/x - F is
  concave, negative near 0, and vanishes only at the roots of
  s x^2 - b x + a = 0 with b = 1 - v + s x0.  D peaks at the larger root
  q/s, q = (b + sqrt(b^2 - 4 s a))/2, if it lies inside the piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SolvedConstants, constants_from_a
from .distributions import PiecewiseCdf
from .errors import DomainError, MeanMismatchError
from .quadrature import exact_sum, sorted_unique

__all__ = ["MpsReport", "second_moment_solution", "mps_check"]

# Allowances relative to x and to mu, on top of the prior's stored drift.
_MPS_RTOL = 1e-12
_MPS_MEAN_RTOL = 1e-9
# Largest rise between atoms of a grid CDF that counts as stored drift.
_MPS_DRIFT_MAX = 2.0**-52


@dataclass(frozen=True)
class MpsReport:
    """Outcome of the integrated-CDF dominance check."""

    passed: bool
    max_violation: float
    worst_x: float
    gap_at_one: float
    grid_size: int


def second_moment_solution(delta: float) -> SolvedConstants:
    """Saddle point when only the second moment ``delta`` is known.

    The reserve is uniform on [0, 1], the guarantee is ``delta`` itself, and
    the worst-case signal CDF is ``PiecewiseCdf.signal`` of the returned
    constants.  ``a`` is taken as delta / (1 + sqrt(1 - delta)), which is free
    of cancellation, and floored at the least positive double, the one value
    the quotient rounds to 0 (delta = 5e-324).
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"second moment must lie in (0, 1), got {delta}")
    a = max(delta / (1.0 + math.sqrt(1.0 - delta)), 5e-324)
    return constants_from_a(a * (1.0 - math.log(a)), a)


def _stored_drift(prior: PiecewiseCdf) -> float:
    """Sum of the rounding-sized rises v_k - m_k - v_{k-1} of a grid CDF.

    A step CDF stored as running sums of its atom masses m_k keeps values
    v_k that drift from the exact sums by up to half an ulp per knot.  The
    drift shows as rises of at most 2^-52 between atoms, where a step CDF
    has none, and the stored law's mean and integrated CDF differ from the
    step law's by at most the sum of the drifts.  Each rise is taken in the
    order that is exact for a running sum: v_k - v_{k-1} first where
    m_k <= v_{k-1} (Fast2Sum), v_k - m_k first otherwise (Sterbenz).  Rises
    above 2^-52 are linear pieces of the law, not drift.
    """
    v, m = prior.values, prior.masses
    prev = v[:-1]
    rise = np.where(m[1:] <= prev, (v[1:] - prev) - m[1:], (v[1:] - m[1:]) - prev)
    drift = np.abs(rise)
    return exact_sum(drift[drift <= _MPS_DRIFT_MAX])


def mps_check(prior: PiecewiseCdf, c: SolvedConstants) -> MpsReport:
    """Check that the grid CDF ``prior`` is a mean-preserving spread of the
    worst-case signals, at the candidates of the module docstring
    (``grid_size`` counts them).

    The prior's integral to x is a running sum over its knots of rounded
    CDF values, exact to 2.6e-13 x at 1e5 knots (measured).  The drift of
    its stored values (``_stored_drift``) moves both the integral and the
    mean of a prior written as running sums.  The check passes when
    D <= (1e-12 + drift) x at every candidate.  The prior's mean must match
    mu to 1e-9 mu + drift, or MeanMismatchError is raised.
    """
    if prior.kind != "grid":
        raise DomainError(f"the prior must be a grid CDF, got a {prior.kind} CDF")
    drift = _stored_drift(prior)
    prior_mean = prior.mean()
    if abs(prior_mean - c.mu) > _MPS_MEAN_RTOL * c.mu + drift:
        raise MeanMismatchError(f"prior mean {prior_mean} does not match mu = {c.mu}")
    x0, x1 = prior.knots[:-1], prior.knots[1:]
    _, v, s = prior._grid_segments()
    b = 1.0 - v + s * x0
    disc = b * b - 4.0 * s * c.a
    q = 0.5 * (b + np.sqrt(np.maximum(disc, 0.0)))
    # peaks q/s inside (max(x0, a), x1), compared without dividing by s
    inside = (disc >= 0.0) & (q > np.maximum(x0, c.a) * s) & (q < x1 * s)
    xs = sorted_unique(np.concatenate((prior.knots, [c.a], q[inside] / s[inside])))
    gap = PiecewiseCdf.signal(c).integral_to(xs) - prior.integral_to(xs)
    worst = int(np.argmax(gap))
    return MpsReport(
        passed=bool(np.all(gap <= (_MPS_RTOL + drift) * xs)),
        max_violation=float(max(gap[worst], 0.0)),
        worst_x=float(xs[worst]),
        gap_at_one=float(gap[-1]),  # D(1) = 0 when the means are equal
        grid_size=int(xs.size),
    )
