"""Reserve-parameter solver and the closed-form distribution pair.

Everything downstream is driven by a single constant ``a``, the root in
(0, 1) of

    a * (1 - ln a) = mu,

where ``mu`` is the known mean of the bidders' signal distribution.  From it:

* the reserve-price CDF   H(x) = -x(1-a)(ln x - ln a) / ((x-a) ln a),
  continuous and strictly increasing on [0, 1], H(0) = 0, H(1) = 1, with the
  removable value H(a) = -(1-a)/ln a;
* the worst-case signal CDF  G(x) = 1 - a/x on [a, 1) with an atom of mass
  ``a`` at 1 (a unit-elastic, revenue-flat distribution with mean mu);
* the multiplier  lambda = -2(1-a)/ln a  that makes G the constrained
  minimizer of the revenue functional;
* the guaranteed revenue  2a - a^2.

Near the removable point the ratio forms are evaluated through ``log1p`` of
u = (x-a)/a, with series branches for the final few ulps around a.  Below
x = a/2 they take ln(x/a) as ln x - ln a instead: there 1 + u keeps only the
leading bits of x/a, and it rounds to 0 once x/a < 2**-54.  The
antiderivative of H switches to a cancellation-free dilogarithm form on the
same branch.  H, H' and the antiderivative stay finite and non-negative down
to the smallest subnormal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "TOL_ROOT",
    "ModelParams",
    "SolvedConstants",
    "solve_a",
    "constants_from_a",
    "reserve_cdf",
    "reserve_pdf",
    "reserve_cdf_integral",
    "signal_cdf",
    "signal_quantile",
]

# Bound on the root residual |a(1 - ln a) - mu|, relative to mu.
TOL_ROOT = 1e-12
# Bisection bracket inset and iteration budget for the root of a(1 - ln a) = mu.
_BRACKET_EPS = 1e-12
_BISECT_BUDGET = 200
# Half-width around a inside which the CDF ratio switches to its Taylor form.
_CDF_SERIES_HALFWIDTH = 1e-8
# (u - log1p(u))/u^2 is summed from its series below this |u|.  The direct
# form cancels to a relative error of about 2 eps/|u|, so it is kept only
# where that is near eps; at the cut the series needs _PDF_SERIES_TERMS terms.
_PDF_SERIES_CUT = 0.2
_PDF_SERIES_TERMS = 24
# Above this u the direct form divides by u twice: u*u overflows past 2**512,
# which u = (x - a)/a reaches once a < 2**-512 (mu below about 5e-152).
_PDF_SQUARE_CUT = 2.0**511
# Below x = LOW_Z * a the closed forms take ln(x/a) as ln x - ln a: there
# log1p(u) has lost the low bits of x/a, and all of them once x/a < 2**-54.
# Each function runs its log1p form on the whole array and then overwrites
# these points, so a whole-array call makes no masked copy of its input.
_LOW_Z = 0.5
# Below z = x/a = K_SERIES_CUT the integral of H uses its power series in z;
# K_SERIES_TERMS terms bring the truncation error under 2**-53 there.
_K_SERIES_CUT = 1.0 / 16.0
_K_SERIES_TERMS = 14


@dataclass(frozen=True)
class ModelParams:
    """Model input: the signal mean."""

    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < 1.0:
            raise DomainError(f"mu must lie in (0, 1), got {self.mu}")


def _residual(t: float, mu: float) -> float:
    """t(1 - ln t) - mu, whose root in (0, 1) is ``a``."""
    return t * (1.0 - math.log(t)) - mu


@dataclass(frozen=True)
class SolvedConstants:
    """Solved reserve parameter and the quantities derived from it in closed form."""

    mu: float
    a: float
    lam: float
    revenue_guarantee: float
    h_at_a: float

    @property
    def root_residual(self) -> float:
        """|a(1 - ln a) - mu|."""
        return abs(_residual(self.a, self.mu))


def solve_a(params: ModelParams) -> SolvedConstants:
    """Solve a(1 - ln a) = mu for a in (0, 1) and fill the derived constants.

    The map a -> a(1 - ln a) is strictly increasing on (0, 1) with limits 0
    and 1, so plain bisection on [1e-12, 1 - 1e-12] is unconditionally
    convergent for every root inside it (mu above about 2.86e-11).  Smaller
    roots take more halvings than the budget, so there the bisection runs on
    the bit patterns of (0, 1e-12], which order positive doubles as their
    values do, and returns the least double with a(1 - ln a) >= mu.  Raises
    ConvergenceError if the residual exceeds ``TOL_ROOT`` times mu, or times
    the smallest normal double for a subnormal mu.
    """
    mu = params.mu
    lo, hi = _BRACKET_EPS, 1.0 - _BRACKET_EPS
    if _residual(lo, mu) > 0.0:
        lo_bits, hi_bits = np.int64(0), np.float64(lo).view(np.int64)
        while hi_bits - lo_bits > 1:
            mid_bits = lo_bits + (hi_bits - lo_bits) // 2
            if _residual(float(mid_bits.view(np.float64)), mu) < 0.0:
                lo_bits = mid_bits
            else:
                hi_bits = mid_bits
        a = float(hi_bits.view(np.float64))
    else:
        for _ in range(_BISECT_BUDGET):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _residual(mid, mu) < 0.0:
                lo = mid
            else:
                hi = mid
        a = 0.5 * (lo + hi)
    c = constants_from_a(mu, a)
    if c.root_residual > TOL_ROOT * max(mu, sys.float_info.min):
        raise ConvergenceError(
            f"|a(1 - ln a) - mu| = {c.root_residual:.3e} exceeds TOL_ROOT * mu"
        )
    return c


def constants_from_a(mu: float, a: float) -> SolvedConstants:
    """The constants derived in closed form from the reserve parameter ``a``.

    H(a) = -(1-a)/ln a, lambda = 2 H(a) and the guarantee 2a - a^2; ``mu``
    is recorded as given.
    """
    h_at_a = -(1.0 - a) / math.log(a)
    return SolvedConstants(
        mu=mu,
        a=a,
        lam=2.0 * h_at_a,
        revenue_guarantee=2.0 * a - a * a,
        h_at_a=h_at_a,
    )


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _check_unit_interval(x: np.ndarray, what: str) -> None:
    # ndarray.any, not np.any: np.any costs ~10 us more per scalar call
    if (x < 0.0).any() or (x > 1.0).any():
        raise DomainError(f"{what} must lie in [0, 1]")


def _log_ratio_over_u(u: np.ndarray) -> np.ndarray:
    """log1p(u)/u with the removable point u = 0 filled by its series.

    The quotient runs over the whole array; only the points with |u| below
    _CDF_SERIES_HALFWIDTH, where it is NaN or inexact, are overwritten.
    """
    out = np.empty_like(u)
    np.divide(np.log1p(u, out=out), u, out=out)
    small = np.abs(u) < _CDF_SERIES_HALFWIDTH
    if small.any():
        us = u[small]
        out[small] = 1.0 - us / 2.0 + us * us / 3.0
    return out


def _one_minus_log_ratio_over_u2(u: np.ndarray) -> np.ndarray:
    """(u - log1p(u))/u^2; equals 1/2 at u = 0.

    The direct form runs over the whole array.  The points below |u| =
    _PDF_SERIES_CUT are then overwritten by the series sum_j (-u)^j/(j+2),
    summed by Horner's rule, and those above u = _PDF_SQUARE_CUT by the
    direct form divided by u twice.
    """
    out = np.empty_like(u)
    np.subtract(u, np.log1p(u, out=out), out=out)
    with np.errstate(over="ignore"):  # u * u past 2**1024; overwritten below
        np.divide(out, u * u, out=out)
    small = np.abs(u) < _PDF_SERIES_CUT
    if small.any():
        neg_us = -u[small]
        acc = np.zeros_like(neg_us)
        for j in range(_PDF_SERIES_TERMS - 1, -1, -1):
            acc = acc * neg_us + 1.0 / (j + 2)
        out[small] = acc
    big = u > _PDF_SQUARE_CUT
    if big.any():
        ub = u[big]
        out[big] = (ub - np.log1p(ub)) / ub / ub
    return out


def _scaled_integral_below_half_a(x: np.ndarray, a: float) -> np.ndarray:
    """K(x)/h_at_a for 0 < x < a/2, free of cancellation (nan at x = 0).

    With z = x/a, the reflection Li2(1-z) = pi^2/6 - ln z ln(1-z) - Li2(z)
    turns the closed form of K into a sum of two non-negative terms,

        K/h_at_a = a * (ln z (z + ln(1-z)) + (Li2(z) - z)).

    Below z = 1/16 both brackets come from their series,
    z + ln(1-z) = -z^2 sum_j z^j/(j+2) and Li2(z) - z = z^2 sum_j z^j/(j+2)^2.
    """
    from scipy.special import spence

    z = x / a
    log_z = np.log(x) - math.log(a)
    out = np.empty_like(z)
    tiny = z < _K_SERIES_CUT
    zt, lt = z[tiny], log_z[tiny]
    neg_log1m = np.zeros_like(zt)
    li2_rest = np.zeros_like(zt)
    for j in range(_K_SERIES_TERMS - 1, -1, -1):
        neg_log1m = neg_log1m * zt + 1.0 / (j + 2)
        li2_rest = li2_rest * zt + 1.0 / (j + 2) ** 2
    # x last: where K is subnormal this rounds once, so K stays monotone
    out[tiny] = x[tiny] * (zt * (li2_rest - lt * neg_log1m))
    zd, ld = z[~tiny], log_z[~tiny]
    out[~tiny] = a * (ld * (zd + np.log1p(-zd)) + (spence(1.0 - zd) - zd))
    return out


def reserve_cdf(c: SolvedConstants, x):
    """CDF of the random reserve, H(x), for x in [0, 1].  Vectorised.

    H(x) = -x(1-a)(ln x - ln a)/((x-a) ln a) away from {0, a}, with the
    continuous completions H(0) = 0 and H(a) = -(1-a)/ln a.  H is clamped
    to at most 1 and H(1) = 1 is pinned, since near x = 1 the formula can
    miss 1 by an ulp or two on either side.  Below x = a/2 the log1p form is
    overwritten by h_at_a * x (ln x - ln a)/(x - a), with x taken first so
    that a subnormal x meets no subnormal intermediate.
    """
    arr, scalar = _as_array(x)
    _check_unit_interval(arr, "reserve point")
    a = c.a
    u = (arr - a) / a
    with np.errstate(divide="ignore", invalid="ignore"):
        # asarray: a 0-d input comes back from the ufuncs as a numpy scalar
        out = np.asarray(c.h_at_a * (arr / a) * _log_ratio_over_u(u))
        low = arr < _LOW_Z * a
        if low.any():
            xl = arr[low]
            out[low] = c.h_at_a * (xl * ((np.log(xl) - math.log(a)) / (xl - a)))
            out[arr == 0.0] = 0.0
        np.minimum(out, 1.0, out=out)
        out[arr == 1.0] = 1.0
    return float(out) if scalar else out


def reserve_pdf(c: SolvedConstants, x):
    """Density H'(x) of the random reserve for x in (0, 1].  Vectorised.

    H'(x) = -(1-a)(x - a ln x - mu)/((x-a)^2 ln a); at x = a this has the
    removable value -(1-a)/(2a ln a).  The numerator equals
    a*(u - ln(x/a)) with u = (x-a)/a, which is what is actually evaluated,
    with ln(x/a) = log1p(u) from x = a/2 up and ln x - ln a below.
    Raises DomainError at x = 0, where only the limit x H'(x) -> 0 exists.
    """
    arr, scalar = _as_array(x)
    _check_unit_interval(arr, "reserve point")
    if (arr == 0.0).any():
        raise DomainError("reserve density is undefined at x = 0")
    a = c.a
    u = (arr - a) / a
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((c.h_at_a / a) * _one_minus_log_ratio_over_u2(u))
    low = arr < _LOW_Z * a
    if low.any():
        xl, ul = arr[low], u[low]
        out[low] = (c.h_at_a / a) * ((ul - (np.log(xl) - math.log(a))) / (ul * ul))
    return float(out) if scalar else out


def reserve_cdf_integral(c: SolvedConstants, x):
    """Antiderivative K(x) = integral of H over [0, x], in closed form.

    Splitting x/(x-a) = 1 + a/(x-a) reduces the integrand to a logarithm
    plus ln(x/a)/(x-a), whose antiderivative is a dilogarithm:

        K(x) = h_at_a * (x ln(x/a) - x - a Li2(1 - x/a) + a pi^2/6),

    with Li2(1 - x/a) = spence(x/a).  That form is used from x = a/2 up.
    Below it its terms, each O(x ln x) or a pi^2/6, cancel down to
    K = O(x^2 ln x), so there K comes from the reflected dilogarithm form (a
    power series in x/a below x = a/16) of ``_scaled_integral_below_half_a``.
    Measured against mpmath, the relative error is at most about 1e-14 (set
    by the ``spence`` terms) down to where K underflows.  It is the integral
    in ``mechanism.winner_payment``, through which every winner payment
    goes.  The tests check it against quadrature and against 40-digit
    values.
    """
    from scipy.special import spence

    arr, scalar = _as_array(x)
    _check_unit_interval(arr, "reserve point")
    a = c.a
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(
            c.h_at_a
            * (
                arr * np.log1p((arr - a) / a)
                - arr
                - a * spence(arr / a)
                + a * np.pi**2 / 6.0
            )
        )
        low = arr < _LOW_Z * a
        if low.any():
            out[low] = c.h_at_a * _scaled_integral_below_half_a(arr[low], a)
            out[arr == 0.0] = 0.0
    return float(out) if scalar else out


def signal_cdf(c: SolvedConstants, x):
    """Worst-case signal CDF: 0 below a, 1 - a/x on [a, 1), and 1 at x = 1.

    The jump at 1 is an atom of mass a.  Vectorised.
    """
    arr, scalar = _as_array(x)
    _check_unit_interval(arr, "signal point")
    a = c.a
    with np.errstate(divide="ignore"):
        body = 1.0 - a / np.where(arr > 0.0, arr, np.nan)
    out = np.where(arr < a, 0.0, np.where(arr >= 1.0, 1.0, body))
    return float(out) if scalar else out


def signal_quantile(c: SolvedConstants, u):
    """Inverse quantile of the signal CDF: a/(1-u) below 1-a, then 1.  Vectorised."""
    arr, scalar = _as_array(u)
    _check_unit_interval(arr, "quantile level")
    a = c.a
    with np.errstate(divide="ignore"):
        body = a / np.where(arr < 1.0, 1.0 - arr, np.nan)
    out = np.where(arr < 1.0 - a, body, 1.0)
    return float(out) if scalar else out
