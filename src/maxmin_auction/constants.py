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
to the smallest subnormal x.  H and the antiderivative do so for a
subnormal ``a`` too: where u overflows (x/a > 1.8e308) they also take ln x -
ln a.  H' takes h ((x - a) - a ln(x/a))/(x - a)^2 at a subnormal a, where
h_at_a/a itself can overflow; it is finite except where its true value
passes the largest double, near a and below x = h_at_a/1.8e308.

u, ln(x/a) and the masks of these branches are computed in one place,
``_log_ratio``, and H, H' and the antiderivative K each build on its
output; ln x - ln a is taken only on the points that need it.  A winner
payment s H(s) - (K(s) - K(s_lo)) needs H and K at the same top bid s, so
``_winner_payment`` evaluates both from one ln(s/a), with the bits of the
two public functions.  The kernels work in place and take their branches
by arithmetic where they can: on the random top bids of a Monte Carlo
slice, a boolean fill or ``np.where`` costs several times a multiplication.

The dilogarithm is computed here, in numpy, on the same ln(x/a): the
Bernoulli series of Li2(1 - e^-t) ('t Hooft & Veltman, Nucl. Phys. B 153,
1979), with the inversion formula (Zagier, "The dilogarithm function", 2007)
past x = 2a, so that the series never runs past |t| = ln 2.  It is within
4.4e-16 of mpmath over w = x/a in [1/2, 1e300], against 3.3e-15 for
``scipy.special.spence``, which it replaces; so the package imports no
scipy to evaluate H or its antiderivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "TOL_ROOT",
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
# (ln x - ln a)/(x - a) can overflow below x = a/2 only if a/2 < 745/DBL_MAX,
# |ln x - ln a| being at most 745 there; H checks for it below this a.
_QUOTIENT_CUT = 1e-305
# Binary exponent that lifts a subnormal a to a normal double in the
# density's factor h/a (``_density_at_subnormal_a``).
_SUBNORMAL_A_SHIFT = 64
# Below z = x/a = K_SERIES_CUT the integral of H uses its power series in z;
# K_SERIES_TERMS terms bring the truncation error under 2**-53 there.
_K_SERIES_CUT = 1.0 / 16.0
_K_SERIES_TERMS = 14
# B_2k/(2k+1)!, k = 1..9, the odd coefficients of the Bernoulli series
# Li2(1 - e^-t) = t - t^2/4 + sum_k B_2k t^(2k+1)/(2k+1)!.  At |t| <= ln 2 the
# first omitted term is below 1e-20 of the sum.
_LI2_BERNOULLI = (
    0.027777777777777776,
    -0.0002777777777777778,
    4.72411186696901e-06,
    -9.185773074661964e-08,
    1.8978869988971e-09,
    -4.0647616451442256e-11,
    8.921691020456452e-13,
    -1.9939295860721074e-14,
    4.518980029619918e-16,
)
_PI2_6 = math.pi**2 / 6.0


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


def solve_a(mu: float) -> SolvedConstants:
    """Solve a(1 - ln a) = mu for a in (0, 1) and fill the derived constants.

    The map a -> a(1 - ln a) is strictly increasing on (0, 1) with limits 0
    and 1, so plain bisection on [1e-12, 1 - 1e-12] is unconditionally
    convergent for every root inside it (mu above about 2.86e-11).  Smaller
    roots take more halvings than the budget, so there the bisection runs on
    the bit patterns of (0, 1e-12], which order positive doubles as their
    values do, and returns the least double with a(1 - ln a) >= mu.  Raises
    DomainError unless 0 < mu < 1, and ConvergenceError if the residual
    exceeds ``TOL_ROOT`` times mu, or times the smallest normal double for a
    subnormal mu.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu}")
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
    # min and max propagate NaN, so NaN fails the comparisons, and they make
    # no boolean temporaries; ndarray methods, since np.min costs ~3 us more
    # per scalar call.  An empty array has no min and nothing to check.
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise DomainError(f"{what} must lie in [0, 1]")


def _low_cut(a: float) -> float:
    """The x below which the closed forms take ln x - ln a: a/2, except at
    a = 5e-324, where a/2 rounds to 0 and x = 0 would miss the branch."""
    return max(_LOW_Z * a, math.ulp(0.0))


def _log_ratio(arr: np.ndarray, a: float):
    """u = (x - a)/a and ln(x/a) at the points ``arr``, with the masks of
    their branches: the one logarithm that H, H' and K share.

    Returns (u, log_z, low, log_low, over).  ``log_z`` is log1p(u) at every
    point, except where u overflows, from x/a = 1.8e308 up, which a subnormal
    a alone brings about: there (the mask ``over``) it is ln x - ln a.
    Below x = a/2 (the mask ``low``) ln(x/a) is ln x - ln a too; it is
    returned for those points alone, as ``log_low``, and ``log_z`` keeps
    log1p(u) there.  A mask and its subset are None where the mask marks no
    point, so a call whose points all lie from a/2 up, as the worst-case
    signal's do, makes no masked copy.  u and log_z are fresh, and 0-d for
    a 0-d ``arr``.  Call it with divide, invalid and overflow warnings off:
    ln 0 = -inf.
    """
    u = np.subtract(arr, a, out=np.empty_like(arr))
    u /= a
    log_z = np.log1p(u, out=np.empty_like(arr))
    over = None
    if a < sys.float_info.min:
        over = u == np.inf
        if over.any():
            log_z[over] = np.log(arr[over]) - math.log(a)
        else:
            over = None
    low = arr < _low_cut(a)
    if not low.any():
        return u, log_z, None, None, over
    return u, log_z, low, np.log(arr[low]) - math.log(a), over


def _log_ratio_over_u(u: np.ndarray, log_z: np.ndarray) -> np.ndarray:
    """ln(x/a)/u with the removable point u = 0 filled by its series, in the
    array ``log_z``, which holds ln(x/a) on entry.

    The quotient runs over the whole array; only the points with |u| below
    _CDF_SERIES_HALFWIDTH, where it is NaN or inexact, are overwritten.
    """
    out = np.divide(log_z, u, out=log_z)
    small = np.abs(u) < _CDF_SERIES_HALFWIDTH
    if small.any():
        us = u[small]
        out[small] = 1.0 - us / 2.0 + us * us / 3.0
    return out


def _one_minus_log_ratio_over_u2(u: np.ndarray, log_z: np.ndarray) -> np.ndarray:
    """(u - ln(x/a))/u^2, in the array ``log_z``, which holds ln(x/a) on
    entry; equals 1/2 at u = 0.

    The direct form runs over the whole array.  The points below |u| =
    _PDF_SERIES_CUT are then overwritten by the series sum_j (-u)^j/(j+2),
    summed by Horner's rule, and those above u = _PDF_SQUARE_CUT by the
    direct form divided by u twice.
    """
    big = u > _PDF_SQUARE_CUT
    log_big = log_z[big] if big.any() else None
    out = np.subtract(u, log_z, out=log_z)
    with np.errstate(over="ignore"):  # u * u past 2**1024; overwritten below
        np.divide(out, u * u, out=out)
    small = np.abs(u) < _PDF_SERIES_CUT
    if small.any():
        neg_us = -u[small]
        acc = np.zeros_like(neg_us)
        for j in range(_PDF_SERIES_TERMS - 1, -1, -1):
            acc = acc * neg_us + 1.0 / (j + 2)
        out[small] = acc
    if log_big is not None:
        ub = u[big]
        out[big] = (ub - log_big) / ub / ub
    return out


def _bernoulli_dilog(t: np.ndarray) -> np.ndarray:
    """Li2(1 - e^-t) for |t| <= ln 2, from its Bernoulli series.

    The series is 't Hooft & Veltman's (Nucl. Phys. B 153, 1979); Horner's
    rule sums the odd terms in t^2 in place.
    """
    t2 = np.multiply(t, t, out=np.empty_like(t))
    acc = np.multiply(t2, _LI2_BERNOULLI[-1], out=np.empty_like(t))
    acc += _LI2_BERNOULLI[-2]
    for coef in _LI2_BERNOULLI[-3::-1]:
        acc *= t2
        acc += coef
    acc *= t
    acc -= 0.25
    acc *= t2
    acc += t
    return acc


def _dilog_one_minus(log_w: np.ndarray, inv_w: np.ndarray) -> np.ndarray:
    """Li2(1 - w) for w >= 1/2, given ln w and 1/w; the array ``inv_w`` is
    overwritten.

    Up to w = 2 it is the Bernoulli series at t = -ln w.  Past w = 2 the
    inversion Li2(1 - w) = -pi^2/6 - ln^2(w - 1)/2 - Li2(1/(1 - w)) (Zagier,
    "The dilogarithm function", 2007) turns it into the series at
    v = -ln(1 - 1/w), in (0, ln 2]:

        Li2(1 - w) = Li2(1 - e^-v) + ln w (v - ln w / 2) - pi^2/6.

    So the series never runs past |t| = ln 2, and 1/w enters only through
    log1p, which keeps it finite where w itself overflows.  The branch is
    taken by arithmetic, not by masks: ``far`` is 1.0 past w = 2 and 0.0
    elsewhere, so far*v - (1 - far)*ln w is v or -ln w exactly, and far
    times the inversion's terms adds an exact zero up to w = 2.  Masked
    copies of a random half of the points cost twice the whole call, and
    ``np.where`` or a ``where=`` argument on such a mask costs several
    times a multiplication.
    """
    far = np.less(inv_w, 0.5, out=np.empty_like(inv_w))
    v = inv_w
    np.minimum(v, 0.5, out=v)
    np.negative(v, out=v)
    np.log1p(v, out=v)
    np.negative(v, out=v)
    rest = np.subtract(1.0, far, out=np.empty_like(far))
    rest *= log_w
    t = np.multiply(far, v, out=np.empty_like(far))
    t -= rest
    out = _bernoulli_dilog(t)
    np.multiply(log_w, 0.5, out=rest)
    np.subtract(v, rest, out=rest)
    rest *= log_w
    rest -= _PI2_6
    rest *= far
    out += rest
    return out


def _scaled_integral_below_half_a(x: np.ndarray, log_z: np.ndarray, a: float) -> np.ndarray:
    """K(x)/h_at_a for 0 < x < a/2, given ln(x/a), free of cancellation (nan
    at x = 0).

    With z = x/a, the reflection Li2(1-z) = pi^2/6 - ln z ln(1-z) - Li2(z)
    turns the closed form of K into a sum of two non-negative terms,

        K/h_at_a = a * (ln z (z + ln(1-z)) + (Li2(z) - z)).

    Below z = 1/16 both brackets come from their series,
    z + ln(1-z) = -z^2 sum_j z^j/(j+2) and Li2(z) - z = z^2 sum_j z^j/(j+2)^2.
    """
    z = x / a
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
    log_1mz = np.log1p(-zd)
    out[~tiny] = a * (ld * (zd + log_1mz) + (_bernoulli_dilog(-log_1mz) - zd))
    return out


def _cdf_by_quotient(c: SolvedConstants, x: np.ndarray, log_z: np.ndarray) -> np.ndarray:
    """H at the points ``x``, given ln(x/a), as h_at_a * x (ln(x/a)/(x - a)):
    the form below a/2 and where u overflows."""
    a = c.a
    gap = x - a
    scaled = x * (log_z / gap)
    if a < _QUOTIENT_CUT:
        past = np.isinf(scaled)
        scaled[past] = (x[past] / gap[past]) * log_z[past]
    return c.h_at_a * scaled


def _cdf_from_log(c: SolvedConstants, arr, terms) -> np.ndarray:
    """H at ``arr`` from the output ``terms`` of ``_log_ratio``, whose u and
    log_z are overwritten: the buffers a caller of H alone would free, so
    that no third array is written."""
    u, log_z, low, log_low, over = terms
    if over is not None:
        at_over = _cdf_by_quotient(c, arr[over], log_z[over])
    out = _log_ratio_over_u(u, log_z)
    scale = np.divide(arr, c.a, out=u)
    scale *= c.h_at_a
    out *= scale
    if low is not None:
        out[low] = _cdf_by_quotient(c, arr[low], log_low)
        out[arr == 0.0] = 0.0
    if over is not None:
        out[over] = at_over
    np.minimum(out, 1.0, out=out)
    # H(1) = 1 pinned by the maximum with the indicator of x = 1, as H is
    # non-negative: a boolean fill of the atom's random share of the top
    # bids costs about five times as much
    np.maximum(out, arr == 1.0, out=out)
    return out


def _integral_from_log(c: SolvedConstants, arr, terms) -> np.ndarray:
    """K at ``arr`` from the output ``terms`` of ``_log_ratio``."""
    _, log_z, low, log_low, _ = terms
    a = c.a
    a_li2 = _dilog_one_minus(log_z, np.divide(a, arr, out=np.empty_like(arr)))
    a_li2 *= a
    out = np.multiply(arr, log_z, out=np.empty_like(arr))
    out -= arr
    out -= a_li2
    out += a * np.pi**2 / 6.0
    out *= c.h_at_a
    if low is not None:
        out[low] = c.h_at_a * _scaled_integral_below_half_a(arr[low], log_low, a)
        out[arr == 0.0] = 0.0
    return out


def _winner_payment(c: SolvedConstants, s_hi, s_lo):
    """s_hi H(s_hi) - (K(s_hi) - K(s_lo)), the kernel of
    ``mechanism.winner_payment``, with the bits of
    ``s_hi * reserve_cdf(c, s_hi)`` and of ``reserve_cdf_integral``.

    Each bid array is checked once, and H and K at the top bid build on one
    ln(s_hi/a).  A scalar s_hi gives Python floats, as the public closed
    forms do, so that the result broadcasts against s_lo as theirs would.
    """
    # K(s_lo) first, so that its temporaries are not added to those of s_hi
    k_lo = reserve_cdf_integral(c, s_lo)
    hi, scalar = _as_array(s_hi)
    _check_unit_interval(hi, "reserve point")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = _log_ratio(hi, c.a)
        k_hi = _integral_from_log(c, hi, terms)  # first: H overwrites log_z
        paid = _cdf_from_log(c, hi, terms)
        paid *= hi
    if scalar:
        paid, k_hi = float(paid), float(k_hi)
    return paid - (k_hi - k_lo)


def reserve_cdf(c: SolvedConstants, x, *, checked: bool = False):
    """CDF of the random reserve, H(x), for x in [0, 1].  Vectorised.

    H(x) = -x(1-a)(ln x - ln a)/((x-a) ln a) away from {0, a}, with the
    continuous completions H(0) = 0 and H(a) = -(1-a)/ln a.  H is clamped
    to at most 1 and H(1) = 1 is pinned, since near x = 1 the formula can
    miss 1 by an ulp or two on either side.  From x = a/2 up it is
    h_at_a * (x/a) * log1p(u)/u.  Below a/2 it is
    h_at_a * x (ln x - ln a)/(x - a), with x taken first so that a subnormal
    x meets no subnormal intermediate.  So is it where u = (x - a)/a
    overflows, which a subnormal a brings about from x/a = 1.8e308 up.
    Where the quotient (ln x - ln a)/(x - a) overflows in turn (x - a below
    about 4e-306, so a below about 8e-306), x/(x - a) is normal and is taken
    first instead.  ``checked`` skips the check that x lies in [0, 1], for a
    caller that has made it.
    """
    arr, scalar = _as_array(x)
    if not checked:
        _check_unit_interval(arr, "reserve point")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _cdf_from_log(c, arr, _log_ratio(arr, c.a))
    return float(out) if scalar else out


def reserve_pdf(c: SolvedConstants, x, *, checked: bool = False):
    """Density H'(x) of the random reserve for x in (0, 1].  Vectorised.

    H'(x) = -(1-a)(x - a ln x - mu)/((x-a)^2 ln a); at x = a this has the
    removable value -(1-a)/(2a ln a).  The numerator equals
    a*(u - ln(x/a)) with u = (x-a)/a, which is what is actually evaluated,
    on the ln(x/a) that H and K take.
    Raises DomainError at x = 0, where only the limit x H'(x) -> 0 exists.
    ``checked`` skips the check that x lies in [0, 1], for a caller that has
    made it; the one for x = 0 stays.
    """
    arr, scalar = _as_array(x)
    if not checked:
        _check_unit_interval(arr, "reserve point")
    if (arr == 0.0).any():
        raise DomainError("reserve density is undefined at x = 0")
    a = c.a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, log_z, low, log_low, over = _log_ratio(arr, a)
        # ln(x/a) where u overflows, which only a subnormal a brings about
        log_over = None if over is None else log_z[over]
        out = _one_minus_log_ratio_over_u2(u, log_z)
        if low is not None:
            ul = u[low]
            out[low] = (ul - log_low) / (ul * ul)
        if a >= sys.float_info.min:
            out *= c.h_at_a / a
        else:
            _density_at_subnormal_a(c, arr, out, over, log_over)
    return float(out) if scalar else out


def _density_at_subnormal_a(c: SolvedConstants, arr, out, over, log_over) -> None:
    """H' = h ((x - a) - a ln(x/a))/(x - a)^2 at a subnormal a, written over
    ``out``, which holds (u - ln(x/a))/u^2 on entry; ``over`` is the mask of
    ``_log_ratio`` where u overflows, and ``log_over`` ln(x/a) there.

    h/a alone overflows once a is below about 7.8e-312, so the factor is
    applied as (out / (a 2**64)) (h 2**64): both scalings are exact, a 2**64
    is normal, and the quotient stays below 2**1009.  The product overflows
    just where H' exceeds the largest double, which it does near a, where
    H' = h/(2a), and for x below about h/1.8e308, where H' is about h/x.
    Where u overflows (the mask ``over``), the entry is NaN, and the form
    h (((x - a) - a ln(x/a))/(x - a))/(x - a) is taken instead: there x - a
    is at least 8.9e-16 and the quotients are normal.
    """
    out /= math.ldexp(c.a, _SUBNORMAL_A_SHIFT)
    out *= math.ldexp(c.h_at_a, _SUBNORMAL_A_SHIFT)
    if over is not None:
        gap = arr[over] - c.a
        out[over] = c.h_at_a * ((gap - c.a * log_over) / gap) / gap


def reserve_cdf_integral(c: SolvedConstants, x):
    """Antiderivative K(x) = integral of H over [0, x], in closed form.

    Splitting x/(x-a) = 1 + a/(x-a) reduces the integrand to a logarithm
    plus ln(x/a)/(x-a), whose antiderivative is a dilogarithm:

        K(x) = h_at_a * (x ln(x/a) - x - a Li2(1 - x/a) + a pi^2/6),

    with ln(x/a) = log1p((x - a)/a), or ln x - ln a where (x - a)/a
    overflows, and Li2(1 - x/a) from ``_dilog_one_minus`` on that same
    logarithm and a/x: the Bernoulli series up to x = 2a, its inversion
    past it.  That form is used from x = a/2 up.  Below it its terms, each
    O(x ln x) or a pi^2/6, cancel down to K = O(x^2 ln x), so there K comes
    from the reflected dilogarithm form (a power series in x/a below
    x = a/16) of ``_scaled_integral_below_half_a``, on ln x - ln a.
    Measured against mpmath, the relative error is at most 2.5e-15 from
    x = a/2 up (it was 9.3e-15 with ``scipy.special.spence``).  Below a/2 it
    is set by ln x - ln a, whose error of about |ln a| 2**-53 is up to 6e-14
    relative at a = 1.4e-303, down to where K underflows.  It is the
    integral in ``mechanism.winner_payment``, through which every winner
    payment goes.  The tests check it against quadrature and against
    40-digit values.
    """
    arr, scalar = _as_array(x)
    _check_unit_interval(arr, "reserve point")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _integral_from_log(c, arr, _log_ratio(arr, c.a))
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


def signal_quantile(c: SolvedConstants, u, *, checked: bool = False):
    """Inverse quantile of the signal CDF: a/(1-u) below 1-a, then 1.  Vectorised.

    One divide, then one fill of the levels from 1 - a up, both by
    arithmetic: the divisor 1 - u is raised to at least a, so every
    quotient lies in (0, 1], and the maximum with the 0/1
    indicator of the filled levels sets them to 1.  No level below 1 - a
    loses a bit: wherever u < fl(1 - a), fl(1 - u) >= a already.  A
    boolean fill of the random fraction a of the levels costs two to three
    times as much.
    ``checked`` skips the check that u lies in [0, 1], for a caller that
    has made it.
    """
    arr, scalar = _as_array(u)
    if not checked:
        _check_unit_interval(arr, "quantile level")
    a = c.a
    out = np.subtract(1.0, arr, out=np.empty_like(arr))
    np.fmax(out, a, out=out)
    np.divide(a, out, out=out)
    np.maximum(out, ~(arr < 1.0 - a), out=out)
    return float(out) if scalar else out
