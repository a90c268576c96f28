"""Worst-case signal search against a fixed reserve distribution.

The adversary minimizes the revenue functional over CDFs on a midpoint grid
subject to a moment constraint (known mean, or known second moment in the
uniform-reserve variant).  The multiplier-adjusted integrand is quadratic in
the CDF value with leading coefficient H(x) - x H'(x):

* strictly convex points take the clamped vertex
  (2 H(x) - lambda * w(x)) / (2 (H(x) - x H'(x)));
* degenerate (linear) points take the cheaper endpoint, and exact
  indifference is resolved by mixing the two bracket-end minimizers so the
  moment constraint binds;
* a strictly concave coefficient means the reserve is invalid for this
  argument and raises DegenerateError.

The multiplier is found where the constraint flips.  P(lam) asks: is the
moment of the pointwise minimizer at lam, summed exactly (``math.fsum``'s
bits), below the target?  P is monotone, True below one point and False
from it on, because every float operation on its path is monotone in lam:
lam * w with w >= 0, 2 H minus that, the divide by d >= 0 (a zero divisor
sends a positive numerator to +inf, zero to NaN and a negative one to -inf,
which the next two steps map to 1, 0 and 0), ``fmax`` with -1, the clip to
[0, 1], 1 - G, the products with w and dx, and the correctly rounded sum.
The solver returns the adjacent doubles (p, q) with P(p) True and P(q)
False, and three things keep that cheap:

* a safeguarded root search finds them: ITP with Illinois halving on the
  moment (``_flip_pair``).  At the solved reserve it takes about a dozen
  probes (10-11 at K = 4e5 for mu in [0.3, 0.7]).  Where the moment is a
  step function of the multiplier (the uniform reserve, and ``--delta``
  away from 0.5) interpolation gains nothing, and the search takes at most
  one probe more than bisection of [0, 2 H(1)] would;
* each probe decides ``moment < target`` from a plain numpy sum, and only
  when that sum lies within its rigorous error bound of the target does it
  compute the moment exactly with ``quadrature.exact_sum``, which gives
  ``math.fsum``'s bits from error-free splits in numpy.  It stops at the
  first split whose residual's plain sum, within its own error bound,
  decides the rounding: one split on the moment's terms at K = 4e5;
* the pointwise argmin is one formula over the full arrays,
  clip((2 H - lambda w) / d, 0, 1), whose divisor d is computed once per
  solve: twice the coefficient at convex points and zero at linear ones,
  where the quotient is +-inf and clips to the cheaper endpoint.  Convex,
  linear and mixed grids take the same formula, with no mask; on an all
  linear grid it comes to the sign test alone.

The pair is the bracket a bisection on P would end on: each bisection
bracket (lo, hi) has P(lo) True and P(hi) False, so lo <= p and hi >= q, and
bisection stops only once its ends are adjacent doubles, which leaves
lo = p and hi = q.  The multiplier is their midpoint.

A pool-adjacent-violators pass, scipy's ``isotonic_regression``, enforces
monotonicity afterwards.  It is a no-op at the solved reserve, where the
pointwise minimizer is already a CDF, and input that is already
nondecreasing is returned as a copy without calling scipy: on monotone input
with ties the library pools the tied values and can move their last bit,
which would change a certificate that is already a CDF.  The solver skips
the pass, and the clip to [0, 1] after it, where G is already a CDF.

Memory.  The search holds four arrays of K doubles, 32 bytes per grid
point: 2H, xH', the divisor d and G, whose buffer the moment terms
overwrite on every probe and the exact sum then overwrites with its residual
(``quadrature._exact_sum_in_place``).  Under the second moment x, the
weight, takes d's place: its uniform reserve has no divisor, and a reserve
with convex points holds both.  x is not otherwise stored: each block of
``_GRID_BLOCK`` points rebuilds it as (arange(lo, hi) + 0.5) dx, which has
the bits of the same slice of the whole grid, and the result's x is built
last.  H and xH' are filled in blocks, so the temporaries of the closed
forms stay block-sized, and d is built in the buffer of the coefficient
H - xH'.  The numerator needs 2H, not H, so H's buffer holds 2H during the
search and is halved after it; both scalings are exact.  The second
moment's weight w = 2x is folded into scalars: lam w is computed as
x (2 lam) and the terms w (1 - G) dx as x (1 - G) (2 dx), which round the
same products.  The residual at the solved multiplier overwrites G, which
is recomputed after it.  Mixing at an indifferent limit sums its two
minimizers' moments in G's buffer, then forms the blend block by block from
both minimizers on each block.  After the search d and x are freed, and the
moment, Lagrangian and revenue terms are formed block by block in one array
of terms, so four arrays are live: H, xH', G and the terms.  A cold
``adversary --mu 0.5 --grid-k 4000000`` peaks at 157 MB of RSS, 244 MB with
seven grid arrays, and 339 MB when H, xH' and the integrands were formed
over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    SolvedConstants,
    reserve_cdf,
    reserve_pdf,
    signal_cdf,
)
from .distributions import PiecewiseCdf
from .errors import ConvergenceError, DegenerateError, DomainError
from .functional import _h_atom_check, _lagrangian, _revenue_integrand
from .quadrature import _exact_sum_in_place

__all__ = [
    "GridDistribution",
    "AdversaryResult",
    "SaddleReport",
    "P1P2Report",
    "minimize_revenue",
    "verify_pointwise_saddle",
    "check_p1_p2",
    "pav_nondecreasing",
    "reserve_with_zero_atom",
    "reserve_with_linear_ramp",
]

# H - xH' above this is a convex point, below its negative a degenerate
# reserve (DegenerateError), and in between a linear point.
_COEF_TOL = 1e-12
# Allowed miss of the moment constraint, before and after the search.
_TOL_MEAN = 1e-9
# Grid points of each P1/P2 check in ``check_p1_p2``.
_P1P2_GRID = 1000
# Grid points per block of the elementwise passes around the search: H and
# xH' before it, the Lagrangian and revenue integrands after it.  Blocks keep
# their temporaries small and change no bit.
_GRID_BLOCK = 32768
# ITP's truncation factor, over the initial bracket width, and its slack:
# the probes the multiplier search may take beyond bisection's count.
_ITP_KAPPA1 = 0.2
_ITP_N0 = 1
# Cap on the multiplier search: bisection of [0, 2] ends on adjacent doubles
# within 1076 steps wherever the flip lies, subnormals included.
_MAX_PROBES = 1076 + _ITP_N0


@dataclass(frozen=True)
class GridDistribution:
    """A candidate signal CDF sampled on a uniform midpoint grid."""

    x: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class AdversaryResult:
    """Output of the constrained minimization.

    ``probes`` counts the multiplier search's full-grid moment evaluations,
    at multipliers inside the initial bracket.  ``exact_sums`` counts the
    probes whose plain moment sum lay within its error bound of the target,
    so the exact sum decided the comparison.
    """

    grid: GridDistribution
    value: float
    lambda_hat: float
    constraint: str
    target: float
    constraint_residual: float
    projection_delta: float
    lagrangian_bound: float
    probes: int
    exact_sums: int


@dataclass(frozen=True)
class SaddleReport:
    """Worst pointwise gap between the quadratic's argmin and the signal CDF."""

    max_deviation: float
    worst_x: float
    grid_size: int


@dataclass(frozen=True)
class P1P2Report:
    """Verdicts for the two reserve-family conditions."""

    p1_passed: bool
    p1_worst_gap: float
    p1_worst_x: float
    p2_passed: bool
    p2_worst_value: float
    p2_worst_x: float

    @property
    def passed(self) -> bool:
        return self.p1_passed and self.p2_passed


def pav_nondecreasing(y: np.ndarray) -> np.ndarray:
    """L2 projection onto nondecreasing sequences (pool adjacent violators).

    Input that is already nondecreasing comes back as a float copy at once;
    anything else goes to ``scipy.optimize.isotonic_regression``.
    """
    arr = y.astype(float)
    if not (arr[1:] < arr[:-1]).any():
        return arr
    from scipy.optimize import isotonic_regression

    return isotonic_regression(arr).x


def _sum_below(t: np.ndarray, target: float, s: float) -> bool | None:
    """``math.fsum(t) < target`` for finite non-negative terms ``t``, decided
    from their plain numpy sum ``s``, or None inside its error bound.

    A plain sum of K non-negative terms is off by at most about K * 2**-53
    times itself, in any order; twice that plus four ulps of the target
    keeps the comparison below exact, since fsum rounds the exact sum
    monotonically.
    """
    slack = 2.0 * t.size * 2.0**-53 * s + 4.0 * math.ulp(target)
    if s < target - slack:
        return True
    if s > target + slack:
        return False
    return None


def _divisor(coef: np.ndarray) -> np.ndarray | None:
    """The argmin's divisor, written over the float array ``coef``: 2 coef
    where coef > _COEF_TOL and +0.0 elsewhere, or None, with ``coef`` left as
    it is, where no point is convex.

    The linear points take a fill, not a product with the mask, which would
    give -0.0 for a slightly negative coefficient and flip the sign of the
    quotient's infinity there.
    """
    convex = coef > _COEF_TOL
    if not convex.any():
        return None
    d = np.multiply(coef, 2.0, out=coef)
    np.copyto(d, 0.0, where=np.logical_not(convex, out=convex))
    return d


def _pointwise_argmin(h: np.ndarray, coef: np.ndarray, w):
    """Minimizer of coef*g^2 + (lam*w - 2h)*g + const over g in [0, 1].

    Returns ``argmin(lam, out, s)``, which fills ``out`` with the minimizer
    at multiplier ``lam`` on the points of the slice ``s`` (all of them by
    default) and returns it; ``w`` is the constraint weight, an array or a
    scalar.  See ``_argmin_from``.
    """
    return _argmin_from(2.0 * h, _divisor(np.array(coef, dtype=float)), w)


def _argmin_from(two_h: np.ndarray, d: np.ndarray | None, w):
    """``_pointwise_argmin``'s ``argmin`` on 2h and the divisor d of
    ``_divisor``, which it keeps and does not write.

    Every point takes clip((2h - lam*w) / d, 0, 1), with the divisor
    d = 2 coef where coef > _COEF_TOL, the clamped vertex, and d = +0.0
    where the point is linear.  There a positive numerator, a negative slope
    lam*w - 2h, divides to +inf and clips to 1.0, and a negative one to -inf
    and 0.0.  The 0/0 of exact indifference is NaN, which ``fmax`` with -1
    sends below the clip's floor to 0.0.  The bound is -1, not 0, because
    ``fmax`` with 0 turns a -0.0 quotient into +0.0 at some array positions
    and not at others, while the clip keeps it.  Those are the bits of the
    vertex at convex points and of the sign test at linear ones.  A
    subnormal in place of the zero divisor would give the same bits, but
    division by a denormal takes a slow path.

    On an all linear grid (the uniform reserve, d None) the numerator,
    divide, ``fmax`` and clip come to that sign test, 2h > lam*w, written as
    1.0 or +0.0 in one pass: a rounded difference of finite doubles is
    positive just when the exact one is, and a NaN gives 0.0 both ways.
    """

    def argmin(lam: float, out: np.ndarray, s: slice = slice(None)) -> np.ndarray:
        # a scalar weight (the mean constraint's 1.0) folds into lam first,
        # so the numerator is one pass
        lam_w = w * lam if np.ndim(w) == 0 else np.multiply(w[s], lam, out=out)
        if d is None:
            return np.greater(two_h[s], lam_w, out=out)
        np.subtract(two_h[s], lam_w, out=out)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(out, d[s], out=out)
        np.fmax(out, -1.0, out=out)
        return np.clip(out, 0.0, 1.0, out=out)

    return argmin


def _moment_terms(g: np.ndarray, w, dx: float, out: np.ndarray) -> np.ndarray:
    """The moment's grid terms w * (1 - g) * dx, written to ``out``; a
    weight of 1.0 (the mean constraint's) takes no pass, since y * 1.0 is y."""
    np.subtract(1.0, g, out=out)
    if np.ndim(w) or w != 1.0:
        np.multiply(w, out, out=out)
    return np.multiply(out, dx, out=out)


def _flip_pair(decide, lo: float, f_lo: float, hi: float, f_hi: float):
    """The adjacent doubles (p, q) in [lo, hi] where a monotone predicate P
    flips from True at p to False at q, and the probes taken: (p, q, probes).

    ``decide(lam)`` returns P(lam) and f(lam), an estimate of a function that
    is negative where P holds and non-negative where it fails; ``f_lo`` and
    ``f_hi`` are f at the ends, exact there, so their signs give P.  Where P
    already fails at ``lo`` the pair is (lo, lo), and where it still holds
    at ``hi`` it is (hi, hi), with no probe.

    The search is the ITP method (Oliveira & Takahashi, ACM TOMS 47(1),
    2020) on f: regula falsi, truncated towards the midpoint by kappa1 w**2
    and projected into a radius of it, with the Illinois halving (Dowell &
    Jarratt, BIT 11, 1971) of the f value of an end kept twice in a row.  The
    radius keeps the bracket after j probes no wider than bisection's after
    j - ``_ITP_N0`` steps, whatever f does, so on a step function, where
    regula falsi alone creeps, the search takes at most ``_ITP_N0`` probes
    more than bisection of [lo, hi] run until its ends are adjacent.  Going
    past ``_MAX_PROBES`` raises ConvergenceError.
    """
    if f_lo >= 0.0:
        return lo, lo, 0
    if f_hi < 0.0:
        return hi, hi, 0
    a, fa, b, fb = lo, f_lo, hi, f_hi
    width0 = b - a
    kappa1 = _ITP_KAPPA1 / width0
    last = None  # the previous probe's answer: which end it moved
    probes = 0
    while math.nextafter(a, math.inf) != b:
        if probes == _MAX_PROBES:
            raise ConvergenceError(
                f"multiplier search left [{a!r}, {b!r}] open after {probes} probes"
            )
        mid = 0.5 * (a + b)
        # keeps the next bracket within bisection's after probes + 1 - n0 steps
        radius = math.ldexp(width0, _ITP_N0 - probes - 1) - 0.5 * (b - a)
        # interpolate (bisect where f gives no slope, as where an estimate
        # underflows to zero at both ends), truncate towards the midpoint,
        # project into the radius
        x_f = a + (b - a) * (fa / (fa - fb)) if fa < fb else mid
        sigma = 1.0 if mid >= x_f else -1.0
        shift = kappa1 * (b - a) ** 2
        x_t = x_f + sigma * shift if shift <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        if x <= a:
            x = math.nextafter(a, math.inf)
        elif x >= b:
            x = math.nextafter(b, -math.inf)
        below, f = decide(x)
        probes += 1
        if below:
            a, fa = x, f
            if last is True:  # b kept twice in a row
                fb *= 0.5
        else:
            b, fb = x, f
            if last is False:
                fa *= 0.5
        last = below
    return a, b, probes


def minimize_revenue(
    h_dist: PiecewiseCdf,
    target: float,
    K: int = 500,
    *,
    constraint: str = "mean",
) -> AdversaryResult:
    """Minimize expected revenue over grid CDFs meeting a moment constraint.

    ``constraint`` is ``"mean"`` or ``"second-moment"``, and ``target`` is the
    value that moment must take.  Returns the minimizing grid CDF, the grid
    value of the functional, and the multiplier at which the constraint
    binds.  Raises ConvergenceError if that value is not finite.
    """
    if K < 100:
        raise DomainError(f"grid size must be at least 100, got {K}")
    if constraint not in ("mean", "second-moment"):
        raise DomainError(f"unknown constraint kind: {constraint}")
    if not 0.0 < target < 1.0:
        raise DomainError(f"constraint target must lie in (0, 1), got {target}")
    _h_atom_check(h_dist)

    dx = 1.0 / K
    h, xhp = np.empty(K), np.empty(K)
    for s in _blocks(K):
        x = _grid_x(s, dx)
        h[s] = h_dist.cdf(x)
        np.multiply(x, h_dist.pdf(x), out=xhp[s])
    del x
    d = np.subtract(h, xhp)  # H - xH', the quadratic's coefficient
    if np.any(d < -_COEF_TOL):
        worst = float(np.min(d))
        raise DegenerateError(
            f"quadratic coefficient H - xH' is negative (min {worst:.3e}); "
            "the reserve distribution is invalid for this minimization"
        )
    d = _divisor(d)
    np.multiply(h, 2.0, out=h)  # 2H for the search, halved after it
    # Constraint weight: the moment is the grid sum of w * (1 - G) * dx, with
    # w = 1 or 2x; 2x enters as x, its 2 moved onto lam and dx, and x is held
    # during the search only
    mean = constraint == "mean"
    w, scale = (1.0, 1.0) if mean else (_grid_x(slice(0, K), dx), 2.0)
    step = scale * dx
    argmin = _argmin_from(h, d, w)
    # the minimizer, overwritten by its moment terms
    g = np.empty(K)

    def minimizer(lam: float, out: np.ndarray, s: slice = slice(None)) -> np.ndarray:
        return argmin(scale * lam, out, s)

    def moment(g: np.ndarray) -> float:
        """The exact moment of the minimizer ``g``, which it overwrites."""
        return _exact_sum_in_place(_moment_terms(g, w, step, g))

    lam_hi = 2.0 * float(h_dist.cdf(1.0))
    m_lo = moment(minimizer(0.0, g))
    m_hi = moment(minimizer(lam_hi, g))
    if not (m_lo <= target + _TOL_MEAN and m_hi >= target - _TOL_MEAN):
        raise ConvergenceError(
            f"multiplier bracket [0, {lam_hi}] does not enclose the constraint "
            f"target {target} (endpoint moments {m_lo}, {m_hi})"
        )
    exact_sums = 0

    def decide(lam: float) -> tuple[bool, float]:
        """P(lam) and the moment minus the target at lam: from the plain sum,
        or from the exact sum where the plain sum cannot decide P."""
        nonlocal exact_sums
        t = _moment_terms(minimizer(lam, g), w, step, g)
        s = float(t.sum())
        below = _sum_below(t, target, s)
        if below is None:
            exact_sums += 1
            s = _exact_sum_in_place(t)
            below = s < target
        return below, s - target

    lam_lo, lam_hi, probes = _flip_pair(
        decide, 0.0, m_lo - target, lam_hi, m_hi - target
    )
    lam_hat = 0.5 * (lam_lo + lam_hi)
    residual = moment(minimizer(lam_hat, g)) - target
    mixed = abs(residual) > _TOL_MEAN
    if mixed:
        # Indifference at the limiting multiplier: mix the two bracket-end
        # minimizers so the constraint binds exactly.  Both ends minimize the
        # same limiting integrand wherever they disagree.  Their moments are
        # summed in G's buffer, and the blend is formed block by block.
        m0, m1 = moment(minimizer(lam_lo, g)), moment(minimizer(lam_hi, g))
        if abs(m1 - m0) < 1e-30:
            raise ConvergenceError(
                f"constraint residual {residual:.3e} not reducible by mixing"
            )
        theta = (target - m0) / (m1 - m0)
        theta = min(1.0, max(0.0, theta))
        spare = np.empty(min(K, _GRID_BLOCK))
        for s in _blocks(K):
            g_lo = minimizer(lam_lo, g[s], s)
            g_hi = minimizer(lam_hi, spare[: s.stop - s.start], s)
            np.multiply(g_lo, 1.0 - theta, out=g_lo)
            g_lo += np.multiply(g_hi, theta, out=g_hi)
        del spare, g_lo, g_hi
    else:
        # the residual's terms overwrote the minimizer at lam_hat
        minimizer(lam_hat, g)
    del argmin, d, w  # release the divisor and x before the integrands
    np.multiply(h, 0.5, out=h)
    terms = np.empty(K)

    def grid_moment(g: np.ndarray) -> float:
        """The exact moment of the grid CDF ``g``, which it keeps."""
        for s in _blocks(K):
            _moment_terms(g[s], 1.0 if mean else _grid_x(s, dx), step, terms[s])
        return _exact_sum_in_place(terms)

    if mixed:
        residual = grid_moment(g) - target
    lam_x = scale * lam_hat  # lam_hat times the weight is lam_x times w, 1.0 or x
    for s in _blocks(K):
        lam_w = lam_x if mean else np.multiply(_grid_x(s, dx), lam_x)
        np.multiply(_lagrangian(g[s], h[s], xhp[s], lam_w), dx, out=terms[s])
    lagrangian_bound = _exact_sum_in_place(terms) + lam_hat * target

    if _is_cdf(g):
        # the projection and the clip would copy G and change no bit
        g_proj, projection_delta = g, 0.0
    else:
        g_proj = np.clip(pav_nondecreasing(g), 0.0, 1.0)
        projection_delta = float(np.max(np.abs(g_proj - g)))
    del g
    for s in _blocks(K):
        np.multiply(_revenue_integrand(g_proj[s], h[s], xhp[s]), dx, out=terms[s])
    value = _exact_sum_in_place(terms)
    if not math.isfinite(value):
        # a reserve density that is not finite on the grid
        raise ConvergenceError(f"the grid revenue is {value}: the reserve's density is not finite")
    if projection_delta != 0.0:
        residual = grid_moment(g_proj) - target
    del h, xhp, terms
    return AdversaryResult(
        grid=GridDistribution(x=_grid_x(slice(0, K), dx), values=g_proj),
        value=value,
        lambda_hat=lam_hat,
        constraint=constraint,
        target=float(target),
        constraint_residual=residual,
        projection_delta=projection_delta,
        lagrangian_bound=lagrangian_bound,
        probes=probes,
        exact_sums=exact_sums,
    )


def _blocks(K: int):
    """Slices of ``_GRID_BLOCK`` points that cover a grid of K points."""
    return (slice(lo, min(lo + _GRID_BLOCK, K)) for lo in range(0, K, _GRID_BLOCK))


def _grid_x(s: slice, dx: float) -> np.ndarray:
    """The grid points (i + 0.5) dx for i in the bounded slice ``s``, in one
    fresh array, with the bits of the same slice of the whole grid."""
    x = np.arange(s.start, s.stop, dtype=float)
    x += 0.5
    x *= dx
    return x


def _is_cdf(g: np.ndarray) -> bool:
    """Whether ``g`` is nondecreasing within [0, 1]: the input on which
    ``pav_nondecreasing`` returns a copy and the clip changes no bit (it
    keeps -0.0)."""
    return bool(g[0] >= 0.0 and g[-1] <= 1.0 and not (g[1:] < g[:-1]).any())


def verify_pointwise_saddle(c: SolvedConstants, K: int = 500) -> SaddleReport:
    """Compare the clamped quadratic argmin against the worst-case signal CDF.

    Checks, on a midpoint grid avoiding {0, a, 1}, that the vertex of the
    multiplier-adjusted quadratic -- clamped to [0, 1] -- coincides with the
    signal CDF value 1 - a/x (0 below a).
    """
    if K < 100:
        raise DomainError(f"grid size must be at least 100, got {K}")
    x = (np.arange(K) + 0.5) / K
    x = x[np.abs(x - c.a) > 1e-15]
    h = reserve_cdf(c, x)
    xhp = x * reserve_pdf(c, x)
    coef = h - xhp
    argmin = _pointwise_argmin(h, coef, 1.0)(c.lam, np.empty_like(x))
    target = signal_cdf(c, x)
    dev = np.abs(argmin - target)
    worst = int(np.argmax(dev))
    return SaddleReport(
        max_deviation=float(dev[worst]), worst_x=float(x[worst]), grid_size=K
    )


def check_p1_p2(h_star: PiecewiseCdf, c: SolvedConstants) -> P1P2Report:
    """Verify the reserve-family conditions for an alternative reserve CDF.

    P1: the CDF agrees with the solved reserve on [a, 1] (sup gap <= 1e-9).
    P2: H*(x) - x (H*)'(x) >= -_COEF_TOL on a midpoint grid of (0, a), the
    bound below which ``minimize_revenue`` raises DegenerateError.
    """
    a = c.a
    x1 = np.linspace(a, 1.0, _P1P2_GRID)
    gap = np.abs(np.asarray(h_star.cdf(x1)) - reserve_cdf(c, x1))
    i1 = int(np.argmax(gap))

    x2 = (np.arange(_P1P2_GRID) + 0.5) * (a / _P1P2_GRID)
    vals = np.asarray(h_star.cdf(x2)) - x2 * np.asarray(h_star.pdf(x2))
    i2 = int(np.argmin(vals))
    return P1P2Report(
        p1_passed=bool(gap[i1] <= 1e-9),
        p1_worst_gap=float(gap[i1]),
        p1_worst_x=float(x1[i1]),
        p2_passed=bool(vals[i2] >= -_COEF_TOL),
        p2_worst_value=float(vals[i2]),
        p2_worst_x=float(x2[i2]),
    )


def _piecewise_at(a: float, below, above):
    """Vectorised evaluator split at ``a``: ``below`` left of it, ``above``
    from it on.

    ``above`` runs over the whole array, with the points below ``a`` moved
    to 1 (a point it accepts), and ``np.where`` then puts ``below`` at those
    points; ``below`` must be cheap, since it runs at every point too.
    """

    def evaluate(x):
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr)
        low = flat < a
        if low.any():
            flat = np.where(low, below(flat), above(np.where(low, 1.0, flat)))
        else:
            flat = above(flat)
        return flat.reshape(arr.shape)

    return evaluate


def reserve_with_zero_atom(c: SolvedConstants) -> PiecewiseCdf:
    """Reserve variant that is flat at H(a) below a, with the mass parked at 0."""
    a, level = c.a, c.h_at_a
    return PiecewiseCdf.custom(
        cdf_fn=_piecewise_at(a, lambda x: level, lambda x: reserve_cdf(c, x, checked=True)),
        pdf_fn=_piecewise_at(a, lambda x: 0.0, lambda x: reserve_pdf(c, x, checked=True)),
        atoms=((0.0, level),),
        breakpoints=(a,),
    )


def reserve_with_linear_ramp(c: SolvedConstants) -> PiecewiseCdf:
    """Reserve variant that climbs linearly from 0 to H(a) on [0, a]."""
    a, level = c.a, c.h_at_a
    slope = level / a
    return PiecewiseCdf.custom(
        cdf_fn=_piecewise_at(a, lambda x: slope * x, lambda x: reserve_cdf(c, x, checked=True)),
        pdf_fn=_piecewise_at(a, lambda x: slope, lambda x: reserve_pdf(c, x, checked=True)),
        breakpoints=(a,),
    )
