"""Revenue caps over all incentive-compatible mechanisms.

The theorem's converse says that no mechanism earns more than g = 2a - a^2
against the worst-case signal law G* (G(x) = 1 - a/x on [a, 1), an atom of
mass a at 1).  ``reduced_form_bound`` witnesses it from above without using
that G* is equal-revenue: it rounds G* up onto a geometric grid of ratio
rho, and the optimum of Myerson's (1981) reduced-form LP on the rounded law
caps the best revenue against G*.  That optimum is (a/rho)(2 - a/rho), about
g (1 - rho) above g, and under 1.2e-16 g above it at ``FINEST_RATIO``, the
grid ``verify`` takes.  No LP is stored and no solver runs: the LP's optimal
multipliers and point, closed forms, are checked in exact rational
arithmetic on the doubles a and rho once per class of types, in O(1) at any
cell count.  The explicit LP, built from G*'s cell masses, is the tests'
oracle.

``lp_max_revenue`` writes the point's mechanism ex post, for
``upper-bound --dump-mechanism``: the hierarchical auction on the same
types, whose revenue is the LP's optimum.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import SolvedConstants
from .errors import ConvergenceError, DomainError

__all__ = ["DiscreteDirectMechanism", "ReducedFormBound", "lp_max_revenue", "reduced_form_bound"]

# The largest ratio below 1, and so the finest grid: 6.2e15 cells at a = 0.5
FINEST_RATIO = math.nextafter(1.0, 0.0)
# Above this many cells rho^m = a cannot hold for doubles (at most 1074 cells,
# for rho a power of two), and ``cell_count`` works in logarithms.
_EXACT_CELLS = 1100


@dataclass(frozen=True)
class DiscreteDirectMechanism:
    """Allocations and payments on a discrete type law.

    Type j has value ``types[j]`` and probability ``masses[j]``.
    ``q1[j, k]`` is bidder 1's allocation when bidder 1 has type index j and
    bidder 2 type index k; payments follow the same layout.
    """

    masses: np.ndarray
    types: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "masses": self.masses.tolist(),
            "types": self.types.tolist(),
            "q1": self.q1.tolist(),
            "q2": self.q2.tolist(),
            "t1": self.t1.tolist(),
            "t2": self.t2.tolist(),
        }


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    No command calls it: the tests solve the explicit reduced-form LP with
    it, and the benchmark tracer (``perfbench/trace_child.py``) binds the
    name.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def grid_ratio(a: float, n: int) -> float:
    """The ratio a^(1/n) of n geometric cells on [a, 1], as exp(ln(a)/n),
    clamped to [a, ``FINEST_RATIO``].  Its ``cell_count`` is n or n + 1
    for small n; rho's rounding, up to 2^-54, moves it by up to about
    n^2 2^-54 / ln(1/a) (5e7 at n = 1e12, a = 0.5)."""
    if not 0.0 < a < 1.0:
        raise DomainError(f"the atom a must lie in (0, 1), got {a}")
    if n < 1:
        raise DomainError(f"the reduced-form LP needs at least 1 cell, got {n}")
    return min(max(math.exp(math.log(a) / n), a), FINEST_RATIO)


def cell_count(a: float, rho: float) -> int:
    """The m >= 1 with rho^m <= a < rho^(m-1), exactly, for doubles a in
    (0, 1) and rho in [a, 1).

    m is the ceiling of L = ln(a)/ln(rho).  L is an integer, rho^L = a, only
    for L <= 1074: with rho = N 2^-E and N odd, N^L must be below 2^53 (so
    L <= 33 for N >= 3), and for N = 1, E L <= 1074.  Above
    ``_EXACT_CELLS`` (by the float estimate) ``_log_floor`` finds the floor
    of L, and if that is above 1074, m is one more; otherwise exact powers
    of rho settle m, stepping from the estimate.
    """
    estimate = math.log(a) / math.log(rho)
    if estimate > _EXACT_CELLS:
        below = _log_floor(a, rho)
        if below > 1074:
            return below + 1
    a_exact, rho_exact, m = Fraction(a), Fraction(rho), max(1, math.ceil(estimate))
    power = rho_exact**m
    while power > a_exact:
        power *= rho_exact
        m += 1
    while m > 1 and power / rho_exact <= a_exact:
        power /= rho_exact
        m -= 1
    return m


def _log_floor(a: float, rho: float) -> int:
    """The floor of L = ln(a)/ln(rho), for L no integer, from ``decimal``'s
    correctly rounded ln and division at p digits.

    Each of the three roundings is within 10^(1-p)/2 relative, so the
    quotient is within 4 10^(1-p) L, less than 10^(2-p) times itself, of L.
    p starts at 40 and doubles until that interval holds no integer.
    """
    for digits in (40, 80, 160, 320, 640, 1280):
        ctx = decimal.Context(prec=digits)
        ratio = Fraction(ctx.divide(ctx.ln(decimal.Decimal(a)), ctx.ln(decimal.Decimal(rho))))
        margin = ratio / 10 ** (digits - 2)
        below = math.floor(ratio - margin)
        if below == math.floor(ratio + margin):
            return below
    raise ConvergenceError(f"ln(a)/ln(rho) at a = {a!r}, rho = {rho!r} is within 1e-1270 of an integer")


@dataclass(frozen=True)
class ReducedFormBound:
    """Result of ``reduced_form_bound``; revenues are per auction, not per a.

    ``optimum`` is the LP's exact optimum (a/rho)(2 - a/rho), and so a bound
    on the best revenue of any mechanism against the worst-case signal law;
    ``lp_optimum`` is it rounded to nearest and ``safe_bound`` rounded up.
    ``cells`` is the proven cell count m.
    """

    lp_optimum: float
    safe_bound: float
    cells: int
    optimum: Fraction

    def certifies(self, guarantee: float, rtol: float) -> bool:
        """Whether ``guarantee``, computed as 2a - a^2 in doubles
        (``constants.constants_from_a``), is at most the optimum, and the
        optimum at most rtol relative above it; compared exactly.

        The double guarantee is within one ulp of the exact 2a - a^2: each of
        its two roundings is within half an ulp of a result no larger than
        it.  So it may exceed the optimum by that ulp.
        """
        g = Fraction(guarantee)
        return g <= self.optimum + Fraction(math.ulp(guarantee)) and self.optimum - g <= Fraction(rtol) * g


def reduced_form_bound(a: float, rho: float) -> ReducedFormBound:
    """Myerson's reduced-form LP on the cells [e_k, e_{k+1}) of [a, 1],
    rounded up; e_0 = a, e_k = rho^(m-k) for k >= 1 and m = ``cell_count``.

    The rounded law first-order dominates G*, and with one good and
    independent bidders the best revenue is monotone in first-order
    dominance (run the dominated law's optimal mechanism on quantile-mapped
    reports), so the LP's optimum caps the best revenue against G*.
    Types k = 0..m-1 are the cells at value v_k = e_{k+1}, type m is the
    atom at 1, and q_k = P(type >= k) = a/e_k, so q_0 = 1 and q_m = a.  The
    variables, with boxes [0, 1], are the interim allocation Q_k, the scaled
    payment tau_k = T_k / v_k and the Border ratio
    sigma_k = sum over j >= k of p_j Q_j / q_k.  The rows:

        IC / v_hi   Q_lo - Q_hi + tau_hi - (v_lo/v_hi) tau_lo <= 0
        monotone    Q_lo - Q_hi <= 0
        BIR         tau_k - Q_k <= 0
        Border      sigma_k <= 1 - q_k/2
        chain       sigma_k - (p_k/q_k) Q_k - (q_{k+1}/q_k) sigma_{k+1} = 0

    for adjacent types lo = hi - 1, and no sigma_{m+1}.  The objective is
    2 sum of w_k tau_k, w_k = p_k v_k / (a/rho), so the LP's optimum times
    a/rho is the revenue.  Below the top, v_lo/v_hi = q_{k+1}/q_k = rho,
    p_k/q_k = 1 - rho and w_k = 1 - rho; v_lo/v_hi = 1 between the two
    value-1 types m - 1 and m, and w_m = rho.  The bottom cell is the
    exception: q_1 = a/e_1 lies in [rho, 1), and w_0 = rho^m/a - rho.

    Border's condition (Border, Econometrica 59(4), 1991) for two symmetric
    bidders is 2 sum over S of p_j Q_j <= 1 - (1 - P(S))^2 for every set S of
    types; once Q is monotone only the upper sets bind, which is the Border
    row times 2 q_k.  Adjacent downward IC with monotone Q gives every
    downward IC pair, and the LP without the upward rows is a relaxation, so
    the bound holds either way.  The boxes keep the optimum: tau <= Q <= 1
    and 0 <= sigma_k <= 1 hold at every feasible point.  With payments
    T_k = v_k tau_k, raising T_k alone only loosens the IC row out of k, so
    at an optimum T_k sits on downward IC into k or on BIR at k.  Since v
    and Q are nondecreasing, the first gives T_k - T_{k-1} =
    v_k (Q_k - Q_{k-1}) >= v_{k-1} (Q_k - Q_{k-1}) >= 0, and the second,
    with BIR at k - 1, T_k = v_k Q_k >= v_{k-1} Q_k >=
    T_{k-1} + v_{k-1} (Q_k - Q_{k-1}) and T_k >= 0.  Either way upward IC
    holds, and T_k >= 0 by induction from T_0 = v_0 Q_0, so tau >= 0 at
    every optimum.

    The optimal multipliers and point are closed forms (``_types``).  With
    those multipliers every reduced cost is 0 but tau_0's, 2 - 2 rho^m/a,
    and the dual value is -(2 - a/rho), the value of the hierarchical point:
    serve only the two value-1 types, the atom beats the top cell, and equal
    types split.  ``_certified_value`` checks all of it exactly, per class
    of types; a failure raises ConvergenceError.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"the atom a must lie in (0, 1), got {a}")
    if not a <= rho < 1.0:
        raise DomainError(f"the grid ratio must lie in [a, 1) = [{a}, 1), got {rho}")
    m = cell_count(a, rho)
    atom, ratio = Fraction(a), Fraction(rho)
    optimum = _certified_value(_types(atom, ratio, m)) * atom / ratio
    lp_optimum = float(optimum)  # the quotient of two ints, correctly rounded
    safe_bound = lp_optimum if Fraction(lp_optimum) >= optimum else math.nextafter(lp_optimum, math.inf)
    return ReducedFormBound(lp_optimum=lp_optimum, safe_bound=safe_bound, cells=m, optimum=optimum)


@dataclass(frozen=True)
class _Type:
    """One type k of ``reduced_form_bound``'s LP, exactly: its rows'
    coefficients, the multipliers on its rows, and the point's values on its
    columns.  Row k of each kind is type k's; the IC and monotone rows k
    reach type k + 1, and the chain row k reaches sigma_{k+1}.

    ``step`` is q_{k+1}/q_k (0 at the top), so p_k/q_k = 1 - step.  At the
    point Q_k = tau_k = ``alloc``, since the winner pays 1, the value of
    every type served, and ``served`` is q_k sigma_k, the mass p_j Q_j
    summed over j >= k.  None marks a coefficient that is no closed form in
    a and rho; it only ever multiplies a zero.
    """

    q: Fraction
    mass: Fraction | None
    ratio: Fraction  # v_k / v_{k+1}; unused at the top
    step: Fraction | None
    weight: Fraction
    y_ic: Fraction
    y_bir: Fraction
    y_border: Fraction
    y_chain: Fraction
    alloc: Fraction
    served: Fraction


def _times(x: Fraction, y: Fraction | None) -> Fraction:
    return Fraction(0) if x == 0 else x * y


def _types(a: Fraction, rho: Fraction, m: int) -> list[_Type]:
    """The LP's types in order, up to 4 cells; above, the classes in order:
    the bottom type, type m - 3 twice for the interior types 1..m - 3 (and
    their pairs with each other), then types m - 2, m - 1 and m.

    Type m - 3 stands for the class: every interior type has its rows'
    coefficients, multipliers and point, and only q_k, p_k and the Border
    row's right side 1 - q_k/2 move with k.  Its q_k = a/rho^3 is the least
    in the class, where the point's Border row, q_k sigma_k <= q_k - q_k^2/2
    with q_k sigma_k the same for every interior type, is tightest, since
    q - q^2/2 increases on [0, 1]; p_k only multiplies Q_k = 0.

    The bottom type's w_0 = rho^m/a - rho is at most the interior 1 - rho,
    as rho^m <= a, and tau_0 >= 0, so the LP with w_0 = 1 - rho bounds the
    true one from above, and the point, with tau_0 = 0, has the same value
    in both: the class check takes 1 - rho.  Its q_1 = a/rho^(m-1) is no
    closed form.  It is a coefficient only in the chain row 0 (on sigma_1,
    and on Q_0 through p_0 = 1 - q_1), whose multiplier is 0 and which the
    point meets with Q_0 = 0 whatever q_1 is, and in the Border row 1 of the
    interior class.
    """

    def edge(k: int) -> Fraction:
        return a if k == 0 else rho ** (m - k)

    def q(k: int) -> Fraction:
        return a / edge(k) if k <= m else Fraction(0)

    top, atom = 1 - (q(m - 1) + a) / 2, 1 - a / 2  # Q = tau at types m - 1 and m
    served = (q(m - 1) - a) * top + a * atom

    def law_type(k: int) -> _Type:
        alloc = {m - 1: top, m: atom}.get(k, Fraction(0))
        value = edge(k + 1) if k < m else Fraction(1)
        return _Type(
            q=q(k),
            mass=q(k) - q(k + 1),
            ratio=value / (edge(k + 2) if k + 1 < m else 1),
            step=q(k + 1) / q(k),
            weight=(q(k) - q(k + 1)) * value * rho / a,
            y_ic=Fraction(-2) if k < m - 1 else -2 * rho if k == m - 1 else Fraction(0),
            y_bir=Fraction(-2 if k == 0 else 0),
            y_border=Fraction(-2 if k == m - 1 else 0),
            y_chain=Fraction(2) if k == m - 1 else 2 * rho if k == m else Fraction(0),
            alloc=alloc,
            served=a * atom if k == m else served,
        )

    if m <= 4:
        return [law_type(k) for k in range(m + 1)]
    zero = Fraction(0)
    bottom = _Type(
        q=Fraction(1), mass=None, ratio=rho, step=None, weight=1 - rho,
        y_ic=Fraction(-2), y_bir=Fraction(-2), y_border=zero, y_chain=zero,
        alloc=zero, served=served,
    )
    interior = law_type(m - 3)
    return [bottom, interior, interior, law_type(m - 2), law_type(m - 1), law_type(m)]


def _certified_value(types: list[_Type]) -> Fraction:
    """The LP's optimum, once the multipliers and the point on ``types`` pass
    every check exactly; ConvergenceError otherwise.

    Dual: multipliers <= 0 on the inequality rows and reduced costs
    d = c - A^T y >= 0 on every column, c = -2 w on tau and 0 elsewhere, so
    every point in the nonnegative orthant that meets the rows has
    c^T x >= y^T b = sum of y_border (1 - q/2).  Primal: the point meets
    every row and box, with Border and chain rows times q_k.  The optimum is
    the common value of the two, negated.
    """
    dual = primal = Fraction(0)
    for k, t in enumerate(types):
        lo = types[k - 1] if k else None
        hi = types[k + 1] if k + 1 < len(types) else None
        lo_ic = lo.y_ic if lo else 0
        d_q = -(t.y_ic - lo_ic - t.y_bir - t.y_chain + _times(t.y_chain, t.step))
        d_tau = -2 * t.weight - (lo_ic - t.ratio * t.y_ic + t.y_bir)
        d_sigma = -(t.y_border + t.y_chain - (_times(lo.y_chain, lo.step) if lo else 0))
        rows = [
            min(d_q, d_tau, d_sigma) >= 0,
            max(t.y_ic, t.y_bir, t.y_border) <= 0,
            0 <= t.alloc <= 1,  # the boxes; BIR is tau - Q = 0
            0 <= t.served <= t.q - t.q * t.q / 2,  # Border, and sigma's box
            t.served == _times(t.alloc, t.mass) + (hi.served if hi else 0),  # chain
        ]
        if hi:  # IC, Q_k - Q_{k+1} + tau_{k+1} - ratio tau_k, and monotone
            rows += [(1 - t.ratio) * t.alloc <= 0, t.alloc <= hi.alloc]
        if not all(rows):
            raise ConvergenceError(f"the closed-form certificate fails at type class {k} of {len(types)}")
        dual += t.y_border * (1 - t.q / 2)  # the interior class, listed twice, has y_border = 0
        primal += 2 * t.weight * t.alloc  # and tau = 0
    if primal != -dual:
        raise ConvergenceError(f"the closed-form point's value {primal} is not the dual bound {-dual}")
    return primal


def lp_max_revenue(c: SolvedConstants, n: int) -> tuple[float, DiscreteDirectMechanism]:
    """The reduced-form LP's optimal mechanism, ex post, on the grid of
    ``grid_ratio`` (c.a, n); returns (revenue, mechanism).

    The types are ``reduced_form_bound``'s m + 1: cell k < m at its value
    e_{k+1} = rho^(m-1-k) with mass p_k = q_k - q_{k+1}, and the atom m at 1
    with mass a.  For two symmetric bidders a monotone interim allocation
    that meets Border's condition is implemented by a hierarchical rule
    (Border, Econometrica 59(4), 1991; Vohra, Mechanism Design: A Linear
    Programming Approach, 2011), and the LP's optimal point is one: only the
    two value-1 types m - 1 and m are served, the atom beats the top cell,
    equal types split, and the winner pays 1.  Its interim Q is the point's,
    and its revenue 2 p^T t1 p is 1 - (1 - a/rho)^2 = (a/rho)(2 - a/rho),
    the LP's optimum.
    """
    rho = grid_ratio(c.a, n)
    m = cell_count(c.a, rho)
    log_rho = math.log(rho)
    q = np.exp(math.log(c.a) + np.arange(1.0 - m, 0.0) * log_rho)  # q_k = a rho^(k-m), k = 1..m-1
    masses = np.concatenate(([1.0 - (q[0] if m > 1 else c.a)], (1.0 - rho) * q, [c.a]))
    types = np.exp(np.maximum(m - 1.0 - np.arange(m + 1.0), 0.0) * log_rho)  # 1 from k = m - 1 on
    q1 = np.zeros((m + 1, m + 1))
    q1[m - 1:, :m - 1] = 1.0
    q1[m, m - 1] = 1.0
    q1[[m - 1, m], [m - 1, m]] = 0.5
    # the winner pays 1, so each payment is the allocation itself
    revenue = 2.0 * float(masses @ q1 @ masses)
    return revenue, DiscreteDirectMechanism(masses=masses, types=types, q1=q1, q2=q1.T, t1=q1, t2=q1.T)
