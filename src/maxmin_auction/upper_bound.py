"""Revenue caps over all incentive-compatible mechanisms.

``reduced_form_bound`` is the upper bound
-----------------------------------------
The theorem's converse says that no mechanism earns more than g = 2a - a^2
against the worst-case signal law G* (G(x) = 1 - a/x on [a, 1), an atom of
mass a at 1).  ``reduced_form_bound`` witnesses it from above without using
that G* is equal-revenue.  It cuts [a, 1] at the geometric edges e_j = a r^j,
r = (1/a)^(1/n), and rounds each of the n cells of G* up to its right edge;
the atom stays at 1.  The rounded law first-order dominates G*, and with one
good and independent bidders the best revenue is monotone in first-order
dominance (run the dominated law's optimal mechanism on quantile-mapped
reports).  So the optimum of Myerson's (1981) reduced-form LP on these n + 1
types bounds the best revenue against G* from above.  The LP has 3(n + 1)
columns and O(n) nonzeros, and every coefficient is a closed form in r, so it
is scale-free down to subnormal a.  Its optimum is a r (2 - a r): every
posted price e_{j+1} earns a r, so only the two value-1 types have a
positive ironed virtual value.  That exceeds g by about g ln(1/a)/n, so no
fixed n gives a fixed relative gap at every mu: at n = 50 it is 3.1% at
mu = 0.5, 61% at mu = 1e-9 and a factor of about 1e6 at mu = 1e-300.

The bound needs no solver.  The LP's optimal multipliers and its optimal
point are both closed forms in r, built in O(n).  Weak duality holds for any
multipliers once every column is boxed (Neumaier & Shcherbina, Math.
Program. 99(2), 2004), so the multipliers give a bound that is safe against
the rounding of its own sums, for the LP as stored; the rounding of that
LP's coefficients is not covered.  The point's value is reported once its
residuals are checked.

``lp_max_revenue`` writes that point's mechanism ex post, for
``upper-bound --dump-mechanism``: the hierarchical auction on the same n + 1
types, whose revenue is the LP's optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SolvedConstants
from .errors import ConvergenceError, DomainError
from .quadrature import exact_sum

__all__ = ["DiscreteDirectMechanism", "ReducedFormBound", "lp_max_revenue", "reduced_form_bound"]

_UNIT_ROUNDOFF = 2.0**-53
_LEAST_SUBNORMAL = 2.0**-1074
# The closed-form point may miss a row or a box by rounding alone: by at most
# _PRIMAL_ULPS + ln(1/a) units of roundoff times the row's magnitude
# |A| |x| + |b| (1 for a box), plus one least subnormal per entry.  The
# ln(1/a) is the rounding of k t in the coefficients exp(k t), which at n = 1
# leaves the top cell's Border row up to ln(1/a)/2 units off the point; over
# about 2,700 other (mu, n) pairs, n up to 1e5, the worst miss was 2 units.
_PRIMAL_ULPS = 4.0


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

    No command calls it: the tests solve ``reduced_form_bound``'s LP with it,
    and the benchmark tracer (``perfbench/trace_child.py``) binds the name.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


@dataclass(frozen=True)
class ReducedFormBound:
    """Result of ``reduced_form_bound``; revenues are per auction, not per a.

    ``safe_bound`` is the certified upper bound on the LP's optimum, and so on
    the best revenue of any mechanism against the worst-case signal law.
    ``lp_optimum`` is the value of the LP's closed-form optimal point.
    ``rounded_up_bound`` is the LP's exact optimum a r (2 - a r), for
    comparison only.  ``unit`` is a r, the LP's unit of revenue, and
    ``safe_units`` the certified bound in that unit, before the product with
    a r that rounds to the subnormal grid once a r is subnormal.
    """

    lp_optimum: float
    safe_bound: float
    rounded_up_bound: float
    n: int
    unit: float
    safe_units: float

    def certifies(self, guarantee: float, rtol: float) -> bool:
        """guarantee <= safe bound <= a r (2 - a r) (1 + rtol), compared in
        units of a r, where no product with a r rounds."""
        return guarantee / self.unit <= self.safe_units <= (2.0 - self.unit) * (1.0 + rtol)


def reduced_form_bound(a: float, n: int) -> ReducedFormBound:
    """Myerson's reduced-form LP on the n geometric cells of [a, 1], rounded up.

    Types k = 0..n-1 are the cells [e_k, e_{k+1}) at value v_k = e_{k+1},
    type n is the atom at 1, and q_k = P(type >= k) = r^-k (q_n = a).  The
    variables, with boxes [0, 1], are the interim allocation Q_k, the scaled
    payment tau_k = T_k / v_k and the Border ratio
    sigma_k = sum over j >= k of p_j Q_j / q_k.  The rows:

        IC / v_hi   Q_lo - Q_hi + tau_hi - (v_lo/v_hi) tau_lo <= 0
        monotone    Q_lo - Q_hi <= 0
        BIR         tau_k - Q_k <= 0
        Border      sigma_k <= 1 - q_k/2
        chain       sigma_k - (p_k/q_k) Q_k - (q_{k+1}/q_k) sigma_{k+1} = 0

    for adjacent types lo = hi - 1, with v_lo/v_hi = q_{k+1}/q_k = 1/r and
    p_k/q_k = 1 - 1/r below the top (v_lo/v_hi = 1 between the two value-1
    types n - 1 and n, and p_n/q_n = 1 with no sigma_{n+1}).  The objective
    is 2 sum of (p_k v_k / (a r)) tau_k, with weights 1 - 1/r below the top
    and 1/r at the atom, so the LP's optimum times a r is the revenue.  That
    is 5n + 3 rows and about 12n nonzeros.

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

    The safe bound is weak duality (Neumaier & Shcherbina, Math. Program.
    99(2), 2004).  With multipliers y_ub clipped to <= 0 and y_eq, and
    d = c - A_ub^T y_ub - A_eq^T y_eq, every feasible x has
    c^T x >= y_ub^T b_ub + sum of min(0, d_j) over the unit boxes (b_eq = 0),
    whatever the multipliers; the maximum is minus that, times a r.  Each
    d_j is a dot product of at most m = 1 + (column count) terms, so its
    rounding error is at most gamma_m (|c_j| + |A|^T |y|)_j plus m halves of
    the least subnormal (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.1), with gamma_m = m u / (1 - m u); each
    y_k b_k is off by at most u |y_k b_k| plus half the least subnormal.
    Twice those allowances are subtracted as terms of their own, the terms
    are added by ``exact_sum``, and the sum and the products with a r are
    each moved one ulp outward.  The bound holds for the LP as stored, whose
    coefficients are the closed forms in r as rounded.

    The multipliers are the LP's optimal ones: -2 on every IC row but the
    last, which has -2/r, -2 on BIR row 0 and on Border row n - 1, +2 and
    +2/r on chain rows n - 1 and n, and 0 on every other row.  Every reduced
    cost d_j is then 0 in exact arithmetic, and the dual value is
    -(2 - q_{n-1}) = -(2 - a r).  So the safe bound exceeds a r (2 - a r) by
    the rounding allowance alone, which is about 8 gamma_7 for each of the
    2n Q and tau columns that the IC rows reach, so it grows as n.  Relative
    to a r (2 - a r) it measured 3.2e-13 to 6.5e-13 at n = 50, 6.2e-12 to
    1.25e-11 at n = 1000, 6.2e-10 to 1.25e-9 at n = 1e5 and 6.2e-9 to
    1.25e-8 at n = 1e6, the high end near mu = 1; from about n = 1e5 up it
    alone exceeds the 1e-9 of ``verify``'s check.  Building and checking
    both sides takes about 0.1 ms at n = 50 and 50 ms at n = 1e5.

    The point is the hierarchical allocation: only the two value-1 types are
    served, the atom beats the top cell, and equal types split.  Q_k = tau_k
    = 0 below type n - 1, Q_{n-1} = tau_{n-1} = 1 - a (r + 1)/2 and
    Q_n = tau_n = 1 - a/2; sigma follows from the chain rows, sigma_n = Q_n,
    sigma_{n-1} = (1 - 1/r) Q_{n-1} + sigma_n / r = 1 - a r/2 (on its Border
    row) and sigma_k = r^-(n-1-k) sigma_{n-1} below.  Its value is 2 - a r,
    the dual value, so both are optimal.  The form 1 - a (r + 1)/2 is the one
    that does not cancel as r nears 1.  ``lp_optimum`` is the point's value
    times a r, reported only once every row and box of the point holds
    within its rounding allowance (_PRIMAL_ULPS); otherwise
    ConvergenceError.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"the atom a must lie in (0, 1), got {a}")
    if n < 1:
        raise DomainError(f"the reduced-form LP needs at least 1 cell, got {n}")
    t = math.log(a) / n  # ln(1/r); r = exp(-t) never overflows, unlike (1/a)**(1/n)
    lp = _ReducedFormLp.build(t, n)
    x = _hierarchical_point(a, t, n)
    excess = lp.primal_excess(x, (_PRIMAL_ULPS - math.log(a)) * _UNIT_ROUNDOFF)
    if excess > 0.0:
        raise ConvergenceError(f"the closed-form LP point misses a row or box by {excess:.3g} beyond rounding")
    unit = a * math.exp(-t)
    lp_optimum = -float(lp.cost @ x) * unit
    del x
    safe_units = -lp.dual_bound(*_closed_form_multipliers(t, n))
    return ReducedFormBound(
        lp_optimum=lp_optimum,
        safe_bound=math.nextafter(safe_units * math.nextafter(unit, math.inf), math.inf),
        rounded_up_bound=unit * (2.0 - unit),
        n=n,
        unit=unit,
        safe_units=safe_units,
    )


def _closed_form_multipliers(t: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The LP's optimal multipliers (y_ub, y_eq), in ``_ReducedFormLp.build``'s
    row order (``reduced_form_bound``)."""
    inv_r = math.exp(t)
    y_ub = np.zeros(4 * n + 2)
    y_ub[:n] = -2.0  # IC
    y_ub[n - 1] = -2.0 * inv_r
    y_ub[2 * n] = -2.0  # BIR row 0
    y_ub[4 * n] = -2.0  # Border row n - 1
    y_eq = np.zeros(n + 1)
    y_eq[n - 1:] = (2.0, 2.0 * inv_r)  # chain rows n - 1 and n
    return y_ub, y_eq


def _hierarchical_point(a: float, t: float, n: int) -> np.ndarray:
    """The LP's closed-form optimal point, columns Q | tau | sigma
    (``reduced_form_bound``)."""
    r, inv_r = math.exp(-t), math.exp(t)
    big_n = n + 1
    top_cell, atom = 1.0 - a * (r + 1.0) / 2.0, 1.0 - a / 2.0
    x = np.zeros(3 * big_n)
    x[n - 1:big_n] = x[big_n + n - 1:2 * big_n] = (top_cell, atom)
    sigma_top = -math.expm1(t) * top_cell + inv_r * atom  # chain row n - 1
    x[2 * big_n + n - 1:] = (sigma_top, atom)
    x[2 * big_n:2 * big_n + n - 1] = sigma_top * np.power(inv_r, np.arange(n - 1, 0, -1.0))
    return x


@dataclass(frozen=True)
class _ReducedFormLp:
    """``reduced_form_bound``'s LP: minimize cost^T x subject to
    A_ub x <= b_ub, A_eq x = 0 and the unit boxes; columns Q | tau | sigma.

    A = [A_ub; A_eq] is kept as COO triples (rows, cols, vals), with the
    b_ub.size inequality rows first; ``shape`` is A's."""

    cost: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]
    b_ub: np.ndarray
    border: np.ndarray  # the rows of A_ub that carry Border's condition

    @classmethod
    def build(cls, t: float, n: int) -> "_ReducedFormLp":
        """The LP on n cells, from t = ln(1/r) = ln(a)/n."""
        inv_r = math.exp(t)
        big_n = n + 1
        k = np.arange(big_n)
        lo, hi = k[:-1], k[1:]
        big_t, big_s = big_n, 2 * big_n  # first columns of tau and sigma
        ratio = np.full(n, inv_r)  # v_lo / v_hi
        ratio[-1] = 1.0  # the top cell and the atom both have value 1
        ic, mono = lo, n + lo
        bir = 2 * n + k
        border = 2 * n + big_n + k
        chain = 2 * n + 2 * big_n + k
        share = np.full(big_n, -math.expm1(t))  # p_k / q_k
        share[-1] = 1.0
        # (row, column, value) of each block of entries, written in this
        # order into the preallocated triples
        entries = (
            (ic, lo, 1.0),
            (ic, hi, -1.0),
            (ic, big_t + hi, 1.0),
            (ic, big_t + lo, -ratio),
            (mono, lo, 1.0),
            (mono, hi, -1.0),
            (bir, big_t + k, 1.0),
            (bir, k, -1.0),
            (border, big_s + k, 1.0),
            (chain, big_s + k, 1.0),
            (chain, k, -share),
            (chain[:-1], big_s + hi, -inv_r),
        )
        nnz = sum(row.size for row, _, _ in entries)
        rows = np.empty(nnz, dtype=k.dtype)
        cols = np.empty(nnz, dtype=k.dtype)
        vals = np.empty(nnz)
        end = 0
        for row, col, val in entries:
            start, end = end, end + row.size
            rows[start:end], cols[start:end], vals[start:end] = row, col, val
        b_ub = np.zeros(chain[0])
        b_ub[border] = 1.0 - 0.5 * np.exp(k * t)  # 1 - q_k/2

        cost = np.zeros(3 * big_n)
        cost[big_t:big_s] = 2.0 * math.expm1(t)  # -2 (1 - 1/r)
        cost[big_s - 1] = -2.0 * inv_r
        return cls(cost, rows, cols, vals, (5 * n + 3, cost.size), b_ub, border)

    def primal_excess(self, x: np.ndarray, rtol: float) -> float:
        """How far x misses its worst row or box beyond rtol times the row's
        magnitude and a least subnormal per entry; at most 0 if all hold."""
        n_rows, ineq = self.shape[0], self.b_ub.size
        terms = np.take(x, self.cols)  # the entries times x, then their sizes
        terms *= self.vals
        miss = np.bincount(self.rows, terms, minlength=n_rows)  # A x, then its miss
        size = np.bincount(self.rows, np.abs(terms, out=terms), minlength=n_rows)
        del terms
        size[:ineq] += np.abs(self.b_ub)
        miss[:ineq] -= self.b_ub
        np.abs(miss[ineq:], out=miss[ineq:])
        size *= rtol  # the allowance
        size += np.bincount(self.rows, minlength=n_rows) * _LEAST_SUBNORMAL
        miss -= size
        box = np.maximum(-x, x - 1.0)
        box -= rtol
        return float(np.maximum(np.max(miss), np.max(box)))

    def reduced_costs(self, y_ub: np.ndarray, y_eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d = c - A^T y on y_ub clipped to <= 0, and twice the bound on each
        d_j's rounding error (``reduced_form_bound``)."""
        y = np.concatenate((np.minimum(y_ub, 0.0), y_eq))
        terms = np.take(y, self.rows)  # the entries times y, then their sizes
        terms *= self.vals
        n_cols = self.shape[1]
        reduced = self.cost - np.bincount(self.cols, terms, minlength=n_cols)
        size = np.abs(self.cost) + np.bincount(self.cols, np.abs(terms, out=terms), minlength=n_cols)
        del terms
        m = 1 + int(np.max(np.bincount(self.cols, minlength=n_cols)))
        gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
        return reduced, 2.0 * gamma * size + m * _LEAST_SUBNORMAL

    def dual_bound(self, y_ub: np.ndarray, y_eq: np.ndarray) -> float:
        """Weak duality on the multipliers y_ub (clipped to <= 0) and y_eq: a
        lower bound on the minimum, rounding-safe (``reduced_form_bound``)."""
        reduced, allowance = self.reduced_costs(y_ub, y_eq)
        border_terms = np.minimum(y_ub[self.border], 0.0) * self.b_ub[self.border]
        terms = np.concatenate((
            np.minimum(reduced, 0.0, out=reduced),
            np.negative(allowance, out=allowance),
            border_terms,
            -(2.0 * _UNIT_ROUNDOFF * abs(border_terms) + _LEAST_SUBNORMAL),
        ))
        del reduced, allowance
        return math.nextafter(exact_sum(terms), -math.inf)


def lp_max_revenue(c: SolvedConstants, n: int) -> tuple[float, DiscreteDirectMechanism]:
    """The reduced-form LP's optimal mechanism, ex post; returns (revenue,
    mechanism).

    The types are ``reduced_form_bound``'s n + 1: cell k < n at its value
    e_{k+1} = a r^(k+1) with mass p_k = q_k - q_{k+1}, and the atom n at 1
    with mass a.  For two symmetric bidders a monotone interim allocation
    that meets Border's condition is implemented by a hierarchical rule
    (Border, Econometrica 59(4), 1991; Vohra, Mechanism Design: A Linear
    Programming Approach, 2011), and the LP's optimal point is one: only the
    two value-1 types n - 1 and n are served, the atom beats the top cell,
    equal types split, and the winner pays 1.  Its interim Q is the point's,
    and its revenue 2 p^T t1 p is 1 - (1 - a r)^2 = a r (2 - a r), the LP's
    optimum.
    """
    if n < 1:
        raise DomainError(f"the reduced-form LP needs at least 1 cell, got {n}")
    t = math.log(c.a) / n
    k = np.arange(n + 1.0)
    masses = np.append(-math.expm1(t) * np.exp(k[:-1] * t), c.a)
    types = np.exp(np.maximum(n - 1.0 - k, 0.0) * t)  # a r^(k+1) = exp((n-1-k) t); 1 from k = n - 1 on
    q1 = np.zeros((n + 1, n + 1))
    q1[n - 1:, :n - 1] = 1.0
    q1[n, n - 1] = 1.0
    q1[[n - 1, n], [n - 1, n]] = 0.5
    # the winner pays 1, so each payment is the allocation itself
    revenue = 2.0 * float(masses @ q1 @ masses)
    return revenue, DiscreteDirectMechanism(masses=masses, types=types, q1=q1, q2=q1.T, t1=q1, t2=q1.T)
