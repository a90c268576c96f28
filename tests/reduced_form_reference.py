"""The explicit reduced-form LP of ``upper_bound.reduced_form_bound``, in
exact arithmetic, as an oracle for its per-class certificate.

The LP is built from the law alone: the cell edges e_0 = a and
e_k = rho^(m-k), G*'s survival P(X >= x) = a/x at each edge, and the cell
masses and values that follow.  Nothing here uses that G* is equal-revenue.
Columns are Q | tau | sigma, each of m + 1 types; rows are as in
``reduced_form_bound``'s docstring, the inequality rows in the order IC,
monotone, BIR, Border, then the chain (equality) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Law:
    """The rounded-up law on m + 1 types: P(type >= k), masses, values."""

    q: list[Fraction]
    masses: list[Fraction]
    values: list[Fraction]


def law(a: Fraction, rho: Fraction, m: int) -> Law:
    edges = [a] + [rho ** (m - k) for k in range(1, m + 1)]
    q = [a / e for e in edges]  # G*'s survival at each edge; q_m = a, the atom
    masses = [q[k] - q[k + 1] for k in range(m)] + [q[m]]
    values = edges[1:] + [Fraction(1)]
    return Law(q, masses, values)


@dataclass(frozen=True)
class ExactLp:
    """minimize cost . x subject to ub rows <= b_ub, eq rows = 0, 0 <= x <= 1.
    Each row is a list of (column, coefficient)."""

    cost: list[Fraction]
    ub: list[list[tuple[int, Fraction]]]
    b_ub: list[Fraction]
    eq: list[list[tuple[int, Fraction]]]


def reduced_form_lp(a: Fraction, rho: Fraction, m: int) -> ExactLp:
    g = law(a, rho, m)
    big_n = m + 1
    tau, sigma = big_n, 2 * big_n  # first columns of tau and sigma
    ic = [
        [(k, Fraction(1)), (k + 1, Fraction(-1)), (tau + k + 1, Fraction(1)), (tau + k, -g.values[k] / g.values[k + 1])]
        for k in range(m)
    ]
    mono = [[(k, Fraction(1)), (k + 1, Fraction(-1))] for k in range(m)]
    bir = [[(tau + k, Fraction(1)), (k, Fraction(-1))] for k in range(big_n)]
    border = [[(sigma + k, Fraction(1))] for k in range(big_n)]
    chain = []
    for k in range(big_n):
        row = [(sigma + k, Fraction(1)), (k, -g.masses[k] / g.q[k])]
        if k < m:
            row.append((sigma + k + 1, -g.q[k + 1] / g.q[k]))
        chain.append(row)
    ub = ic + mono + bir + border
    b_ub = [Fraction(0)] * (len(ic) + len(mono) + len(bir)) + [1 - qk / 2 for qk in g.q]
    unit = a / rho  # the revenue per unit of the objective
    cost = [Fraction(0)] * (3 * big_n)
    for k in range(big_n):
        cost[tau + k] = -2 * g.masses[k] * g.values[k] / unit
    return ExactLp(cost, ub, b_ub, chain)


def closed_form_multipliers(rho: Fraction, m: int) -> tuple[list[Fraction], list[Fraction]]:
    """(y_ub, y_eq) in ``reduced_form_lp``'s row order: -2 on every IC row
    but the last (-2 rho), -2 on BIR row 0 and on Border row m - 1, +2 and
    +2 rho on chain rows m - 1 and m."""
    big_n = m + 1
    y_ub = [Fraction(0)] * (2 * m + 2 * big_n)
    for k in range(m):
        y_ub[k] = Fraction(-2)
    y_ub[m - 1] = -2 * rho
    y_ub[2 * m] = Fraction(-2)  # BIR row 0
    y_ub[2 * m + big_n + m - 1] = Fraction(-2)  # Border row m - 1
    y_eq = [Fraction(0)] * big_n
    y_eq[m - 1], y_eq[m] = Fraction(2), 2 * rho
    return y_ub, y_eq


def hierarchical_allocation(a: Fraction, rho: Fraction, m: int) -> list[Fraction]:
    """Q = tau of the hierarchical point: only the two value-1 types are
    served, the atom beats the top cell, and equal types split."""
    alloc = [Fraction(0)] * (m + 1)
    top_q = a / rho  # P(type >= m - 1)
    alloc[m - 1] = 1 - (top_q + a) / 2  # beats every lower type, splits with itself
    alloc[m] = 1 - a / 2
    return alloc


def hierarchical_point(a: Fraction, rho: Fraction, m: int) -> list[Fraction]:
    """The hierarchical allocation as Q and tau, and sigma from the LP's own
    chain rows."""
    g = law(a, rho, m)
    alloc = hierarchical_allocation(a, rho, m)
    sigma = [Fraction(0)] * (m + 1)
    sigma[m] = alloc[m]
    for k in range(m - 1, -1, -1):
        sigma[k] = g.masses[k] / g.q[k] * alloc[k] + g.q[k + 1] / g.q[k] * sigma[k + 1]
    return alloc + alloc + sigma


def reduced_costs(lp: ExactLp, y_ub: list[Fraction], y_eq: list[Fraction]) -> list[Fraction]:
    d = list(lp.cost)
    for rows, y in ((lp.ub, y_ub), (lp.eq, y_eq)):
        for row, yr in zip(rows, y):
            for col, val in row:
                d[col] -= yr * val
    return d


def dual_value(lp: ExactLp, y_ub: list[Fraction]) -> Fraction:
    return sum((y * b for y, b in zip(y_ub, lp.b_ub)), Fraction(0))


def primal_feasible(lp: ExactLp, x: list[Fraction]) -> bool:
    def dot(row):
        return sum((val * x[col] for col, val in row), Fraction(0))

    return (
        all(0 <= v <= 1 for v in x)
        and all(dot(row) <= b for row, b in zip(lp.ub, lp.b_ub))
        and all(dot(row) == 0 for row in lp.eq)
    )


def objective(lp: ExactLp, x: list[Fraction]) -> Fraction:
    return sum((c * v for c, v in zip(lp.cost, x)), Fraction(0))
