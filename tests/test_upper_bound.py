"""The reduced-form LP bound against the explicit LP in exact arithmetic and
HiGHS, its cell count against exact powers, and the hierarchical mechanism
that ``--dump-mechanism`` writes against the LP's point and the exact
discrete optimum."""

import dataclasses
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxmin_auction.upper_bound as ub
from maxmin_auction import (
    ConvergenceError,
    DiscreteDirectMechanism,
    DomainError,
    lp_max_revenue,
    reduced_form_bound,
    second_moment_solution,
    solve_a,
)
from maxmin_auction.cli import main

import oracles
import reduced_form_reference as ref
from mechanism_reference import bic_bir_violations, myerson_revenue


class TestAnalyticBound:
    """The ``analytic_bound`` field that ``upper-bound`` prints is the
    guarantee ``2a - a^2`` itself."""

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.75, 0.9])
    def test_bitwise_equal_to_guarantee(self, capsys, mu):
        c = solve_a(mu)
        assert main(["upper-bound", "--mu", str(mu), "--grid-n", "10"]) == 0
        printed = json.loads(capsys.readouterr().out)["analytic_bound"]
        assert printed == float(format(c.revenue_guarantee, ".12g"))

    def test_frozen_values(self, c05, c075):
        assert c05.revenue_guarantee == pytest.approx(oracles.GUARANTEE_MU_05, abs=1e-13)
        assert c075.revenue_guarantee == pytest.approx(
            oracles.GUARANTEE_MU_075, abs=1e-13
        )
        assert c05.revenue_guarantee == pytest.approx(0.3385, abs=5e-4)


def _exact_cells(a: float, rho: float) -> int:
    """The least m >= 1 with rho^m <= a, by bisection on exact powers."""
    a, rho = Fraction(a), Fraction(rho)
    hi = 1
    while rho**hi > a:
        hi *= 2
    lo = hi // 2  # rho^lo > a, or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if rho**mid > a else (lo, mid)
    return hi


@st.composite
def _grid(draw, most_cells: float):
    """(a, rho) with rho in [a, 1) and ln(a)/ln(rho) up to most_cells."""
    a = math.exp(draw(st.floats(math.log(5e-324), math.log1p(-1e-12))))
    return a, max(math.exp(math.log(a) / draw(st.floats(1.0, most_cells))), a)


class TestCellCount:
    # Against exact powers, on both sides of the switch to logarithms at
    # about 1100 cells; rho^m = a holds at (0.25, 0.5), at rho = a and at
    # rho = 2^-1 or 2^-2 with a = 2^-1074, the most cells an equality allows.
    @settings(max_examples=80, deadline=None)
    @given(grid=_grid(2000.0))
    @example(grid=(0.25, 0.5))
    @example(grid=(0.3, 0.3))
    @example(grid=(5e-324, 5e-324))
    @example(grid=(5e-324, 0.5))
    @example(grid=(5e-324, 0.25))
    @example(grid=(2.0**-1000, 0.5))
    @example(grid=(0.5, 0.5 ** (1 / 1100)))
    def test_matches_exact_powers(self, grid):
        a, rho = grid
        m = ub.cell_count(a, rho)
        assert m == _exact_cells(a, rho)
        assert Fraction(rho) ** m <= Fraction(a) < Fraction(rho) ** (m - 1)

    def test_equalities(self):
        assert ub.cell_count(0.25, 0.5) == 2
        assert ub.cell_count(0.3, 0.3) == 1
        assert ub.cell_count(5e-324, 0.5) == 1074

    # mpmath's ceil(ln(a)/ln(rho)) at 60 digits
    @pytest.mark.parametrize(("a", "cells"), [(0.5, 6243314768165359), (5e-324, 6705320061009595419)])
    def test_finest_grid_matches_mpmath(self, a, cells):
        assert ub.cell_count(a, ub.FINEST_RATIO) == cells

    def test_grid_ratio(self):
        assert ub.grid_ratio(0.5, 1) == 0.5
        assert ub.grid_ratio(0.5, 10**18) == ub.FINEST_RATIO
        assert ub.cell_count(5e-324, ub.grid_ratio(5e-324, 1)) == 1
        for n in (1, 2, 25, 64, 1000, 10**6):
            assert ub.cell_count(0.5, ub.grid_ratio(0.5, n)) in (n, n + 1)
        # rho within 2^-54 of a^(1/n) moves the count by up to n^2 2^-54/ln 2
        n = 10**12
        assert abs(ub.cell_count(0.5, ub.grid_ratio(0.5, n)) - n) <= n * n * 2.0**-54 / math.log(2.0)


def _as_fractions(a: float, rho: float) -> tuple[Fraction, Fraction, int]:
    return Fraction(a), Fraction(rho), _exact_cells(a, rho)


class TestReducedFormBound:
    # The explicit LP on the rounded-up law, in exact arithmetic: the
    # closed-form multipliers price every column at 0 but tau_0, at
    # 2 - 2 rho^m/a >= 0, their dual value is -(2 - a/rho), and the
    # hierarchical point meets every row with that value.  reduced_form_bound
    # reads the same optimum from its per-class check.
    @settings(max_examples=40, deadline=None)
    @given(grid=_grid(60.0))
    @example(grid=(0.5, 0.5))
    @example(grid=(0.25, 0.5))
    @example(grid=(0.3, 0.97))
    @example(grid=(1e-300, 1e-75))
    def test_matches_the_exact_lp(self, grid):
        a, rho, m = _as_fractions(*grid)
        lp = ref.reduced_form_lp(a, rho, m)
        y_ub, y_eq = ref.closed_form_multipliers(rho, m)
        d = ref.reduced_costs(lp, y_ub, y_eq)
        tau_0 = m + 1
        assert d[tau_0] == 2 - 2 * rho**m / a >= 0
        assert all(v == 0 for j, v in enumerate(d) if j != tau_0)
        u = a / rho
        assert ref.dual_value(lp, y_ub) == -(2 - u)
        x = ref.hierarchical_point(a, rho, m)
        assert ref.primal_feasible(lp, x)
        assert ref.objective(lp, x) == -(2 - u)
        bound = reduced_form_bound(*grid)
        assert bound.cells == m
        assert bound.optimum == u * (2 - u)
        assert bound.lp_optimum == float(bound.optimum)
        assert Fraction(bound.safe_bound) >= bound.optimum
        assert bound.safe_bound in (bound.lp_optimum, math.nextafter(bound.lp_optimum, math.inf))

    # Each type of the explicit LP against the class that stands for it:
    # the same row coefficients, multipliers and point; the interior class
    # carries its least q_k, and the bottom class above 4 cells the upper
    # bound 1 - rho on w_0, and no q_1.
    @pytest.mark.parametrize("m_target", [1, 2, 3, 4, 5, 6, 9])
    @pytest.mark.parametrize("mu", [0.99, 0.5, 1e-9])
    def test_classes_stand_for_their_types(self, mu, m_target):
        a_float = solve_a(mu).a
        rho_float = ub.grid_ratio(a_float, m_target)
        a, rho, m = _as_fractions(a_float, rho_float)
        law = ref.law(a, rho, m)
        x = ref.hierarchical_point(a, rho, m)
        types = ub._types(a, rho, m)
        index = list(range(m + 1)) if m <= 4 else [0] + [1] * (m - 3) + [3, 4, 5]
        for k, i in enumerate(index):
            t = types[i]
            step = law.q[k + 1] / law.q[k] if k < m else 0
            weight = law.masses[k] * law.values[k] * rho / a
            assert (t.alloc, t.alloc, t.served) == (x[k], x[m + 1 + k], law.q[k] * x[2 * m + 2 + k])
            if k < m:
                assert t.ratio == law.values[k] / law.values[k + 1]
            if m > 4 and k == 0:
                assert t.step is None and t.mass is None and t.q == 1 and weight <= t.weight == 1 - rho
                continue
            assert (t.step, t.weight) == (step, weight)
            assert t.q <= law.q[k] and t.mass in (law.masses[k], law.masses[m - 3])
            if 0 < k < m - 3:
                assert t.q == law.q[m - 3]
            else:
                assert t.q == law.q[k] and t.mass == law.masses[k]

    # HiGHS, on the explicit LP in doubles, finds the same optimum.  The
    # solver sees only the LP, not the law behind it.  At its default
    # feasibility tolerances of 1e-7 it can stop that far from the optimum,
    # so it runs at 1e-10 with its presolve off, which at mu = 1e-100 and
    # below can stop with status 4.
    @pytest.mark.parametrize("n", [1, 2, 6, 10, 25])
    @pytest.mark.parametrize("mu", [0.9999999081422735, 0.99999, 0.5, 1e-3, 1e-9, 1e-30])
    def test_solver_finds_the_optimum(self, mu, n):
        from scipy import sparse

        a_float = solve_a(mu).a
        rho_float = ub.grid_ratio(a_float, n)
        a, rho, m = _as_fractions(a_float, rho_float)
        lp = ref.reduced_form_lp(a, rho, m)
        n_cols = len(lp.cost)

        def matrix(rows):
            triples = [(i, col, float(val)) for i, row in enumerate(rows) for col, val in row]
            r, c, v = zip(*triples)
            return sparse.csr_matrix((v, (r, c)), shape=(len(rows), n_cols))

        res = ub.linprog(
            [float(c) for c in lp.cost],
            A_ub=matrix(lp.ub),
            b_ub=[float(b) for b in lp.b_ub],
            A_eq=matrix(lp.eq),
            b_eq=np.zeros(len(lp.eq)),
            bounds=(0.0, 1.0),
            method="highs",
            options={
                "presolve": False,
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        assert res.success, res.message
        u = a_float / rho_float
        assert -res.fun == pytest.approx(2.0 - u, rel=1e-7, abs=0.0)
        assert -res.fun * u == pytest.approx(reduced_form_bound(a_float, rho_float).lp_optimum, rel=1e-7, abs=0.0)

    # upper-bound --grid-n n reports the stored-LP optimum a r (2 - a r),
    # r = exp(-ln(a)/n), of the geometric grid from a up, to rounding, and
    # the gap above g is (r - 1)(2 - a(r + 1))/(2 - a) relative.
    @pytest.mark.parametrize("n", [1, 25, 50, 64, 1000])
    @pytest.mark.parametrize("mu", [0.99999, 0.5, 1e-3, 1e-9, 1e-30, 1e-300])
    def test_grid_n_keeps_its_optimum(self, mu, n):
        c = solve_a(mu)
        bound = reduced_form_bound(c.a, ub.grid_ratio(c.a, n))
        r = math.exp(-math.log(c.a) / n)
        closed = c.a * r * (2.0 - c.a * r)
        assert bound.lp_optimum == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert c.revenue_guarantee <= bound.safe_bound
        gap = (r - 1.0) * (2.0 - c.a * (r + 1.0)) / (2.0 - c.a)
        assert closed / c.revenue_guarantee - 1.0 == pytest.approx(gap, rel=1e-6)

    # verify's grid: the bound is within 1.2e-16 relative of 2a - a^2, and
    # certifies the double g within g's own rounding, down to subnormal a,
    # while a g off by 2e-12 relative, either way, fails.
    # At mu = 0.9 and 0.99 g lies above the exact optimum, by 1.7e-17 and
    # 2.3e-17 relative, so the check must allow that rounding.
    @pytest.mark.parametrize("mu", [1.0 - 1e-9, 0.99, 0.9, 0.5, 1e-3, 1e-9, 1e-30, 1e-300, 1e-320, 5e-324])
    def test_finest_grid_certifies_g(self, mu):
        c = solve_a(mu)
        a = Fraction(c.a)
        exact = 2 * a - a * a
        bound = reduced_form_bound(c.a, ub.FINEST_RATIO)
        assert exact <= bound.optimum <= exact * (1 + Fraction(1.2e-16))
        assert bound.certifies(c.revenue_guarantee, 1e-12)
        if mu >= 1e-300:  # a subnormal g times 1 +- 2e-12 rounds back to g
            for off in (1.0 - 2e-12, 1.0 + 2e-12):
                assert not bound.certifies(c.revenue_guarantee * off, 1e-12)
        if mu in (0.99, 0.9):
            assert Fraction(c.revenue_guarantee) > bound.optimum

    # The second-moment saddle has the worst-case law of a = 1 - sqrt(1 - delta),
    # whose guarantee 2a - a^2 is delta itself: the same LP bounds it above.
    @pytest.mark.parametrize("delta", [1e-300, 1e-17, 1e-6, 0.1, 0.5, 0.9, 1.0 - 2.0**-52])
    def test_second_moment_upper_half(self, delta):
        bound = reduced_form_bound(second_moment_solution(delta).a, ub.FINEST_RATIO)
        assert bound.safe_bound == pytest.approx(delta, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        ("a", "rho"),
        [(0.5, 0.4), (0.5, 1.0), (0.5, 1.5), (0.0, 0.5), (1.0, 0.5), (math.nan, 0.5), (0.5, math.nan)],
    )
    def test_domain(self, a, rho):
        with pytest.raises(DomainError):
            reduced_form_bound(a, rho)

    @pytest.mark.parametrize(("a", "n"), [(0.5, 0), (0.5, -3), (0.0, 50), (1.0, 50), (math.nan, 50)])
    def test_grid_domain(self, a, n):
        with pytest.raises(DomainError):
            ub.grid_ratio(a, n)

    # O(1) at any grid: a trillion cells in under 10 ms and a few kB, where
    # the stored LP took about 600 bytes per cell
    def test_cost_does_not_grow_with_the_grid(self, c05):
        reduced_form_bound(c05.a, 0.5)  # imports outside the trace
        tracemalloc.start()
        try:
            start = time.perf_counter()
            bound = reduced_form_bound(c05.a, ub.grid_ratio(c05.a, 10**12))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound.cells == pytest.approx(10**12, rel=1e-4)
        assert peak <= 100_000 and elapsed <= 0.1

    # A multiplier, a class coefficient or the point off by 1e-12 fails the
    # certificate, per type (3 cells) and per class (50): the bound raises,
    # and the command line exits 3.
    @pytest.mark.parametrize("n", [3, 50])
    @pytest.mark.parametrize(
        ("index", "field"),
        [(-1, "y_chain"), (-2, "y_border"), (1, "y_ic"), (0, "y_bir"), (1, "ratio"), (-2, "weight"), (-1, "alloc")],
    )
    def test_an_inexact_certificate_is_a_convergence_error(self, c05, monkeypatch, capsys, n, index, field):
        real = ub._types

        def off(*args):
            types = real(*args)
            t = types[index]
            types[index] = dataclasses.replace(t, **{field: getattr(t, field) * (1 + Fraction(1, 10**12))})
            return types

        monkeypatch.setattr(ub, "_types", off)
        with pytest.raises(ConvergenceError, match="certificate fails|is not the dual bound"):
            reduced_form_bound(c05.a, ub.grid_ratio(c05.a, n))
        assert main(["upper-bound", "--mu", "0.5", "--grid-n", str(n)]) == 3
        assert capsys.readouterr().out == ""


class TestLp:
    def test_optimum_near_bound(self, c05):
        opt, mech = lp_max_revenue(c05, 25)
        bound = c05.revenue_guarantee
        assert bound <= opt <= bound + 0.03
        # the certificate is itself feasible
        viol = bic_bir_violations(mech)
        assert viol["max_bic_gain"] <= 1e-12
        assert viol["max_bir_violation"] <= 1e-12
        assert viol["max_feasibility_excess"] <= 1e-12

    # The mechanism implements the LP's closed-form point: its interim Q is
    # the point's, it passes every misreport pair, and it earns the LP's
    # optimum.  Measured worst: 1.6e-15 on Q, 1.1e-14 relative on revenue.
    @pytest.mark.parametrize("n", [1, 2, 25, 50, 1000])
    @pytest.mark.parametrize("mu", [0.99999, 0.5, 1e-3, 1e-9, 1e-30])
    def test_implements_the_hierarchical_point(self, mu, n):
        c = solve_a(mu)
        a = c.a
        opt, mech = lp_max_revenue(c, n)
        rho = ub.grid_ratio(a, n)
        alloc = ref.hierarchical_allocation(Fraction(a), Fraction(rho), ub.cell_count(a, rho))
        np.testing.assert_allclose(mech.q1 @ mech.masses, [float(v) for v in alloc], rtol=0.0, atol=1e-12)
        viol = bic_bir_violations(mech)
        assert max(viol.values()) <= 1e-12
        assert opt == pytest.approx(reduced_form_bound(a, rho).lp_optimum, rel=1e-12, abs=0.0)
        assert opt == 2.0 * float(mech.masses @ mech.t1 @ mech.masses)

    # Myerson's ironed virtual values give the exact optimum over all BIC,
    # BIR mechanisms on the same types, so equality catches a mechanism that
    # earns too little as well as one that breaks a constraint.  The law is
    # equal-revenue, so every virtual value below the top is 0 in exact
    # arithmetic; the oracle irons ulp(a r)/p_k of noise into them, which
    # measured 2e-17 to 5e-17 over a relative to the revenue (7.7e-10 at
    # mu = 1e-6, 4.7e-7 at 1e-9), hence the tolerance max(1e-12, 1e-15/a).
    @pytest.mark.parametrize(
        ("mu", "n"),
        [
            (0.5, 10),
            (0.5, 25),
            (0.5, 50),
            (0.3, 25),
            (0.95, 50),
            (1e-6, 50),
            (1e-9, 50),
            (0.99999, 50),
            (0.5, 100),
        ],
    )
    def test_equals_myerson_optimum(self, mu, n):
        c = solve_a(mu)
        opt, mech = lp_max_revenue(c, n)
        exact = myerson_revenue(mech.types, mech.masses)
        assert opt == pytest.approx(exact, rel=max(1e-12, 1e-15 / c.a), abs=0.0)

    # Bidder 2's cells are the mirror image of bidder 1's.
    @pytest.mark.parametrize("mu", [1e-9, 0.5, 0.99999])
    def test_mechanism_mirrors_exactly(self, mu):
        _, mech = lp_max_revenue(solve_a(mu), 20)
        assert np.array_equal(mech.q2, mech.q1.T)
        assert np.array_equal(mech.t2, mech.t1.T)

    def test_zero_mechanism_feasible_baseline(self, c05):
        _, mech = lp_max_revenue(c05, 15)
        cells = np.zeros((16, 16))
        zero = DiscreteDirectMechanism(
            masses=mech.masses, types=mech.types, q1=cells, q2=cells, t1=cells, t2=cells
        )
        viol = bic_bir_violations(zero)
        assert viol["max_bic_gain"] <= 0.0
        assert viol["max_bir_violation"] <= 0.0
        assert zero.t1.mean() + zero.t2.mean() == 0.0

    # the same validator as ``reduced_form_bound``: any n >= 1 cells
    def test_grid_floor(self, c05):
        for n in (0, -3):
            with pytest.raises(DomainError):
                lp_max_revenue(c05, n)
        opt, mech = lp_max_revenue(c05, 1)
        # one cell: both types have value 1, and the item is always sold
        assert opt == pytest.approx(1.0, rel=1e-15, abs=0.0) and mech.q1.shape == (2, 2)

    def test_mechanism_json_dict(self, c05):
        _, mech = lp_max_revenue(c05, 12)
        d = mech.to_json_dict()
        assert set(d) == {"masses", "types", "q1", "q2", "t1", "t2"}
        assert len(d["q1"]) == 13 and len(d["q1"][0]) == 13
        assert len(d["masses"]) == len(d["types"]) == 13
