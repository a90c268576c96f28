"""The reduced-form LP bound against its closed form, and the hierarchical
mechanism that ``--dump-mechanism`` writes against the LP's point and the
exact discrete optimum."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxmin_auction.upper_bound as ub
from maxmin_auction import (
    ConvergenceError,
    DiscreteDirectMechanism,
    DomainError,
    ModelParams,
    lp_max_revenue,
    reduced_form_bound,
    second_moment_solution,
    solve_a,
)
from maxmin_auction.cli import main

import oracles
from mechanism_reference import bic_bir_violations, myerson_revenue


class TestAnalyticBound:
    """The ``analytic_bound`` field that ``upper-bound`` prints is the
    guarantee ``2a - a^2`` itself."""

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.75, 0.9])
    def test_bitwise_equal_to_guarantee(self, capsys, mu):
        c = solve_a(ModelParams(mu=mu))
        assert main(["upper-bound", "--mu", str(mu), "--grid-n", "10"]) == 0
        printed = json.loads(capsys.readouterr().out)["analytic_bound"]
        assert printed == float(format(c.revenue_guarantee, ".12g"))

    def test_frozen_values(self, c05, c075):
        assert c05.revenue_guarantee == pytest.approx(oracles.GUARANTEE_MU_05, abs=1e-13)
        assert c075.revenue_guarantee == pytest.approx(
            oracles.GUARANTEE_MU_075, abs=1e-13
        )
        assert c05.revenue_guarantee == pytest.approx(0.3385, abs=5e-4)


def _log_uniform_mu():
    lo, hi = math.log(1e-300), math.log1p(-1e-9)
    return st.floats(lo, hi).map(math.exp)


def _ratio(a: float, n: int) -> float:
    return math.exp(-math.log(a) / n)


class TestReducedFormBound:
    # The LP's exact optimum on the rounded-up cells is a r (2 - a r).  The
    # closed-form point's value was measured within 2.3e-16 of it, and the
    # safe bound at most 1.25e-11 above it for n <= 1000.
    @settings(max_examples=60, deadline=None)
    @given(mu=_log_uniform_mu(), n=st.sampled_from([10, 50, 64, 150]))
    def test_safe_bound_brackets_and_primal_matches_closed_form(self, mu, n):
        c = solve_a(ModelParams(mu=mu))
        bound = reduced_form_bound(c.a, n)
        a, r = c.a, _ratio(c.a, n)
        closed = a * r * (2.0 - a * r)
        assert bound.rounded_up_bound == closed
        assert c.revenue_guarantee <= bound.safe_bound <= closed * (1.0 + 1e-9)
        assert abs(bound.lp_optimum - closed) <= 1e-11 * closed
        assert bound.n == n
        assert bound.certifies(c.revenue_guarantee, 1e-9)

    # HiGHS, on the LP's own rows, finds the optimum of the closed-form point.
    # The solver sees only the LP, not the law behind it.  At its default
    # feasibility tolerances of 1e-7 it can stop that far from the optimum:
    # 1.28e-7 relative at mu = 1 - 9.2e-8, n = 6, a draw that hypothesis
    # makes from a literal constant of the package source (it mixes those
    # into its draws even when derandomized).  At 1e-10, with its presolve
    # off, it agrees there to 3.3e-13, and within 1.8e-9 on a log-uniform
    # sweep of 155 mu at n in {6, 10, 25}.  With presolve on, the 1e-10
    # solve stops with status 4 at 7 of those mu, all below 1e-100 and at
    # n = 25.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(mu=_log_uniform_mu(), n=st.sampled_from([6, 10, 25]))
    @example(mu=0.9999999081422735, n=6)
    def test_solver_finds_the_closed_form_optimum(self, mu, n):
        from scipy import sparse

        a = solve_a(ModelParams(mu=mu)).a
        t = math.log(a) / n
        lp = ub._ReducedFormLp.build(t, n)
        rows = sparse.csr_matrix((lp.vals, (lp.rows, lp.cols)), shape=lp.shape)
        ineq = lp.b_ub.size
        res = ub.linprog(
            lp.cost,
            A_ub=rows[:ineq],
            b_ub=lp.b_ub,
            A_eq=rows[ineq:],
            b_eq=np.zeros(lp.shape[0] - ineq),
            bounds=(0.0, 1.0),
            method="highs",
            options={
                "presolve": False,
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        assert res.success, res.message
        point = ub._hierarchical_point(a, t, n)
        assert res.fun == pytest.approx(float(lp.cost @ point), rel=1e-7, abs=0.0)

    # The closed-form multipliers price every column at 0 in exact
    # arithmetic, so the computed reduced costs are rounding alone: each
    # within half its allowance, and their negative parts sum to at least
    # minus the whole allowance that ``dual_bound`` subtracts.
    @pytest.mark.parametrize("n", [1, 2, 6, 50, 1000])
    @pytest.mark.parametrize("mu", [1.0 - 1e-9, 0.5, 1e-9, 1e-300])
    def test_reduced_costs_within_allowance(self, mu, n):
        t = math.log(solve_a(ModelParams(mu=mu)).a) / n
        lp = ub._ReducedFormLp.build(t, n)
        reduced, allowance = lp.reduced_costs(*ub._closed_form_multipliers(t, n))
        assert np.all(np.abs(reduced) <= allowance / 2.0)
        assert math.fsum(np.minimum(reduced, 0.0)) >= -math.fsum(allowance)

    # Points where a single solve, or one refinement step, left the bound
    # 3e-9 to 7e-9 above the closed form; then points where the dual simplex
    # without presolve fails: the first solve (0.99999999600, 64), the primal
    # step, where only interior point succeeds and the first solve's primal
    # is 6.1e-11 off (0.99999998326, 50), and the dual step under every
    # setting (6.2e-12, 50).
    @pytest.mark.parametrize(
        ("mu", "n"),
        [
            (2.3338406750613062e-91, 10),
            (0.9999999965485258, 150),
            (0.9999999979132144, 150),
            (0.999999979058869, 64),
            (0.9999999960044976, 64),
            (0.9999999832567749, 50),
            (6.198968986133308e-12, 50),
        ],
    )
    def test_refinement_corners(self, mu, n):
        c = solve_a(ModelParams(mu=mu))
        bound = reduced_form_bound(c.a, n)
        closed = bound.rounded_up_bound
        assert c.revenue_guarantee <= bound.safe_bound <= closed * (1.0 + 1e-10)
        assert abs(bound.lp_optimum - closed) <= 1e-11 * closed

    @pytest.mark.parametrize(
        ("mu", "n"),
        [(mu, 50) for mu in (0.99999, 0.5, 1e-3, 1e-6, 1e-9, 1e-30, 1e-300)]
        + [(0.5, 1000), (1e-300, 1000)],
    )
    def test_strata(self, mu, n):
        c = solve_a(ModelParams(mu=mu))
        bound = reduced_form_bound(c.a, n)
        closed = bound.rounded_up_bound
        assert c.revenue_guarantee <= bound.safe_bound <= closed * (1.0 + 1e-9)
        assert abs(bound.lp_optimum - closed) <= 1e-11 * closed
        # the relative gap above g is (r - 1)(2 - a(r + 1))/(2 - a)
        r = _ratio(c.a, n)
        gap = (r - 1.0) * (2.0 - c.a * (r + 1.0)) / (2.0 - c.a)
        assert closed / c.revenue_guarantee - 1.0 == pytest.approx(gap, rel=1e-6)

    # 3(n + 1) columns, 5n + 3 rows and about 12n nonzeros: a regression to
    # the n^2 cells of the quantile-grid LP fails at n = 1000
    @pytest.mark.parametrize("n", [50, 1000])
    def test_linear_size(self, c05, n):
        lp = ub._ReducedFormLp.build(math.log(c05.a) / n, n)
        assert lp.cost.size == lp.shape[1] == 3 * (n + 1)
        assert lp.shape[0] == 5 * n + 3
        assert lp.rows.size == lp.cols.size == lp.vals.size <= 13 * n
        assert lp.rows.max() < lp.shape[0] and lp.cols.max() < lp.shape[1]

    # The COO triples are written into preallocated arrays, and the products
    # with the point and the multipliers share one buffer per pass.  With a
    # list of per-entry arrays and a temporary per product the peak was
    # 760 bytes per cell at n = 2e5; it is now about 600, of which the triples
    # are 288
    def test_peak_traced_memory(self, c05):
        n = 200_000
        reduced_form_bound(c05.a, 50)  # imports outside the trace
        tracemalloc.start()
        try:
            reduced_form_bound(c05.a, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 640 * n

    # The second-moment saddle has the worst-case law of a = 1 - sqrt(1 - delta),
    # whose guarantee 2a - a^2 is delta itself: the same LP bounds it above.
    @pytest.mark.parametrize("delta", [1e-300, 1e-17, 1e-6, 0.1, 0.5, 0.9, 1.0 - 2.0**-52])
    def test_second_moment_upper_half(self, delta):
        bound = reduced_form_bound(second_moment_solution(delta).a, 50)
        assert delta <= bound.safe_bound <= bound.rounded_up_bound * (1.0 + 1e-9)

    @pytest.mark.parametrize(("a", "n"), [(0.5, 0), (0.5, -3), (0.0, 50), (1.0, 50), (math.nan, 50)])
    def test_domain(self, a, n):
        with pytest.raises(DomainError):
            reduced_form_bound(a, n)

    # At a = 1.5e-323 (mu = 1e-320) a r is subnormal, and the products with
    # it round to the subnormal grid: the bound in revenue reads 1.75e-7
    # above a r (2 - a r).  In units of a r it is within 1e-9.
    def test_subnormal_atom_compared_in_units_of_a_r(self):
        c = solve_a(ModelParams(mu=1e-320))
        assert c.a == 1.5e-323
        bound = reduced_form_bound(c.a, 50)
        assert bound.safe_bound > bound.rounded_up_bound * (1.0 + 1e-7)
        assert bound.certifies(c.revenue_guarantee, 1e-9)
        assert 2.0 - bound.unit <= bound.safe_units <= 2.0 * (1.0 + 1e-12)

    # A point that misses a row by more than rounding is not reported: the
    # bound raises, and the command line exits 3.
    def test_primal_residual_above_the_bound_is_a_convergence_error(self, c05, monkeypatch, capsys):
        real = ub._hierarchical_point

        def off(*args):
            x = real(*args)
            x[-1] += 1e-12  # sigma_n, on its Border and chain rows
            return x

        monkeypatch.setattr(ub, "_hierarchical_point", off)
        with pytest.raises(ConvergenceError, match="misses a row"):
            reduced_form_bound(c05.a, 50)
        assert main(["upper-bound", "--mu", "0.5", "--grid-n", "50"]) == 3
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
        c = solve_a(ModelParams(mu=mu))
        a = c.a
        opt, mech = lp_max_revenue(c, n)
        point = ub._hierarchical_point(a, math.log(a) / n, n)
        np.testing.assert_allclose(mech.q1 @ mech.masses, point[: n + 1], rtol=0.0, atol=1e-12)
        viol = bic_bir_violations(mech)
        assert max(viol.values()) <= 1e-12
        assert opt == pytest.approx(reduced_form_bound(a, n).lp_optimum, rel=1e-12, abs=0.0)
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
        c = solve_a(ModelParams(mu=mu))
        opt, mech = lp_max_revenue(c, n)
        exact = myerson_revenue(mech.types, mech.masses)
        assert opt == pytest.approx(exact, rel=max(1e-12, 1e-15 / c.a), abs=0.0)

    # Bidder 2's cells are the mirror image of bidder 1's.
    @pytest.mark.parametrize("mu", [1e-9, 0.5, 0.99999])
    def test_mechanism_mirrors_exactly(self, mu):
        _, mech = lp_max_revenue(solve_a(ModelParams(mu=mu)), 20)
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
