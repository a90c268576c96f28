"""The reduced-form LP bound against its closed form, and the quantile-grid
cell LP against the exact discrete optimum."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    signal_quantile,
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
    # The LP's exact optimum on the rounded-up cells is a r (2 - a r).  After
    # the refinement steps the primal was measured within 1.1e-12 of it, and
    # the safe bound at most 7.3e-11 above it.
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
        assert (bound.n, bound.status) == (n, 0) and bound.nit > 0

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

    # 3(n + 1) columns and about 12n nonzeros, and every refinement solve is
    # O(n) too: a regression to the n^2 cells of the quantile-grid LP fails
    # at n = 1000
    @pytest.mark.parametrize("n", [50, 1000])
    def test_linear_size(self, c05, monkeypatch, n):
        seen = []
        real = ub.linprog

        def spy(*args, **kwargs):
            mats = [kwargs[k] for k in ("A_ub", "A_eq") if kwargs.get(k) is not None]
            seen.append((args[0].size, sum(m.shape[0] for m in mats), sum(m.nnz for m in mats)))
            return real(*args, **kwargs)

        monkeypatch.setattr(ub, "linprog", spy)
        reduced_form_bound(c05.a, n)
        columns, rows, nnz = seen[0]
        assert (columns, rows) == (3 * (n + 1), 5 * n + 3)
        assert nnz <= 13 * n
        assert len(seen) == 3
        assert all(columns <= 8 * (n + 1) and nnz <= 17 * n for columns, _, nnz in seen)

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

    @staticmethod
    def _failing_when(monkeypatch, fails):
        """Rebind ``linprog`` so that the calls for which ``fails(call_index,
        kwargs)`` holds run out of iterations; returns the calls' settings."""
        real, calls = ub.linprog, []

        def spy(*args, **kwargs):
            if fails(len(calls), kwargs):
                kwargs = {**kwargs, "options": {**kwargs["options"], "maxiter": 1}}
            res = real(*args, **kwargs)
            calls.append((kwargs["method"], kwargs["options"]["presolve"], bool(res.success)))
            return res

        monkeypatch.setattr(ub, "linprog", spy)
        return calls

    # the next settings take over a failed solve, and the bound is unchanged
    def test_failed_setting_falls_back(self, c05, monkeypatch):
        expected = reduced_form_bound(c05.a, 50)
        calls = self._failing_when(monkeypatch, lambda i, kw: not kw["options"]["presolve"])
        bound = reduced_form_bound(c05.a, 50)
        assert calls[:2] == [("highs-ds", False, False), ("highs-ds", True, True)]
        assert c05.revenue_guarantee <= bound.safe_bound <= bound.rounded_up_bound * (1.0 + 1e-9)
        assert bound.lp_optimum == pytest.approx(expected.lp_optimum, rel=1e-11)

    # refinement steps that fail under every setting leave the first
    # solve's point and bound standing
    def test_failed_refinement_keeps_first_solve(self, c05, monkeypatch):
        calls = self._failing_when(monkeypatch, lambda i, kw: i > 0)
        bound = reduced_form_bound(c05.a, 50)
        assert len(calls) == 7 and [ok for *_, ok in calls] == [True] + [False] * 6
        assert c05.revenue_guarantee <= bound.safe_bound <= bound.rounded_up_bound * (1.0 + 1e-9)
        assert abs(bound.lp_optimum - bound.rounded_up_bound) <= 1e-11 * bound.rounded_up_bound

    def test_solver_failure_is_a_convergence_error(self, c05, monkeypatch):
        real = ub.linprog

        def failing(*args, **kwargs):
            return real(*args, **{**kwargs, "options": {**kwargs["options"], "maxiter": 1}})

        monkeypatch.setattr(ub, "linprog", failing)
        with pytest.raises(ConvergenceError):
            reduced_form_bound(c05.a, 50)


class TestLp:
    def test_optimum_near_bound(self, c05):
        opt, mech = lp_max_revenue(c05, 25)
        bound = c05.revenue_guarantee
        assert bound - 0.03 <= opt <= bound + 0.03
        # the certificate is itself feasible
        viol = bic_bir_violations(mech)
        assert viol["max_bic_gain"] <= 1e-6
        assert viol["max_bir_violation"] <= 1e-6
        assert viol["max_feasibility_excess"] <= 1e-6

    # Myerson's ironed virtual values give the exact optimum over all BIC,
    # BIR mechanisms on the same grid of types, so equality catches a
    # constraint set that is too loose as well as one that is too tight.
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
        exact = myerson_revenue(signal_quantile(c, mech.z), 1.0 / n)
        assert opt == pytest.approx(exact, rel=1e-12, abs=0.0)

    # Optima of the LP with every ordered misreport pair as a BIC row; the
    # adjacent-plus-monotone rows must leave them unchanged.
    @pytest.mark.parametrize(
        ("mu", "n", "optimum"),
        [
            (0.5, 10, 0.39602815593150664),
            (0.5, 25, 0.36569934742615184),
            (0.5, 50, 0.35434246351405924),
            (0.3, 25, 0.19801500764789326),
            (0.95, 50, 0.9162594296574444),
        ],
    )
    def test_matches_all_pairs_optimum(self, mu, n, optimum):
        opt, mech = lp_max_revenue(solve_a(ModelParams(mu=mu)), n)
        assert opt == pytest.approx(optimum, rel=1e-12, abs=0.0)
        viol = bic_bir_violations(mech)
        assert viol["max_bic_gain"] <= 1e-12
        assert viol["max_bir_violation"] <= 1e-12
        assert viol["max_feasibility_excess"] <= 1e-12
        # the monotone rows order Q even among the tied top types (value 1)
        assert np.diff(mech.q1.mean(axis=1)).min() >= -1e-12
        assert np.diff(mech.q2.mean(axis=0)).min() >= -1e-12

    def test_constraint_rows(self, c05, monkeypatch):
        import maxmin_auction.upper_bound as ub

        seen = {}
        real = ub.linprog

        def spy(*args, **kwargs):
            seen["ub"] = kwargs["A_ub"].shape[0]
            seen["eq"] = kwargs["A_eq"].shape[0]
            return real(*args, **kwargs)

        monkeypatch.setattr(ub, "linprog", spy)
        lp_max_revenue(c05, 12)
        # one row per unordered cell pair, then one bidder's interim rows
        assert seen == {"ub": 12 * 13 // 2 + 3 * 12 - 2, "eq": 12}

    # The LP is solved for bidder 1 alone; bidder 2 is the mirror image.
    @pytest.mark.parametrize("mu", [1e-9, 0.5, 0.99999])
    def test_mechanism_mirrors_exactly(self, mu):
        _, mech = lp_max_revenue(solve_a(ModelParams(mu=mu)), 20)
        assert np.array_equal(mech.q2, mech.q1.T)
        assert np.array_equal(mech.t2, mech.t1.T)

    # At small mu the top type value s.max() is far below 1, and the payments
    # would sit under the solver's absolute tolerances without rescaling.
    @pytest.mark.parametrize(
        ("mu", "optimum"),
        [(1e-6, 2.2387527110652e-07), (1e-9, 1.5878280714788e-10)],
    )
    def test_small_mu_solved_in_top_type_units(self, mu, optimum):
        c = solve_a(ModelParams(mu=mu))
        opt, mech = lp_max_revenue(c, 50)
        assert opt == pytest.approx(optimum, rel=1e-9, abs=0.0)
        # types stay the true type values; only the solve is rescaled
        np.testing.assert_array_equal(mech.types, signal_quantile(c, mech.z))
        sigma = mech.types.max()
        assert sigma < 1.0
        assert mech.t1.mean() + mech.t2.mean() == pytest.approx(opt, rel=1e-9, abs=0.0)
        viol = bic_bir_violations(mech)
        assert viol["max_bic_gain"] <= 1e-9 * sigma
        assert viol["max_bir_violation"] <= 1e-9 * sigma
        assert viol["max_feasibility_excess"] <= 1e-9

    def test_zero_mechanism_feasible_baseline(self, c05):
        z = (np.arange(15) + 0.5) / 15
        cells = np.zeros((15, 15))
        zero = DiscreteDirectMechanism(
            z=z, types=signal_quantile(c05, z), q1=cells, q2=cells, t1=cells, t2=cells
        )
        viol = bic_bir_violations(zero)
        assert viol["max_bic_gain"] <= 0.0
        assert viol["max_bir_violation"] <= 0.0
        assert zero.t1.mean() + zero.t2.mean() == 0.0
        opt, _ = lp_max_revenue(c05, 15)
        assert opt >= 0.0

    def test_grid_floor(self, c05):
        with pytest.raises(DomainError):
            lp_max_revenue(c05, 5)

    def test_mechanism_json_dict(self, c05):
        _, mech = lp_max_revenue(c05, 12)
        d = mech.to_json_dict()
        assert set(d) == {"z", "types", "q1", "q2", "t1", "t2"}
        assert len(d["q1"]) == 12 and len(d["q1"][0]) == 12
