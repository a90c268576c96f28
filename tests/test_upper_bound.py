"""Quantile-grid LP cap and the discretised truthful auction."""

import numpy as np
import pytest

from maxmin_auction import (
    DomainError,
    ModelParams,
    analytic_bound,
    bic_bir_violations,
    discretize_truthful_mechanism,
    lp_max_revenue,
    signal_quantile,
    solve_a,
    truthful_interim_allocation,
)

import oracles


class TestAnalyticBound:
    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.75, 0.9])
    def test_bitwise_equal_to_guarantee(self, mu):
        c = solve_a(ModelParams(mu=mu))
        assert analytic_bound(c) == c.revenue_guarantee

    def test_frozen_values(self, c05, c075):
        assert analytic_bound(c05) == pytest.approx(oracles.GUARANTEE_MU_05, abs=1e-13)
        assert analytic_bound(c075) == pytest.approx(
            oracles.GUARANTEE_MU_075, abs=1e-13
        )
        assert analytic_bound(c05) == pytest.approx(0.3385, abs=5e-4)


class TestLp:
    def test_optimum_near_bound(self, c05):
        opt, mech = lp_max_revenue(c05, 25)
        bound = analytic_bound(c05)
        assert bound - 0.03 <= opt <= bound + 0.03
        # the certificate is itself feasible
        viol = bic_bir_violations(mech)
        assert viol["max_bic_gain"] <= 1e-6
        assert viol["max_bir_violation"] <= 1e-6
        assert viol["max_feasibility_excess"] <= 1e-6

    def test_beats_every_feasible_mechanism(self, c05):
        opt, _ = lp_max_revenue(c05, 25)
        truthful = discretize_truthful_mechanism(c05, 25)
        assert opt >= truthful.expected_revenue() - 1e-7
        # and stays within O(1/n) of it (the saddle attains the cap)
        assert opt - truthful.expected_revenue() <= 2.0 / 25

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
        Q1, Q2, _, _ = mech.interim()
        assert np.diff(Q1).min() >= -1e-12
        assert np.diff(Q2).min() >= -1e-12

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
        assert seen == {"ub": 12 * 12 + 8 * 12 - 6, "eq": 2 * 12}

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
        assert mech.expected_revenue() == pytest.approx(opt, rel=1e-9, abs=0.0)
        viol = bic_bir_violations(mech)
        assert viol["max_bic_gain"] <= 1e-9 * sigma
        assert viol["max_bir_violation"] <= 1e-9 * sigma
        assert viol["max_feasibility_excess"] <= 1e-9

    def test_zero_mechanism_feasible_baseline(self, c05):
        mech = discretize_truthful_mechanism(c05, 15)
        zero = type(mech)(
            z=mech.z,
            types=mech.types,
            q1=np.zeros_like(mech.q1),
            q2=np.zeros_like(mech.q2),
            t1=np.zeros_like(mech.t1),
            t2=np.zeros_like(mech.t2),
        )
        viol = bic_bir_violations(zero)
        assert viol["max_bic_gain"] <= 0.0
        assert viol["max_bir_violation"] <= 0.0
        assert zero.expected_revenue() == 0.0
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


class TestTruthfulDiscretization:
    def test_exactly_feasible(self, c05):
        mech = discretize_truthful_mechanism(c05, 40)
        viol = bic_bir_violations(mech)
        # truthful play is ex-post optimal, so grid feasibility is exact
        assert viol["max_bic_gain"] <= 1e-8
        assert viol["max_bir_violation"] <= 1e-8
        assert viol["max_feasibility_excess"] <= 1e-12

    def test_revenue_converges_to_guarantee(self, c05):
        revs = [
            discretize_truthful_mechanism(c05, n).expected_revenue()
            for n in (25, 50, 100)
        ]
        errs = [abs(r - c05.revenue_guarantee) for r in revs]
        assert errs[2] < errs[0]
        assert errs[2] < 1e-3

    def test_interim_allocation_closed_form(self, c05):
        mech = discretize_truthful_mechanism(c05, 200)
        Q1, _, _, _ = mech.interim()
        target = truthful_interim_allocation(c05, mech.z)
        # interim over the opponent grid vs the continuum closed form
        assert np.max(np.abs(Q1 - target)) < 5e-3

