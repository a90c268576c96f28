"""Quantile-grid LP cap, checked against the exact discrete optimum."""

import json

import numpy as np
import pytest

from maxmin_auction import (
    DiscreteDirectMechanism,
    DomainError,
    ModelParams,
    lp_max_revenue,
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
