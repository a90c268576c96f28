"""Revenue functional, pointwise integrand, and the reserve ODE."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from maxmin_auction import (
    DomainError,
    PiecewiseCdf,
    check_ode,
    mc_revenue,
    reserve_cdf,
    reserve_pdf,
    revenue_functional,
    solve_a,
)
from maxmin_auction import functional
from maxmin_auction.quadrature import build_edges, composite_simpson


class TestRevenueFunctional:
    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.75])
    def test_saddle_value_matches_closed_form(self, mu):
        c = solve_a(mu)
        fv = revenue_functional(PiecewiseCdf.signal(c), PiecewiseCdf.reserve(c))
        assert abs(fv - c.revenue_guarantee) < 1e-6

    @pytest.mark.parametrize("mu", np.geomspace(1e-9, 1.0 - 1e-6, 12).tolist())
    def test_relative_error_across_mu(self, mu):
        # the grid scales with the smallest kink a, so the error stays relative
        c = solve_a(mu)
        fv = revenue_functional(PiecewiseCdf.signal(c), PiecewiseCdf.reserve(c))
        g = c.revenue_guarantee
        assert abs(fv - g) <= 1e-8 * g

    def test_relative_error_at_half(self, c05):
        fv = revenue_functional(PiecewiseCdf.signal(c05), PiecewiseCdf.reserve(c05))
        g = c05.revenue_guarantee
        assert abs(fv - g) <= 3e-13 * g

    def test_breakdown_identity(self, c05):
        # one pass over the combined integrand equals the two terms integrated
        # apart on the same grid, up to the rounding of the combination
        g, h = PiecewiseCdf.signal(c05), PiecewiseCdf.reserve(c05)
        edges = build_edges([c05.a])

        def first(x):
            xhp = np.where(x > 0.0, x * h.pdf(np.maximum(x, 1e-300)), 0.0)
            return (1.0 - g.cdf(x) ** 2) * (xhp + h.cdf(x))

        def second(x):
            gx = g.cdf(x)
            return h.cdf(x) * 2.0 * gx * (1.0 - gx)

        fv = revenue_functional(g, h)
        two_pass = composite_simpson(first, edges) - composite_simpson(second, edges)
        assert fv == pytest.approx(two_pass, rel=1e-14, abs=0.0)

    def test_point_mass_at_one_extracts_everything(self, c05):
        # G = 0 on [0, 1): the integrand reduces to the exact derivative of
        # x H(x), so the integral telescopes to H(1) = 1
        g = PiecewiseCdf.from_discrete([1.0], [1.0])
        fv = revenue_functional(g, PiecewiseCdf.reserve(c05))
        assert fv == pytest.approx(1.0, abs=1e-9)

    def test_uniform_reserve_gives_second_moment(self, c05):
        g = PiecewiseCdf.signal(c05)
        fv = revenue_functional(g, PiecewiseCdf.uniform())
        assert fv == pytest.approx(g.second_moment(), abs=1e-9)

    @pytest.mark.parametrize(
        "make_g",
        [
            lambda c: PiecewiseCdf.signal(c),
            lambda c: PiecewiseCdf.uniform(),
            lambda c: PiecewiseCdf.from_discrete([0.2, 0.5, 0.9], [0.3, 0.4, 0.3]),
        ],
    )
    def test_agrees_with_monte_carlo(self, c05, make_g):
        g = make_g(c05)
        fv = revenue_functional(g, PiecewiseCdf.reserve(c05))
        r = mc_revenue(c05, g, 200_000, seed=29)
        assert abs(fv - r.value) <= 4.0 * r.std_error

    def test_rejects_reserve_with_interior_atom(self, c05):
        bad_h = PiecewiseCdf.from_grid(
            [0.0, 0.5, 1.0], [0.0, 0.6, 1.0], [0.0, 0.2, 0.0]
        )
        with pytest.raises(DomainError):
            revenue_functional(PiecewiseCdf.signal(c05), bad_h)

    def test_lagrangian_equivalence(self, c05):
        # subtracting lambda times the mean constraint shifts the value by
        # exactly lambda * mu for every admissible signal CDF
        h = PiecewiseCdf.reserve(c05)
        for g in (
            PiecewiseCdf.signal(c05),
            PiecewiseCdf.uniform(),
            PiecewiseCdf.from_discrete([0.0, 1.0], [0.5, 0.5]),
        ):
            value = revenue_functional(g, h)
            lagrangian = value - c05.lam * g.mean()
            assert lagrangian + c05.lam * c05.mu == pytest.approx(value, abs=1e-9)


def lagrangian_integrand(g, x, c):
    """The pointwise Lagrangian at CDF value ``g`` and point ``x`` of the solved pair."""
    return functional._lagrangian(g, reserve_cdf(c, x), x * reserve_pdf(c, x), c.lam)


class TestLagrangianIntegrand:
    def test_argmin_above_a_is_unit_elastic(self, c05):
        for x in (0.3, 0.5, 0.8, 0.99):
            res = minimize_scalar(
                lambda g: lagrangian_integrand(g, x, c05),
                bounds=(0.0, 1.0),
                method="bounded",
                options={"xatol": 1e-10},
            )
            assert res.x == pytest.approx(1.0 - c05.a / x, abs=1e-6)

    def test_argmin_below_a_is_zero(self, c05):
        for x in (c05.a / 4.0, c05.a / 2.0, 0.9 * c05.a):
            values = [
                lagrangian_integrand(g, x, c05) for g in np.linspace(0.0, 1.0, 101)
            ]
            assert int(np.argmin(values)) == 0

    def test_argmin_at_twice_a(self, c05):
        x = 2.0 * c05.a
        res = minimize_scalar(
            lambda g: lagrangian_integrand(g, x, c05),
            bounds=(0.0, 1.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert res.x == pytest.approx(0.5, abs=1e-6)

    def test_quadratic_is_strictly_convex(self, c05):
        # second difference in g recovers twice the leading coefficient
        step = 0.3
        for x in np.linspace(0.01, 0.99, 23):
            if abs(x - c05.a) < 1e-3:
                continue
            f0 = lagrangian_integrand(0.2, x, c05)
            f1 = lagrangian_integrand(0.5, x, c05)
            f2 = lagrangian_integrand(0.8, x, c05)
            second = (f0 + f2 - 2.0 * f1) / step**2
            coef = reserve_cdf(c05, x) - x * reserve_pdf(c05, x)
            assert second > 0.0
            assert second == pytest.approx(2.0 * coef, abs=1e-10)

    def test_leading_coefficient_identity(self, c05):
        # H - xH' = x (H - H(a)) / (x - a), strictly positive
        for x in np.linspace(0.01, 0.99, 99):
            if abs(x - c05.a) < 1e-3:
                continue
            h = reserve_cdf(c05, x)
            lead = h - x * reserve_pdf(c05, x)
            identity = x * (h - c05.h_at_a) / (x - c05.a)
            assert lead > 0.0
            assert lead == pytest.approx(identity, abs=1e-10)


class TestOde:
    def test_reference_points(self, c05):
        assert check_ode(c05, 0.5) < 1e-8
        assert check_ode(c05, 0.9) < 1e-8

    def test_at_one_with_unit_boundary(self, c05):
        # the boundary condition pins H(1) = 1 and the integration constant
        assert abs(reserve_cdf(c05, 1.0) - 1.0) < 1e-12
        assert check_ode(c05, 1.0) < 1e-8

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.9])
    def test_hundred_points(self, mu):
        c = solve_a(mu)
        xs = np.linspace(0.01, 1.0, 100)
        xs = xs[np.abs(xs - c.a) > 1e-9]
        assert max(check_ode(c, float(x)) for x in xs) <= 1e-8

    def test_array_matches_scalar_calls(self, c05):
        xs = np.concatenate((np.linspace(0.01, 1.0, 100), [1e-300, c05.a / 3.0]))
        residuals = check_ode(c05, xs)
        assert residuals.shape == xs.shape
        assert residuals.tolist() == [check_ode(c05, float(x)) for x in xs]

    def test_domain(self, c05):
        with pytest.raises(DomainError):
            check_ode(c05, 0.0)
        for bad in ([0.5, 0.0], [0.5, 1.5], [0.5, float("nan")]):
            with pytest.raises(DomainError):
                check_ode(c05, np.array(bad))
