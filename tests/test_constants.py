"""Root solver and closed-form distribution tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxmin_auction import (
    ConvergenceError,
    DomainError,
    ModelParams,
    PiecewiseCdf,
    constants,
    constants_from_a,
    reserve_cdf,
    reserve_cdf_integral,
    reserve_pdf,
    signal_cdf,
    signal_quantile,
    solve_a,
)

import oracles


class TestSolveA:
    def test_frozen_root_mu_05(self, c05):
        assert abs(c05.a - oracles.A_MU_05) < 5e-14
        assert abs(c05.a * (1.0 - math.log(c05.a)) - 0.5) <= 1e-12
        assert abs(c05.lam - oracles.LAM_MU_05) < 1e-13
        assert abs(c05.revenue_guarantee - oracles.GUARANTEE_MU_05) < 1e-13
        assert abs(c05.h_at_a - oracles.H_AT_A_MU_05) < 1e-13

    def test_frozen_root_mu_075(self, c075):
        assert abs(c075.a - oracles.A_MU_075) < 5e-14
        pivot = 1.0 - math.sqrt(1.0 - 2.0 * c075.a)
        assert abs(pivot - oracles.PIVOT_MU_075) < 1e-12
        # headline rounding of the pivot
        assert round(pivot, 3) == 0.515

    def test_guarantee_headline_value(self, c05):
        assert abs(c05.revenue_guarantee - 0.3385) < 5e-4

    @pytest.mark.parametrize(
        "mu",
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        + [float(f"1e-{k}") for k in range(300, 0, -10)]
        + [1.0 - 1e-12],
    )
    def test_guarantee_is_definitional(self, mu):
        c = solve_a(ModelParams(mu=mu))
        assert c == constants_from_a(mu, c.a)
        assert c.revenue_guarantee == 2.0 * c.a - c.a * c.a
        assert c.lam == 2.0 * c.h_at_a
        assert PiecewiseCdf.signal(c).second_moment() == c.revenue_guarantee
        assert c.root_residual <= constants.TOL_ROOT * mu
        assert abs(c.a * (1.0 - math.log(c.a)) - mu) <= 1e-12
        assert 0.0 < c.a < 1.0
        assert c.lam > 0.0
        assert 0.0 < c.h_at_a < 1.0

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.3, 1.5])
    def test_domain_errors(self, mu):
        with pytest.raises(DomainError):
            ModelParams(mu=mu)

    # (mu, a) in hex from the fixed-step bisection on [1e-12, 1 - 1e-12],
    # which must still give every root inside that bracket bit for bit
    PINNED_ROOTS = [
        ("3e-11", "0x1.276ed79241cf8p-40"),
        ("1.0738830265972307e-10", "0x1.15361e6259192p-38"),
        ("3.8440825160454115e-10", "0x1.04c08a7dbf43ap-36"),
        ("1.3760316556067811e-09", "0x1.ebe0e6acec228p-35"),
        ("4.925656796722006e-09", "0x1.d159fbee8bb84p-33"),
        ("1.7631930762810155e-08", "0x1.b9c4a4603e2b8p-31"),
        ("6.31154372410646e-08", "0x1.a5041b2908482p-29"),
        ("2.2592865589813956e-07", "0x1.9308215de48bcp-27"),
        ("8.087364959697927e-07", "0x1.83cfac396c698p-25"),
        ("2.8949613200389268e-06", "0x1.776d4ca48810cp-23"),
        ("1.0362832747484366e-05", "0x1.6e0e7ad2bc33ap-21"),
        ("3.709490064996468e-05", "0x1.6807fc1f7f100p-19"),
        ("0.0001327852806043585", "0x1.65ebd5ad66ba2p-17"),
        ("0.0004753195300765691", "0x1.68b26b0a786a8p-15"),
        ("0.0017014585851979978", "0x1.720d9e9b7c9ccp-13"),
        ("0.006090558317007533", "0x1.85231b341081ap-11"),
        ("0.02180182399711661", "0x1.a86f37c369e24p-9"),
        ("0.07804202913121237", "0x1.ebe1ea227b44cp-7"),
        ("0.2793600348173841", "0x1.4350d623f7b26p-4"),
        ("0.999999999", "0x1.fffa23694d62cp-1"),
    ]

    @pytest.mark.parametrize("mu, a_hex", PINNED_ROOTS)
    def test_roots_in_bracket_are_pinned(self, mu, a_hex):
        assert solve_a(ModelParams(mu=float(mu))).a == float.fromhex(a_hex)

    @pytest.mark.parametrize("mu", [2.8e-11, 1e-15, 1e-100, 1e-300])
    def test_roots_below_bracket_are_relative(self, mu):
        a = solve_a(ModelParams(mu=mu)).a
        assert 0.0 < a < mu
        assert abs(a * (1.0 - math.log(a)) - mu) <= 1e-15 * mu

    @pytest.mark.parametrize("mu", [5e-324, 1e-322, 3.7e-321, 1e-315, 2e-308, 1e-306])
    def test_subnormal_root_stays_in_range(self, mu):
        # mu down to the smallest subnormal, and normal mu whose root is subnormal
        a = solve_a(ModelParams(mu=mu)).a
        assert math.isfinite(a)
        assert 0.0 < a <= mu

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # the float-converged residual at mu = 0.3 is ~6e-17, so an absurd
        # tolerance must be reported as a convergence failure
        monkeypatch.setattr(constants, "TOL_ROOT", 1e-30)
        with pytest.raises(ConvergenceError):
            solve_a(ModelParams(mu=0.3))


def assert_array_calls_match_scalar_calls(c):
    """H and H' of an array equal their scalar calls bit for bit at every
    branch seam: |u| at the series cuts 1e-8 (H) and 0.2 (H'), x = a/2 where
    ln(x/a) changes form, u = 2**511 where H' divides by u twice, x = 0 and
    1, and subnormal x; three ulps each side of each."""
    a = c.a
    centres = [a, a / 2.0, 1e-300, 0.1, 0.7]
    centres += [a * (1.0 + sign * cut) for cut in (1e-8, 0.2) for sign in (-1.0, 1.0)]
    if a < 2.0**-512:
        centres.append(a * (1.0 + 2.0**511))
    points = {0.0, 1.0, 5e-324, 1e-320, 2.2250738585072014e-308}
    for x in centres:
        lo = hi = x
        for _ in range(3):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
            points |= {lo, hi}
        points.add(x)
    x = np.array(sorted(p for p in points if 0.0 <= p <= 1.0))
    u = (x - a) / a
    for cut in (1e-8, 0.2):  # both sides of each series cut are hit
        assert np.any(np.abs(u) < cut) and np.any((np.abs(u) >= cut) & (np.abs(u) < 2 * cut))
    assert np.any(x < a / 2.0) and np.any((x >= a / 2.0) & (x < a))
    if a < 2.0**-512:
        assert np.any(u > 2.0**511) and np.any((u <= 2.0**511) & (x > a))
    for f, pts in ((reserve_cdf, x), (reserve_pdf, x[x > 0.0])):
        vec = f(c, pts)
        assert vec.shape == pts.shape
        assert [v.hex() for v in vec.tolist()] == [f(c, p).hex() for p in pts.tolist()]


class TestReserveCdf:
    def test_endpoints_and_center(self, c05):
        assert reserve_cdf(c05, 0.0) == 0.0
        assert abs(reserve_cdf(c05, 1.0) - 1.0) < 1e-12
        assert reserve_cdf(c05, c05.a) == pytest.approx(c05.h_at_a, abs=1e-15)
        assert reserve_cdf(c05, 0.5) == pytest.approx(
            oracles.H_AT_HALF_MU_05, abs=1e-12
        )

    def test_exactly_one_at_one_for_every_mu(self):
        # unpinned, the closed form misses 1 by an ulp at 169 of these mu
        misses = [
            mu
            for mu in np.geomspace(1e-9, 1.0 - 1e-5, 400).tolist()
            if reserve_cdf(solve_a(ModelParams(mu=mu)), 1.0) != 1.0
        ]
        assert misses == []

    def test_at_most_one_just_below_one(self):
        # unclamped, H(1 - k 2**-53) exceeds 1 by up to 2 ulp at 186 of these mu
        x = 1.0 - np.arange(1, 200) * 2.0**-53
        over = [
            mu
            for mu in np.geomspace(1e-9, 1.0 - 1e-5, 400).tolist()
            if (reserve_cdf(solve_a(ModelParams(mu=mu)), x) > 1.0).any()
        ]
        assert over == []

    def test_continuity_at_removable_point(self, c05):
        base = reserve_cdf(c05, c05.a)
        for eps in (1e-3, 1e-6):
            jump = max(
                abs(reserve_cdf(c05, c05.a + eps) - base),
                abs(reserve_cdf(c05, c05.a - eps) - base),
            )
            # locally Lipschitz: gap bounded by ~H'(a) * eps
            assert jump < 2.0 * eps

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.75, 0.9])
    def test_strictly_increasing_on_fine_grid(self, mu):
        c = solve_a(ModelParams(mu=mu))
        x = np.linspace(0.0, 1.0, 10_001)
        h = reserve_cdf(c, x)
        assert np.all(np.diff(h) > 0.0)
        assert np.all((h >= 0.0) & (h <= 1.0 + 1e-15))

    def test_vectorised_matches_scalar(self, c05):
        assert_array_calls_match_scalar_calls(c05)

    def test_vectorised_matches_scalar_below_two_to_minus_512(self):
        # a < 2**-512, so u = (x - a)/a passes H''s 2**511 cut
        assert_array_calls_match_scalar_calls(solve_a(ModelParams(mu=1e-160)))

    def test_domain_error(self, c05):
        with pytest.raises(DomainError):
            reserve_cdf(c05, -0.1)
        with pytest.raises(DomainError):
            reserve_cdf(c05, 1.1)


class TestReservePdf:
    def test_positive_everywhere(self, c05):
        x = np.linspace(1e-4, 1.0, 5_000)
        assert np.all(reserve_pdf(c05, x) > 0.0)

    def test_removable_value(self, c05):
        assert reserve_pdf(c05, c05.a) == pytest.approx(
            oracles.HPRIME_AT_A_MU_05, abs=1e-12
        )

    def test_x_times_density_vanishes_at_origin(self, c05):
        v4 = 1e-4 * reserve_pdf(c05, 1e-4)
        v6 = 1e-6 * reserve_pdf(c05, 1e-6)
        assert v6 < v4 < 1e-2
        assert v6 < 1e-4

    def test_density_undefined_at_zero(self, c05):
        with pytest.raises(DomainError):
            reserve_pdf(c05, 0.0)

    @pytest.mark.parametrize("mu, x", sorted(oracles.HPRIME_NEAR_A))
    def test_near_removable_point_matches_oracles(self, mu, x):
        c = solve_a(ModelParams(mu=mu))
        assert reserve_pdf(c, x) == pytest.approx(
            oracles.HPRIME_NEAR_A[(mu, x)], rel=5e-15, abs=0.0
        )

    def test_matches_finite_differences(self, c05):
        eps = 1e-6
        x = np.linspace(0.02, 1.0 - eps, 400)
        x = x[np.abs(x - c05.a) > 0.01]
        fd = (reserve_cdf(c05, x + eps) - reserve_cdf(c05, x - eps)) / (2.0 * eps)
        assert np.max(np.abs(fd - reserve_pdf(c05, x))) < 1e-6


class TestReserveIntegral:
    @pytest.mark.parametrize("x", [1e-4, 0.05, 0.3, 0.5, 0.8, 1.0])
    def test_matches_quadrature_oracle(self, c05, x):
        oracle, err = quad(
            lambda t: reserve_cdf(c05, t), 0.0, x, limit=200, epsabs=1e-12
        )
        assert abs(reserve_cdf_integral(c05, x) - oracle) < 1e-9 + 10 * err

    def test_frozen_values(self, c05):
        assert reserve_cdf_integral(c05, 0.5) == pytest.approx(
            oracles.INT_H_TO_HALF_MU_05, abs=1e-13
        )
        assert reserve_cdf_integral(c05, 1.0) == pytest.approx(
            oracles.INT_H_TO_ONE_MU_05, abs=1e-13
        )

    def test_derivative_recovers_cdf(self, c05):
        eps = 1e-6
        for x in (0.1, c05.a, 0.6, 0.95):
            fd = (
                reserve_cdf_integral(c05, x + eps)
                - reserve_cdf_integral(c05, x - eps)
            ) / (2.0 * eps)
            assert abs(fd - reserve_cdf(c05, x)) < 1e-9


class TestSmallX:
    """The closed forms at tiny points: 40-digit oracles, subnormals, branch seams."""

    # abs=0: pytest.approx would otherwise also accept anything within 1e-12
    @pytest.mark.parametrize("x", sorted(oracles.H_SMALL_X_MU_05))
    def test_cdf_and_density_match_oracles(self, c05, x):
        assert reserve_cdf(c05, x) == pytest.approx(
            oracles.H_SMALL_X_MU_05[x], rel=1e-12, abs=0.0
        )
        assert reserve_pdf(c05, x) == pytest.approx(
            oracles.HPRIME_SMALL_X_MU_05[x], rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("x", sorted(oracles.K_SMALL_X_MU_05))
    def test_integral_matches_oracles(self, c05, x):
        assert reserve_cdf_integral(c05, x) == pytest.approx(
            oracles.K_SMALL_X_MU_05[x], rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("x", sorted(oracles.HPRIME_MU_1E300))
    def test_tiny_mu_matches_oracles(self, x):
        # at mu = 1e-300, u = (x-a)/a passes 2**512 from x = 1e-3 up
        c = solve_a(ModelParams(mu=1e-300))
        assert reserve_cdf(c, x) == pytest.approx(
            oracles.H_MU_1E300[x], rel=1e-12, abs=0.0
        )
        assert reserve_pdf(c, x) == pytest.approx(
            oracles.HPRIME_MU_1E300[x], rel=1e-12, abs=0.0
        )

    def test_subnormal_points(self, c05):
        # a relative bound means nothing here: ask for finite, non-negative
        # and non-decreasing values, from 0 across the smallest normal double
        x = np.array(
            [0.0, 5e-324, 1e-323, 1.5e-323, 1e-320, 1e-315, 1e-310,
             2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300]
        )
        h = reserve_cdf(c05, x)
        k = reserve_cdf_integral(c05, x)
        hp = reserve_pdf(c05, x[1:])
        for v in (h, k, hp):
            assert np.all(np.isfinite(v)) and np.all(v >= 0.0)
        assert np.all(np.diff(h) > 0.0)
        assert np.all(np.diff(k) >= 0.0)
        assert np.all(hp > 0.0)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.75, 0.9])
    def test_nondecreasing_from_tiny_to_one(self, mu):
        c = solve_a(ModelParams(mu=mu))
        x = np.geomspace(1e-300, 1.0, 20_001)
        for f in (reserve_cdf, reserve_cdf_integral):
            v = f(c, x)
            assert np.all(np.isfinite(v))
            assert np.all(np.diff(v) >= 0.0)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("where", [0.5, 1.0 / 16.0])
    def test_branch_seams(self, mu, where):
        # H and H' switch forms at x = a/2, K at a/2 and at a/16: the two
        # sides must agree to rounding, and a grid of relative step 1e-12
        # across the seam must stay non-decreasing
        c = solve_a(ModelParams(mu=mu))
        seam = where * c.a
        below = np.nextafter(seam, 0.0)
        for f in (reserve_cdf, reserve_pdf, reserve_cdf_integral):
            assert f(c, below) == pytest.approx(f(c, seam), rel=1e-13, abs=0.0)
        x = seam * (1.0 + 1e-12 * np.arange(-500, 501))
        assert np.all(np.diff(reserve_cdf(c, x)) >= 0.0)
        assert np.all(np.diff(reserve_cdf_integral(c, x)) >= 0.0)


class TestSignal:
    def test_cdf_branches(self, c05):
        a = c05.a
        assert signal_cdf(c05, 0.0) == 0.0
        assert signal_cdf(c05, a / 2.0) == 0.0
        assert signal_cdf(c05, a) == 0.0
        assert signal_cdf(c05, 1.0) == 1.0
        # atom at 1: left limit is 1 - a
        assert signal_cdf(c05, 1.0 - 1e-12) == pytest.approx(1.0 - a, abs=1e-9)
        assert signal_cdf(c05, 0.5) == pytest.approx(1.0 - a / 0.5, abs=1e-15)

    def test_mean_is_mu(self, c05):
        val, err = quad(
            lambda t: 1.0 - signal_cdf(c05, t),
            0.0,
            1.0,
            points=[c05.a],
            limit=200,
        )
        assert abs(val - c05.mu) < 1e-9 + 10 * err

    def test_nondecreasing_on_fine_grid(self, c05):
        x = np.linspace(0.0, 1.0, 10_001)
        g = signal_cdf(c05, x)
        assert np.all(np.diff(g) >= 0.0)

    def test_quantile_branches(self, c05):
        a = c05.a
        assert signal_quantile(c05, 0.0) == pytest.approx(a, abs=1e-15)
        assert signal_quantile(c05, 1.0 - a) == 1.0
        assert signal_quantile(c05, 1.0) == 1.0
        assert signal_quantile(c05, 0.5) == pytest.approx(
            oracles.SIGNAL_QUANTILE_HALF_MU_05, abs=1e-13
        )

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_inverts_cdf(self, c05, u):
        x = signal_quantile(c05, u)
        assert signal_cdf(c05, x) >= u - 1e-12
        if x < 1.0:  # off the atom the inversion is exact
            assert signal_cdf(c05, x) == pytest.approx(u, abs=1e-12)
