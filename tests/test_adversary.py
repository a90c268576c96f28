"""Constrained revenue minimization over signal CDFs."""

import math

import adversary_reference as reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxmin_auction import (
    DegenerateError,
    DomainError,
    ModelParams,
    PiecewiseCdf,
    check_p1_p2,
    minimize_revenue,
    pav_nondecreasing,
    reserve_with_linear_ramp,
    reserve_with_zero_atom,
    signal_cdf,
    solve_a,
    verify_pointwise_saddle,
)
from maxmin_auction.adversary import _sum_below


RESERVES = {
    "optimal": PiecewiseCdf.reserve,
    "linear-ramp": reserve_with_linear_ramp,
    "zero-atom": reserve_with_zero_atom,
    "uniform": lambda c: PiecewiseCdf.uniform(),
}


def sup_distance_to_signal(result, c, lo_pad=0.02, hi=0.98):
    window = (result.grid.x >= c.a + lo_pad) & (result.grid.x <= hi)
    return float(
        np.max(np.abs(result.grid.values[window] - signal_cdf(c, result.grid.x[window])))
    )


class TestSolvedReserve:
    def test_recovers_saddle(self, c05):
        res = minimize_revenue(PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 500)
        assert abs(res.value - c05.revenue_guarantee) <= 2e-3
        assert abs(res.lambda_hat - c05.lam) < 1e-4
        assert sup_distance_to_signal(res, c05) <= 0.01
        assert abs(res.constraint_residual) <= 1e-9

    def test_projection_is_noop(self, c05):
        # the pointwise minimizer is already a CDF here
        res = minimize_revenue(PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 500)
        assert res.projection_delta == 0.0

    def test_weak_duality(self, c05):
        res = minimize_revenue(PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 500)
        assert res.value >= res.lagrangian_bound - 1e-9

    def test_error_decreases_with_grid(self, c05):
        errs = [
            abs(
                minimize_revenue(
                    PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), K
                ).value
                - c05.revenue_guarantee
            )
            for K in (100, 200, 500)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 2e-3

    def test_minimizer_is_monotone_cdf(self, c05):
        res = minimize_revenue(PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 500)
        g = res.grid.values
        assert np.all(np.diff(g) >= 0.0)
        assert np.all((g >= 0.0) & (g <= 1.0))
        assert abs(np.mean(1.0 - g) - 0.5) <= 1e-9


class TestMatchesFixedStepReference:
    """The early exit, the guarded sum and the hoisted argmin change no bit."""

    @staticmethod
    def assert_bitwise(res, ref):
        assert res.grid.values.tobytes() == ref["values"].tobytes()
        for name in (
            "value",
            "lambda_hat",
            "constraint_residual",
            "projection_delta",
            "lagrangian_bound",
        ):
            got = np.float64(getattr(res, name)).tobytes()
            assert got == np.float64(ref[name]).tobytes(), name

    @pytest.mark.parametrize("K", [100, 4096, 65537])
    @pytest.mark.parametrize("mu", [1e-6, 0.5, 0.99])
    @pytest.mark.parametrize("reserve", sorted(RESERVES))
    def test_mean_constraint(self, reserve, mu, K):
        h_dist = RESERVES[reserve](solve_a(ModelParams(mu=mu)))
        res = minimize_revenue(h_dist, ModelParams(mu=mu), K)
        self.assert_bitwise(res, reference.minimize_revenue(h_dist, K, "mean", mu))

    @pytest.mark.parametrize("K", [100, 4096, 65537])
    @pytest.mark.parametrize("delta", [1e-6, 0.5, 0.99])
    def test_second_moment_constraint(self, delta, K):
        h_dist = PiecewiseCdf.uniform()
        res = minimize_revenue(
            h_dist, None, K, constraint="second-moment", target=delta
        )
        ref = reference.minimize_revenue(h_dist, K, "second-moment", delta)
        self.assert_bitwise(res, ref)


class TestBisectionDiagnostics:
    def test_early_exit_at_fine_grid(self, c05):
        res = minimize_revenue(PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 400_000)
        # the bracket ends are adjacent doubles after about 55 halvings
        assert res.bisect_steps <= 64
        assert 0 <= res.exact_sums <= res.bisect_steps
        # the split sum decides all but a few steps next to the target; the
        # plain-sum guard alone left 22 of 55 to math.fsum
        assert res.exact_sums <= 8


def ulp_steps(x, n):
    """x moved n ulps up (n > 0) or down (n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


class TestSplitSum:
    """``_sum_below`` decides ``math.fsum(t) < target`` or returns None."""

    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3000),
        scale=st.sampled_from([1.0, 2.0**-1060, 2.0**900]),
        ulps=st.sampled_from([0, 1, -1, 2, -2, 8, -8, 64, -64, 2**20, -(2**20)]),
    )
    # 1 + 2**-53 is a rounding tie that every float sum breaks down to 1,
    # while the 2**-107 term makes fsum round it up: only the slack keeps
    # the split from deciding this comparison wrongly
    @example(terms=[1.0, 2.0**-53, 2.0**-107], scale=1.0, ulps=0)
    def test_matches_fsum(self, terms, scale, ulps):
        t = np.array(terms) * scale
        exact = math.fsum(t.tolist())
        target = ulp_steps(exact, ulps) if abs(ulps) <= 64 else exact * (1.0 + ulps * 2.0**-53)
        below = _sum_below(t, target)
        assert below is None or below == (exact < target)

    @pytest.mark.parametrize("ulps", [16, -16])
    def test_split_decides_where_plain_sum_cannot(self, ulps):
        t = np.random.default_rng(3).uniform(0.0, 2.5e-6, 400_000)
        exact = math.fsum(t.tolist())
        target = ulp_steps(exact, ulps)
        # the plain sum's any-order bound alone spans about 1e5 ulps here
        assert 2.0 * t.size * 2.0**-53 * exact > 1e3 * math.ulp(exact)
        assert _sum_below(t, target) is (ulps > 0)


class TestUniformReserveMeanConstraint:
    def test_point_mass_minimizer(self, c05):
        # with a uniform reserve the integrand is linear in G; the minimizer
        # collapses to a step (a point mass at the mean) with value mu^2
        res = minimize_revenue(PiecewiseCdf.uniform(), ModelParams(mu=0.5), 500)
        assert res.value == pytest.approx(0.25, abs=1e-12)
        assert res.value < c05.revenue_guarantee
        assert abs(res.lambda_hat - 1.0) < 5e-3
        g = res.grid.values
        assert np.all((g < 1e-12) | (g > 1.0 - 1e-12))  # step function
        assert sup_distance_to_signal(res, c05) > 0.3  # far from the saddle CDF


class TestSecondMomentConstraint:
    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.7])
    def test_flat_landscape_value_is_delta(self, delta):
        res = minimize_revenue(
            PiecewiseCdf.uniform(),
            None,
            500,
            constraint="second-moment",
            target=delta,
        )
        assert res.value == pytest.approx(delta, abs=1e-12)
        assert res.lambda_hat == pytest.approx(1.0, abs=1e-12)
        assert abs(res.constraint_residual) <= 1e-9

    def test_requires_target(self):
        with pytest.raises(DomainError):
            minimize_revenue(
                PiecewiseCdf.uniform(), None, 500, constraint="second-moment"
            )


class TestReserveFamily:
    def test_zero_atom_variant_keeps_saddle(self, c05):
        res = minimize_revenue(reserve_with_zero_atom(c05), ModelParams(mu=0.5), 500)
        assert abs(res.value - c05.revenue_guarantee) <= 2e-3
        assert sup_distance_to_signal(res, c05) <= 0.01

    def test_linear_ramp_variant_keeps_saddle(self, c05):
        res = minimize_revenue(
            reserve_with_linear_ramp(c05), ModelParams(mu=0.5), 500
        )
        assert abs(res.value - c05.revenue_guarantee) <= 2e-3
        assert sup_distance_to_signal(res, c05) <= 0.01


class TestValidation:
    def test_grid_too_small(self, c05):
        with pytest.raises(DomainError):
            minimize_revenue(PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 50)

    def test_unknown_constraint(self, c05):
        with pytest.raises(DomainError):
            minimize_revenue(
                PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 500, constraint="tail"
            )

    def test_interior_atom_rejected(self, c05):
        bad = PiecewiseCdf.from_grid(
            [0.0, 0.5, 1.0], [0.0, 0.6, 1.0], atoms=[(0.5, 0.2)]
        )
        with pytest.raises(DomainError):
            minimize_revenue(bad, ModelParams(mu=0.5), 500)

    def test_concave_reserve_is_degenerate(self):
        # H(x) = x^2 gives H - xH' = -x^2 < 0
        bad = PiecewiseCdf.custom(
            cdf_fn=lambda x: np.asarray(x) ** 2,
            pdf_fn=lambda x: 2.0 * np.asarray(x),
        )
        with pytest.raises(DegenerateError):
            minimize_revenue(bad, ModelParams(mu=0.5), 500)

    def test_target_out_of_range(self, c05):
        with pytest.raises(DomainError):
            minimize_revenue(
                PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 500, target=1.0
            )


def assert_l2_projection(y, out):
    """The conditions that characterise the L2 projection of ``y`` onto
    nondecreasing sequences: ``out`` is nondecreasing, each block of equal
    outputs equals the mean of its inputs, and no block could be split, i.e.
    every leading partial sum of ``y - out`` inside a block is nonnegative.
    The slack is rounding: a few ulps of the block's sum of |y| and a few of
    the smallest subnormal, per element of the block."""
    eps, tiny = np.finfo(float).eps, 5e-324
    assert out.shape == y.shape
    assert np.all(np.diff(out) >= 0.0)
    edges = np.flatnonzero(np.diff(out)) + 1
    for block_y, block_out in zip(np.split(y, edges), np.split(out, edges)):
        n = block_y.size
        slack = 4.0 * n * (eps * math.fsum(np.abs(block_y).tolist()) + tiny)
        assert abs(block_out[0] - math.fsum(block_y.tolist()) / n) <= slack
        assert np.all(np.cumsum(block_y - block_out) >= -slack)


class TestPav:
    def test_projects_to_monotone(self):
        rng = np.random.default_rng(0)
        y = rng.random(200)
        out = pav_nondecreasing(y)
        assert np.all(np.diff(out) >= -1e-15)

    def test_preserves_sum(self):
        rng = np.random.default_rng(1)
        y = rng.random(57)
        assert pav_nondecreasing(y).sum() == pytest.approx(y.sum(), abs=1e-10)

    def test_identity_on_monotone(self):
        y = np.array([0.0, 0.1, 0.1, 0.4, 0.9])
        out = pav_nondecreasing(y)
        assert np.array_equal(out, y)
        assert out is not y

    def test_matches_reference_loop(self):
        # scipy pools in another order than the loop, so the last bits differ
        rng = np.random.default_rng(2)
        for y in (rng.random(300), np.sort(rng.random(300)), np.arange(5)):
            out = pav_nondecreasing(y)
            assert out.dtype == np.float64
            np.testing.assert_allclose(out, reference.pav_loop(y), rtol=1e-14, atol=0)
            assert_l2_projection(y, out)

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.1, -0.1, 1.0, 5e-324, -5e-324, 2.2e-308]),
                st.floats(-1e3, 1e3),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_projection_conditions(self, y):
        y = np.array(y)
        assert_l2_projection(y, pav_nondecreasing(y))

    def test_simple_violation(self):
        assert np.allclose(pav_nondecreasing(np.array([1.0, 0.0])), [0.5, 0.5])


class TestPointwiseSaddle:
    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.75])
    def test_max_deviation_tiny(self, mu):
        c = solve_a(ModelParams(mu=mu))
        report = verify_pointwise_saddle(c, 500)
        assert report.max_deviation < 1e-6

    def test_grid_size_floor(self, c05):
        with pytest.raises(DomainError):
            verify_pointwise_saddle(c05, 10)


class TestP1P2:
    def test_zero_atom_passes(self, c05):
        report = check_p1_p2(reserve_with_zero_atom(c05), c05)
        assert report.passed
        # below a the flat variant has margin H(a) everywhere
        assert report.p2_worst_value == pytest.approx(c05.h_at_a, abs=1e-12)

    def test_solved_reserve_passes(self, c05):
        assert check_p1_p2(PiecewiseCdf.reserve(c05), c05).passed

    def test_linear_ramp_passes_with_equality(self, c05):
        report = check_p1_p2(reserve_with_linear_ramp(c05), c05)
        assert report.passed
        assert abs(report.p2_worst_value) <= 1e-12

    def test_uniform_reserve_fails_p1(self, c05):
        report = check_p1_p2(PiecewiseCdf.uniform(), c05)
        assert not report.p1_passed
        assert report.p1_worst_gap > 0.1
