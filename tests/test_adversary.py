"""Constrained revenue minimization over signal CDFs."""

import hashlib
import math
import tracemalloc

import adversary_reference as reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxmin_auction import (
    ConvergenceError,
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
from maxmin_auction import adversary
from maxmin_auction.adversary import (
    _GRID_BLOCK,
    _ITP_N0,
    _MAX_PROBES,
    _flip_pair,
    _moment_terms,
    _pointwise_argmin,
    _sum_below,
)


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


class TestPinnedFineGrid:
    """The K = 4e5 certificates keep their bits.

    The frozen reference stops at K = 65 537, while ``certify-fine`` runs at
    K = 4e5.  The optimal, linear-ramp and second-moment values were recorded
    from the solver before the exact sums moved to numpy and the all-linear
    argmin dropped its masks; the zero-atom and uniform values before the
    bisection lost its split-sum stage and the argmin its convexity branches.
    The linear ramp mixes convex and linear points, and the uniform reserve is
    linear at every grid point, with a scalar weight under the mean
    constraint and the array weight 2x under the second moment.
    """

    K = 400_000
    PINNED = {
        "optimal": (
            {
                "value": "0x1.5aa3805aa8ebbp-2",
                "lambda_hat": "0x1.f039893954e4ep-1",
                "constraint_residual": "0x1.0000000000000p-53",
                "projection_delta": "0x0.0p+0",
                "lagrangian_bound": "0x1.5aa3805aa8ebap-2",
            },
            "a7fed3201e414bfa029984482cc946e9cc27dd94d21f09b73ac4635290e0181f",
        ),
        "linear-ramp": (
            {
                "value": "0x1.5aa3837612e6bp-2",
                "lambda_hat": "0x1.f039893954e4ep-1",
                "constraint_residual": "0x1.0000000000000p-53",
                "projection_delta": "0x0.0p+0",
                "lagrangian_bound": "0x1.5aa3837612e6ap-2",
            },
            "a7fed3201e414bfa029984482cc946e9cc27dd94d21f09b73ac4635290e0181f",
        ),
        "zero-atom": (
            {
                "value": "0x1.5aa37d3eb42f3p-2",
                "lambda_hat": "0x1.f039893954e4ep-1",
                "constraint_residual": "0x1.0000000000000p-53",
                "projection_delta": "0x0.0p+0",
                "lagrangian_bound": "0x1.5aa37d3eb42f2p-2",
            },
            "a7fed3201e414bfa029984482cc946e9cc27dd94d21f09b73ac4635290e0181f",
        ),
        "uniform": (
            {
                "value": "0x1.0000000000001p-2",
                "lambda_hat": "0x1.ffffac1d29dc8p-1",
                "constraint_residual": "0x0.0p+0",
                "projection_delta": "0x0.0p+0",
                "lagrangian_bound": "0x1.0000000000000p-2",
            },
            "8eb3397190c08e18a3abf7afd1a3e6d042835b6a1f5c56b260dd993435317c0b",
        ),
        "second-moment": (
            {
                "value": "0x1.0000000000000p-1",
                "lambda_hat": "0x1.0000000000000p+0",
                "constraint_residual": "-0x1.0000000000000p-54",
                "projection_delta": "0x0.0p+0",
                "lagrangian_bound": "0x1.0000000000000p-1",
            },
            "197dedc62f29953db6e368a73650bebbd57843ef6f110098321b6f6c6c89767b",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_matches_pinned(self, case, c05):
        if case == "second-moment":
            res = minimize_revenue(
                PiecewiseCdf.uniform(), None, self.K, constraint="second-moment", target=0.5
            )
        else:
            res = minimize_revenue(RESERVES[case](c05), ModelParams(mu=0.5), self.K)
        fields, digest = self.PINNED[case]
        assert {name: float(getattr(res, name)).hex() for name in fields} == fields
        assert hashlib.sha256(res.grid.values.tobytes()).hexdigest() == digest


def solve_case(case, c, K):
    """A solve at mu = 0.5 under the mean for a reserve of RESERVES, or at
    delta = 0.5 under the second moment."""
    if case == "second-moment":
        return minimize_revenue(PiecewiseCdf.uniform(), None, K, constraint="second-moment", target=0.5)
    return minimize_revenue(RESERVES[case](c), ModelParams(mu=0.5), K)


BLOCK_CASES = sorted(RESERVES) + ["second-moment"]


class TestGridBlocks:
    """H, xH' and the integrands are built in blocks of ``_GRID_BLOCK``
    points, and the search holds seven grid arrays."""

    # blocks only split elementwise passes; sums run over the whole grid
    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_bits_do_not_depend_on_block(self, case, c05, monkeypatch):
        K = 3 * 4097 + 17
        results = set()
        for size in (1000, 4097, _GRID_BLOCK):
            monkeypatch.setattr(adversary, "_GRID_BLOCK", size)
            res = solve_case(case, c05, K)
            fields = tuple(
                float(getattr(res, name)).hex()
                for name in ("value", "lambda_hat", "constraint_residual", "projection_delta", "lagrangian_bound")
            )
            results.add((fields, res.probes, res.exact_sums, res.grid.values.tobytes()))
        assert len(results) == 1

    # x, 2H, xH', the divisor, G, the moment terms and exact_sum's buffer;
    # the block temporaries come while at most five grid arrays are live, so
    # one block-length array of slack covers the small objects.  The solver
    # that built H, xH' and the integrands over the whole grid held 10 grid
    # arrays at its peak, 11 under the second moment
    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_peak_is_seven_grid_arrays(self, case, c05):
        K = 2**18 + 3
        solve_case(case, c05, 1000)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            solve_case(case, c05, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (7 * K + _GRID_BLOCK)


class TestConstraintResidual:
    """``constraint_residual`` is the exact moment of the returned grid minus
    the target: the solve's own residual where the projection moved nothing,
    and the projected grid's moment where it did."""

    @staticmethod
    def assert_matches_grid(res, K):
        x, g = res.grid.x, res.grid.values
        w = np.ones_like(x) if res.constraint == "mean" else 2.0 * x
        want = math.fsum((w * (1.0 - g) * (1.0 / K)).tolist()) - res.target
        assert res.constraint_residual.hex() == want.hex()

    @pytest.mark.parametrize("mu, K", [(0.3, 4096), (0.5, 4096), (0.9, 4096), (0.5, 400_000)])
    @pytest.mark.parametrize("reserve", sorted(RESERVES))
    def test_mean_constraint(self, reserve, mu, K):
        h_dist = RESERVES[reserve](solve_a(ModelParams(mu=mu)))
        res = minimize_revenue(h_dist, ModelParams(mu=mu), K)
        assert res.projection_delta == 0.0
        self.assert_matches_grid(res, K)

    @pytest.mark.parametrize("delta, K", [(0.1, 4096), (0.5, 4096), (0.9, 4096), (0.5, 400_000)])
    def test_second_moment(self, delta, K):
        res = minimize_revenue(
            PiecewiseCdf.uniform(), None, K, constraint="second-moment", target=delta
        )
        assert res.projection_delta == 0.0
        self.assert_matches_grid(res, K)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    def test_after_a_projection(self, mu):
        # a concave kink in the reserve makes the pointwise minimizer jump
        # down there, so the projection moves it
        h_dist = PiecewiseCdf.from_grid([0.0, 0.3, 1.0], [0.0, 0.8, 1.0])
        res = minimize_revenue(h_dist, ModelParams(mu=mu), 4096)
        assert res.projection_delta > 0.0
        self.assert_matches_grid(res, 4096)


class TestSearchDiagnostics:
    def test_fine_grid_probes(self, c05):
        res = minimize_revenue(PiecewiseCdf.reserve(c05), ModelParams(mu=0.5), 400_000)
        # the search ends on adjacent doubles after 11 probes, where bisection
        # takes 55 steps; 16 allows five probes of margin
        assert res.probes <= 16
        assert 0 <= res.exact_sums <= res.probes

    K = 4096
    MUS = (1e-6, 1e-3, 0.05, 0.31, 0.5, 0.69, 0.9, 0.99)
    # (probes, exact_sums) at each mu of MUS, recorded from the solver that
    # replayed the bisection after the search; the search is unchanged
    PINNED = {
        "optimal": [(58, 0), (57, 8), (12, 3), (10, 2), (10, 4), (10, 2), (10, 2), (14, 5)],
        "linear-ramp": [(58, 0), (57, 8), (12, 2), (11, 3), (11, 2), (12, 3), (12, 3), (54, 17)],
        "zero-atom": [(58, 0), (57, 8), (13, 5), (17, 2), (15, 2), (21, 2), (19, 3), (54, 14)],
        "uniform": [(67, 0), (63, 0), (58, 0), (55, 0), (55, 31), (54, 0), (46, 0), (54, 0)],
    }
    DELTAS = (1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    PINNED_SECOND_MOMENT = [(55, 0), (55, 0), (14, 0), (13, 0), (12, 0), (55, 0), (55, 0)]

    @pytest.mark.parametrize("reserve", sorted(RESERVES))
    def test_pinned_probes(self, reserve):
        got = []
        for mu in self.MUS:
            h_dist = RESERVES[reserve](solve_a(ModelParams(mu=mu)))
            res = minimize_revenue(h_dist, ModelParams(mu=mu), self.K)
            got.append((res.probes, res.exact_sums))
        assert got == self.PINNED[reserve]

    def test_pinned_probes_second_moment(self):
        got = []
        for delta in self.DELTAS:
            res = minimize_revenue(
                PiecewiseCdf.uniform(), None, self.K, constraint="second-moment", target=delta
            )
            got.append((res.probes, res.exact_sums))
        assert got == self.PINNED_SECOND_MOMENT


def bisect_to_adjacent(below, lo, hi):
    """Bisection of [lo, hi] on a predicate, with no step cap, until a step
    would leave the bracket as it is: (lo, hi, steps)."""
    steps = 0
    while True:
        steps += 1
        mid = 0.5 * (lo + hi)
        if below(mid):
            if mid == lo:
                return lo, hi, steps
            lo = mid
        else:
            if mid == hi:
                return lo, hi, steps
            hi = mid


class TestFlipPair:
    """The search ends on the bracket that bisection run to adjacent doubles
    ends on, in at most n0 more probes, wherever the flip lies in [0, 2]."""

    @settings(max_examples=200, deadline=None)
    @given(
        root=st.one_of(
            st.floats(0.0, 2.0),
            st.sampled_from([0.0, 1.0, 2.0, 2.5, 5e-324, 1e-323, 2.2250738585072014e-308, 1e-300]),
        ),
        shape=st.sampled_from(["step", "linear", "cubic", "hockey", "noisy"]),
        scale=st.sampled_from([1.0, 1e-12, 1e12]),
    )
    def test_matches_uncapped_bisection(self, root, shape, scale):
        def f(lam):
            d = lam - root
            value = {
                "step": math.copysign(1.0, d) if d else 0.0,
                "linear": d,
                "cubic": d**3,
                "hockey": max(d, 0.0) + 1e-3 * d,
                # an estimate off by up to 1e-9 of the truth, sign kept
                "noisy": d + 1e-9 * math.sin(1e9 * lam) * abs(d),
            }[shape]
            return value * scale

        def decide(lam):
            return lam < root, f(lam)

        def at_end(lam):
            # the solver's end values are exact, so their signs give P; a
            # value that underflows to zero where P holds keeps its sign
            return f(lam) or (-5e-324 if lam < root else 0.0)

        lam_hi = 2.0
        p, q, probes = _flip_pair(decide, 0.0, at_end(0.0), lam_hi, at_end(lam_hi))
        want_lo, want_hi, steps = bisect_to_adjacent(lambda lam: lam < root, 0.0, lam_hi)
        assert (p, q) == (want_lo, want_hi)
        assert probes <= min(steps + _ITP_N0, _MAX_PROBES)


# convex (coefficient above _COEF_TOL), linear (0) and near-linear points
MOMENT_POINTS = st.tuples(
    st.floats(0.0, 1.0),  # h
    st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(1e-12, 1.0, exclude_min=True)),
    st.floats(0.0, 2.0),  # this point's weight, if w is an array
)


class TestMomentTermsMonotone:
    """Every grid term of the moment is nondecreasing in the multiplier, so
    the exactly rounded moment is too: the fact the search's answers rest on."""

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(MOMENT_POINTS, min_size=1, max_size=40),
        grid=st.sampled_from(["convex", "linear", "mixed"]),
        lams=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        scalar_w=st.booleans(),
    )
    @example(points=[(0.5, 0.0, 1.0), (0.5, 0.25, 1.0)], grid="mixed", lams=(1.0, 1.0000000000000002), scalar_w=True)
    def test_terms_nondecreasing(self, points, grid, lams, scalar_w):
        h, coef, w_arr = (np.array(col) for col in zip(*points))
        if grid == "convex":
            coef = np.maximum(coef, 2e-12)
        elif grid == "linear":
            coef = np.zeros_like(coef)
        w = 1.0 if scalar_w else w_arr
        argmin = _pointwise_argmin(h, coef, w)
        lam1, lam2 = sorted(lams)
        dx = 1.0 / 400_000
        t1 = _moment_terms(argmin(lam1, np.empty_like(h)), w, dx, np.empty_like(h))
        t2 = _moment_terms(argmin(lam2, np.empty_like(h)), w, dx, np.empty_like(h))
        assert np.all(t1 <= t2)
        assert math.fsum(t1.tolist()) <= math.fsum(t2.tolist())


class TestStepFunctionCases:
    """The moments of the all-linear grids are step functions of the
    multiplier, where the search falls back to bisection's midpoints: the
    bits still match the fixed-step reference."""

    K = 65537

    @pytest.mark.parametrize("mu", [0.31, 0.69])
    def test_uniform_reserve_under_the_mean(self, mu):
        h_dist = PiecewiseCdf.uniform()
        res = minimize_revenue(h_dist, ModelParams(mu=mu), self.K)
        ref = reference.minimize_revenue(h_dist, self.K, "mean", mu)
        TestMatchesFixedStepReference.assert_bitwise(res, ref)

    @pytest.mark.parametrize("delta", [0.1, 0.9])
    def test_second_moment(self, delta):
        h_dist = PiecewiseCdf.uniform()
        res = minimize_revenue(h_dist, None, self.K, constraint="second-moment", target=delta)
        ref = reference.minimize_revenue(h_dist, self.K, "second-moment", delta)
        TestMatchesFixedStepReference.assert_bitwise(res, ref)


class TestSearchEdgeCases:
    """Bracket ends the search reaches slowly or right at the initial
    bracket's top keep the fixed-step reference's bits."""

    K = 500

    def test_crawl_near_mu_one(self):
        # the moment is flat at the target next to one end, so the search
        # creeps by about an ulp per probe, most of them exact sums
        mu = 1.0 - 1e-5
        h_dist = PiecewiseCdf.reserve(solve_a(ModelParams(mu=mu)))
        res = minimize_revenue(h_dist, ModelParams(mu=mu), self.K)
        assert (res.probes, res.exact_sums) == (54, 46)
        TestMatchesFixedStepReference.assert_bitwise(
            res, reference.minimize_revenue(h_dist, self.K, "mean", mu)
        )

    def test_second_moment_below_one(self):
        delta = 1.0 - 2.0**-53
        h_dist = PiecewiseCdf.uniform()
        res = minimize_revenue(h_dist, None, self.K, constraint="second-moment", target=delta)
        ref = reference.minimize_revenue(h_dist, self.K, "second-moment", delta)
        TestMatchesFixedStepReference.assert_bitwise(res, ref)


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
    # the plain sum from deciding this comparison wrongly
    @example(terms=[1.0, 2.0**-53, 2.0**-107], scale=1.0, ulps=0)
    def test_matches_fsum(self, terms, scale, ulps):
        t = np.array(terms) * scale
        exact = math.fsum(t.tolist())
        target = ulp_steps(exact, ulps) if abs(ulps) <= 64 else exact * (1.0 + ulps * 2.0**-53)
        below = _sum_below(t, target, float(t.sum()))
        assert below is None or below == (exact < target)


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

    def test_non_finite_revenue_raises(self):
        # at a subnormal a, H is finite on the grid but H' is not where
        # (x - a)/a overflows, whose warnings are silenced here
        c = solve_a(ModelParams(mu=1e-320))
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="not finite"):
            minimize_revenue(PiecewiseCdf.reserve(c), ModelParams(mu=c.mu), 500)


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


# the smallest subnormal, two more subnormals and the smallest normal double
TINY = st.sampled_from([5e-324, 1e-323, 2.5e-320, 2.2250738585072014e-308])
ARGMIN_POINTS = st.tuples(
    st.one_of(st.just(0.0), TINY, st.floats(0.0, 1.0)),  # h
    st.one_of(  # coef: linear points and convex ones
        st.just(0.0),
        st.floats(0.0, 1e-12, exclude_min=True),
        st.floats(-1e-12, 0.0, exclude_max=True),
        st.floats(1e-12, 1.0, exclude_min=True),
    ),
    st.one_of(TINY, st.floats(0.0, 2.0)),  # this point's weight, if w is an array
    st.booleans(),  # exact indifference: h = lam * w / 2
)


class TestPointwiseArgmin:
    """One formula over the full arrays gives the bits of the reference's
    convex vertex and linear sign test, point by point."""

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(ARGMIN_POINTS, min_size=1, max_size=40),
        lam=st.one_of(st.just(0.0), TINY, st.floats(0.0, 2.0)),
        scalar_w=st.booleans(),
    )
    # negative subnormal numerators whose convex quotients round to -0.0, at
    # enough positions to fill a SIMD block (np.fmax keeps -0.0 at some
    # positions and not at others), a subnormal numerator, and exact
    # indifference at a linear and a convex point
    @example(
        points=[(0.0, 1.0, 5e-324, False)] * 17
        + [(5e-324, 0.75, 1.0, False), (0.0, 0.0, 1.0, True), (0.0, 0.5, 1.0, True)],
        lam=1.0,
        scalar_w=False,
    )
    @example(points=[(0.0, 1.0, 0.0, False), (0.0, 0.0, 0.0, False)], lam=5e-324, scalar_w=True)
    # all linear grids take the sign test alone: a tie, both signs, and a NaN
    @example(
        points=[(0.5, 0.0, 1.0, True), (0.25, 0.0, 1.0, False), (0.75, 1e-12, 1.0, False)]
        + [(math.nan, 0.0, 1.0, False)],
        lam=1.0,
        scalar_w=False,
    )
    @example(points=[(0.5, 0.0, 1.0, True), (0.25, -1e-13, 1.0, False)], lam=1.0, scalar_w=True)
    def test_matches_reference_bitwise(self, points, lam, scalar_w):
        h, coef, w_arr, tie = (np.array(col) for col in zip(*points))
        if scalar_w:
            w_arr = np.ones_like(h)
        h = np.where(tie, lam * w_arr / 2.0, h)
        w = 1.0 if scalar_w else w_arr
        got = _pointwise_argmin(h, coef, w)(lam, np.empty_like(h))
        assert got.tobytes() == reference._argmin(lam, h, coef, w_arr).tobytes()


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
