"""Second-moment variant and mean-preserving-spread checks."""

import decimal
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxmin_auction import (
    DomainError,
    MeanMismatchError,
    ModelParams,
    PiecewiseCdf,
    mps_check,
    read_cdf_csv,
    revenue_functional,
    second_moment_solution,
    solve_a,
    write_cdf_csv,
)

import oracles

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def three_point_prior(b: float) -> PiecewiseCdf:
    return PiecewiseCdf.from_discrete([0.0, 0.5, 1.0], [b, 1.0 - 2.0 * b, b])


def touching_prior(a: float, cells: int) -> PiecewiseCdf:
    """The worst-case signal law with the mass of each cell of a geometric grid
    on [a, 1] moved to the cell's two ends, keeping the cell's mean: a
    mean-preserving spread whose integrated CDF touches the signal's at every
    knot."""
    xs = a * (1.0 / a) ** (np.arange(cells + 1) / cells)
    xs[-1] = 1.0
    x0, x1 = xs[:-1], xs[1:]
    cell = a / x0 - a / x1
    right = (a * np.log(x1 / x0) - x0 * cell) / (x1 - x0)
    mass = np.zeros(cells + 1)
    mass[:-1] += cell - right
    mass[1:] += right
    mass[-1] += a
    return PiecewiseCdf.from_discrete(xs, mass)


class TestSecondMomentSolution:
    def test_half(self):
        c = second_moment_solution(0.5)
        assert c.a == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-15)
        assert PiecewiseCdf.signal(c).second_moment() == pytest.approx(0.5, abs=1e-12)

    def test_guarantee_always_delta(self):
        for delta in (0.2, 0.5, 0.9):
            c = second_moment_solution(delta)
            assert c.revenue_guarantee == pytest.approx(delta, abs=1e-15)
            assert PiecewiseCdf.signal(c).second_moment() == pytest.approx(delta, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.5, 1e-6, 1e-9, 1e-17, 1e-300, 5e-324])
    def test_atom_free_of_cancellation(self, delta):
        # a = 1 - sqrt(1 - delta) in 800-digit decimal arithmetic, enough to
        # resolve 1 - delta at every positive double
        with decimal.localcontext() as ctx:
            ctx.prec = 800
            exact = 1 - (1 - decimal.Decimal(delta)).sqrt()
        a = second_moment_solution(delta).a
        assert math.isfinite(a) and a > 0.0
        if delta == 5e-324:
            # the exact atom, about 2.5e-324, lies below every positive double
            assert a == 5e-324
        else:
            assert abs(decimal.Decimal(a) - exact) <= 2 * decimal.Decimal(math.ulp(a))

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, float("nan")])
    def test_domain(self, delta):
        with pytest.raises(DomainError):
            second_moment_solution(delta)

    def test_uniform_reserve_interim_revenue(self):
        # under the uniform reserve the winner pays
        # hi*H(hi) - int_lo^hi H = hi^2 - (hi^2 - lo^2)/2 = (s1^2 + s2^2)/2
        uniform = PiecewiseCdf.uniform()
        for s1, s2 in ((0.9, 0.2), (0.5, 0.5), (0.3, 0.8)):
            hi, lo = max(s1, s2), min(s1, s2)
            paid = hi * uniform.cdf(hi) - (
                uniform.integral_to(hi) - uniform.integral_to(lo)
            )
            assert paid == pytest.approx((s1 * s1 + s2 * s2) / 2.0, abs=1e-15)

    def test_uniform_reserve_revenue_is_second_moment_for_random_grids(self):
        # under the uniform reserve, revenue equals the signal's own second
        # moment whatever the distribution; check on random monotone grids
        rng = np.random.default_rng(8)
        uniform = PiecewiseCdf.uniform()
        for _ in range(3):
            knots = np.sort(rng.uniform(0.02, 0.98, size=12))
            values = np.sort(rng.uniform(0.0, 1.0, size=12))
            g = PiecewiseCdf.from_grid(knots, values)
            fv = revenue_functional(g, uniform)
            assert fv == pytest.approx(g.second_moment(), abs=1e-6)

    def test_flat_landscape_across_distributions(self):
        # five grid CDFs sharing the same second moment all earn exactly
        # delta under the uniform reserve
        delta = 0.5
        distributions = [
            PiecewiseCdf.from_discrete([0.0, 1.0], [0.5, 0.5]),
            PiecewiseCdf.from_discrete([float(np.sqrt(delta))], [1.0]),
            PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 1.0], atoms=[(1.0, 0.25)]),
            PiecewiseCdf.from_discrete([0.0, 0.5, 1.0], [0.2, 0.4, 0.4]),
            PiecewiseCdf.from_discrete([0.0, 0.6, 1.0], [0.18, 0.5, 0.32]),
        ]
        for g in distributions:
            assert g.second_moment() == pytest.approx(delta, abs=1e-12)
            fv = revenue_functional(g, PiecewiseCdf.uniform())
            assert fv == pytest.approx(delta, abs=1e-6)


class TestIntegratedSignalCdf:
    def test_closed_form_vs_quadrature(self, c05):
        g = PiecewiseCdf.signal(c05)
        a = c05.a
        for x in (0.25, 0.5, 0.75, 1.0):
            closed = x - a - a * np.log(x) + a * np.log(a)
            assert g.integral_to(x) == pytest.approx(closed, abs=1e-15)
            oracle, err = quad(g.cdf, 0.0, x, points=[a], limit=200)
            assert closed == pytest.approx(oracle, abs=1e-9 + 10 * err)

    def test_zero_below_a(self, c05):
        g = PiecewiseCdf.signal(c05)
        assert g.integral_to(c05.a / 2.0) == 0.0
        assert g.integral_to(c05.a) == pytest.approx(0.0, abs=1e-15)


class TestMpsCheck:
    def test_three_point_threshold(self, c05):
        # admissibility flips at b = 2 a ln 2
        assert oracles.MPS_THRESHOLD_MU_05 == pytest.approx(
            2.0 * c05.a * np.log(2.0), abs=1e-12
        )
        assert mps_check(three_point_prior(0.30), c05).passed
        assert mps_check(three_point_prior(0.26), c05).passed
        report = mps_check(three_point_prior(0.25), c05)
        assert not report.passed
        # the binding point is the middle valuation
        assert report.worst_x == pytest.approx(0.5, abs=1e-9)
        assert report.max_violation > 1e-3

    def test_uniform_plus_atom_at_mu_075(self, c075):
        prior = PiecewiseCdf.from_grid(
            [0.0, 1.0], [0.0, 1.0], atoms=[(1.0, 0.5)]
        )
        assert prior.mean() == pytest.approx(0.75, abs=1e-15)
        report = mps_check(prior, c075)
        assert report.passed
        assert abs(report.gap_at_one) <= 1e-9

    @pytest.mark.parametrize("mu", [0.2, 0.5, 0.8])
    def test_bernoulli_prior_always_passes(self, mu):
        c = solve_a(ModelParams(mu=mu))
        prior = PiecewiseCdf.from_discrete([0.0, 1.0], [1.0 - mu, mu])
        assert mps_check(prior, c).passed

    def test_mean_mismatch_raises(self, c05):
        prior = PiecewiseCdf.from_discrete([0.0, 1.0], [0.4, 0.6])  # mean 0.6
        with pytest.raises(MeanMismatchError):
            mps_check(prior, c05)

    def test_equality_at_one(self, c05):
        report = mps_check(three_point_prior(0.3), c05)
        assert abs(report.gap_at_one) <= 1e-9

    def test_gap_shape_in_uniform_plus_atom_example(self, c075):
        # the integrated-CDF gap for the mu = 0.75 worked example falls until
        # 1 - sqrt(1 - 2a) and rises afterwards, so its maximum over [0, 1]
        # sits at the endpoints where it vanishes
        prior = PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 1.0], atoms=[(1.0, 0.5)])
        signal = PiecewiseCdf.signal(c075)
        pivot = 1.0 - np.sqrt(1.0 - 2.0 * c075.a)
        assert pivot == pytest.approx(oracles.PIVOT_MU_075, abs=1e-12)
        xs = np.linspace(c075.a, 1.0, 2001)
        gap = np.asarray(signal.integral_to(xs)) - np.asarray(prior.integral_to(xs))
        diffs = np.diff(gap)
        falling = xs[1:] <= pivot
        rising = xs[:-1] >= pivot  # skip the one panel that straddles the pivot
        assert np.all(diffs[falling] <= 1e-12)
        assert np.all(diffs[rising] >= -1e-12)
        assert np.max(gap) <= 1e-9  # never above the prior's integrated CDF

    @pytest.mark.parametrize("mu", [1e-6, 1e-9])
    def test_point_mass_at_mean_fails_at_small_mu(self, mu):
        # the least spread prior there is: its integrated CDF is 0 up to mu,
        # where the signal's is already about 0.78 mu above it
        report = mps_check(PiecewiseCdf.from_discrete([mu], [1.0]), solve_a(ModelParams(mu=mu)))
        assert not report.passed
        assert report.worst_x == mu
        assert report.max_violation > 0.5 * mu

    @pytest.mark.parametrize("mu", [1e-6, 1e-9])
    def test_point_mass_at_zero_is_a_mean_mismatch_at_small_mu(self, mu):
        with pytest.raises(MeanMismatchError):
            mps_check(PiecewiseCdf.from_discrete([0.0], [1.0]), solve_a(ModelParams(mu=mu)))

    # The mean floor comes from the prior's own stored drift, not from its
    # knot count: spreading the point mass at 0 over many zero-mass knots
    # adds no drift, so the mean mismatch shows at every mu.
    @pytest.mark.parametrize("mu", [1e-12, 1e-9])
    def test_point_mass_at_zero_over_many_knots_is_a_mean_mismatch(self, tmp_path, mu):
        path = tmp_path / "point_at_zero.csv"
        knots = np.linspace(0.0, 1.0, 10_001)
        masses = np.zeros(knots.size)
        masses[0] = 1.0
        write_cdf_csv(path, knots, np.ones(knots.size), masses)
        prior = read_cdf_csv(path)
        assert prior.knots.size == 10_001 and prior.mean() == 0.0
        with pytest.raises(MeanMismatchError):
            mps_check(prior, solve_a(ModelParams(mu=mu)))

    # the benchmark's 256-knot prior, written as running sums of its masses
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certify_fine_prior_passes(self, tmp_path, monkeypatch, seed):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        workload = workloads.build("certify-fine", seed, tmp_path)
        for path, text in workload.files.items():
            Path(path).write_text(text)
        (op,) = [op for op in workload.ops if op.argv[0] == "mps-check"]
        mu, prior = float(workloads.flag(op.argv, "--mu")), read_cdf_csv(workloads.flag(op.argv, "--prior"))
        assert mps_check(prior, solve_a(ModelParams(mu=mu))).passed

    @pytest.mark.parametrize("cells", [256, 10_000, 100_000])
    @pytest.mark.parametrize("mu", [0.5, 1e-3, 1e-6, 1e-9])
    def test_touching_spreads_pass(self, mu, cells):
        c = solve_a(ModelParams(mu=mu))
        report = mps_check(touching_prior(c.a, cells), c)
        assert report.passed
        assert report.grid_size >= cells + 1

    def test_non_grid_prior_is_a_domain_error(self, c05):
        with pytest.raises(DomainError):
            mps_check(PiecewiseCdf.reserve(c05), c05)

    @settings(max_examples=60, deadline=None)
    @given(
        knots=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True),
        rises=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
        atoms=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    )
    def test_exact_maximum_bounds_a_dense_grid(self, knots, rises, atoms):
        # random grid priors with atoms, at the mu of their own mean; D' is
        # a difference of CDFs, so |D'| <= 1 and the exact maximum exceeds
        # the dense one by at most half the spacing
        x = np.concatenate(([0.0], np.sort(knots), [1.0]))
        mass = np.asarray(atoms[: x.size])
        rise = np.concatenate(([0.0], rises[: x.size - 1]))
        steps = mass + rise
        if steps.sum() == 0.0:
            steps[-1] = 1.0
        values = np.cumsum(steps / steps.sum())
        values[-1] = 1.0
        prior = PiecewiseCdf.from_grid(x, values, atoms=list(zip(x, mass / steps.sum())))
        mean = prior.mean()
        assume(1e-6 < mean < 1.0 - 1e-6)
        c = solve_a(ModelParams(mu=mean))
        report = mps_check(prior, c)
        dense = np.linspace(0.0, 1.0, 20_001)
        gap = PiecewiseCdf.signal(c).integral_to(dense) - prior.integral_to(dense)
        assert report.max_violation >= gap.max() - 1e-15
        assert report.max_violation <= gap.max() + 0.5 / 20_000
