"""Auction outcomes, counter-based uniforms, Monte Carlo revenue."""

import dataclasses
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxmin_auction import (
    BidProfile,
    DomainError,
    ModelParams,
    PiecewiseCdf,
    dominated_equilibrium_revenue,
    mc_revenue,
    outcome,
    reserve_cdf,
    reserve_pdf,
    revenue_functional,
    solve_a,
    uniform_pairs,
    winner_payment,
)

from maxmin_auction import mechanism
from maxmin_auction.errors import MAX_SIZE
from maxmin_auction.mechanism import _MC_CHUNK, _tail_weighted_levels

import oracles


class TestOutcome:
    def test_all_zero_at_origin(self, c05):
        o = outcome(c05, BidProfile(0.0, 0.0))
        assert (o.q1, o.q2, o.t1, o.t2) == (0.0, 0.0, 0.0, 0.0)

    def test_top_versus_bottom_pays_mean_reserve(self, c05):
        o = outcome(c05, BidProfile(1.0, 0.0))
        assert o.q1 == pytest.approx(1.0, abs=1e-12)
        assert o.q2 == o.t2 == 0.0
        # winner at 1 against 0 pays exactly the expected reserve
        assert o.t1 == pytest.approx(oracles.MEAN_RESERVE_MU_05, rel=1e-14, abs=0.0)

    def test_tie_splits_everything(self, c05):
        for x in (0.3, 0.7, 1.0):
            o = outcome(c05, BidProfile(x, x))
            h = reserve_cdf(c05, x)
            assert o.q1 == o.q2 == pytest.approx(h / 2.0)
            assert o.t1 + o.t2 == pytest.approx(x * h, abs=1e-14)

    def test_symmetry(self, c05):
        o12 = outcome(c05, BidProfile(0.8, 0.3))
        o21 = outcome(c05, BidProfile(0.3, 0.8))
        assert (o12.q1, o12.t1) == (o21.q2, o21.t2)
        assert (o12.q2, o12.t2) == (o21.q1, o21.t1)

    def test_feasibility_and_participation(self, c05):
        grid = np.linspace(0.0, 1.0, 15)
        for s1 in grid:
            for s2 in grid:
                o = outcome(c05, BidProfile(float(s1), float(s2)))
                assert o.q1 + o.q2 <= 1.0 + 1e-12
                # truthful utility is never negative
                assert s1 * o.q1 - o.t1 >= -1e-9
                assert s2 * o.q2 - o.t2 >= -1e-9
                # losers pay nothing
                if s1 < s2:
                    assert o.t1 == 0.0 and o.q1 == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        s1=st.floats(min_value=0.0, max_value=1.0),
        s2=st.floats(min_value=0.0, max_value=1.0),
    )
    # tiny bids once drove H to inf and the payment to nan
    @example(s1=1.0, s2=1.05e-186)
    @example(s1=0.0, s2=5.43e-31)
    @example(s1=1.18e-38, s2=0.0)
    @example(s1=1.0, s2=5e-324)
    def test_feasibility_and_participation_properties(self, c05, s1, s2):
        o = outcome(c05, BidProfile(s1, s2))
        assert 0.0 <= o.q1 <= 1.0 and 0.0 <= o.q2 <= 1.0
        assert o.q1 + o.q2 <= 1.0 + 1e-12
        assert s1 * o.q1 - o.t1 >= -1e-9
        assert s2 * o.q2 - o.t2 >= -1e-9

    def test_domain_error(self, c05):
        with pytest.raises(DomainError):
            outcome(c05, BidProfile(1.2, 0.0))

    def test_payment_identity_against_reserve_integral(self, c05):
        # closed-form winner payment equals the expected payment
        # E[max(s2, r); r <= s1] under the reserve density
        pairs = uniform_pairs(123, 0, 100)
        worst = 0.0
        for s1, s2 in pairs:
            hi, lo = (s1, s2) if s1 >= s2 else (s2, s1)
            o = outcome(c05, BidProfile(hi, lo))
            tail, err = quad(
                lambda r: r * reserve_pdf(c05, r), lo, hi, limit=200
            )
            oracle = lo * reserve_cdf(c05, lo) + tail
            worst = max(worst, abs(o.t1 - oracle))
        assert worst < 1e-6


class TestWinnerPayment:
    def test_broadcasts_like_scalar_calls(self, c05):
        s = np.array([0.0, 1e-30, 0.1, c05.a, 0.5, 1.0])
        table = winner_payment(c05, s[:, None], s[None, :])
        assert table.shape == (s.size, s.size)
        for j, hi in enumerate(s):
            for k, lo in enumerate(s):
                scalar = winner_payment(c05, float(hi), float(lo))
                assert isinstance(scalar, float)
                assert table[j, k] == scalar

    def test_equal_bids_and_outcome(self, c05):
        assert winner_payment(c05, 0.7, 0.7) == 0.7 * reserve_cdf(c05, 0.7)
        o = outcome(c05, BidProfile(0.3, 0.8))
        assert o.t2 == winner_payment(c05, 0.8, 0.3)


class TestExPostIncentiveCompatibility:
    @pytest.mark.parametrize("mu", [0.5, 1e-6, 0.99])
    def test_truth_is_a_best_reply(self, mu):
        # for every value s, report r and opponent bid t, reporting s earns
        # at least as much as reporting r; ties split H and the price
        c = solve_a(ModelParams(mu=mu))
        grid = np.concatenate((np.linspace(0.0, 1.0, 41), c.a * np.geomspace(1e-3, 1e3, 21)))
        bids = np.unique(np.minimum(grid, 1.0))

        def utility(s, r, t):
            h = reserve_cdf(c, r)
            win = h * s - winner_payment(c, r, np.minimum(t, r))
            return np.where(r > t, win, np.where(r == t, h * (s - r) / 2.0, 0.0))

        s, r, t = bids[:, None, None], bids[None, :, None], bids[None, None, :]
        gain = utility(s, r, t) - utility(s, s, t)
        # measured: the largest gain is exactly 0.0 (the truthful report)
        assert gain.max() <= 1e-13 * c.a


class TestUniformPairs:
    def test_partition_invariance(self):
        full = uniform_pairs(9, 0, 777)
        parts = np.vstack(
            [uniform_pairs(9, 0, 250), uniform_pairs(9, 250, 300), uniform_pairs(9, 550, 227)]
        )
        assert np.array_equal(full, parts)

    def test_range_and_determinism(self):
        a = uniform_pairs(4, 0, 1000)
        b = uniform_pairs(4, 0, 1000)
        assert np.array_equal(a, b)
        assert a.shape == (1000, 2)
        assert np.all((a >= 0.0) & (a < 1.0))
        assert not np.array_equal(a, uniform_pairs(5, 0, 1000))

    def test_seed_range(self):
        # the Philox key holds 128 bits
        assert uniform_pairs(2**128 - 1, 0, 3).shape == (3, 2)
        for seed in (-1, 2**128):
            with pytest.raises(DomainError):
                uniform_pairs(seed, 0, 3)

    @pytest.mark.parametrize(
        "seed, start, count",
        [
            (7, 0, 65536),
            (123456789, 196609, 1001),
            (2**127 + 5, 3, 7),
            (0, 1, 65536),
            (2**128 - 1, 5, 9),
        ],
        ids=str,
    )
    def test_matches_shifted_word_formula(self, seed, start, count):
        # each Philox word w becomes (w >> 11) * 2**-53
        block, offset = divmod(2 * start, 4)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[block, 0, 0, 0]))
        words = gen.integers(0, 2**64, size=2 * count + offset, dtype=np.uint64)
        expected = (words[offset:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(uniform_pairs(seed, start, count), expected.reshape(count, 2))


# 33 chunks, the last one ragged: four CPUs get four worker threads
THREADED_N = 32 * _MC_CHUNK + 17


def pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


class TestMcRevenue:
    def test_deterministic_given_seed(self, c05):
        g = PiecewiseCdf.signal(c05)
        r1 = mc_revenue(c05, g, 10_000, seed=3)
        r2 = mc_revenue(c05, g, 10_000, seed=3)
        assert r1.value == r2.value and r1.std_error == r2.std_error

    def test_point_mass_at_one(self, c05):
        r = mc_revenue(c05, PiecewiseCdf.from_discrete([1.0], [1.0]), 500, seed=1)
        assert r.value == pytest.approx(1.0, abs=1e-15)
        assert r.std_error == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_at_mean(self, c05):
        r = mc_revenue(c05, PiecewiseCdf.from_discrete([0.5], [1.0]), 500, seed=1)
        assert r.value == pytest.approx(0.5 * reserve_cdf(c05, 0.5), abs=1e-12)

    def test_matches_quadrature_within_three_sigma(self, c05):
        g = PiecewiseCdf.signal(c05)
        r = mc_revenue(c05, g, 200_000, seed=17)
        target = revenue_functional(g, PiecewiseCdf.reserve(c05))
        assert abs(r.value - target) <= 3.0 * r.std_error

    def test_agrees_with_outcome_evaluation(self, c05):
        # the vectorised order-statistic totals must equal outcome() sums
        g = PiecewiseCdf.signal(c05)
        n = 200
        u = uniform_pairs(5, 0, n)
        s = g.quantile(u)
        per_outcome = []
        for s1, s2 in s:
            o = outcome(c05, BidProfile(float(s1), float(s2)))
            per_outcome.append(o.t1 + o.t2)
        report = mc_revenue(c05, g, n, seed=5)
        assert report.value == pytest.approx(np.mean(per_outcome), abs=1e-8)

    def test_report_fields(self, c05):
        r = mc_revenue(c05, PiecewiseCdf.signal(c05), 100, seed=2)
        d = dataclasses.asdict(r)
        assert set(d) == {"method", "value", "std_error", "n_samples", "seed", "mu", "a"}
        assert d["method"] == "monte-carlo"
        assert d["n_samples"] == 100 and d["seed"] == 2

    def test_sample_count_validation(self, c05):
        with pytest.raises(DomainError):
            mc_revenue(c05, PiecewiseCdf.signal(c05), 0, seed=1)

    # 2**63 * _MC_CHUNK + 1 samples make 2**63 + 1 chunks, more than
    # ``len(range(...))`` can count; both sizes are above MAX_SIZE.
    @pytest.mark.parametrize("n", [10**30, 2**63 * _MC_CHUNK + 1], ids=str)
    def test_huge_sample_count_rejected_before_drawing(self, c05, monkeypatch, n):
        def no_draws(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(mechanism, "uniform_pairs", no_draws)
        assert n > MAX_SIZE
        with pytest.raises(DomainError, match="n_samples"):
            mc_revenue(c05, PiecewiseCdf.signal(c05), n, seed=1)

    @pytest.mark.parametrize(
        "n", [1, _MC_CHUNK, _MC_CHUNK + 1, 3 * _MC_CHUNK + 17], ids=str
    )
    @pytest.mark.parametrize("kind", ["signal", "discrete"])
    def test_streaming_matches_two_pass(self, c05, kind, n):
        if kind == "signal":
            g = PiecewiseCdf.signal(c05)
        else:
            g = PiecewiseCdf.from_discrete([0.1, 0.3, 0.6, 1.0], [0.2, 0.3, 0.3, 0.2])
        s = g.quantile(uniform_pairs(11, 0, n))
        totals = winner_payment(c05, s.max(axis=1), s.min(axis=1))
        r = mc_revenue(c05, g, n, seed=11)
        assert r.value == pytest.approx(np.mean(totals), rel=1e-13, abs=0.0)
        if n == 1:
            assert np.isnan(r.std_error)
        else:
            two_pass = np.std(totals, ddof=1) / np.sqrt(n)
            assert r.std_error == pytest.approx(two_pass, rel=1e-10, abs=0.0)

    def test_tail_weights_are_reciprocal_densities(self):
        # midpoint rule over the words: the weighted levels reproduce
        # integrals over u in [0, 1], the log tail included
        words = (np.arange(2**16) + 0.5) / 2**16
        u, weight = _tail_weighted_levels(words)
        v = 1.0 - u
        assert np.all((u >= 0.0) & (u < 1.0))
        assert np.all((weight > 0.0) & (weight < 2.0))
        assert np.mean(weight) == pytest.approx(1.0, abs=1e-8)
        assert np.mean(weight * v) == pytest.approx(0.5, abs=1e-8)
        assert np.mean(weight * np.log(v)) == pytest.approx(-1.0, abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3 * _MC_CHUNK + 17], ids=str)
    def test_tail_weighted_streaming_matches_two_pass(self, c05, n):
        g = PiecewiseCdf.signal(c05)
        u, weight = _tail_weighted_levels(uniform_pairs(11, 0, n))
        s = g.quantile(u)
        totals = winner_payment(c05, s.max(axis=1), s.min(axis=1)) * weight.prod(axis=1)
        r = mc_revenue(c05, g, n, seed=11, tail_weighted=True)
        assert r.method == "monte-carlo-tail-weighted"
        assert r.value == pytest.approx(np.mean(totals), rel=1e-13, abs=0.0)
        two_pass = np.std(totals, ddof=1) / np.sqrt(n)
        assert r.std_error == pytest.approx(two_pass, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_tail_weighted_reaches_the_atom_at_small_mu(self, seed):
        # at mu = 1.5e-9 the atom of mass a ~ 7e-11 carries the revenue; the
        # plain estimator never samples it and lands more than 3 SE low
        c = solve_a(ModelParams(mu=1.5e-9))
        g = PiecewiseCdf.signal(c)
        target = c.revenue_guarantee
        r = mc_revenue(c, g, 100_000, seed, tail_weighted=True)
        assert abs(r.value - target) <= 3.0 * r.std_error
        assert r.std_error <= 0.01 * target
        plain = mc_revenue(c, g, 100_000, seed)
        assert target - plain.value > 3.0 * plain.std_error

    @pytest.mark.parametrize("mu", [1e-160, 1e-300])
    def test_std_error_does_not_underflow_at_tiny_mu(self, mu):
        # the payments are of order a, so their squared deviations underflow
        # unless they are summed on the scale of the top bid
        c = solve_a(ModelParams(mu=mu))
        g = PiecewiseCdf.signal(c)
        tail = mc_revenue(c, g, 100_000, 3, tail_weighted=True)
        assert 0.0 < tail.std_error < 0.02 * tail.value
        assert mc_revenue(c, g, 100_000, 3).std_error > 0.0

    @pytest.mark.parametrize(
        "mu, signal", [(1e-320, "worst-case"), (1e-300, "two-point")], ids=str
    )
    def test_std_error_finite_for_subnormal_a_and_high_bids(self, mu, signal):
        # a subnormal a, and bids near 1 while a is tiny, keep the scaled
        # payments away from both ends of the double range
        c = solve_a(ModelParams(mu=mu))
        if signal == "worst-case":
            g = PiecewiseCdf.signal(c)
        else:
            g = PiecewiseCdf.from_discrete([0.0, 1.0], [0.5, 0.5])
        r = mc_revenue(c, g, 1000, 3, tail_weighted=True)
        assert np.isfinite(r.value) and np.isfinite(r.std_error)

    # value and std_error as computed on one thread, chunk after chunk
    @pytest.mark.parametrize(
        "cpus", [None, {0}, {0, 1, 2, 3}], ids=["own-affinity", "one-cpu", "four-cpus"]
    )
    @pytest.mark.parametrize(
        "tail_weighted, value, std_error",
        [
            (False, "0x1.5a9399a9456c1p-2", "0x1.31f7bfbb3c9a3p-13"),
            (True, "0x1.59c51722911ddp-2", "0x1.976f1e44c0be3p-12"),
        ],
        ids=["plain", "tail-weighted"],
    )
    def test_bits_do_not_depend_on_cpu_count(
        self, c05, monkeypatch, cpus, tail_weighted, value, std_error
    ):
        if cpus is not None:
            pin_cpus(monkeypatch, cpus)
        r = mc_revenue(c05, PiecewiseCdf.signal(c05), THREADED_N, 11, tail_weighted)
        assert (r.value.hex(), r.std_error.hex()) == (value, std_error)

    @pytest.mark.parametrize("n, pooled", [(_MC_CHUNK + 17, False), (THREADED_N, True)])
    def test_only_long_runs_start_a_pool(self, c05, monkeypatch, n, pooled):
        threads = set()

        def recording(seed, start, count):
            threads.add(threading.get_ident())
            return uniform_pairs(seed, start, count)

        monkeypatch.setattr(mechanism, "uniform_pairs", recording)
        pin_cpus(monkeypatch, {0, 1})
        mc_revenue(c05, PiecewiseCdf.signal(c05), n, 11)
        assert (threading.get_ident() not in threads) == pooled

    def test_chunk_error_propagates_and_stops_the_pool(self, c05, monkeypatch):
        baseline = threading.active_count()

        def failing(seed, start, count):
            if start == 5 * _MC_CHUNK:
                raise DomainError("chunk 5 failed")
            return uniform_pairs(seed, start, count)

        monkeypatch.setattr(mechanism, "uniform_pairs", failing)
        pin_cpus(monkeypatch, {0, 1, 2, 3})
        with pytest.raises(DomainError, match="chunk 5 failed"):
            mc_revenue(c05, PiecewiseCdf.signal(c05), THREADED_N, 11)
        assert threading.active_count() == baseline

    def test_memory_does_not_grow_with_samples(self, c05):
        signal = PiecewiseCdf.signal(c05)
        tracemalloc.start()
        try:
            mc_revenue(c05, signal, 2_000_000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole sample held at once would take well over 100 MB
        assert peak < 16 * 2**20


class TestDominatedEquilibrium:
    def test_frozen_value(self, c05):
        v = dominated_equilibrium_revenue(c05)
        assert v == pytest.approx(oracles.DOMINATED_MU_05, rel=1e-14, abs=0.0)
        assert v == pytest.approx(0.1223, abs=5e-4)

    @pytest.mark.parametrize("mu", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_always_below_guarantee(self, mu):
        c = solve_a(ModelParams(mu=mu))
        assert dominated_equilibrium_revenue(c) < c.revenue_guarantee
