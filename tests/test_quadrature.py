"""Quadrature rules: the breadth-first adaptive Simpson and the panel grid."""

import math

import numpy as np
import pytest

from maxmin_auction import ConvergenceError, ModelParams, reserve_pdf, solve_a
from maxmin_auction.mechanism import uniform_pairs
from maxmin_auction.quadrature import adaptive_simpson, build_edges


def recursive_simpson(f, lo, hi, tol=1e-9, max_depth=60):
    """Scalar recursive form of the same rule, kept as the reference."""
    if lo == hi:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0

    def simpson(a, fa, b, fb):
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, eps, depth):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps or b - a < 1e-14:
            return left + right + delta / 15.0
        if depth <= 0:
            raise ConvergenceError("no convergence")
        return recurse(a, fa, m, fm, lm, flm, left, eps / 2.0, depth - 1) + recurse(
            m, fm, b, fb, rm, frm, right, eps / 2.0, depth - 1
        )

    fa, fb = f(lo), f(hi)
    m, fm, whole = simpson(lo, fa, hi, fb)
    return sign * recurse(lo, fa, hi, fb, m, fm, whole, tol, max_depth)


def sqrt_integral(lo, hi):
    return 2.0 / 3.0 * (np.power(hi, 1.5) - np.power(lo, 1.5))


class TestAdaptiveSimpson:
    def test_exact_on_cubic(self):
        value = adaptive_simpson(lambda t: t**3 - 2.0 * t + 1.0, 0.0, 2.0)
        assert isinstance(value, float)
        assert value == pytest.approx(2.0, rel=1e-15, abs=0.0)

    def test_sqrt_over_intervals_from_zero(self):
        lo = np.array([0.0, 0.0, 0.25, 1e-6, 0.0])
        hi = np.array([1.0, 0.01, 0.75, 2.0, 3.0])
        got = adaptive_simpson(np.sqrt, lo, hi, 1e-14)
        np.testing.assert_allclose(got, sqrt_integral(lo, hi), rtol=1e-12, atol=0.0)

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(3)
        ends = rng.uniform(0.0, 1.0, size=(2, 40))
        ends[:, :3] = [[0.0, 0.3, 0.9], [1.0, 0.3, 0.1]]  # from 0, empty, reversed
        got = adaptive_simpson(np.sqrt, ends[0], ends[1], 1e-11)
        each = [adaptive_simpson(np.sqrt, lo, hi, 1e-11) for lo, hi in ends.T.tolist()]
        assert got.shape == (40,)
        assert got.tolist() == each
        # the bottom-up sum reproduces the recursion's order of additions
        assert got.tolist() == [
            recursive_simpson(math.sqrt, lo, hi, 1e-11) for lo, hi in ends.T.tolist()
        ]

    @pytest.mark.parametrize("mu", [0.5, 1e-6, 0.99])
    def test_payment_oracle_matches_recursion(self, mu):
        c = solve_a(ModelParams(mu=mu))
        pairs = uniform_pairs(7, 0, 100)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        got = adaptive_simpson(lambda t: t * reserve_pdf(c, t), lo, hi, 1e-9)
        ref = [
            recursive_simpson(lambda t: t * reserve_pdf(c, t), bottom, top, 1e-9)
            for bottom, top in zip(lo.tolist(), hi.tolist())
        ]
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)

    def test_empty_interval_is_zero_without_evaluating(self):
        def never(t):
            raise AssertionError("f evaluated on an empty interval")

        assert adaptive_simpson(never, 0.4, 0.4) == 0.0
        np.testing.assert_array_equal(adaptive_simpson(never, [0.1, 0.7], [0.1, 0.7]), 0.0)

    def test_reversed_bounds_flip_the_sign(self):
        forward = adaptive_simpson(np.sqrt, 0.2, 0.9, 1e-12)
        assert adaptive_simpson(np.sqrt, 0.9, 0.2, 1e-12) == -forward
        mixed = adaptive_simpson(np.sqrt, [0.2, 0.9], [0.9, 0.2], 1e-12)
        assert mixed.tolist() == [forward, -forward]

    def test_depth_budget_raises(self):
        with pytest.raises(ConvergenceError):
            adaptive_simpson(np.sqrt, 0.0, 1.0, 1e-12, 2)
        with pytest.raises(ConvergenceError):
            adaptive_simpson(np.sqrt, [0.5, 0.0], [1.0, 1.0], 1e-12, 2)


class TestBuildEdges:
    @pytest.mark.parametrize("kink", [0.3, 1e-9, 1e-300])
    def test_geometric_from_the_smallest_kink(self, kink):
        edges = build_edges([0.7, kink, 0.0, 1.0])
        floor = max(kink * 2.0**-40, np.finfo(float).tiny)
        assert edges[0] == 0.0 and edges[1] == floor and edges[-1] == 1.0
        assert {0.7, kink} <= set(edges.tolist())
        ratios = edges[2:] / edges[1:-1]
        assert np.all(ratios > 1.0)
        assert np.max(ratios) <= math.exp(1 / 400) * (1 + 1e-12)

    def test_no_kink_starts_at_two_to_minus_forty(self):
        edges = build_edges()
        assert edges[1] == 2.0**-40
        assert edges.size == math.ceil(400 * 40 * math.log(2.0)) + 2
