"""Quadrature rules: the breadth-first adaptive Simpson and the panel grid."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxmin_auction import ConvergenceError, reserve_pdf, solve_a
from maxmin_auction.mechanism import uniform_pairs
from maxmin_auction import quadrature
from maxmin_auction.quadrature import (
    _exact_sum_in_place,
    adaptive_simpson,
    build_edges,
    exact_sum,
    sorted_unique,
)


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
        c = solve_a(mu)
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

    def test_non_finite_integrand_raises_at_once(self):
        # a node whose estimate is not finite never converges, and each level
        # would double its descendants until memory runs out; the integrand
        # stops such a run when it is called a third time
        calls = []

        def f(t):
            calls.append(t.size)
            assert len(calls) <= 2, "kept splitting a non-finite node"
            return np.where(t < 0.75, t, np.nan)

        with pytest.raises(ConvergenceError, match="not finite"):
            adaptive_simpson(f, [0.0, 0.0], [0.5, 1.0])
        assert len(calls) == 2


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


class TestSortedUnique:
    """``sorted_unique`` stands in for ``np.unique``, which imports
    ``numpy.ma``: the same array, bit for bit, signed zeros and NaNs
    included."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0, math.inf, -math.inf, math.nan, -math.nan])
            | st.floats(allow_nan=True),
            max_size=40,
        )
    )
    def test_matches_np_unique(self, values):
        x = np.array(values, dtype=float)
        assert sorted_unique(x).tobytes() == np.unique(x).tobytes()

    def test_two_dimensional_input_is_flattened(self):
        x = np.array([[0.5, np.nan], [0.5, -0.0]])
        assert sorted_unique(x).tobytes() == np.unique(x).tobytes()


def sum_outcome(total, t):
    """float.hex of total(t), or the type and message of what it raised."""
    try:
        return float.hex(total(t))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def fsum_of_list(t):
    return math.fsum(t.tolist())


SIZES = [0, 1] + [n for j in range(1, 13) for n in (2**j, 2**j + 1)]


class TestExactSum:
    """``exact_sum`` gives ``math.fsum``'s bits, errors and special values."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 2**32 - 1),
        # binade of the largest terms: 1024 makes sigma overflow
        top=st.sampled_from([-1060, -300, 0, 1, 600, 1000, 1024]),
        # at 2100 binades most draws of 4096 terms need more levels than the cap
        spread=st.sampled_from([0, 1, 30, 200, 1000, 2100]),
        # all negative, mixed or non-negative
        sign=st.sampled_from([-1.0, 0.0, 1.0]),
        zeros=st.sampled_from([0.0, 0.1, 1.0]),
        subnormals=st.sampled_from([0.0, 0.1]),
    )
    def test_matches_fsum(self, n, seed, top, spread, sign, zeros, subnormals):
        rng = np.random.default_rng(seed)
        exponents = rng.integers(top - spread, top + 1, n)
        t = np.ldexp(rng.uniform(0.5, 1.0, n), exponents)
        sub = rng.random(n) < subnormals
        t[sub] = np.ldexp(rng.integers(1, 2**52, n)[sub].astype(float), -1074)
        t[rng.random(n) < zeros] = 0.0
        t *= sign if sign else rng.choice([-1.0, 1.0], n)
        before = t.tobytes()
        assert sum_outcome(exact_sum, t) == sum_outcome(fsum_of_list, t)
        assert t.tobytes() == before  # the caller's terms are left alone

    @pytest.mark.parametrize(
        "special, want",
        [
            ([math.inf], "inf"),
            ([-math.inf], "-inf"),
            ([math.nan], "nan"),
            ([math.inf, math.nan], "nan"),
            ([math.inf, -math.inf], ("ValueError", "-inf + inf in fsum")),
        ],
    )
    @pytest.mark.parametrize("n", [0, 1024])
    def test_non_finite_terms(self, special, want, n):
        t = np.concatenate((special, np.linspace(-1.0, 3.0, n)))
        assert sum_outcome(exact_sum, t) == sum_outcome(fsum_of_list, t) == want

    @pytest.mark.parametrize(
        "t",
        [
            # 1 + 2**-53 is a tie that rounds down; the 2**-107 level must
            # round it up, which only a correctly rounded total of the
            # levels does
            np.array([1.0, 2.0**-53, 2.0**-107]),
            np.array([-1.0, -(2.0**-53), -(2.0**-107)]),
            # full mantissas about every second binade from 2**1000 down: a
            # level takes 52 - 10 bits off 1024 terms, so this needs 49
            # levels, 9 past the cap
            np.ldexp(np.full(1024, 2.0 - 2.0**-52), np.linspace(1000, -1020, 1024).astype(int)),
            np.array([-0.0]),
            np.array([-0.0, -0.0]),
            np.array([0.0, -0.0]),
            np.array([1.0, -1.0]),
            # nonzero terms that cancel to a zero, whose sign fsum sets
            np.array([1e300, 1.0, -1e300, -1.0]),
            np.array([2.0**-1074, -(2.0**-1074)]),
            np.array([-0.0, 1.0, -1.0]),
            np.array([1.0, -1.0, -0.0, -0.0]),
            np.ldexp(np.linspace(0.5, 1.0, 500), -np.arange(500) % 70) * np.repeat([1.0, -1.0], 250),
            # where a neighbour is 2**-1074 away its half-gap rounds to 0,
            # so the early exit declines
            np.array([2.0**-1022, 2.0**-1074]),
            np.array([2.0**-1021, -(2.0**-1074)]),
            np.array([2.0**-1020, 3 * 2.0**-1074, 2.0**-1021]),
            # the levels run up to sigma = 2**1023, with totals in 2**1022's
            # binade; past it sigma would overflow, and fsum itself sums
            np.array([math.ldexp(1.5, 1020)] * 2 + [math.ldexp(1.0, 968)]),
            np.array([math.ldexp(2.0 - 2.0**-52, 1011)] * 1024 + [math.ldexp(1.0, 960)]),
            np.array([math.ldexp(2.0 - 2.0**-52, 1011)] * 1023 + [-math.ldexp(1.0, 958)]),
            np.array([1.7976931348623157e308, 2.0**969]),
            np.array([1.7976931348623157e308, 2.0**970]),
            np.array([1.7976931348623157e308, 2.0**970, -(2.0**-1074)]),
            np.array([1.7976931348623157e308, -1.7976931348623157e308, 1.7976931348623157e308]),
        ],
        ids=["tie", "negative-tie", "past-level-cap", "-0", "-0-0", "+0-0", "cancel",
             "big-cancel", "subnormal-cancel", "-0-first", "-0-last", "pairs",
             "2^-1022", "2^-1021", "2^-1020", "sigma-2^1023", "2^1022-binade",
             "2^1022-binade-down", "max-below-midpoint", "max-at-midpoint",
             "max-below-midpoint-by-tiny", "max-cancel"],
    )
    def test_hand_picked(self, t):
        assert sum_outcome(exact_sum, t) == sum_outcome(fsum_of_list, t)
        assert sum_outcome(exact_sum, -t) == sum_outcome(fsum_of_list, -t)


def in_place_outcome(t):
    """``sum_outcome`` of the in-place core on a copy of ``t``."""
    return sum_outcome(_exact_sum_in_place, np.array(t, dtype=float))


class TestExactSumInPlace:
    """The core that ``exact_sum`` calls on its one copy overwrites the terms
    with the residual and still gives ``math.fsum``'s bits, in blocks of any
    size and on each fallback to ``math.fsum``."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 2**32 - 1),
        top=st.sampled_from([-1060, 0, 600, 1000]),
        spread=st.sampled_from([0, 30, 1000, 2100]),
        block=st.sampled_from([1, 3, 64, quadrature._SUM_BLOCK]),
    )
    def test_matches_fsum(self, n, seed, top, spread, block):
        rng = np.random.default_rng(seed)
        t = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(top - spread, top + 1, n))
        t *= rng.choice([-1.0, 1.0], n)
        with mock.patch.object(quadrature, "_SUM_BLOCK", block):
            assert in_place_outcome(t) == sum_outcome(fsum_of_list, t)

    @pytest.mark.parametrize(
        "t",
        [
            # non-finite at the first level
            [math.inf, 1.0],
            [math.nan, 1.0],
            [math.inf, -math.inf, 1.0],
            # sigma would overflow
            [1.7976931348623157e308, 2.0**970],
            [1.7976931348623157e308, -1.7976931348623157e308, 1.7976931348623157e308],
            # full mantissas about every second binade from 2**1000 down need
            # 49 levels, 9 past the cap, so the levels and residual are summed
            np.ldexp(np.full(1024, 2.0 - 2.0**-52), np.linspace(1000, -1020, 1024).astype(int)),
        ],
        ids=["inf", "nan", "inf-inf", "sigma-overflow", "max-cancel", "past-level-cap"],
    )
    @pytest.mark.parametrize("block", [1, 100, quadrature._SUM_BLOCK])
    def test_fallbacks_match_fsum(self, t, block):
        t = np.asarray(t, dtype=float)
        with mock.patch.object(quadrature, "_SUM_BLOCK", block):
            assert in_place_outcome(t) == sum_outcome(fsum_of_list, t)
            assert in_place_outcome(-t) == sum_outcome(fsum_of_list, -t)

    def test_overwrites_with_the_residual(self):
        # one level suffices here, and what it leaves in the array is r - hi
        t = np.linspace(0.1, 1.0, 1000)
        r = t.copy()
        assert _exact_sum_in_place(r) == math.fsum(t.tolist())
        sigma = math.ldexp(1.0, math.frexp(1.0)[1] + (999).bit_length() + 1)
        assert r.tobytes() == (t - ((t + sigma) - sigma)).tobytes()

    @pytest.mark.parametrize("layout", ["list", "strided", "fortran", "int"])
    def test_public_sum_leaves_its_input(self, layout):
        base = np.ldexp(np.linspace(0.5, 1.0, 600), np.arange(600) % 90 - 45).reshape(20, 30)
        t = {
            "list": base.tolist(),
            "strided": base[:, ::2],
            "fortran": np.asfortranarray(base),
            "int": np.arange(600).reshape(20, 30),
        }[layout]
        before = np.array(t).tobytes()
        assert exact_sum(t) == math.fsum(np.asarray(t, dtype=float).ravel().tolist())
        assert np.array(t).tobytes() == before


def first_level(t):
    """``exact_sum``'s first level sum L, the plain sum s of its residual, and
    the bound B on that sum's error, computed as the function does."""
    n = t.size
    exponent = math.frexp(float(np.max(np.abs(t))))[1] + (n - 1).bit_length() + 1
    sigma = math.ldexp(1.0, exponent)
    hi = (t + sigma) - sigma
    return float(hi.sum()), float((t - hi).sum()), math.ldexp(float(n * n), exponent - 105)


def half_gap(c, side):
    """Half the gap from c up ("up") or down ("down") to its neighbouring double."""
    return abs(math.nextafter(c, math.inf if side == "up" else -math.inf) - c) / 2.0


@st.composite
def near_ties(draw):
    """Terms whose exact total lies at, or a few bits off, the midpoint between
    a double c0 and its upper or lower neighbour, hidden among cancelling pairs
    that put rounding error into the residual's plain sum."""
    exponent = draw(st.sampled_from([-1000, -60, 0, 60, 1000]))
    mantissa = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)))
    c0 = math.ldexp(mantissa, exponent)
    side = draw(st.sampled_from(["up", "down"]))
    half = half_gap(c0, side) * (1.0 if side == "up" else -1.0)
    offset = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.ldexp(
        abs(half), -draw(st.integers(1, 120))
    )
    n_pairs = draw(st.sampled_from([0, 1, 50, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = np.ldexp(rng.uniform(0.5, 1.0, n_pairs), rng.integers(exponent - 80, exponent + 1, n_pairs))
    t = np.concatenate(([c0, half, offset], noise, -noise))
    rng.shuffle(t)
    return t * draw(st.sampled_from([-1.0, 1.0]))


class TestExactSumEarlyExit:
    """The early exit returns only where the first levels decide fsum's
    rounding; at its edges the bits still match ``math.fsum``."""

    @pytest.mark.parametrize("pairs", [0, 100, 2047])
    @pytest.mark.parametrize("offset", [0.0, 2.0**-160, -(2.0**-160)])
    @pytest.mark.parametrize("side", ["up", "down"])
    @pytest.mark.parametrize("c0", [1.0, 1.5, 1.0 + 2.0**-52])
    def test_declines_within_the_bound_of_a_midpoint(self, c0, side, offset, pairs):
        # the first level's L + s lies within B of the midpoint next to
        # round(L + s), so the exit must decline and a later level decide
        mid = c0 + half_gap(c0, side) * (1.0 if side == "up" else -1.0)
        noise = np.ldexp(np.linspace(0.5, 1.0, pairs), -np.arange(pairs) % 60)
        t = np.concatenate(([c0, mid - c0, offset], noise, -noise))
        np.random.default_rng(pairs).shuffle(t)
        lead, s, bound = first_level(t)
        assert abs(math.fsum([lead, s, -mid])) <= bound
        assert sum_outcome(exact_sum, t) == sum_outcome(fsum_of_list, t)

    @pytest.mark.parametrize("k", [-960, -1, 0, 1, 52, 960])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_power_of_two_totals(self, k, sign):
        # the gap below 2**k is half the gap above it.  Totals at and a
        # hair off the two midpoints, and a quarter gap inside, among
        # cancelling pairs whose residuals the plain sum rounds: at some of
        # them the first level's candidate is the wrong neighbour
        c = math.ldexp(1.0, k)
        below, above = half_gap(c, "down"), half_gap(c, "up")
        wrong_candidates = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            noise = np.ldexp(rng.uniform(0.5, 1.0, 200), rng.integers(k - 80, k - 1, 200))
            for delta in (-below, -below / 2.0, above / 2.0, above):
                for extra in (0.0, below / 2.0**40, -below / 2.0**40):
                    t = np.concatenate(([c, delta, extra], noise, -noise))
                    rng.shuffle(t)
                    t *= sign
                    assert sum_outcome(exact_sum, t) == sum_outcome(fsum_of_list, t)
                    lead, s, _ = first_level(t)
                    wrong_candidates += math.fsum([lead, s]) != math.fsum(t.tolist())
        assert wrong_candidates > 0

    @settings(max_examples=300, deadline=None)
    @given(t=near_ties())
    def test_near_ties_match_fsum(self, t):
        assert sum_outcome(exact_sum, t) == sum_outcome(fsum_of_list, t)
