"""PiecewiseCdf container tests: grids, atoms, CSV round trips."""

import codecs
import csv
import io
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxmin_auction import (
    DomainError,
    PiecewiseCdf,
    read_cdf_csv,
    reserve_cdf,
    reserve_with_linear_ramp,
    reserve_with_zero_atom,
    solve_a,
    write_cdf_csv,
)
from maxmin_auction import constants, csvrows

import distributions_reference as reference
import oracles


class TestGridConstruction:
    def test_padding_completes_support(self):
        # constant extension left of the first knot becomes an atom at 0,
        # the deficit below 1 becomes an atom at 1
        dist = PiecewiseCdf.from_grid([0.2, 0.8], [0.1, 0.6])
        assert dict(dist.atoms) == pytest.approx({0.0: 0.1, 1.0: 0.4})
        assert dist.cdf(0.0) == pytest.approx(0.1)
        assert dist.cdf(0.9) == pytest.approx(0.6)
        assert dist.cdf(1.0) == 1.0
        # mean = 1 - integral of F: trapezoids (0,.2):0.1, (.2,.8):0.35 avg, (.8,1):0.6
        expected_mean = 1.0 - (0.2 * 0.1 + 0.6 * 0.35 + 0.2 * 0.6)
        assert dist.mean() == pytest.approx(expected_mean, abs=1e-14)

    def test_rejects_decreasing_values(self):
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid([0.0, 0.5, 1.0], [0.0, 0.7, 0.6])

    def test_rejects_nonincreasing_knots(self):
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid([0.0, 0.5, 0.5], [0.0, 0.5, 1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid([0.0, 1.2], [0.0, 1.0])
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 1.4])

    def test_rejects_atom_exceeding_jump(self):
        # left limit would dip below the previous value
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid(
                [0.0, 0.5, 1.0], [0.0, 0.4, 1.0], [0.0, 0.6, 0.0]
            )

    def test_left_value_just_below_zero_is_stored_as_zero(self):
        # the atom at the first knot exceeds its value by less than 1e-9
        dist = PiecewiseCdf.from_grid([0.2, 1.0], [0.1, 1.0], [0.1 + 5e-10, 0.0])
        assert dist.values[0] == 0.0 and np.all(dist.values >= 0.0)
        assert dist.cdf(0.0) == 0.0 and dist.atoms == ((0.2, 0.1 + 5e-10),)

    def test_atom_at_zero_must_match_the_value_there(self):
        # F(0-) = 0, so the atom at 0 is F(0); a different mass contradicts it
        with pytest.raises(DomainError, match="atom 0.1 at 0 must equal F"):
            PiecewiseCdf.from_grid([0.0, 0.5, 1.0], [0.3, 0.5, 1.0], [0.1, 0.2, 0.0])
        for given in (0.0, 0.3 + 5e-10):
            dist = PiecewiseCdf.from_grid([0.0, 0.5, 1.0], [0.3, 0.5, 1.0], [given, 0.2, 0.0])
            assert dist.atoms == ((0.0, 0.3), (0.5, 0.2))

    def test_value_at_one_must_be_one(self):
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 0.8], [0.0, 0.0])


def _law_bits(law):
    return (
        law.knots.tobytes(),
        law.values.tobytes(),
        law.masses.tobytes(),
        repr(law.atoms),
        repr(law.breakpoints),
    )


def _both_forms(knots, values, masses):
    """The pair form's and the column form's law (or DomainError message)."""
    builds = (
        lambda: reference.from_grid_pairs(knots, values, list(zip(knots, masses))),
        lambda: PiecewiseCdf.from_grid(knots, values, masses),
    )
    out = []
    for build in builds:
        try:
            out.append(_law_bits(build()))
        except DomainError as exc:
            out.append(("DomainError", str(exc)))
    return out


@st.composite
def grid_inputs(draw):
    """Distinct knots, with or without 0 and 1, nondecreasing values that may
    stop below 1, and per knot a mass that is zero, -0.0, the whole jump or
    part of it, any level, negative or NaN."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=5, unique=True))
    knots = ([0.0] if draw(st.booleans()) else []) + sorted(inner)
    if not knots or draw(st.booleans()):
        knots.append(1.0)
    levels = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(knots), max_size=len(knots))))
    if draw(st.booleans()):
        levels[-1] = 1.0
    masses = []
    for jump in np.diff([0.0, *levels]).tolist():
        masses.append(
            draw(
                st.one_of(
                    st.sampled_from([0.0, -0.0, jump, math.nan]),
                    st.floats(0.0, 1.0).map(lambda t, jump=jump: t * jump),
                    st.floats(0.0, 1.0),
                    st.floats(-1.0, -5e-324),
                )
            )
        )
    return knots, levels, masses


class TestColumnFormMatchesPairs:
    """The atoms as one column on the knots build the laws that (location,
    mass) pairs on the same knots built, bit for bit, or the same rejection."""

    @pytest.mark.parametrize(
        ("knots", "values", "masses"),
        [
            ([0.2, 0.8], [0.1, 0.6], [0.0, 0.0]),  # starts above 0, stops below 1
            ([0.2, 0.8], [0.1, 0.6], [0.04, 0.3]),  # an atom at the first knot too
            ([0.2, 0.8], [0.1, 0.6], [0.1, 0.0]),  # nothing left of the first knot
            ([0.2, 0.8], [0.1, 0.6], [0.2, 0.0]),  # the atom exceeds the value
            ([0.2, 0.8], [-0.0, 0.6], [0.0, 0.0]),  # F = -0.0 left of the first knot
            ([0.0, 0.5, 1.0], [0.3, 0.5, 1.0], [0.0, 0.2, 0.0]),  # F(0) > 0 at knot 0
            ([0.0, 0.5, 1.0], [0.3, 0.5, 1.0], [0.1, 0.2, 0.0]),  # an atom at 0 off F(0)
            ([0.0, 0.5, 1.0], [0.3, 0.5, 1.0], [0.3 + 5e-10, 0.2, 0.0]),  # within 1e-9 of F(0)
            ([0.2, 1.0], [0.1, 1.0], [0.1 + 5e-10, 0.0]),  # F left of the first knot just below 0
            ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.0]),
            ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [-0.0, 0.5, -0.0]),
            ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.0, -0.1, 0.0]),
            ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.0, math.nan, 0.0]),
            ([0.5], [1.0], [1.0]),  # completed at both ends
            ([0.5], [0.5], [0.5]),
        ],
    )
    def test_edge_cases(self, knots, values, masses):
        pairs, column = _both_forms(knots, values, masses)
        assert pairs == column

    @settings(max_examples=500, deadline=None)
    @given(grid_inputs())
    def test_random_grids(self, inputs):
        pairs, column = _both_forms(*inputs)
        assert pairs == column

    @pytest.mark.parametrize("masses", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0])
    def test_rejects_a_column_off_the_knots(self, masses):
        with pytest.raises(DomainError, match="aligned with the knots"):
            PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 1.0], masses)


class TestDiscrete:
    def test_three_point(self):
        dist = PiecewiseCdf.from_discrete([0.0, 0.5, 1.0], [0.3, 0.4, 0.3])
        assert dist.cdf(0.0) == pytest.approx(0.3)
        assert dist.cdf(0.25) == pytest.approx(0.3)
        assert dist.cdf(0.5) == pytest.approx(0.7)
        assert dist.cdf(0.75) == pytest.approx(0.7)
        assert dist.cdf(1.0) == 1.0
        assert dist.mean() == pytest.approx(0.5, abs=1e-14)
        assert dist.second_moment() == pytest.approx(0.25 * 0.4 + 0.3, abs=1e-14)

    def test_point_mass(self):
        pm = PiecewiseCdf.from_discrete([0.7], [1.0])
        assert pm.cdf(0.69) == 0.0
        assert pm.cdf(0.7) == 1.0
        assert pm.mean() == pytest.approx(0.7, abs=1e-14)
        assert pm.second_moment() == pytest.approx(0.49, abs=1e-14)
        u = np.linspace(0.0, 1.0, 7)
        assert np.all(pm.quantile(u) == 0.7)

    def test_point_mass_at_boundary(self):
        assert PiecewiseCdf.from_discrete([1.0], [1.0]).quantile(0.5) == 1.0
        assert PiecewiseCdf.from_discrete([0.0], [1.0]).mean() == pytest.approx(0.0, abs=1e-14)

    def test_masses_must_sum_to_one(self):
        with pytest.raises(DomainError):
            PiecewiseCdf.from_discrete([0.2, 0.6], [0.5, 0.3])


class TestUniform:
    """The uniform reserve is the two-knot grid, with the identity's bits."""

    def test_is_a_grid_with_no_atoms_or_breakpoints(self):
        u = PiecewiseCdf.uniform()
        assert u.kind == "grid"
        assert u.atoms == ()
        assert u.breakpoints == ()

    @pytest.mark.parametrize("K", [500, 400_000])
    def test_identity_bits_on_midpoint_grids(self, K):
        # the adversary's grid, plus both ends and the least subnormal
        x = np.concatenate(((np.arange(K) + 0.5) * (1.0 / K), [0.0, 1.0, 5e-324]))
        u = PiecewiseCdf.uniform()
        assert np.array_equal(u.cdf(x), x)
        assert np.array_equal(u.pdf(x), np.ones_like(x))
        assert np.array_equal(u.integral_to(x), 0.5 * x * x)

    @pytest.mark.parametrize("K", [500, 400_000])
    def test_one_segment_bits_match_the_gathered_path(self, K):
        # the two-knot grid indexes its one segment's scalars; a gather of
        # segment 0 at every point is the general path, which must agree
        x = np.concatenate(((np.arange(K) + 0.5) * (1.0 / K), [0.0, 1.0, 5e-324]))
        for dist in (
            PiecewiseCdf.uniform(),
            PiecewiseCdf.from_grid([0.0, 1.0], [0.25, 1.0]),
            PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 1.0], [0.0, 0.25]),
        ):
            knots, v, m = dist.knots, dist.values, dist.masses
            idx = np.zeros(x.size, dtype=np.intp)
            frac = (x - knots[idx]) / (knots[idx + 1] - knots[idx])
            cdf = v[idx] + frac * ((v[idx + 1] - m[idx + 1]) - v[idx])
            cdf = np.where(x >= 1.0, 1.0, cdf)
            slope = (v[1:] - m[1:] - v[:-1]) / np.diff(knots)
            assert dist.cdf(x).tobytes() == cdf.tobytes()
            assert dist.pdf(x).tobytes() == slope[idx].tobytes()
        assert isinstance(PiecewiseCdf.uniform().pdf(0.5), float)
        assert PiecewiseCdf.uniform().pdf(np.zeros((2, 3))).shape == (2, 3)


class TestMoments:
    def test_uniform(self):
        u = PiecewiseCdf.uniform()
        assert u.mean() == 0.5
        assert u.second_moment() == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_signal_moments(self, c05):
        g = PiecewiseCdf.signal(c05)
        assert g.mean() == 0.5
        assert g.second_moment() == pytest.approx(
            oracles.GUARANTEE_MU_05, abs=1e-13
        )

    def test_custom_has_no_integral(self, c05):
        for dist in (
            PiecewiseCdf.custom(cdf_fn=lambda x: np.asarray(x)),
            PiecewiseCdf.reserve(c05),
            reserve_with_zero_atom(c05),
            reserve_with_linear_ramp(c05),
        ):
            with pytest.raises(DomainError):
                dist.integral_to(0.5)
            with pytest.raises(DomainError):
                dist.mean()

    def test_second_moment_only_in_closed_form(self, c05):
        for dist in (
            PiecewiseCdf.reserve(c05),
            PiecewiseCdf.custom(cdf_fn=lambda x: np.asarray(x)),
        ):
            with pytest.raises(DomainError):
                dist.second_moment()

    # (kind, method) pairs that evaluate outside [0, 1] without the check; a
    # custom CDF has no integral to evaluate
    @pytest.mark.parametrize(
        ("kind", "method"),
        [
            ("uniform", "pdf"),
            ("uniform", "integral_to"),
            ("grid", "pdf"),
            ("grid", "integral_to"),
            ("custom", "pdf"),
        ],
    )
    @pytest.mark.parametrize("x", [-1.0, 5.0, [0.5, 1.0 + 1e-12]], ids=["below", "above", "array"])
    def test_density_and_integral_reject_points_off_the_unit_interval(self, kind, method, x):
        dist = {
            "uniform": PiecewiseCdf.uniform(),
            "grid": PiecewiseCdf.from_grid([0.0, 0.5, 1.0], [0.0, 0.25, 1.0]),
            "custom": PiecewiseCdf.custom(cdf_fn=np.asarray, pdf_fn=np.ones_like),
        }[kind]
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            getattr(dist, method)(x)

    def test_grid_integral_matches_quadrature(self):
        dist = PiecewiseCdf.from_grid(
            [0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.55, 1.0], [0.0, 0.0, 0.15, 0.0]
        )
        for x in (0.15, 0.3, 0.5, 0.7, 0.9, 1.0):
            oracle, err = quad(dist.cdf, 0.0, x, limit=200, points=[0.3, 0.7])
            assert dist.integral_to(x) == pytest.approx(oracle, abs=1e-9 + 10 * err)


class TestQuantile:
    def test_grid_quantile_with_atom_and_flat(self):
        dist = PiecewiseCdf.from_grid(
            [0.0, 0.4, 0.6, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, 0.25, 0.0, 0.0]
        )
        # linear on [0, 0.4) up to 0.25, atom to 0.5 at 0.4, flat to 0.6
        assert dist.quantile(0.125) == pytest.approx(0.2, abs=1e-12)
        assert dist.quantile(0.3) == pytest.approx(0.4, abs=1e-12)
        assert dist.quantile(0.5) == pytest.approx(0.4, abs=1e-12)
        assert dist.quantile(0.75) == pytest.approx(0.8, abs=1e-12)
        assert dist.quantile(1.0) == 1.0
        # u = 0 maps to the infimum of the support
        assert dist.quantile(0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dist, inf_support",
        [
            (PiecewiseCdf.uniform(), 0.0),
            (PiecewiseCdf.from_grid([0.0, 0.5, 1.0], [0.0, 0.0, 1.0]), 0.5),
            # flat to 0.5, then a jump there
            (PiecewiseCdf.from_grid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.0, 0.5, 0.0]), 0.5),
            (PiecewiseCdf.from_discrete([0.2, 0.7], [0.5, 0.5]), 0.2),
            # an atom at 0
            (PiecewiseCdf.from_grid([0.0, 1.0], [0.25, 1.0]), 0.0),
        ],
    )
    def test_level_zero_is_the_infimum_of_the_support(self, dist, inf_support):
        assert dist.quantile(0.0) == inf_support
        assert np.array_equal(dist.quantile(np.array([0.0, 0.0])), [inf_support] * 2)
        # the quantile is nondecreasing from there
        assert dist.quantile(5e-324) >= inf_support

    @settings(max_examples=100, deadline=None)
    @given(u=st.floats(min_value=0.0, max_value=1.0))
    def test_inversion_inequality(self, u):
        dist = PiecewiseCdf.from_grid(
            [0.0, 0.25, 0.5, 1.0], [0.1, 0.3, 0.3, 1.0], [0.1, 0.0, 0.0, 0.0]
        )
        x = dist.quantile(u)
        assert dist.cdf(x) >= u - 1e-12

    def test_reserve_quantile_by_bisection(self, c05):
        h = PiecewiseCdf.reserve(c05)
        u = np.array([0.1, 0.5, 0.9])
        x = h.quantile(u)
        assert np.max(np.abs(h.cdf(x) - u)) < 1e-10


class TestReserve:
    def test_custom_law_over_rebound_closed_forms(self, c05, monkeypatch):
        # the closed forms are looked up at each call, so wrapping the module
        # attributes after the law is built (as perfbench's tracer does) sees
        # every evaluation
        h = PiecewiseCdf.reserve(c05)
        seen = []
        for name in ("reserve_cdf", "reserve_pdf"):
            inner = getattr(constants, name)
            monkeypatch.setattr(
                constants,
                name,
                lambda c, x, inner=inner, name=name, **kw: seen.append(name) or inner(c, x, **kw),
            )
        assert (h.kind, h.atoms, h.breakpoints) == ("custom", (), (c05.a,))
        assert h.cdf(0.5) == reserve_cdf(c05, 0.5)
        h.pdf(0.5)
        assert seen == ["reserve_cdf", "reserve_pdf"]

    # The law checks the unit interval once, in ``cdf`` or ``pdf``, and the
    # closed forms it calls do not check it again; each entry point keeps
    # its own message.
    @pytest.mark.parametrize("law", [PiecewiseCdf.reserve, reserve_with_zero_atom, reserve_with_linear_ramp])
    def test_unit_interval_checked_once(self, c05, monkeypatch, law):
        import maxmin_auction.distributions as dist

        h = law(c05)
        calls = []
        real = constants._check_unit_interval

        def counted(x, what):
            calls.append(what)
            real(x, what)

        monkeypatch.setattr(constants, "_check_unit_interval", counted)
        monkeypatch.setattr(dist, "_check_unit_interval", counted)
        x = np.linspace(0.01, 1.0, 7)
        h.cdf(x)
        h.pdf(x)
        assert calls == ["CDF argument", "density argument"]

    def test_domain_messages(self, c05):
        h = PiecewiseCdf.reserve(c05)
        with pytest.raises(DomainError, match=r"^CDF argument must lie in \[0, 1\]$"):
            h.cdf(-0.25)
        with pytest.raises(DomainError, match=r"^density argument must lie in \[0, 1\]$"):
            h.pdf(np.array([0.5, 1.5]))
        with pytest.raises(DomainError, match="^reserve density is undefined at x = 0$"):
            h.pdf(np.array([0.0, 0.5]))
        with pytest.raises(DomainError, match=r"^reserve point must lie in \[0, 1\]$"):
            reserve_cdf(c05, 1.25)
        with pytest.raises(DomainError, match=r"^reserve point must lie in \[0, 1\]$"):
            constants.reserve_pdf(c05, -1.0)


class TestReserveQuantile:
    """The bisection quantile of the reserve is the inverse of H."""

    def test_endpoints(self, c05):
        h = PiecewiseCdf.reserve(c05)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_known_point(self, c05):
        h = PiecewiseCdf.reserve(c05)
        assert h.quantile(c05.h_at_a) == pytest.approx(c05.a, abs=1e-15)

    def test_median_reserve(self, c05):
        x = PiecewiseCdf.reserve(c05).quantile(0.5)
        assert c05.a < x < 0.5  # H(0.5) is about 0.76, so the median sits below
        assert reserve_cdf(c05, x) == pytest.approx(0.5, abs=1e-15)

    def test_domain(self, c05):
        with pytest.raises(DomainError):
            PiecewiseCdf.reserve(c05).quantile(1.5)

    @pytest.mark.parametrize(
        "make", [PiecewiseCdf.reserve, reserve_with_zero_atom, reserve_with_linear_ramp]
    )
    def test_never_undershoots(self, c05, make):
        u = np.linspace(0.0, 1.0, 1001)
        for c in (c05, solve_a(1e-9), solve_a(0.99)):
            dist = make(c)
            assert np.all(dist.cdf(dist.quantile(u)) >= u), c.mu

    @pytest.mark.parametrize("u", [1e-30, 1e-300])
    def test_tiny_levels_are_relative(self, c05, u):
        h = PiecewiseCdf.reserve(c05)
        q = h.quantile(u)
        assert h.cdf(q) >= u
        assert h.cdf(q * (1.0 - 1e-12)) < u

    @pytest.mark.parametrize("mu", [1e-9, 0.5, 0.99])
    def test_least_double_reaching_the_level(self, mu):
        h = PiecewiseCdf.reserve(solve_a(mu))
        u = np.array([1e-320, 1e-300, 1e-30, 1e-10, 0.3, 0.9, 1.0])
        q = h.quantile(u)
        assert np.all(h.cdf(q) >= u)
        assert np.all(h.cdf(np.nextafter(q, 0.0)) < u)

    def test_zero_atom_levels_map_to_zero(self, c05):
        u = np.linspace(0.0, c05.h_at_a, 101)
        assert np.all(reserve_with_zero_atom(c05).quantile(u) == 0.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        dist = PiecewiseCdf.from_grid(
            [0.0, 0.3, 1.0], [0.0, 0.45, 1.0], [0.0, 0.2, 0.1]
        )
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, dist.knots, dist.values, dist.masses)
        back = read_cdf_csv(path)
        assert np.allclose(back.knots, dist.knots)
        assert np.allclose(back.values, dist.values)
        assert dict(back.atoms) == pytest.approx(dict(dist.atoms))
        assert back.mean() == pytest.approx(dist.mean(), abs=1e-15)

    @pytest.mark.parametrize(
        ("knots", "values", "masses"),
        [
            # atoms at 0 and at 1, and values that need all 17 digits
            ([0.0, 0.3, 1 / 3, 0.7, 1.0], [0.1, 0.2, 1 / 3, 2 / 3, 1.0], [0.1, 0.05, 0.1, 0.0, 0.2]),
            # no atom: the 2-column form
            ([0.0, 0.1, 0.5, 1.0], [0.0, 1 / 7, 0.5, 1.0], None),
        ],
        ids=["atoms-at-both-ends", "two-column"],
    )
    def test_round_trip_is_bit_exact(self, tmp_path, knots, values, masses):
        dist = PiecewiseCdf.from_grid(knots, values, masses)
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, dist.knots, dist.values, dist.masses)
        assert path.read_bytes().startswith(b"x,F\r\n" if masses is None else b"x,F,atom_mass\r\n")
        back = read_cdf_csv(path)
        for got, want in ((back.knots, dist.knots), (back.values, dist.values), (back.masses, dist.masses)):
            assert got.tobytes() == want.tobytes()

    def test_two_column_form(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x,F\n0,0\n0.5,0.5\n1,1\n")
        dist = read_cdf_csv(path)
        assert dist.atoms == ()
        assert dist.cdf(0.25) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "body",
        [b"x,F\n0,0\n0.5,0.25\n1,1\n", b"x,F,atom_mass\r\n0,0.1,0.1\r\n0.5,0.5,0\r\n1,1,0.2\r\n"],
        ids=["two-column", "atoms"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, body):
        # spreadsheet "CSV UTF-8" exports start with the mark EF BB BF
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(body)
        marked.write_bytes(codecs.BOM_UTF8 + body)
        want, got = read_cdf_csv(plain), read_cdf_csv(marked)
        for name in ("knots", "values", "masses"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_header_required(self, tmp_path):
        path = tmp_path / "headerless.csv"
        path.write_text("0,0\n1,1\n")
        with pytest.raises(DomainError):
            read_cdf_csv(path)

    @pytest.mark.parametrize(
        ("x", "values", "masses"),
        [
            ([0.0, 1.0], [0.5], None),
            ([0.0, 1.0], [0.5, 1.0], [0.0]),
            ([0.0, 1.0], [0.5, 1.0], [0.0, 0.0, 0.0]),
            ([[0.0, 1.0]], [[0.5, 1.0]], None),
            (0.5, 1.0, None),
        ],
        ids=["short-values", "short-zero-masses", "long-masses", "2-d", "0-d"],
    )
    def test_rejects_columns_that_do_not_line_up(self, tmp_path, x, values, masses):
        path = tmp_path / "bad.csv"
        with pytest.raises(DomainError, match="1-d columns of one length"):
            write_cdf_csv(path, x, values, masses)
        assert not path.exists()


def csv_writer_reference(path, x, values, masses=None):
    """The row-by-row ``csv.writer`` output that ``write_cdf_csv`` reproduces."""
    columns = [np.asarray(x, dtype=float), np.asarray(values, dtype=float)]
    header = ["x", "F"]
    if masses is not None and np.any(np.asarray(masses) != 0.0):
        columns.append(np.asarray(masses, dtype=float))
        header.append("atom_mass")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.17g}" for v in row])


class TestCsvBytes:
    EDGE = [0.0, -0.0, 5e-324, 2.2e-308, 0.1, 1.0 / 3.0, 1.0, 1e300, np.nan, np.inf, 1e17]

    @pytest.mark.parametrize("rows", [0, 1, 65536, 65537])
    @pytest.mark.parametrize("atoms", [None, "zero", "set"])
    def test_matches_csv_writer(self, tmp_path, rows, atoms):
        rng = np.random.default_rng(rows)
        x = rng.random(rows)
        x[: len(self.EDGE)] = self.EDGE[:rows]
        values = rng.random(rows) ** 3
        masses = {None: None, "zero": np.zeros(rows), "set": rng.random(rows)}[atoms]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_cdf_csv(got, x, values, masses)
        csv_writer_reference(want, x, values, masses)
        assert got.read_bytes() == want.read_bytes()


def g17_fields(values):
    """The fields ``write_cdf_csv``'s row writer prints for one column."""
    buf = io.BytesIO()
    csvrows.write_rows(buf, [np.asarray(values, dtype=float)])
    return buf.getvalue().split(b"\r\n")[:-1]


def assert_g17(values):
    values = np.asarray(values, dtype=float)
    want = [b"%.17g" % v for v in values.tolist()]
    assert g17_fields(values) == want


class TestG17Fields:
    """Each field is byte for byte what ``b"%.17g" % v`` prints."""

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
        assert_g17(np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]))

    def test_exact_ties_round_to_even(self):
        # m * 2**-18 in [0.1, 1) has 18 decimals ending in 5: a tie at 17 digits
        assert_g17(np.arange(26215, 262144, 2) * 2.0**-18)

    def test_log10_misplaced_decades(self):
        # eight doubles either side of each power of ten; log10 rounds some
        # of them into the neighbouring decade
        values = []
        for k in range(-4, 18):
            for toward in (0.0, np.inf):
                v = float(f"1e{k}")
                for _ in range(8):
                    values.append(v)
                    v = float(np.nextafter(v, toward))
        values = np.array(values)
        exact = np.array([Decimal(v).adjusted() for v in values.tolist()])
        assert np.any(np.floor(np.log10(values)) != exact)
        assert_g17(values)

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_any_decade_from_log10(self, monkeypatch, shift):
        # a log10 one decade off sends every field to the checked slow path
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.random(2000), 10.0 ** rng.uniform(-4.0, 17.0, 2000), [1e-4, 1.0, 1e16]])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda w: log10(w) + shift)
        assert_g17(values)

    @pytest.mark.parametrize("k", range(21))
    def test_no_double_rounds_up_into_the_decade(self, k):
        # the exactness test 1e16 <= N < 1e17 relies on no v * 10**k lying in
        # [1e16 - 1/2, 1e16), where N would round up to 1e16
        v = float(Fraction(10**16, 10**k))
        while Fraction(v) * 10**k >= 10**16:
            v = float(np.nextafter(v, 0.0))
        assert Fraction(v) * 10**k < 10**16 - Fraction(1, 2)

    def test_edges_and_slow_path(self):
        assert_g17([0.0, -0.0, 5e-324, 2.2e-308, 9.9999999999999995e-5, 1e-4, 1e17, np.nan, np.inf, -np.inf])
        assert_g17([-0.5, -1e-5, 1e300, -2.2250738585072014e-308, -5e-324, 99999999999999984.0, 1e16])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
    def test_unit_interval(self, values):
        assert_g17(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=200))
    def test_finite_doubles(self, values):
        assert_g17(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(23)
        assert_g17(rng.integers(0, 2**64, 50000, dtype=np.uint64).view(np.float64))
        assert_g17(10.0 ** rng.uniform(-5.0, 18.0, 50000))

    @pytest.mark.parametrize("rows", [0, 1, 16384, 16385])
    @pytest.mark.parametrize("ncols", [1, 2, 3])
    def test_block_rows_match_csv_writer(self, rows, ncols):
        rng = np.random.default_rng(rows + ncols)
        columns = [rng.random(rows) ** (j + 1) for j in range(ncols)]
        columns[0][: min(rows, 3)] = [0.0, 1e-7, -0.0][: min(rows, 3)]
        buf, want = io.BytesIO(), io.StringIO(newline="")
        csvrows.write_rows(buf, columns)
        writer = csv.writer(want)
        for row in zip(*columns):
            writer.writerow([f"{v:.17g}" for v in row])
        assert buf.getvalue() == want.getvalue().encode()
