"""PiecewiseCdf container tests: grids, atoms, CSV round trips."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxmin_auction import (
    DomainError,
    ModelParams,
    PiecewiseCdf,
    read_cdf_csv,
    reserve_cdf,
    reserve_with_linear_ramp,
    reserve_with_zero_atom,
    solve_a,
    write_cdf_csv,
)
from maxmin_auction import constants

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

    def test_rejects_atom_off_knot(self):
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 1.0], atoms=[(0.3, 0.1)])

    def test_rejects_atom_exceeding_jump(self):
        # left limit would dip below the previous value
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid(
                [0.0, 0.5, 1.0], [0.0, 0.4, 1.0], atoms=[(0.5, 0.6)]
            )

    def test_value_at_one_must_be_one(self):
        with pytest.raises(DomainError):
            PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 0.8], atoms=[(1.0, 0.0)])


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
            PiecewiseCdf.from_grid([0.0, 1.0], [0.0, 1.0], atoms=[(1.0, 0.25)]),
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
            [0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.55, 1.0], atoms=[(0.7, 0.15)]
        )
        for x in (0.15, 0.3, 0.5, 0.7, 0.9, 1.0):
            oracle, err = quad(dist.cdf, 0.0, x, limit=200, points=[0.3, 0.7])
            assert dist.integral_to(x) == pytest.approx(oracle, abs=1e-9 + 10 * err)


class TestQuantile:
    def test_grid_quantile_with_atom_and_flat(self):
        dist = PiecewiseCdf.from_grid(
            [0.0, 0.4, 0.6, 1.0], [0.0, 0.5, 0.5, 1.0], atoms=[(0.4, 0.25)]
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
            (PiecewiseCdf.from_grid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], atoms=[(0.5, 0.5)]), 0.5),
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
            [0.0, 0.25, 0.5, 1.0], [0.1, 0.3, 0.3, 1.0], atoms=[(0.0, 0.1)]
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
                constants, name, lambda c, x, inner=inner, name=name: seen.append(name) or inner(c, x)
            )
        assert (h.kind, h.atoms, h.breakpoints) == ("custom", (), (c05.a,))
        assert h.cdf(0.5) == reserve_cdf(c05, 0.5)
        h.pdf(0.5)
        assert seen == ["reserve_cdf", "reserve_pdf"]


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
        for c in (c05, solve_a(ModelParams(mu=1e-9)), solve_a(ModelParams(mu=0.99))):
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
        h = PiecewiseCdf.reserve(solve_a(ModelParams(mu=mu)))
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
            [0.0, 0.3, 1.0], [0.0, 0.45, 1.0], atoms=[(0.3, 0.2), (1.0, 0.1)]
        )
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, dist.knots, dist.values, dist.masses)
        back = read_cdf_csv(path)
        assert np.allclose(back.knots, dist.knots)
        assert np.allclose(back.values, dist.values)
        assert dict(back.atoms) == pytest.approx(dict(dist.atoms))
        assert back.mean() == pytest.approx(dist.mean(), abs=1e-15)

    def test_two_column_form(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x,F\n0,0\n0.5,0.5\n1,1\n")
        dist = read_cdf_csv(path)
        assert dist.atoms == ()
        assert dist.cdf(0.25) == pytest.approx(0.25)

    def test_header_required(self, tmp_path):
        path = tmp_path / "headerless.csv"
        path.write_text("0,0\n1,1\n")
        with pytest.raises(DomainError):
            read_cdf_csv(path)


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
