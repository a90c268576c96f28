"""Command-line interface: JSON output, exit codes, determinism."""

import csv
import ctypes
import gc
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from maxmin_auction import DiscreteDirectMechanism, read_cdf_csv, write_cdf_csv
from maxmin_auction import cli
from maxmin_auction.cli import dump_json, main

from mechanism_reference import bic_bir_violations


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDumpJson:
    def test_twelve_significant_digits(self):
        s = dump_json({"v": 0.33851433326379477401})
        assert '"v": 0.338514333264' in s

    def test_types(self):
        s = dump_json({"i": 3, "b": True, "n": None, "l": [1.5, "x"], "nan": float("nan")})
        parsed = json.loads(s)
        assert parsed == {"i": 3, "b": True, "n": None, "l": [1.5, "x"], "nan": None}

    def test_infinities_are_null(self):
        # JSON has no infinity either
        s = dump_json({"inf": math.inf, "l": [-math.inf, np.float64(math.inf)]})
        assert json.loads(s) == {"inf": None, "l": [None, None]}

    # strings are JSON-escaped: a control character in an --out path such as
    # a tab is written as \t, not raw, which json.loads would reject; a
    # string without one keeps its bytes, quotes, backslashes and non-ASCII
    # letters included
    def test_strings_escaped(self, capsys, tmp_path):
        out_path = tmp_path / "a\tb.csv"
        code, out = run_cli(capsys, "curves", "--mu", "0.5", "--grid", "3", "--out", str(out_path))
        assert code == 0 and "\t" not in out
        assert json.loads(out)["out"] == str(out_path)
        assert dump_json('q"\\é') == '"q\\"\\\\é"'


class TestSolve:
    def test_solve_json(self, capsys):
        code, out = run_cli(capsys, "solve", "--mu", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["revenue_guarantee"] == pytest.approx(0.3385, abs=5e-4)

    def test_solve_mu_075(self, capsys):
        code, out = run_cli(capsys, "solve", "--mu", "0.75")
        assert code == 0
        assert json.loads(out)["a"] == pytest.approx(0.38240356960216, abs=1e-9)

    def test_out_of_domain_exits_2(self, capsys):
        code, _ = run_cli(capsys, "solve", "--mu", "1.5")
        assert code == 2

    @pytest.mark.parametrize("mu", ["2e-11", "1e-15", "1e-100", "1e-300"])
    def test_tiny_mu_solves_to_relative_residual(self, capsys, mu):
        # below mu = 2.86e-11 the root leaves the bisection's [1e-12, 1) bracket
        code, out = run_cli(capsys, "solve", "--mu", mu)
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["a"] < float(mu)
        assert payload["root_residual"] <= 1e-15 * float(mu)

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(capsys, "solve", "--mu", "0.5")
        _, out2 = run_cli(capsys, "solve", "--mu", "0.5")
        assert out1 == out2


class TestCurves:
    def test_reserve_curve(self, capsys, tmp_path):
        out_path = tmp_path / "h.csv"
        code, _ = run_cli(
            capsys, "curves", "--mu", "0.5", "--grid", "1000", "--out", str(out_path)
        )
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "F"]
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        assert data.shape == (1000, 2)
        assert np.all(np.diff(data[:, 1]) > 0.0)
        assert data[-1, 0] == 1.0 and data[-1, 1] == 1.0

    def test_reserve_curve_at_subnormal_a(self, capsys, tmp_path):
        # a = 1.5e-323, so (x - a)/a overflows at every interior grid point
        out_path = tmp_path / "h.csv"
        code, _ = run_cli(
            capsys, "curves", "--mu", "1e-320", "--grid", "5", "--out", str(out_path)
        )
        assert code == 0
        data = np.loadtxt(out_path, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(data))
        assert np.all(np.diff(data[:, 1]) > 0.0)
        assert data[0, 1] == 0.0 and data[-1, 1] == 1.0

    def test_signal_curve_carries_atom(self, capsys, tmp_path):
        out_path = tmp_path / "g.csv"
        code, _ = run_cli(
            capsys, "curves", "--mu", "0.5", "--which", "signal", "--out", str(out_path)
        )
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "F", "atom_mass"]
        assert float(rows[-1][2]) == pytest.approx(0.186682308851, abs=1e-9)

    def test_shortest_signal_curve_reads_back(self, capsys, tmp_path):
        # two rows are the least that reach both ends of [0, 1]
        out_path = tmp_path / "g.csv"
        code, _ = run_cli(
            capsys, "curves", "--mu", "0.5", "--which", "signal", "--grid", "2",
            "--out", str(out_path),
        )
        assert code == 0
        g = read_cdf_csv(out_path)
        assert g.atoms == ((1.0, pytest.approx(0.186682308851, abs=1e-9)),)

    def test_adversary_curve_close_to_signal_cdf(self, capsys, tmp_path):
        out_path = tmp_path / "adv.csv"
        code, _ = run_cli(
            capsys, "adversary", "--mu", "0.5", "--grid-k", "500", "--out", str(out_path)
        )
        assert code == 0
        back = read_cdf_csv(out_path)
        from maxmin_auction import signal_cdf, solve_a

        c = solve_a(0.5)
        xs = np.linspace(c.a + 0.02, 0.98, 200)
        assert np.max(np.abs(back.cdf(xs) - signal_cdf(c, xs))) <= 0.011

    def test_unwritable_path_exits_4(self, capsys):
        code, _ = run_cli(
            capsys, "curves", "--mu", "0.5", "--out", "/nonexistent-dir/h.csv"
        )
        assert code == 4

    def test_adversary_curve_is_not_a_choice(self, capsys, tmp_path):
        # the minimiser's CSV comes from ``adversary --out``
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--mu", "0.5", "--which", "adversary", "--out", str(tmp_path / "a.csv")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_default_signal(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--mu", "0.5", "--samples", "50000", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "monte-carlo"
        assert abs(payload["value"] - 0.3385) < 5.0 * payload["std_error"] + 5e-4

    def test_simulate_takes_one_sample(self, capsys):
        code, out = run_cli(capsys, "simulate", "--mu", "0.5", "--samples", "1", "--seed", "7")
        assert code == 0
        assert json.loads(out)["std_error"] is None

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_out_of_range_exits_2(self, capsys, seed):
        code = main(["simulate", "--mu", "0.5", "--samples", "10", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: seed must lie in [0, 2**128), got {seed}\n"

    def test_signal_csv(self, capsys, tmp_path):
        path = tmp_path / "signal.csv"
        write_cdf_csv(path, [0.0, 1.0], [0.5, 1.0], [0.5, 0.5])
        code, out = run_cli(
            capsys,
            "simulate",
            "--mu",
            "0.5",
            "--samples",
            "20000",
            "--signal-csv",
            str(path),
        )
        assert code == 0
        # Bernoulli signals: both-at-one ties pay 1, a single winner pays the
        # expected reserve, so revenue = 1/4 + 1/2 * E[r]
        payload = json.loads(out)
        import oracles

        expected = 0.25 + 0.5 * oracles.MEAN_RESERVE_MU_05
        assert payload["value"] == pytest.approx(expected, abs=0.02)


class TestAdversaryCommand:
    def test_mean_mode(self, capsys):
        code, out = run_cli(capsys, "adversary", "--mu", "0.5", "--grid-k", "500")
        assert code == 0
        payload = json.loads(out)
        assert payload["reserve"] == "optimal"
        assert payload["value"] == pytest.approx(payload["revenue_guarantee"], abs=2e-3)

    def test_second_moment_mode(self, capsys):
        code, out = run_cli(capsys, "adversary", "--delta", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["constraint"] == "second-moment"
        assert payload["value"] == pytest.approx(0.5, abs=1e-9)

    def test_certificate_reads_back_bit_for_bit(self, capsys, tmp_path):
        # more rows than one write block, so the block seams are read back too
        from maxmin_auction import PiecewiseCdf, minimize_revenue, solve_a

        out_path = tmp_path / "adv.csv"
        k = 65537
        code, _ = run_cli(capsys, "adversary", "--mu", "0.3", "--grid-k", str(k), "--out", str(out_path))
        assert code == 0
        c = solve_a(0.3)
        grid = minimize_revenue(PiecewiseCdf.reserve(c), 0.3, k).grid
        back = read_cdf_csv(out_path)
        # the reader completes the cell midpoints with the knots 0 and 1
        assert back.knots.size == k + 2 and (back.knots[0], back.knots[-1]) == (0.0, 1.0)
        assert np.array_equal(back.knots[1:-1].view(np.int64), grid.x.view(np.int64))
        assert np.array_equal(back.values[1:-1].view(np.int64), grid.values.view(np.int64))

    @pytest.mark.parametrize("mu", ["5e-324", "1e-320"])
    def test_subnormal_a(self, capsys, mu):
        # H' is finite on the grid at a subnormal a, so the solve completes
        code, out = run_cli(capsys, "adversary", "--mu", mu, "--grid-k", "1000")
        assert code == 0
        assert abs(json.loads(out)["constraint_residual"]) <= 1e-9

    def test_mu_and_delta_conflict(self, capsys):
        code, _ = run_cli(capsys, "adversary", "--mu", "0.5", "--delta", "0.5")
        assert code == 2

    @pytest.mark.parametrize("reserve", ["optimal", "zero-atom"])
    def test_reserve_with_delta_exits_2(self, capsys, reserve):
        # the second-moment minimum always uses the uniform reserve
        code = main(["adversary", "--delta", "0.5", "--reserve", reserve])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: --reserve") and captured.err.count("\n") == 1


class TestUpperBoundCommand:
    def test_bound_json_and_dump(self, capsys, tmp_path):
        dump = tmp_path / "mech.json"
        code, out = run_cli(
            capsys,
            "upper-bound",
            "--mu",
            "0.5",
            "--grid-n",
            "25",
            "--dump-mechanism",
            str(dump),
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["gap"]) <= 0.03
        mech = json.loads(dump.read_text())
        assert payload["n"] == 25 and payload["cells"] in (25, 26)
        assert len(mech["q1"]) == payload["cells"] + 1
        # the dump is a certificate: feasible for every misreport pair, and it
        # earns the reported revenue, the reduced-form LP's optimum
        rebuilt = DiscreteDirectMechanism(**{k: np.array(v) for k, v in mech.items()})
        viol = bic_bir_violations(rebuilt)
        assert max(viol.values()) <= 1e-9
        revenue = 2.0 * rebuilt.masses @ rebuilt.t1 @ rebuilt.masses
        assert revenue == pytest.approx(payload["mechanism_revenue"], rel=1e-9, abs=0.0)
        assert payload["mechanism_revenue"] == pytest.approx(payload["lp_optimum"], rel=1e-11, abs=0.0)

    # The reduced-form bound needs no mechanism, so only --dump-mechanism
    # builds one, and only then is its revenue printed.
    def test_mechanism_only_for_the_dump(self, capsys, monkeypatch):
        import maxmin_auction.upper_bound as ub

        def no_mechanism(*args, **kwargs):
            raise AssertionError("the mechanism was built")

        monkeypatch.setattr(ub, "lp_max_revenue", no_mechanism)
        code, out = run_cli(capsys, "upper-bound", "--mu", "0.5", "--grid-n", "64")
        assert code == 0
        payload = json.loads(out)
        assert list(payload)[2:] == [
            "mu",
            "n",
            "cells",
            "lp_optimum",
            "analytic_bound",
            "gap",
            "safe_bound",
        ]
        assert payload["analytic_bound"] <= payload["safe_bound"]
        code, out = run_cli(
            capsys, "verify", "--mu", "0.5", "--seed", "7", "--samples", "30000"
        )
        assert code == 0


class TestMpsCheckCommand:
    def test_failing_prior_reports_but_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "prior.csv"
        write_cdf_csv(path, [0.0, 0.5, 1.0], [0.25, 0.75, 1.0], [0.25, 0.5, 0.25])
        code, out = run_cli(capsys, "mps-check", "--mu", "0.5", "--prior", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is False

    def test_mean_mismatch_exits_2(self, capsys, tmp_path):
        path = tmp_path / "prior.csv"
        write_cdf_csv(path, [0.0, 1.0], [0.4, 1.0], [0.4, 0.6])
        code, _ = run_cli(capsys, "mps-check", "--mu", "0.5", "--prior", str(path))
        assert code == 2


# (command, CSV text or None, extra flags); each input is malformed
BAD_INPUTS = {
    "non-numeric cell": ("mps-check", "x,F\n0,0.5\n1,one\n", []),
    "one-field row": ("simulate", "x,F\n0,0.5\n1\n", []),
    "nan knot": ("mps-check", "x,F\n0,0.5\nnan,1\n", []),
    "nan value": ("simulate", "x,F\n0,nan\n1,1\n", []),
    "nan atom mass": ("simulate", "x,F,atom_mass\n0,0.5,nan\n1,1,0.5\n", []),
    # F(0) = 0.3 is the atom at 0, so a mass of 0.1 there contradicts it
    "atom at 0 off F(0)": ("mps-check", "x,F,atom_mass\n0,0.3,0.1\n0.5,0.5,0.2\n1,1,0.5\n", []),
    "not UTF-8": ("mps-check", b"x,F\n0,0\n\xff\xfe,1\n1,1\n", []),
    "not UTF-8 after a byte-order mark": ("simulate", b"\xef\xbb\xbfx,F\n0,0\n\xff\xfe,1\n1,1\n", []),
    # csv's default field size limit is 131072 characters
    "over-long field": ("simulate", "x,F\n0,0\n" + "1" * 200_000 + ",1\n", []),
    "negative curves grid": ("curves", None, ["--grid", "-3"]),
    # one row reaches only x = 0, which read_cdf_csv would reject
    "one-row signal curve": ("curves", None, ["--grid", "1", "--which", "signal"]),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, case):
    command, text, extra = BAD_INPUTS[case]
    path = tmp_path / "in.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    flag = {"mps-check": "--prior", "simulate": "--signal-csv", "curves": "--out"}[command]
    argv = [command, "--mu", "0.5", flag, str(path), *extra]
    if command == "simulate":
        argv += ["--samples", "10", "--seed", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# (argv, what fails) for sizes that fail at once, before any work starts:
# 2**55 doubles are 2**58 bytes, beyond any address space, and 1e23 or 1e30
# is beyond what numpy can size or ``len(range(...))`` can count
HUGE = str(2**55)
OVERSIZED = {
    "adversary grid": ["adversary", "--mu", "0.5", "--grid-k", HUGE],
    "second-moment grid": ["adversary", "--delta", "0.5", "--grid-k", HUGE],
    "adversary grid past numpy": ["adversary", "--mu", "0.5", "--grid-k", str(10**23)],
    "curves grid": ["curves", "--mu", "0.5", "--grid", HUGE, "--out", "OUT"],
    "upper-bound mechanism": ["upper-bound", "--mu", "0.5", "--grid-n", HUGE, "--dump-mechanism", "OUT"],
    "simulate samples": ["simulate", "--mu", "0.5", "--samples", str(10**30), "--seed", "1"],
    "verify samples": ["verify", "--mu", "0.5", "--samples", str(10**30), "--seed", "1"],
}


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_size_exits_2_with_one_line(capsys, tmp_path, case):
    out = tmp_path / "out.csv"
    argv = [str(out) if arg == "OUT" else arg for arg in OVERSIZED[case]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


class TestSecondMomentCommand:
    def test_json(self, capsys):
        code, out = run_cli(capsys, "second-moment", "--delta", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["guarantee"] == 0.5
        assert payload["a"] == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-12)

    def test_bad_delta_exits_2(self, capsys):
        code, _ = run_cli(capsys, "second-moment", "--delta", "1.5")
        assert code == 2

    def test_tiny_delta(self, capsys):
        # 1 - sqrt(1 - delta) rounds to 0 below delta ~ 5.6e-17
        code, out = run_cli(capsys, "second-moment", "--delta", "1e-17")
        assert code == 0
        assert json.loads(out)["a"] == 5e-18


class TestVerifyCommand:
    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_verify_needs_two_samples(self, capsys, samples):
        # one sample has no standard error, so the Monte Carlo check has no
        # verdict: a domain error, not a failed check
        code = main(["verify", "--mu", "0.5", "--seed", "7", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: verify needs --samples of at least 2, got {samples}\n"

    # the linear ramp's slope h_at_a/a overflows at a subnormal a, which
    # warns in the P1/P2 check
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_subnormal_mu_reports_its_checks(self, capsys):
        # the adversary solves at a = 5e-324, so the report prints, with the
        # quadrature's infinite value as null; some checks fail there
        code, out = run_cli(capsys, "verify", "--mu", "5e-324", "--seed", "7", "--samples", "1000")
        checks = {ch["name"]: ch for ch in json.loads(out)["checks"]}
        assert code == 1 and checks["adversary_minimum"]["passed"]
        assert checks["functional_vs_closed_form"]["value"] is None

    def test_all_checks_pass_and_deterministic(self, capsys):
        args = (
            "verify",
            "--mu",
            "0.5",
            "--seed",
            "7",
            "--samples",
            "30000",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["all_passed"] is True
        names = {ch["name"] for ch in payload["checks"]}
        assert {
            "root_residual",
            "ode_residual",
            "pointwise_saddle",
            "mc_vs_quadrature",
            "lp_upper_bound",
            "p1p2_zero_atom",
            "p1p2_linear_ramp",
            "dominated_below_guarantee",
            "payment_identity",
        } <= names

    # The LP check is relative at every mu, and its bound sits within about
    # 1e-16 relative of g.  At 1e-30 and 1e-300 the run still fails on
    # functional_vs_closed_form and mc_vs_quadrature, which this check does
    # not touch.
    @pytest.mark.parametrize("mu", ["0.99999", "0.5", "1e-3", "1e-9", "1e-30", "1e-300"])
    def test_lp_upper_bound_passes_at_every_stratum(self, capsys, mu):
        _, out = run_cli(capsys, "verify", "--mu", mu, "--seed", "7", "--samples", "30000")
        checks = {ch["name"]: ch for ch in json.loads(out)["checks"]}
        lp = checks["lp_upper_bound"]
        assert lp["passed"] is True
        assert lp["safe_bound"] == pytest.approx(lp["analytic_bound"], rel=1e-11, abs=0.0)
        assert lp["cells"] > 10**13  # the finest grid, ratio 1 - 2**-53
        failing = {name for name, ch in checks.items() if not ch["passed"]}
        if float(mu) <= 1e-30:
            assert failing == {"functional_vs_closed_form", "mc_vs_quadrature"}

    def test_other_mean(self, capsys):
        code, out = run_cli(
            capsys,
            "verify",
            "--mu",
            "0.9",
            "--seed",
            "1",
            "--samples",
            "30000",
        )
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_low_tail_mean(self, capsys, seed):
        # the Monte Carlo leg must reach the signal's atom of mass a ~ 7e-11
        code, out = run_cli(
            capsys, "verify", "--mu", "1.5e-9", "--seed", seed, "--samples", "30000"
        )
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_high_mean_empty_window(self, capsys):
        # a > 0.96 leaves the adversary's sup-distance window [a+0.02, 0.98]
        # empty; the check reports that instead of crashing
        code, out = run_cli(
            capsys,
            "verify",
            "--mu",
            "0.9999",
            "--seed",
            "1",
            "--samples",
            "30000",
        )
        payload = json.loads(out)
        adversary = {ch["name"]: ch for ch in payload["checks"]}["adversary_minimum"]
        assert adversary["window_points"] == 0
        assert adversary["sup_distance"] == 0.0
        assert code == 0 and payload["all_passed"] is True


class TestSeedAndTolerance:
    """Only ``verify`` and ``simulate`` draw random numbers, so only they take
    ``--seed``, and no command reads its seed from the environment; no command
    takes ``--tol-root``."""

    @pytest.mark.parametrize(
        "argv",
        [("solve", "--mu", "0.5"), ("dominated", "--mu", "0.5"), ("second-moment", "--delta", "0.5")],
    )
    def test_bad_env_seed_ignored_where_unread(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("MAXMIN_SEED", "abc")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["command"] == argv[0]

    @pytest.mark.parametrize("value", ["42", "abc"])
    def test_env_seed_changes_no_simulate_output(self, capsys, monkeypatch, value):
        # an unset --seed is 0, whatever MAXMIN_SEED says
        argv = ("simulate", "--mu", "0.5", "--samples", "1000")
        outputs = [run_cli(capsys, *argv)[1], run_cli(capsys, *argv, "--seed", "0")[1]]
        monkeypatch.setenv("MAXMIN_SEED", value)
        outputs += [run_cli(capsys, *argv)[1], run_cli(capsys, *argv, "--seed", "0")[1]]
        assert len(set(outputs)) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--mu", "0.5", "--seed", "1"),
            ("second-moment", "--delta", "0.5", "--seed", "1"),
            ("solve", "--mu", "0.5", "--tol-root", "1e-12"),
            ("verify", "--mu", "0.5", "--tol-root", "1e-12"),
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


SRC = Path(__file__).resolve().parents[1] / "src"
# what the console script from pyproject.toml runs
SCRIPT = "import sys; from maxmin_auction.cli import run; sys.argv[0] = 'maxmin-auction'; sys.exit(run())"
# as ``python -m maxmin_auction``, with a handler that shows whether the
# interpreter ran its exit-time teardown
PROBE = (
    "import atexit, runpy, sys; atexit.register(print, 'teardown', file=sys.stderr); "
    "sys.argv[0] = 'maxmin_auction'; runpy.run_module('maxmin_auction', run_name='__main__', alter_sys=True)"
)


def run_process(*argv, entry=("-m", "maxmin_auction"), unbuffered=True, prefix=(), **kwargs):
    """Run the command line in a fresh interpreter, as a user's shell would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([*prefix, sys.executable, *entry, *argv], env=env, timeout=300, **kwargs)


# the shell starts the interpreter with descriptor 2 closed, so sys.stderr is None
CLOSED_STDERR = ("sh", "-c", 'exec "$0" "$@" 2>&-')


def assert_one_error_line(proc):
    err = proc.stderr.decode()
    assert proc.returncode == 4, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestProcessExit:
    """The command line leaves through ``cli.run``: flushed streams, the exit
    code of ``main``, and no interpreter teardown."""

    ARGV = ("second-moment", "--delta", "0.5")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_broken_pipe_exits_4(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_process(*self.ARGV, unbuffered=unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
        assert_one_error_line(proc)
        assert "Broken pipe" in proc.stderr.decode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_full_device_exits_4(self, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = run_process(*self.ARGV, unbuffered=unbuffered, stdout=full)
        assert_one_error_line(proc)

    @pytest.mark.skipif(sys.platform == "win32", reason="needs a POSIX shell")
    def test_closed_stdout_exits_4(self):
        # the shell starts the interpreter with descriptor 1 closed
        proc = run_process(*self.ARGV, prefix=("sh", "-c", 'exec "$0" "$@" >&-'), stdout=None)
        assert_one_error_line(proc)
        assert proc.stderr == b"error: [Errno 9] stdout is closed\n"

    @pytest.mark.parametrize(
        ("argv", "prefix"),
        [
            (("verify", "--mu", "0.5", "--seed", "7"), ()),
            (("verify", "--mu", "0.5", "--seed", "7"), CLOSED_STDERR),
            # long enough for the Monte Carlo pool, under the kept heap
            (("simulate", "--mu", "0.5", "--samples", "2000000", "--seed", "7"), ()),
        ],
        ids=["verify", "verify-stderr-closed", "simulate"],
    )
    def test_process_prints_what_main_prints(self, capsys, argv, prefix):
        if prefix and sys.platform == "win32":
            pytest.skip("needs a POSIX shell")
        proc = run_process(*argv, prefix=prefix, stderr=None if prefix else subprocess.PIPE)
        code, out = run_cli(capsys, *argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()

    @pytest.mark.skipif(sys.platform == "win32", reason="needs a POSIX shell")
    @pytest.mark.parametrize(
        ("argv", "expected", "prefix"),
        [
            (("solve", "--mu", "2"), 2, CLOSED_STDERR),
            (("curves", "--mu", "0.5", "--out", "NO_DIR"), 4, CLOSED_STDERR),
            # sys.stderr exists, and writing to it fails
            (("solve", "--mu", "2"), 2, ("sh", "-c", 'exec "$0" "$@" 2>/dev/full')),
        ],
        ids=["domain", "io", "full-device"],
    )
    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, argv, expected, prefix):
        # the error line has nowhere to go, but the exit code still says why,
        # and stdout stays clean
        if "/dev/full" in prefix[-1] and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        argv = [str(tmp_path / "no" / "such" / "dir" / "c.csv") if a == "NO_DIR" else a for a in argv]
        proc = run_process(*argv, prefix=prefix, stderr=None)
        assert proc.returncode == expected
        assert proc.stdout == b""

    @pytest.mark.parametrize("entry", ["module", "script"])
    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            (("solve", "--mu", "0.5"), 0),
            (("solve", "--mu", "2"), 2),
            (("curves", "--mu", "0.5", "--out", "NO_DIR"), 4),
        ],
        ids=["ok", "domain", "io"],
    )
    def test_exit_code_passes_through_os_exit(self, tmp_path, entry, argv, expected):
        argv = [str(tmp_path / "no" / "such" / "dir" / "c.csv") if a == "NO_DIR" else a for a in argv]
        script = PROBE if entry == "module" else "import atexit; atexit.register(print, 'teardown'); " + SCRIPT
        proc = run_process(*argv, entry=("-c", script))
        assert proc.returncode == expected, proc.stderr
        assert b"teardown" not in proc.stdout + proc.stderr

    def test_certificate_is_complete_at_exit(self, capsys, tmp_path):
        argv = ("adversary", "--mu", "0.3", "--grid-k", "65537", "--out")
        proc = run_process(*argv, str(tmp_path / "process.csv"))
        code, out = run_cli(capsys, *argv, str(tmp_path / "main.csv"))
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()
        written = (tmp_path / "process.csv").read_bytes()
        assert written.count(b"\n") == 65538
        assert written == (tmp_path / "main.csv").read_bytes()


def fake_libc(monkeypatch, mmap_accepted=1):
    """Stand in for glibc: record each ``mallopt`` call in order."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return mmap_accepted if param == cli._M_MMAP_THRESHOLD else 1

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    return calls


class TestKeepHeap:
    """``cli.run`` keeps freed heap memory for the life of the process."""

    def test_mmap_threshold_is_fixed_before_trimming_stops(self, monkeypatch):
        calls = fake_libc(monkeypatch)
        cli._keep_heap()
        assert calls == [(-3, 32 * 2**20), (-1, 2**30)]

    def test_trimming_is_left_alone_if_the_mmap_threshold_is_refused(self, monkeypatch):
        calls = fake_libc(monkeypatch, mmap_accepted=0)
        cli._keep_heap()
        assert calls == [(-3, 32 * 2**20)]

    @pytest.mark.parametrize("confstr", ["missing", "unknown-name", "unset"])
    def test_nothing_happens_without_glibc(self, monkeypatch, confstr):
        calls = fake_libc(monkeypatch)
        if confstr == "missing":
            monkeypatch.delattr(os, "confstr")
        elif confstr == "unknown-name":

            def unknown(name):
                raise ValueError("unrecognized configuration name")

            monkeypatch.setattr(os, "confstr", unknown)
        else:
            monkeypatch.setattr(os, "confstr", lambda name: None)
        cli._keep_heap()
        assert calls == []

    def test_nothing_happens_without_mallopt(self, monkeypatch):
        fake_libc(monkeypatch)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        cli._keep_heap()

    def test_run_keeps_the_heap_before_main(self, monkeypatch):
        calls = []

        class Exited(Exception):
            pass

        def exit_(code):
            calls.append(("exit", code))
            raise Exited

        monkeypatch.setattr(gc, "disable", lambda: calls.append("gc.disable"))
        monkeypatch.setattr(cli, "_keep_heap", lambda: calls.append("keep_heap"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
        monkeypatch.setattr(os, "_exit", exit_)
        with pytest.raises(Exited):
            cli.run()
        assert calls == ["gc.disable", "keep_heap", "main", ("exit", 0)]
