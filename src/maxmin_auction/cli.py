"""Command-line front door.

Every command is a pure function of its flags (plus any input files): output
is machine-readable JSON on stdout (CSV files for ``curves``), floats are
printed with 12 significant digits, and repeated runs are byte-identical.

Exit codes: 0 success; 1 a verification check failed; 2 invalid input or
domain error, a size too large to allocate included; 3 an iterative routine
failed to converge; 4 file I/O error.
Only ``verify`` and ``simulate`` draw random numbers, so only they take
``--seed``, which defaults to 0; no environment variable stands in for it.
A seed must be an integer in [0, 2**128), or the exit code is 2.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import errno
import gc
import json
import math
import os
import sys
from typing import NoReturn

import numpy as np

from . import adversary as adv
from . import extensions as ext
from . import functional as fn
from . import mechanism as mech
from . import upper_bound as ub
from .constants import (
    TOL_ROOT,
    SolvedConstants,
    reserve_cdf,
    reserve_pdf,
    signal_cdf,
    solve_a,
)
from .distributions import PiecewiseCdf, read_cdf_csv, write_cdf_csv
from .errors import (
    MAX_SIZE,
    ConvergenceError,
    DegenerateError,
    DomainError,
    MeanMismatchError,
)
from .mechanism import uniform_pairs
from .quadrature import adaptive_simpson

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

# Size flags (dest -> flag); none may exceed ``errors.MAX_SIZE``.
_SIZE_FLAGS = {
    "n_samples": "--samples",
    "grid_k": "--grid-k",
    "grid_n": "--grid-n",
    "grid": "--grid",
}


# --------------------------------------------------------------------- #
# JSON with fixed float formatting
# --------------------------------------------------------------------- #


def _format_float(v: float) -> str:
    # JSON has no NaN or infinity: a value that is not finite prints as null
    if not math.isfinite(v):
        return "null"
    return format(v, ".12g")


def dump_json(obj, indent: int = 0) -> str:
    """Serialise to JSON with all floats at 12 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {dump_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(dump_json(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    raise TypeError(f"cannot serialise {type(obj)}")


def _emit(command: str, payload: dict) -> None:
    """Print ``payload`` as JSON under the schema version and command name."""
    if sys.stdout is None:  # the process started with descriptor 1 closed
        raise OSError(errno.EBADF, "stdout is closed")
    header = {"schema": SCHEMA_VERSION, "command": command}
    sys.stdout.write(dump_json({**header, **payload}) + "\n")


def _mu(args: argparse.Namespace) -> float:
    if args.mu is None:
        raise DomainError("this command requires --mu")
    return args.mu


def _constants(args: argparse.Namespace) -> SolvedConstants:
    return solve_a(_mu(args))


# --------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------- #


def cmd_solve(args: argparse.Namespace) -> int:
    c = _constants(args)
    _emit(
        "solve",
        {
            "mu": c.mu,
            "a": c.a,
            "lambda": c.lam,
            "revenue_guarantee": c.revenue_guarantee,
            "h_at_a": c.h_at_a,
            "root_residual": c.root_residual,
        },
    )
    return EXIT_OK


def cmd_dominated(args: argparse.Namespace) -> int:
    c = _constants(args)
    value = mech.dominated_equilibrium_revenue(c)
    _emit(
        "dominated",
        {
            "mu": c.mu,
            "value": value,
            "revenue_guarantee": c.revenue_guarantee,
            "below_guarantee": value < c.revenue_guarantee,
        },
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    c = _constants(args)
    if args.signal_csv is not None:
        signal = read_cdf_csv(args.signal_csv)
    else:
        signal = PiecewiseCdf.signal(c)
    report = mech.mc_revenue(c, signal, args.n_samples, args.seed)
    _emit("simulate", dataclasses.asdict(report))
    return EXIT_OK


def cmd_second_moment(args: argparse.Namespace) -> int:
    c = ext.second_moment_solution(args.delta)
    _emit(
        "second-moment",
        {
            "delta": args.delta,
            "a": c.a,
            "guarantee": args.delta,
            "reserve_kind": "uniform",
            "signal_atom_at_one": c.a,
        },
    )
    return EXIT_OK


def cmd_mps_check(args: argparse.Namespace) -> int:
    c = _constants(args)
    report = ext.mps_check(read_cdf_csv(args.prior), c)
    _emit("mps-check", {"mu": c.mu, **dataclasses.asdict(report)})
    return EXIT_OK


def _reserve_distribution(name: str, c: SolvedConstants) -> PiecewiseCdf:
    if name == "optimal":
        return PiecewiseCdf.reserve(c)
    if name == "uniform":
        return PiecewiseCdf.uniform()
    if name == "zero-atom":
        return adv.reserve_with_zero_atom(c)
    return adv.reserve_with_linear_ramp(c)  # "linear-ramp"


def cmd_adversary(args: argparse.Namespace) -> int:
    if args.delta is not None:
        if args.reserve is not None:
            raise DomainError("--reserve applies to --mu only; --delta uses the uniform reserve")
        result = adv.minimize_revenue(
            PiecewiseCdf.uniform(), args.delta, args.grid_k, constraint="second-moment"
        )
        payload = {
            "delta": args.delta,
            "constraint": "second-moment",
        }
    else:
        c = _constants(args)
        reserve = args.reserve or "optimal"
        h_dist = _reserve_distribution(reserve, c)
        result = adv.minimize_revenue(h_dist, c.mu, args.grid_k)
        payload = {
            "mu": c.mu,
            "reserve": reserve,
            "constraint": "mean",
            "revenue_guarantee": c.revenue_guarantee,
        }
    payload.update(
        {
            "value": result.value,
            "lambda_hat": result.lambda_hat,
            "constraint_residual": result.constraint_residual,
            "projection_delta": result.projection_delta,
            "grid_size": args.grid_k,
        }
    )
    if args.out is not None:
        write_cdf_csv(args.out, result.grid.x, result.grid.values)
    _emit("adversary", payload)
    return EXIT_OK


def cmd_upper_bound(args: argparse.Namespace) -> int:
    c = _constants(args)
    bound = ub.reduced_form_bound(c.a, ub.grid_ratio(c.a, args.grid_n))
    payload = {
        "mu": c.mu,
        "n": args.grid_n,
        "cells": bound.cells,
        "lp_optimum": bound.lp_optimum,
        "analytic_bound": c.revenue_guarantee,
        "gap": bound.lp_optimum - c.revenue_guarantee,
        "safe_bound": bound.safe_bound,
    }
    if args.dump_mechanism is not None:
        revenue, mechanism = ub.lp_max_revenue(c, args.grid_n)
        with open(args.dump_mechanism, "w") as fh:
            fh.write(dump_json(mechanism.to_json_dict()) + "\n")
        payload["mechanism_revenue"] = revenue
    _emit("upper-bound", payload)
    return EXIT_OK


def cmd_curves(args: argparse.Namespace) -> int:
    # a curve on [0, 1] needs both ends, or read_cdf_csv rejects the file
    if args.grid < 2:
        raise DomainError(f"--grid must be at least 2, got {args.grid}")
    c = _constants(args)
    x = np.linspace(0.0, 1.0, args.grid)
    if args.which == "reserve":
        write_cdf_csv(args.out, x, reserve_cdf(c, x))
    else:  # "signal"
        masses = np.zeros_like(x)
        masses[-1] = c.a
        write_cdf_csv(args.out, x, signal_cdf(c, x), masses)
    _emit(
        "curves",
        {
            "which": args.which,
            "mu": c.mu,
            "rows": args.grid,
            "out": args.out,
        },
    )
    return EXIT_OK


# --------------------------------------------------------------------- #
# verify: the full invariant suite
# --------------------------------------------------------------------- #


# Absolute tolerance of the adaptive-Simpson leg of the payment oracle.
_PAYMENT_ORACLE_TOL = 1e-9


def _payment_identity_worst_gap(c: SolvedConstants, seed: int, n_pairs: int) -> float:
    """Closed-form winner payment vs. the expected-reserve-payment oracle."""
    pairs = uniform_pairs(seed, 0, n_pairs)
    hi = pairs.max(axis=1)
    lo = pairs.min(axis=1)
    closed = mech.winner_payment(c, hi, lo)
    # E[max(lo, r) 1{r <= hi}] = lo H(lo) + integral of r H'(r) over [lo, hi]
    tails = adaptive_simpson(lambda t: t * reserve_pdf(c, t), lo, hi, _PAYMENT_ORACLE_TOL)
    oracle = lo * reserve_cdf(c, lo) + tails
    return float(np.max(np.abs(closed - oracle)))


def run_verification(
    mu: float, seed: int, n_samples: int = 100_000, grid_k: int = 500
) -> dict:
    """Execute every cross-check at the signal mean ``mu`` and return a
    JSON-ready report.

    ``lp_upper_bound`` certifies the converse: the reduced-form LP on the
    finest geometric grid of [a, 1], ratio rho = ``upper_bound.FINEST_RATIO``
    (``cells`` of them, about 2^53 ln(1/a)), plus the atom at 1, caps the
    revenue of every mechanism against the worst-case signal law at its
    exact optimum (a/rho)(2 - a/rho) (``upper_bound.reduced_form_bound``).
    That is under 1.2e-16 relative above 2a - a^2 at every mu.  The check
    passes iff g is at most that optimum plus g's own rounding and the
    optimum at most 1e-12 g above g, both compared exactly
    (``ReducedFormBound.certifies``), so a claimed g off by more than about
    1e-12 relative, in either direction, fails it.
    """
    if n_samples < 2:
        # one sample has no standard error, so mc_vs_quadrature has no verdict
        raise DomainError(f"verify needs --samples of at least 2, got {n_samples}")
    c = solve_a(mu)
    g_bar = PiecewiseCdf.signal(c)
    h_bar = PiecewiseCdf.reserve(c)
    checks: list[dict] = []

    def record(name: str, passed: bool, **detail) -> None:
        checks.append({"name": name, "passed": bool(passed), **detail})

    record("root_residual", c.root_residual <= TOL_ROOT * c.mu, value=c.root_residual)

    xs = np.linspace(0.01, 1.0, 100)
    xs = xs[np.abs(xs - c.a) > 1e-9]
    ode_worst = float(np.max(fn.check_ode(c, xs)))
    record("ode_residual", ode_worst <= 1e-8, value=ode_worst)

    eps = 1e-6
    interior = xs[(xs > 0.02) & (xs < 1.0 - eps) & (np.abs(xs - c.a) > 0.01)]
    fd = (reserve_cdf(c, interior + eps) - reserve_cdf(c, interior - eps)) / (2 * eps)
    fd_worst = float(np.max(np.abs(fd - reserve_pdf(c, interior))))
    record("density_vs_finite_difference", fd_worst <= 1e-6, value=fd_worst)

    saddle = adv.verify_pointwise_saddle(c, grid_k)
    record(
        "pointwise_saddle",
        saddle.max_deviation < 1e-6,
        value=saddle.max_deviation,
    )

    quad = fn.revenue_functional(g_bar, h_bar)
    quad_gap = abs(quad - c.revenue_guarantee)
    # measured relative gap: 1.8e-13 at mu = 0.5, at most 2.7e-9 over [1e-9, 1 - 1e-6]
    gap_ok = quad_gap <= 1e-7 * c.revenue_guarantee
    record("functional_vs_closed_form", gap_ok, value=quad_gap)

    report = mech.mc_revenue(c, g_bar, n_samples, seed, tail_weighted=True)
    mc_gap = abs(report.value - quad)
    record(
        "mc_vs_quadrature",
        mc_gap <= 3.0 * report.std_error,
        value=mc_gap,
        std_error=report.std_error,
    )

    result = adv.minimize_revenue(h_bar, c.mu, grid_k)
    adv_gap = abs(result.value - c.revenue_guarantee)
    # The window is empty once a > 0.96; window_points shows when the
    # sup-distance part of the check is vacuous.
    window = (result.grid.x >= c.a + 0.02) & (result.grid.x <= 0.98)
    sup_dist = float(
        np.max(
            np.abs(
                result.grid.values[window] - signal_cdf(c, result.grid.x[window])
            ),
            initial=0.0,
        )
    )
    record(
        "adversary_minimum",
        adv_gap <= 2e-3 and sup_dist <= 0.01,
        value_gap=adv_gap,
        sup_distance=sup_dist,
        window_points=int(np.count_nonzero(window)),
        lambda_hat=result.lambda_hat,
    )

    bound = ub.reduced_form_bound(c.a, ub.FINEST_RATIO)
    record(
        "lp_upper_bound",
        bound.certifies(c.revenue_guarantee, 1e-12),
        lp_optimum=bound.lp_optimum,
        analytic_bound=c.revenue_guarantee,
        safe_bound=bound.safe_bound,
        cells=bound.cells,
    )

    for name, h_star in (
        ("p1p2_zero_atom", adv.reserve_with_zero_atom(c)),
        ("p1p2_linear_ramp", adv.reserve_with_linear_ramp(c)),
    ):
        verdict = adv.check_p1_p2(h_star, c)
        record(
            name,
            verdict.passed,
            p1_worst_gap=verdict.p1_worst_gap,
            p2_worst_value=verdict.p2_worst_value,
        )

    dom = mech.dominated_equilibrium_revenue(c)
    record(
        "dominated_below_guarantee",
        dom < c.revenue_guarantee,
        value=dom,
        revenue_guarantee=c.revenue_guarantee,
    )

    pay_worst = _payment_identity_worst_gap(c, seed, 100)
    record("payment_identity", pay_worst <= 1e-6, value=pay_worst)

    return {
        "mu": c.mu,
        "seed": seed,
        "n_samples": n_samples,
        "checks": checks,
        "all_passed": all(ch["passed"] for ch in checks),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(_mu(args), args.seed, args.n_samples, args.grid_k)
    _emit("verify", report)
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


# --------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxmin-auction",
        description="Numerics for the worst-case-optimal auction with a random reserve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mu_arg = argparse.ArgumentParser(add_help=False)
    mu_arg.add_argument("--mu", type=float, help="mean of the signal distribution")
    seed_arg = argparse.ArgumentParser(add_help=False)
    seed_arg.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")

    sub.add_parser("solve", parents=[mu_arg], help="solve the reserve parameter and constants")

    p = sub.add_parser("verify", parents=[mu_arg, seed_arg], help="run the full invariant suite")
    p.add_argument("--samples", type=int, default=100_000, dest="n_samples")
    p.add_argument("--grid-k", type=int, default=500)

    p = sub.add_parser("curves", parents=[mu_arg], help="emit CDF curves as CSV")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--which", choices=("reserve", "signal"), default="reserve")
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser(
        "simulate", parents=[mu_arg, seed_arg], help="Monte Carlo revenue under a signal CDF"
    )
    p.add_argument("--samples", type=int, default=1_000_000, dest="n_samples")
    p.add_argument("--signal-csv", type=str, default=None)

    p = sub.add_parser("adversary", parents=[mu_arg], help="minimize revenue over signal CDFs")
    p.add_argument("--delta", type=float, default=None, help="known second moment (uniform reserve)")
    p.add_argument("--grid-k", type=int, default=500)
    p.add_argument(
        "--reserve",
        choices=("optimal", "uniform", "zero-atom", "linear-ramp"),
        default=None,
        help="reserve CDF under --mu (default: optimal)",
    )
    p.add_argument("--out", type=str, default=None, help="write the minimizer CSV here")

    p = sub.add_parser(
        "upper-bound", parents=[mu_arg], help="LP revenue cap on geometric cells of [a, 1]"
    )
    p.add_argument(
        "--grid-n", type=int, default=50, help="geometric cells on [a, 1]; the atom at 1 is one more type"
    )
    p.add_argument(
        "--dump-mechanism",
        type=str,
        default=None,
        help="also write the LP's optimal mechanism here: the hierarchical auction on its n + 1 types",
    )

    p = sub.add_parser(
        "mps-check", parents=[mu_arg], help="mean-preserving-spread admissibility of a prior"
    )
    p.add_argument("--prior", type=str, required=True)

    p = sub.add_parser("second-moment", help="saddle point under a known second moment")
    p.add_argument("--delta", type=float, required=True)

    sub.add_parser(
        "dominated", parents=[mu_arg], help="revenue of the dominated no-signal equilibrium"
    )
    return parser


_HANDLERS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "curves": cmd_curves,
    "simulate": cmd_simulate,
    "adversary": cmd_adversary,
    "upper-bound": cmd_upper_bound,
    "mps-check": cmd_mps_check,
    "second-moment": cmd_second_moment,
    "dominated": cmd_dominated,
}


def _report_error(message: object) -> None:
    """Write the one ``error:`` line of a failed command to stderr.

    A stderr that cannot be written loses the line but not the exit code
    that ``main`` returns.  One the shell closed with ``2>&-`` is ``None``,
    and ``print(file=None)`` would put the line on stdout; one on a full
    device or a broken pipe raises ``OSError``.
    """
    if sys.stderr is None:  # the process started with descriptor 2 closed
        return
    try:
        sys.stderr.write(f"error: {message}\n")
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        mu, delta = getattr(args, "mu", None), getattr(args, "delta", None)
        if mu is not None and delta is not None:
            raise DomainError("give exactly one of --mu and --delta")
        for dest, flag in _SIZE_FLAGS.items():
            size = getattr(args, dest, None)
            if size is not None and size > MAX_SIZE:
                raise DomainError(f"{flag} must be at most {MAX_SIZE}, got {size}")
        code = _HANDLERS[args.command](args)
        # a write the buffer held back fails here, in the OSError branch,
        # and not at interpreter exit
        sys.stdout.flush()
        return code
    except (DomainError, MeanMismatchError) as exc:
        _report_error(exc)
        return EXIT_DOMAIN
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"
        _report_error(f"size too large for memory: {reason}")
        return EXIT_DOMAIN
    except (ConvergenceError, DegenerateError) as exc:
        _report_error(exc)
        return EXIT_CONVERGENCE
    except OSError as exc:
        _report_error(exc)
        return EXIT_IO


# mallopt parameters from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's own cap on its dynamic mmap threshold on 64-bit systems
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2**30


def _keep_heap() -> None:
    """Ask glibc's malloc to keep freed heap memory until the process exits.

    The mmap threshold is fixed first, at the 32 MiB that glibc's dynamic
    threshold never exceeds on 64-bit systems; only if glibc accepts it is
    the trim threshold raised to 1 GiB.  Elsewhere than on glibc, or where
    ``mallopt`` cannot be found, nothing changes.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def run() -> NoReturn:
    """Run ``main`` on ``sys.argv`` and end the process with its exit code.

    This is the command line's one way out: ``python -m maxmin_auction`` and
    the ``maxmin-auction`` script both call it.  Library callers and tests
    call ``main``, which returns.

    ``run`` leaves through ``os._exit``, so the interpreter skips its
    teardown of the 257 modules a ``verify`` loads: from ``main``'s return
    to the end of a cold ``verify --mu 0.5 --seed 7`` took 24 ms with it and
    3 ms without it, median of 21 runs on a 2-vCPU VM.  Nothing that
    teardown would finish is pending:

    - every file is written inside a ``with`` block, closed before ``main``
      returns;
    - the Monte Carlo thread pool is joined when its ``with`` block ends;
    - ``main`` flushes stdout itself, so a failed write exits 4 with one
      line; ``run`` flushes both streams once more, and a flush that fails
      here only repeats a failure that ``main`` has already reported;
    - the package registers no ``atexit`` handler and does no logging, so
      ``logging.shutdown``, which its dependencies register, has nothing
      to flush.

    The cyclic collector is off for the whole run.  With it on, the
    package's import and a ``verify --mu 0.5 --seed 7`` in one process took
    0.2 s, of which its 37 passes over a heap of about 23k objects took
    about 9 ms.  Garbage in cycles is not freed without it, and the package
    leaves none that counts (the table below).

    The heap is kept: ``_keep_heap`` asks glibc's malloc never to hand freed
    memory back to the kernel before the process exits.  Each Monte Carlo
    slice allocates and frees about 20 temporaries of 128 KiB or more on
    each worker thread, and glibc trimmed the top of the thread's heap on
    every free, so the next slice faulted the same pages in again.  A cold
    ``simulate --mu 0.5 --samples 10000000`` takes 106k minor faults and
    0.11 s of system time with the heap trimmed, 12k and 0.03 s with it
    kept (median of 9 runs).  The mmap threshold is fixed before the trim
    threshold because fixing either one turns glibc's dynamic mmap
    threshold off: the trim threshold alone leaves the mmap threshold at its
    128 KiB start, every such temporary then gets a fresh ``mmap``, and the
    same run takes 543k faults and 0.86 s instead of 0.59 s.  At 32 MiB,
    the most the dynamic threshold would reach, those temporaries stay on
    the heap.

    Peak RSS in MB as run, with the heap trimmed (collector off) and with
    the collector on (heap kept), median of 5 cold runs, 2-vCPU VM:

    ===================================================  ======  =======  ============
    run                                                  as run  trimmed  collector on
    ===================================================  ======  =======  ============
    ``simulate --mu 0.5 --samples 60000000``               49.3     48.7          48.9
    ``adversary --mu 0.5 --grid-k 4000000``               156.6    156.6         156.6
    ``upper-bound --mu 0.5 --grid-n 400``                  29.8     29.8          29.9
    ``upper-bound --mu 0.5 --grid-n 1000000000000``        29.9     29.9          29.9
    ``verify --mu 0.5 --seed 7``                           43.5     43.2          43.4
    ===================================================  ======  =======  ============

    A usage error or ``--help`` ends inside argparse with ``SystemExit``,
    which passes through ``run`` and leaves the usual way.
    """
    gc.disable()
    _keep_heap()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                code = code or EXIT_IO
    os._exit(code)


if __name__ == "__main__":
    run()
