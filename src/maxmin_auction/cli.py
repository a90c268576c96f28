"""Command-line front door.

Every command is a pure function of its flags (plus any input files): output
is machine-readable JSON on stdout (CSV files for ``curves``), floats are
printed with 12 significant digits, and repeated runs are byte-identical.

Exit codes: 0 success; 1 a verification check failed; 2 invalid input or
domain error, a size too large to allocate included; 3 an iterative routine
failed to converge; 4 file I/O error.
Only ``verify`` and ``simulate`` draw random numbers, so only they take
``--seed``; for them the environment variable ``MAXMIN_SEED`` supplies the
seed when ``--seed`` is absent.  A seed must be an integer in [0, 2**128), or
the exit code is 2.  The other commands never read ``MAXMIN_SEED``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import errno
import gc
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
    ModelParams,
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
    if math.isnan(v):
        return "null"
    if math.isinf(v):
        raise ValueError("cannot serialise infinity")
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
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialise {type(obj)}")


def _emit(command: str, payload: dict) -> None:
    """Print ``payload`` as JSON under the schema version and command name."""
    if sys.stdout is None:  # the process started with descriptor 1 closed
        raise OSError(errno.EBADF, "stdout is closed")
    header = {"schema": SCHEMA_VERSION, "command": command}
    sys.stdout.write(dump_json({**header, **payload}) + "\n")


def _constants(args: argparse.Namespace) -> SolvedConstants:
    if args.mu is None:
        raise DomainError("this command requires --mu")
    return solve_a(ModelParams(mu=args.mu))


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
            PiecewiseCdf.uniform(),
            None,
            args.grid_k,
            constraint="second-moment",
            target=args.delta,
        )
        payload = {
            "delta": args.delta,
            "constraint": "second-moment",
        }
    else:
        c = _constants(args)
        reserve = args.reserve or "optimal"
        h_dist = _reserve_distribution(reserve, c)
        result = adv.minimize_revenue(h_dist, ModelParams(mu=c.mu), args.grid_k)
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
    bound = ub.reduced_form_bound(c.a, args.grid_n)
    payload = {
        "mu": c.mu,
        "n": args.grid_n,
        "lp_optimum": bound.lp_optimum,
        "analytic_bound": c.revenue_guarantee,
        "gap": bound.lp_optimum - c.revenue_guarantee,
        "safe_bound": bound.safe_bound,
        "rounded_up_bound": bound.rounded_up_bound,
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
# How far the LP's safe bound may lie above its exact optimum, relative; the
# excess is the rounding allowance of the closed-form certificate, which grows
# as n: measured at most 6.5e-13 at n = 50 and 1.25e-11 at n = 1000, both near
# mu = 1 (``upper_bound.reduced_form_bound``).
_LP_BOUND_RTOL = 1e-9


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


def run_verification(args: argparse.Namespace) -> dict:
    """Execute every cross-check and return a JSON-ready report.

    ``lp_upper_bound`` certifies the converse: ``safe_bound`` caps the
    revenue of every mechanism against the worst-case signal law, from the
    reduced-form LP on ``--grid-n`` geometric cells of [a, 1] plus the atom
    at 1 (``upper_bound.reduced_form_bound``).  It passes iff
    g <= safe_bound <= a r (2 - a r) (1 + 1e-9), r = (1/a)^(1/n), compared
    in units of a r (``ReducedFormBound.certifies``), since a subnormal a r
    rounds its products: sound for the LP as stored, and no looser than the
    LP allows.  That LP's coefficients (r, 1 - 1/r, q_k and 1 - q_k/2) are
    closed forms, rounded, so it belongs to a law a few ulps from the
    rounded-up one, and the LP's margin above g (at least 4e-12 relative for
    mu <= 1 - 1e-9 and n <= 1000) is what covers that rounding.  The gap
    above g is about g ln(1/a)/n; at the default n = 50 it is 3.1% of g at
    mu = 0.5, 61% at 1e-9 and 3.3 g at 1e-30, so below about mu = 1e-30 the
    check certifies no fixed relative gap.
    """
    if args.n_samples < 2:
        # one sample has no standard error, so mc_vs_quadrature has no verdict
        raise DomainError(f"verify needs --samples of at least 2, got {args.n_samples}")
    c = _constants(args)
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

    saddle = adv.verify_pointwise_saddle(c, args.grid_k)
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

    report = mech.mc_revenue(c, g_bar, args.n_samples, args.seed, tail_weighted=True)
    mc_gap = abs(report.value - quad)
    record(
        "mc_vs_quadrature",
        mc_gap <= 3.0 * report.std_error,
        value=mc_gap,
        std_error=report.std_error,
    )

    result = adv.minimize_revenue(h_bar, ModelParams(mu=c.mu), args.grid_k)
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

    bound = ub.reduced_form_bound(c.a, args.grid_n)
    record(
        "lp_upper_bound",
        bound.certifies(c.revenue_guarantee, _LP_BOUND_RTOL),
        lp_optimum=bound.lp_optimum,
        analytic_bound=c.revenue_guarantee,
        safe_bound=bound.safe_bound,
        rounded_up_bound=bound.rounded_up_bound,
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

    pay_worst = _payment_identity_worst_gap(c, args.seed, 100)
    record("payment_identity", pay_worst <= 1e-6, value=pay_worst)

    return {
        "mu": c.mu,
        "seed": args.seed,
        "n_samples": args.n_samples,
        "checks": checks,
        "all_passed": all(ch["passed"] for ch in checks),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(args)
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
    seed_arg.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: MAXMIN_SEED)")

    sub.add_parser("solve", parents=[mu_arg], help="solve the reserve parameter and constants")

    p = sub.add_parser("verify", parents=[mu_arg, seed_arg], help="run the full invariant suite")
    p.add_argument("--samples", type=int, default=100_000, dest="n_samples")
    p.add_argument("--grid-k", type=int, default=500)
    p.add_argument("--grid-n", type=int, default=50)

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


def _env_seed() -> int:
    raw = os.environ.get("MAXMIN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"MAXMIN_SEED must be an integer, got {raw!r}") from None


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
        if "seed" in args and args.seed is None:
            args.seed = _env_seed()
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
    teardown of the ~790 modules a cold ``verify`` loads: 39 ms of a 0.38 s
    ``verify --mu 0.5 --seed 7`` on a 2-vCPU VM (3 ms from ``main``'s return
    to exit without it).  Nothing that teardown would finish is pending:

    - every file is written inside a ``with`` block, closed before ``main``
      returns;
    - the Monte Carlo thread pool is joined when its ``with`` block ends;
    - ``main`` flushes stdout itself, so a failed write exits 4 with one
      line; ``run`` flushes both streams once more, and a flush that fails
      here only repeats a failure that ``main`` has already reported;
    - the package registers no ``atexit`` handler and does no logging, so
      ``logging.shutdown``, which its dependencies register, has nothing
      to flush.

    The cyclic collector is off for the whole run.  Its passes cost about
    20 ms while the scipy imports build their ~50k objects.  Garbage in
    cycles is not freed without it, and the package leaves none that counts
    (the table below).

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

    Peak RSS as run, with the heap trimmed (collector off) and with the
    collector on (heap kept), median of 5 cold runs (10 for ``verify`` and
    for ``upper-bound --grid-n 400``, whose runs fall about 1 MB apart on
    any side), 2-vCPU VM:

    ==============================================  ======  =======  ============
    run                                             as run  trimmed  collector on
    ==============================================  ======  =======  ============
    ``simulate --mu 0.5 --samples 60000000``          65.4     65.2          65.3
    ``adversary --mu 0.5 --grid-k 4000000``          244.0    244.0         244.1
    ``upper-bound --mu 0.5 --grid-n 400``             86.2     86.3          86.0
    ``upper-bound --mu 0.5 --grid-n 1000``            97.8     95.5          97.5
    ``verify --mu 0.5 --seed 7``                      82.0     82.0          81.8
    ==============================================  ======  =======  ============

    Only ``upper-bound --grid-n 1000`` peaks higher with the heap kept, by
    2.3 MB that it frees before its peak and glibc used to give back.

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
