"""Benchmark inputs and the benchmark's own reference checks.

A workload is a fixed sequence of CLI operations (argv lists) drawn from the
workload seed.  The checks recompute what they need from scratch -- the root
of a(1 - ln a) = mu by bisection in ``math`` -- so a wrong answer from the
package cannot also pass its own check.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Tolerances of the reference checks.
GUARANTEE_RTOL = 1e-9  # printed guarantees carry 12 significant digits
ECHO_RTOL = 1e-11
ADV_GAP_TOL = 2e-3
MC_SE_TOL = 5.0  # |simulate - reference| in standard errors; 3 would flake 0.3%


def ub_gap_tol(n: int) -> float:
    """The stated O(1/n) discretisation budget of the quantile-grid LP."""
    return max(0.02, 1.2 / n)


def reference_a(mu: float) -> float:
    """Root in (0, 1) of a(1 - ln a) = mu, by bisection on t = ln a.

    The map t -> e^t (1 - t) is increasing on (-inf, 0], so 200 halvings of
    [-60, 0] pin t to the last bit for every mu down to about 1e-24.
    """
    lo, hi = -60.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(mid) * (1.0 - mid) < mu:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def reference_guarantee(mu: float) -> float:
    a = reference_a(mu)
    return 2.0 * a - a * a


@dataclass
class Operation:
    """One cold CLI invocation plus what its output is checked against."""

    argv: list[str]
    label: str
    out_rows: int | None = None  # data rows expected in the --out CSV


@dataclass
class Workload:
    name: str
    ops: list[Operation]
    files: dict[str, str] = field(default_factory=dict)  # inputs written before the run


def _fmt(x: float) -> str:
    return format(x, ".10g")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# Strata of mu for verify-sweep: (label, kind, lo, hi).  "log" draws mu
# log-uniformly, "lin" uniformly, "log1m" draws 1 - mu log-uniformly.  Every
# stratum lies on one side of a known outcome boundary, so the same
# operations fail for every seed:
#   * at mu <= 2e-9 the revenue quadrature is far from the truth and
#     ``mc_vs_quadrature`` fails for all but about 1 seed in 500; between
#     2e-9 and about 2e-4 it fails for some seeds only, because the Monte
#     Carlo standard error is itself heavy-tailed there, so no stratum draws
#     from that band;
#   * above mu = 0.99918 (a > 0.96) the adversary window in ``verify`` is
#     empty and the command dies with a traceback; no stratum straddles it.
VERIFY_STRATA = (
    ("low-tail", "log", 1e-9, 2e-9),
    ("small", "log", 3e-4, 3e-3),
    ("low", "log", 3e-3, 3e-2),
    ("mid-low", "lin", 0.03, 0.2),
    ("mid", "lin", 0.2, 0.5),
    ("mid-high", "lin", 0.5, 0.8),
    ("high", "lin", 0.8, 0.998),
    ("high-tail", "log1m", 1e-7, 1e-4),
)

CERTIFY_GRID_N = 64
CERTIFY_GRID_K = 400_000
SIMULATE_SAMPLES = 10_000_000
SIMULATE_OPS = 3


def _draw(rng: random.Random, kind: str, lo: float, hi: float) -> float:
    if kind == "log":
        return _log_uniform(rng, lo, hi)
    if kind == "log1m":
        return 1.0 - _log_uniform(rng, lo, hi)
    return rng.uniform(lo, hi)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def verify_sweep(rng: random.Random, work: Path) -> Workload:
    ops = [
        Operation(["verify", "--mu", _fmt(_draw(rng, kind, lo, hi)), "--seed", _seed(rng)], label)
        for label, kind, lo, hi in VERIFY_STRATA
    ]
    return Workload("verify-sweep", ops)


def mps_prior_csv(mu: float, weight: float, knots: int) -> str:
    """CSV of w*S + (1-w)*B, a mean-preserving spread of the worst-case signal G.

    S spreads the mass of G on each cell [x_k, x_{k+1}] of a grid over [a, 1]
    onto the cell's two ends, keeping the cell mean, and keeps G's atom of
    mass a at 1.  B is the two-point prior on {0, 1} with mean mu.  Both are
    mean-preserving spreads of G, hence so is their mixture, and its mean is
    mu.  The result is a pure step CDF written with explicit atoms.
    """
    a = reference_a(mu)
    xs = [a * (1.0 / a) ** (k / knots) for k in range(knots + 1)]  # geometric on [a, 1]
    xs[-1] = 1.0
    mass = [0.0] * (knots + 1)
    for k in range(knots):
        x0, x1 = xs[k], xs[k + 1]
        cell = a / x0 - a / x1  # G(x1-) - G(x0)
        right = (a * math.log(x1 / x0) - x0 * cell) / (x1 - x0)
        mass[k] += cell - right
        mass[k + 1] += right
    mass[-1] += a
    points = [0.0] + xs
    masses = [(1.0 - weight) * (1.0 - mu)] + [weight * m for m in mass]
    masses[-1] += (1.0 - weight) * mu
    lines = ["x,F,atom_mass"]
    cdf = 0.0
    for x, m in zip(points, masses):
        cdf += m
        lines.append(f"{x:.17g},{min(cdf, 1.0):.17g},{m:.17g}")
    return "\n".join(lines) + "\n"


def certify_fine(rng: random.Random, work: Path) -> Workload:
    def mu() -> str:
        return _fmt(rng.uniform(0.3, 0.7))

    k = str(CERTIFY_GRID_K)
    minimizer = str(work / "minimizer.csv")
    prior = work / "prior.csv"
    ops = [
        Operation(["upper-bound", "--mu", mu(), "--grid-n", str(CERTIFY_GRID_N)], "lp"),
        Operation(
            ["adversary", "--mu", mu(), "--grid-k", k, "--reserve", "optimal", "--out", minimizer],
            "adversary-optimal",
            out_rows=CERTIFY_GRID_K,
        ),
        Operation(["adversary", "--mu", mu(), "--grid-k", k, "--reserve", "linear-ramp"], "adversary-ramp"),
        Operation(["adversary", "--delta", mu(), "--grid-k", k], "adversary-second-moment"),
    ]
    prior_mu = float(mu())
    weight = rng.uniform(0.2, 0.8)
    ops.append(Operation(["mps-check", "--mu", _fmt(prior_mu), "--prior", str(prior)], "mps"))
    return Workload("certify-fine", ops, files={str(prior): mps_prior_csv(prior_mu, weight, 256)})


def simulate_large(rng: random.Random, work: Path) -> Workload:
    ops = [
        Operation(
            ["simulate", "--mu", _fmt(rng.uniform(0.2, 0.8)), "--samples", str(SIMULATE_SAMPLES), "--seed", _seed(rng)],
            f"simulate-{i}",
        )
        for i in range(SIMULATE_OPS)
    ]
    return Workload("simulate-large", ops)


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "certify-fine": certify_fine,
    "simulate-large": simulate_large,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload's operations; the same (name, seed) gives the same inputs."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), work)


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #


@dataclass
class Verdict:
    """Reasons an output is wrong (empty when it passed) and the accuracy it showed."""

    reasons: list[str] = field(default_factory=list)
    ub_gap: float | None = None
    adv_gap: float | None = None
    mc_rel_se: float | None = None


def flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_output(op: Operation, out: dict) -> Verdict:
    """Check one parsed JSON output against the benchmark's reference."""
    v = Verdict()
    argv = op.argv
    command = argv[0]
    if out.get("command") != command:
        v.reasons.append(f"command field {out.get('command')!r}")
        return v
    mu_arg = flag(argv, "--mu")
    ref = None
    if mu_arg is not None:
        mu = float(mu_arg)
        ref = reference_guarantee(mu)
        if not _close(out["mu"], mu, ECHO_RTOL):
            v.reasons.append(f"mu echoed as {out['mu']}")

    def guarantee(got: float, what: str) -> None:
        if not _close(got, ref, GUARANTEE_RTOL):
            v.reasons.append(f"{what} {got} != reference {ref:.12g}")

    if command == "verify":
        checks = {c["name"]: c for c in out["checks"]}
        lp = checks["lp_upper_bound"]
        n = int(flag(argv, "--grid-n") or 50)  # verify's default LP grid
        v.ub_gap = lp["lp_optimum"] - lp["analytic_bound"]
        v.adv_gap = checks["adversary_minimum"]["value_gap"]
        guarantee(lp["analytic_bound"], "analytic_bound")
        guarantee(checks["dominated_below_guarantee"]["revenue_guarantee"], "revenue_guarantee")
        if abs(v.ub_gap) > ub_gap_tol(n):
            v.reasons.append(f"ub_gap {v.ub_gap:.3g} > {ub_gap_tol(n):.3g}")
        if v.adv_gap > ADV_GAP_TOL:
            v.reasons.append(f"adv_gap {v.adv_gap:.3g} > {ADV_GAP_TOL}")
        if out["all_passed"] is not True:
            failing = [c["name"] for c in out["checks"] if not c["passed"]]
            v.reasons.append("all_passed false: " + ", ".join(failing))
    elif command == "upper-bound":
        n = int(flag(argv, "--grid-n"))
        v.ub_gap = out["lp_optimum"] - out["analytic_bound"]
        guarantee(out["analytic_bound"], "analytic_bound")
        if out["n"] != n:
            v.reasons.append(f"n echoed as {out['n']}")
        if abs(v.ub_gap) > ub_gap_tol(n):
            v.reasons.append(f"ub_gap {v.ub_gap:.3g} > {ub_gap_tol(n):.3g}")
    elif command == "adversary":
        delta = flag(argv, "--delta")
        if delta is not None:
            target = float(delta)
        else:
            guarantee(out["revenue_guarantee"], "revenue_guarantee")
            target = ref
        v.adv_gap = abs(out["value"] - target)
        if v.adv_gap > ADV_GAP_TOL:
            v.reasons.append(f"adv_gap {v.adv_gap:.3g} > {ADV_GAP_TOL}")
        if out["grid_size"] != int(flag(argv, "--grid-k")):
            v.reasons.append(f"grid_size echoed as {out['grid_size']}")
    elif command == "simulate":
        n = int(flag(argv, "--samples"))
        se = out["std_error"]
        if out["n_samples"] != n:
            v.reasons.append(f"n_samples echoed as {out['n_samples']}")
        if not se > 0.0:
            v.reasons.append(f"std_error {se}")
        elif abs(out["value"] - ref) > MC_SE_TOL * se:
            v.reasons.append(f"value {out['value']} is {abs(out['value'] - ref) / se:.1f} SE from {ref:.12g}")
        else:
            v.mc_rel_se = se / out["value"]
    elif command == "mps-check":
        if out["passed"] is not True:
            v.reasons.append(f"mean-preserving spread rejected (max_violation {out['max_violation']})")
    return v


def check_out_csv(path: str, rows: int) -> list[str]:
    """The --out CSV has the x,F header and one row per grid point."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            count = sum(1 for line in fh if line.strip())
    except OSError as exc:
        return [f"--out file: {exc}"]
    reasons = []
    if header != "x,F":
        reasons.append(f"--out header {header!r}")
    if count != rows:
        reasons.append(f"--out has {count} rows, expected {rows}")
    return reasons


def parse_output(stdout: str) -> dict:
    out = json.loads(stdout)
    if not isinstance(out, dict):
        raise ValueError("output is not a JSON object")
    return out
