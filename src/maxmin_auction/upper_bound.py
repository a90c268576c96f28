"""Revenue cap over all incentive-compatible mechanisms, via a quantile LP.

Types are re-indexed by quantile, so both bidders' types are uniform on
[0, 1] and the type value is the signal quantile function s(z) (a/(1-z)
capped at 1).  On a midpoint grid of n quantiles per bidder, the LP

    maximize   mean interim payment of both bidders
    subject to truth-telling beats reporting either neighbouring type,
               the interim allocation is nondecreasing in the type,
               every type keeps a nonnegative surplus,
               allocations feasible cellwise (q1 + q2 <= 1, each in [0, 1])

bounds what any mechanism can earn against the worst-case signal
distribution.  Adjacent IC with monotone allocation is Myerson's (1981)
characterisation for single-dimensional types: it implies truth-telling
against every misreport with O(n) rows instead of 2n(n-1).  The monotone
rows are needed explicitly because every quantile above 1 - a has type
value 1, and adjacent IC between tied types leaves their allocations
unordered.  The LP is solved in units of the top grid type, since payments
at small mu would otherwise fall below the solver's absolute tolerances.

The analytic cap is 2a(1-a) + a^2 = 2a - a^2: full allocation to types
above quantile 1 - a earns at most that, and the truthful auction
discretized to the same grid attains it up to discretization error.

The midpoint grid keeps the kink of s(z) at 1 - a off the nodes.  Symmetry
across bidders is deliberately not imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SolvedConstants, reserve_cdf, signal_quantile
from .errors import ConvergenceError, DomainError
from .mechanism import winner_payment

__all__ = [
    "DiscreteDirectMechanism",
    "lp_max_revenue",
    "analytic_bound",
    "discretize_truthful_mechanism",
    "truthful_interim_allocation",
    "bic_bir_violations",
]


@dataclass(frozen=True)
class DiscreteDirectMechanism:
    """Allocations and payments on the quantile midpoint grid.

    ``q1[j, k]`` is bidder 1's allocation when bidder 1 has type index j and
    bidder 2 type index k; payments follow the same layout.
    """

    z: np.ndarray
    types: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    @property
    def n(self) -> int:
        return self.z.size

    def interim(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Interim allocations and payments (Q1, Q2, T1, T2) per own type."""
        return (
            self.q1.mean(axis=1),
            self.q2.mean(axis=0),
            self.t1.mean(axis=1),
            self.t2.mean(axis=0),
        )

    def expected_revenue(self) -> float:
        return float(self.t1.mean() + self.t2.mean())

    def to_json_dict(self) -> dict:
        return {
            "z": self.z.tolist(),
            "types": self.types.tolist(),
            "q1": self.q1.tolist(),
            "q2": self.q2.tolist(),
            "t1": self.t1.tolist(),
            "t2": self.t2.tolist(),
        }


def analytic_bound(c: SolvedConstants) -> float:
    """The closed-form revenue cap 2a(1-a) + a^2, simplified to 2a - a^2.

    Evaluated exactly as the guarantee is, so the two are bitwise equal.
    """
    return 2.0 * c.a - c.a * c.a


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    A module-level name, so that callers and tests can rebind it, while
    ``import maxmin_auction`` stays free of ``scipy.optimize``.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _quantile_grid(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def lp_max_revenue(c: SolvedConstants, n: int) -> tuple[float, DiscreteDirectMechanism]:
    """Solve the discretized revenue-maximization LP; returns (optimum, mechanism).

    Variables are the cellwise allocations q1, q2 plus the interim
    allocations Q1, Q2 and payments T1, T2.  Each bidder's (Q, T) obeys
    downward and upward adjacent IC, monotone Q and BIR: 4n - 3 rows, so
    the LP has n^2 + 8n - 6 inequality and 2n equality rows.  The monotone
    rows are explicit because every quantile above 1 - a has type value 1,
    and between tied neighbours adjacent IC does not force Q upward;
    with them, adjacent IC chains to every misreport pair.

    The LP is homogeneous of degree one in the type values, so it is solved
    with ``s / s.max()`` and the optimum and payments are scaled back.  This
    keeps small-mu payments above the solver's absolute tolerances; the
    scale is 1 whenever a >= 1/(2n).  ``types`` stays the true ``s``, and
    ex-post payments in the returned mechanism are constant in the
    opponent's type.
    """
    from scipy import sparse

    if n < 10:
        raise DomainError(f"quantile grid needs at least 10 points, got {n}")
    z = _quantile_grid(n)
    s = signal_quantile(c, z)
    sigma = float(s.max())

    n2 = n * n
    # variable layout: q1 (n^2) | q2 (n^2) | Q1 (n) | Q2 (n) | T1 (n) | T2 (n)
    cost = np.zeros(2 * n2 + 4 * n)
    cost[2 * n2 + 2 * n :] = -1.0 / n  # maximize mean payments

    # interim definitions: Q_i(own) - mean over opponent of q_i = 0
    mean_row = np.full((1, n), 1.0 / n)
    eye = sparse.eye(n)
    a_eq = sparse.hstack(
        [
            -sparse.block_diag([sparse.kron(eye, mean_row), sparse.kron(mean_row, eye)]),
            sparse.eye(2 * n),
            sparse.csr_matrix((2 * n, 2 * n)),
        ],
        format="csr",
    )
    b_eq = np.zeros(2 * n)

    # One bidder's rows on (Q, T), all <= 0: downward adjacent IC (type j+1
    # does not report j), upward adjacent IC (type j does not report j+1),
    # monotone Q, then BIR.
    u = s / sigma
    d = sparse.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n))  # x[j+1] - x[j]
    rows_q = sparse.vstack(
        [-sparse.diags(u[1:]) @ d, sparse.diags(u[:-1]) @ d, -d, -sparse.diags(u)]
    )
    rows_t = sparse.vstack([d, -d, sparse.csr_matrix((n - 1, n)), sparse.eye(n)])

    # cellwise q1 + q2 <= 1, then both bidders' interim rows
    pair = sparse.eye(2)
    cells = sparse.eye(n2)
    a_ub = sparse.bmat(
        [
            [cells, cells, None, None],
            [None, None, sparse.kron(pair, rows_q), sparse.kron(pair, rows_t)],
        ],
        format="csr",
    )
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[:n2] = 1.0

    bounds = [(0.0, 1.0)] * (2 * n2 + 2 * n) + [(None, None)] * (2 * n)
    # The saddle leaves the objective flat over a large optimal face; the
    # simplex variant crawls on that degeneracy while interior point with
    # crossover stays fast and still returns a vertex certificate.
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs-ipm",
    )
    if not res.success:
        raise ConvergenceError(f"LP solver failed: {res.message}")
    optimum = -float(res.fun) * sigma

    q1 = res.x[:n2].reshape(n, n)
    q2 = res.x[n2 : 2 * n2].reshape(n, n)
    t1_interim, t2_interim = res.x[2 * n2 + 2 * n :].reshape(2, n) * sigma
    mech = DiscreteDirectMechanism(
        z=z,
        types=s,
        q1=q1,
        q2=q2,
        t1=np.tile(t1_interim[:, None], (1, n)),
        t2=np.tile(t2_interim[None, :], (n, 1)),
    )
    return optimum, mech


def truthful_interim_allocation(c: SolvedConstants, z: np.ndarray) -> np.ndarray:
    """Interim allocation of the truthful auction under the worst-case signals.

    A type at quantile z < 1-a beats the opponent with probability z and then
    wins with probability H(s(z)); the top types (value 1) win outright
    against lower types and split the unit reserve-free allocation at ties:
    Q = (1 - a) + a/2.
    """
    z = np.asarray(z, dtype=float)
    s = signal_quantile(c, z)
    low = z < 1.0 - c.a
    return np.where(low, z * reserve_cdf(c, s), 1.0 - c.a / 2.0)


def discretize_truthful_mechanism(c: SolvedConstants, n: int) -> DiscreteDirectMechanism:
    """The truthful auction restricted to the quantile midpoint grid."""
    z = _quantile_grid(n)
    s = signal_quantile(c, z)
    s1 = s[:, None]
    s2 = s[None, :]
    h = reserve_cdf(c, s)
    h1 = h[:, None]
    h2 = h[None, :]
    pay_hi_1 = winner_payment(c, s1, s2)  # winner 1 pays this
    pay_hi_2 = pay_hi_1.T
    win1 = s1 > s2
    win2 = s2 > s1
    tie = ~win1 & ~win2
    q1 = np.where(win1, h1, np.where(tie, h1 / 2.0, 0.0))
    q2 = np.where(win2, h2, np.where(tie, h2 / 2.0, 0.0))
    t1 = np.where(win1, pay_hi_1, np.where(tie, s1 * h1 / 2.0, 0.0))
    t2 = np.where(win2, pay_hi_2, np.where(tie, s2 * h2 / 2.0, 0.0))
    return DiscreteDirectMechanism(z=z, types=s, q1=q1, q2=q2, t1=t1, t2=t2)


def bic_bir_violations(mech: DiscreteDirectMechanism) -> dict:
    """Worst-case violations of the LP constraints for a given mechanism.

    Returns the largest BIC gain from a misreport, the largest negative
    surplus (BIR), and the largest cellwise allocation excess; all are <= 0
    up to tolerance for a feasible mechanism.
    """
    s = mech.types
    Q1, Q2, T1, T2 = mech.interim()
    worst_bic = -math.inf
    for Q, T in ((Q1, T1), (Q2, T2)):
        truthful = s * Q - T
        deviate = s[:, None] * Q[None, :] - T[None, :]
        gain = deviate - truthful[:, None]
        np.fill_diagonal(gain, -math.inf)
        worst_bic = max(worst_bic, float(gain.max()))
    worst_bir = float(max(-(s * Q1 - T1).min(), -(s * Q2 - T2).min()))
    worst_feas = float((mech.q1 + mech.q2).max() - 1.0)
    return {
        "max_bic_gain": worst_bic,
        "max_bir_violation": worst_bir,
        "max_feasibility_excess": worst_feas,
    }
