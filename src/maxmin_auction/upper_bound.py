"""Revenue cap over all incentive-compatible mechanisms, via a quantile LP.

Types are re-indexed by quantile, so both bidders' types are uniform on
[0, 1] and the type value is the signal quantile function s(z) (a/(1-z)
capped at 1).  On a midpoint grid of n quantiles per bidder, the LP

    maximize   mean interim payment of both bidders
    subject to truth-telling beats reporting the next lower type,
               the interim allocation is nondecreasing in the type,
               every type keeps a nonnegative surplus,
               allocations feasible cellwise (q1 + q2 <= 1, each in [0, 1])

bounds what any mechanism can earn against the worst-case signal
distribution.  Adjacent IC with monotone allocation is Myerson's (1981)
characterisation for single-dimensional types: it implies truth-telling
against every misreport with O(n) rows instead of 2n(n-1), and at an optimum
the upward half of adjacent IC holds without rows of its own (see
``lp_max_revenue``).  The monotone
rows are needed explicitly because every quantile above 1 - a has type
value 1, and adjacent IC between tied types leaves their allocations
unordered.  The LP is solved in units of the top grid type, since payments
at small mu would otherwise fall below the solver's absolute tolerances.

The analytic cap is 2a(1-a) + a^2 = 2a - a^2: full allocation to types
above quantile 1 - a earns at most that.

The midpoint grid keeps the kink of s(z) at 1 - a off the nodes.  Symmetry
across bidders is deliberately not imposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SolvedConstants, signal_quantile
from .errors import ConvergenceError, DomainError

__all__ = ["DiscreteDirectMechanism", "lp_max_revenue"]


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

    def to_json_dict(self) -> dict:
        return {
            "z": self.z.tolist(),
            "types": self.types.tolist(),
            "q1": self.q1.tolist(),
            "q2": self.q2.tolist(),
            "t1": self.t1.tolist(),
            "t2": self.t2.tolist(),
        }


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
    downward adjacent IC, monotone Q and BIR: 3n - 2 rows, so the LP has
    n^2 + 6n - 4 inequality and 2n equality rows.  The monotone rows are
    explicit because every quantile above 1 - a has type value 1, and
    between tied neighbours adjacent IC does not force Q upward; with them,
    adjacent IC chains to every misreport pair.

    Upward adjacent IC, T_j - T_{j-1} >= u_{j-1} (Q_j - Q_{j-1}) for the
    type values u, needs no rows.  Every T_j has cost -1/n, and raising T_j alone only loosens the
    downward row out of j, so at every optimum one of the two rows that cap
    T_j binds.  If downward IC into j binds, T_j - T_{j-1} =
    u_j (Q_j - Q_{j-1}) >= u_{j-1} (Q_j - Q_{j-1}), since u and Q are
    nondecreasing.  If BIR at j binds, BIR at j - 1 gives T_j - T_{j-1} >=
    u_j Q_j - u_{j-1} Q_{j-1} >= u_{j-1} (Q_j - Q_{j-1}), since Q_j >= 0.
    So every optimum of this LP is feasible, and optimal, with the rows.

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
    # does not report j), monotone Q, then BIR.
    u = s / sigma
    d = sparse.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n))  # x[j+1] - x[j]
    rows_q = sparse.vstack([-sparse.diags(u[1:]) @ d, -d, -sparse.diags(u)])
    rows_t = sparse.vstack([d, sparse.csr_matrix((n - 1, n)), sparse.eye(n)])

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
