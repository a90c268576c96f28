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

The midpoint grid keeps the kink of s(z) at 1 - a off the nodes.

The two bidders are alike, so the LP is solved for bidder 1's half alone,
with bidder 2's cells the transpose of bidder 1's: an optimum of the full
LP averaged with its bidder-swapped mirror is a symmetric optimum (proof in
``lp_max_revenue``).  That leaves n^2 + 2n columns, n(n+1)/2 + 3n - 2
inequality rows and n equality rows, against 2n^2 + 4n, n^2 + 6n - 4 and 2n
for both bidders, and the same optimum.
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

    Over both bidders the LP has the cellwise allocations q1, q2 plus the
    interim allocations Q1, Q2 and payments T1, T2.  Each bidder's (Q, T)
    obeys downward adjacent IC, monotone Q and BIR: 3n - 2 rows, besides
    q1 + q2 <= 1 in every cell.  The monotone rows are explicit because
    every quantile above 1 - a has type value 1, and between tied neighbours
    adjacent IC does not force Q upward; with them, adjacent IC chains to
    every misreport pair.

    Upward adjacent IC, T_j - T_{j-1} >= u_{j-1} (Q_j - Q_{j-1}) for the
    type values u, needs no rows.  Every T_j has a negative cost, and raising
    T_j alone only loosens the downward row out of j, so at every optimum one
    of the two rows that cap T_j binds.  If downward IC into j binds,
    T_j - T_{j-1} = u_j (Q_j - Q_{j-1}) >= u_{j-1} (Q_j - Q_{j-1}), since u
    and Q are nondecreasing.  If BIR at j binds, BIR at j - 1 gives
    T_j - T_{j-1} >= u_j Q_j - u_{j-1} Q_{j-1} >= u_{j-1} (Q_j - Q_{j-1}),
    since Q_j >= 0.  So every optimum of this LP is feasible, and optimal,
    with the rows.

    Only bidder 1's half is solved.  The swap (q1, q2, Q1, Q2, T1, T2) ->
    (q2^T, q1^T, Q2, Q1, T2, T1) maps the feasible set onto itself: it
    exchanges the two bidders' interim rows and the cell rows (j, k) and
    (k, j).  It keeps the objective, the mean of T1 + T2.  The feasible set
    is convex, so the average of any solution and its swap is feasible,
    mirror-symmetric (q2 = q1^T, Q2 = Q1, T2 = T1) and equally good, as in
    Myerson's (1981) symmetric auction.  The LP over symmetric mechanisms
    therefore has the same optimum:

        variables   q (n^2, bidder 1's cells) | Q (n) | T (n), cost -2/n on T
        cells       q[j, k] + q[k, j] <= 1 for j <= k (2 q[j, j] <= 1)
        interim     one bidder's 3n - 2 rows on (Q, T)
        definition  Q_j = mean over k of q[j, k]

    That is n(n+1)/2 + 3n - 2 inequality and n equality rows, against
    n^2 + 6n - 4 and 2n for both bidders.  The mechanism returned has
    q2 = q1.T and t2 = t1.T.

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
    u = s / sigma

    n2 = n * n
    big_q, big_t = n2, n2 + n  # first columns of Q and T
    cost = np.zeros(n2 + 2 * n)
    cost[big_t:] = -2.0 / n  # maximize the mean payment of both bidders

    # Inequality rows, all <= b_ub, as (row, column, value) triples; entries
    # at the same position add up, which gives the diagonal cells their 2.
    j, k = np.triu_indices(n)
    cells = j.size
    types = np.arange(n)
    lo, hi = types[:-1], types[1:]  # adjacent pairs
    ic = cells + lo  # type hi does not report lo
    mono = ic + n - 1  # Q[lo] <= Q[hi]
    bir = cells + 2 * (n - 1) + types  # T <= u Q
    one = np.ones(n)
    entries = [
        (np.arange(cells), j * n + k, np.ones(cells)),
        (np.arange(cells), k * n + j, np.ones(cells)),
        (ic, big_q + hi, -u[1:]),
        (ic, big_q + lo, u[1:]),
        (ic, big_t + hi, one[1:]),
        (ic, big_t + lo, -one[1:]),
        (mono, big_q + hi, -one[1:]),
        (mono, big_q + lo, one[1:]),
        (bir, big_q + types, -u),
        (bir, big_t + types, one),
    ]
    rows, cols, vals = map(np.concatenate, zip(*entries))
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(cells + 3 * n - 2, n2 + 2 * n))
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[:cells] = 1.0

    # interim definitions: Q_j - mean over k of q[j, k] = 0
    a_eq = sparse.csr_matrix(
        (
            np.concatenate([np.full(n2, -1.0 / n), one]),
            (np.concatenate([np.repeat(types, n), types]), np.arange(n2 + n)),
        ),
        shape=(n, n2 + 2 * n),
    )
    b_eq = np.zeros(n)

    bounds = np.zeros((n2 + 2 * n, 2))
    bounds[:big_t, 1] = 1.0
    bounds[big_t:] = (-np.inf, np.inf)
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
    t1 = np.tile(res.x[big_t:, None] * sigma, (1, n))
    mech = DiscreteDirectMechanism(z=z, types=s, q1=q1, q2=q1.T, t1=t1, t2=t1.T)
    return optimum, mech
