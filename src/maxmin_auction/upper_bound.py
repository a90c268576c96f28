"""Revenue caps over all incentive-compatible mechanisms, via two LPs.

``reduced_form_bound`` is the upper bound
-----------------------------------------
The theorem's converse says that no mechanism earns more than g = 2a - a^2
against the worst-case signal law G* (G(x) = 1 - a/x on [a, 1), an atom of
mass a at 1).  ``reduced_form_bound`` witnesses it from above without using
that G* is equal-revenue.  It cuts [a, 1] at the geometric edges e_j = a r^j,
r = (1/a)^(1/n), and rounds each of the n cells of G* up to its right edge;
the atom stays at 1.  The rounded law first-order dominates G*, and with one
good and independent bidders the best revenue is monotone in first-order
dominance (run the dominated law's optimal mechanism on quantile-mapped
reports).  So the optimum of Myerson's (1981) reduced-form LP on these n + 1
types bounds the best revenue against G* from above.  The LP has 3(n + 1)
columns and O(n) nonzeros, and every coefficient is a closed form in r, so it
is scale-free down to subnormal a.  Its optimum is a r (2 - a r): every
posted price e_{j+1} earns a r, so only the two value-1 types have a
positive ironed virtual value.  That exceeds g by about g ln(1/a)/n, so no
fixed n gives a fixed relative gap at every mu: at n = 50 it is 3.1% at
mu = 0.5, 61% at mu = 1e-9 and a factor of about 1e6 at mu = 1e-300.  The
bound it returns is weak duality on HiGHS's marginals, safe against the
solver's tolerances and against the rounding of its own sums, for the LP as
stored; the rounding of that LP's coefficients is not covered.

``lp_max_revenue`` builds the dumped mechanism
----------------------------------------------
It serves only ``upper-bound --dump-mechanism``, which writes an explicit
ex-post mechanism.  Types are re-indexed by quantile, so both bidders' types
are uniform on [0, 1] and the type value is the signal quantile function
s(z) (a/(1-z) capped at 1).  On a midpoint grid of n quantiles per bidder,
the LP

    maximize   mean interim payment of both bidders
    subject to truth-telling beats reporting the next lower type,
               the interim allocation is nondecreasing in the type,
               every type keeps a nonnegative surplus,
               allocations feasible cellwise (q1 + q2 <= 1, each in [0, 1])

is solved for the cells themselves.  Its types neither round up nor down, so
its optimum is no bound on the best revenue against G*; it reads 1.047 g at
mu = 0.5 and 1.98 g at mu = 1e-9 with n = 50.  Adjacent IC with monotone
allocation is Myerson's characterisation for single-dimensional types: it
implies truth-telling against every misreport with O(n) rows instead of
2n(n-1), and at an optimum the upward half of adjacent IC holds without rows
of its own (see ``lp_max_revenue``).  The monotone rows are needed
explicitly because every quantile above 1 - a has type value 1, and adjacent
IC between tied types leaves their allocations unordered.  The LP is solved
in units of the top grid type, since payments at small mu would otherwise
fall below the solver's absolute tolerances.  The midpoint grid keeps the
kink of s(z) at 1 - a off the nodes.

The two bidders are alike, so the LP is solved for bidder 1's half alone,
with bidder 2's cells the transpose of bidder 1's: an optimum of the full
LP averaged with its bidder-swapped mirror is a symmetric optimum (proof in
``lp_max_revenue``).  That leaves n^2 + 2n columns, n(n+1)/2 + 3n - 2
inequality rows and n equality rows, against 2n^2 + 4n, n^2 + 6n - 4 and 2n
for both bidders, and the same optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SolvedConstants, signal_quantile
from .errors import ConvergenceError, DomainError
from .quadrature import exact_sum

__all__ = ["DiscreteDirectMechanism", "ReducedFormBound", "lp_max_revenue", "reduced_form_bound"]

# HiGHS's primal and dual feasibility tolerances for the reduced-form LP, at
# HiGHS's floor.  At the default 1e-7 the solver meets the Border rows of the
# value-1 types, whose right-hand sides lie O(a) below the unit boxes, at the
# boxes instead once a falls below the tolerance (``reduced_form_bound``).
_HIGHS_TOL = 1e-10
# (method, presolve) in the order tried until one succeeds.  Over 3,000
# random (mu, n) pairs the dual simplex without presolve failed a refinement
# step at about 3% of them and the first solve at about 0.1%, mostly near
# mu = 1; presolve or interior point then succeeded but for one step in
# 3,000 (the corner points of tests/test_upper_bound.py).
_HIGHS_SETTINGS = (("highs-ds", False), ("highs-ds", True), ("highs-ipm", False))
# Caps on the scale factors of the refinement steps.  The primal step scales
# its right-hand sides and boxes, and at 2^40 the dual simplex failed on some
# mu near 1 (at 2^20 one point kept a 3.7e-9 excess); the dual step scales
# only its objective.
_MAX_PRIMAL_SCALE = 2.0**30
_MAX_DUAL_SCALE = 2.0**40
_UNIT_ROUNDOFF = 2.0**-53
_LEAST_SUBNORMAL = 2.0**-1074


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


@dataclass(frozen=True)
class ReducedFormBound:
    """Result of ``reduced_form_bound``; revenues are per auction, not per a.

    ``safe_bound`` is the certified upper bound on the LP's optimum, and so on
    the best revenue of any mechanism against the worst-case signal law.
    ``lp_optimum`` is HiGHS's primal value, which the solver's tolerances can
    put on either side of the true optimum.  ``rounded_up_bound`` is the
    LP's exact optimum a r (2 - a r), for comparison only.  ``status`` and
    ``nit`` are HiGHS's.
    """

    lp_optimum: float
    safe_bound: float
    rounded_up_bound: float
    n: int
    status: int
    nit: int


def reduced_form_bound(a: float, n: int) -> ReducedFormBound:
    """Myerson's reduced-form LP on the n geometric cells of [a, 1], rounded up.

    Types k = 0..n-1 are the cells [e_k, e_{k+1}) at value v_k = e_{k+1},
    type n is the atom at 1, and q_k = P(type >= k) = r^-k (q_n = a).  The
    variables, with boxes [0, 1], are the interim allocation Q_k, the scaled
    payment tau_k = T_k / v_k and the Border ratio
    sigma_k = sum over j >= k of p_j Q_j / q_k.  The rows:

        IC / v_hi   Q_lo - Q_hi + tau_hi - (v_lo/v_hi) tau_lo <= 0
        monotone    Q_lo - Q_hi <= 0
        BIR         tau_k - Q_k <= 0
        Border      sigma_k <= 1 - q_k/2
        chain       sigma_k - (p_k/q_k) Q_k - (q_{k+1}/q_k) sigma_{k+1} = 0

    for adjacent types lo = hi - 1, with v_lo/v_hi = q_{k+1}/q_k = 1/r and
    p_k/q_k = 1 - 1/r below the top (1 and 1 at the two value-1 types n - 1
    and n, with no sigma_{n+1}).  The objective is
    2 sum of (p_k v_k / (a r)) tau_k, with weights 1 - 1/r below the top and
    1/r at the atom, so the LP's optimum times a r is the revenue.  Weights
    of r - 1 (revenue per a) reach 1e6 at mu = 1e-300, n = 50, and HiGHS's
    dual errors grow with them.  That is 5n + 3 rows and about 12n nonzeros.

    Border's condition (Border, Econometrica 59(4), 1991) for two symmetric
    bidders is 2 sum over S of p_j Q_j <= 1 - (1 - P(S))^2 for every set S of
    types; once Q is monotone only the upper sets bind, which is the Border
    row times 2 q_k.  Adjacent downward IC with monotone Q gives every
    downward IC pair, and the LP without the upward rows is a relaxation, so
    the bound holds either way (the binding argument in ``lp_max_revenue``
    shows upward IC holds at its optima too).  The boxes keep the optimum:
    tau <= Q <= 1 and 0 <= sigma_k <= 1 hold at every feasible point, and
    tau >= 0 at every optimum by that same binding argument.

    The safe bound is weak duality (Neumaier & Shcherbina, Math. Program.
    99(2), 2004).  With HiGHS's marginals y_ub clipped to <= 0 and y_eq, and
    d = c - A_ub^T y_ub - A_eq^T y_eq, every feasible x has
    c^T x >= y_ub^T b_ub + sum of min(0, d_j) over the unit boxes (b_eq = 0),
    whatever the solver's tolerances; the maximum is minus that, times a r.
    Each d_j is a dot product of at most m = 1 + (column count) terms, so its
    rounding error is at most gamma_m (|c_j| + |A|^T |y|)_j plus m halves of
    the least subnormal (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.1), with gamma_m = m u / (1 - m u); each
    y_k b_k is off by at most u |y_k b_k| plus half the least subnormal.
    Twice those allowances are subtracted as terms of their own, the terms
    are added by ``exact_sum``, and the sum and the products with a r are
    each moved one ulp outward.  The bound holds for the LP as stored, whose
    coefficients are the closed forms in r, each rounded once.

    HiGHS runs at the feasibility tolerances _HIGHS_TOL: the dual simplex
    without presolve, then with it, then interior point, until one succeeds
    (_HIGHS_SETTINGS).  One solve is not enough.  The Border rows of the
    value-1 types (right-hand sides 1 - q/2) lie O(a r) inside the unit boxes
    and their neighbouring rows, and where a r / 2 is below the tolerance
    the solver took those rows as met at the boxes: the primal and the dual
    bound read up to a r / 2 relative high (4e-8 at mu = 1e-6 at HiGHS's
    default 1e-7, 3.2e-11 at mu = 1e-9 at 1e-10).  Near mu = 1 the chain of
    IC rows took up to 1e-10 of slack per row (1e-8 relative at
    1 - mu = 5e-9); with r near 1e9 (n = 10, mu near 1e-90) the reduced
    costs were off by 1e-9, and near mu = 1 the multipliers sat on rows
    that do not bind (3.7e-9).  So each side gets one step of iterative
    refinement (Gleixner, Steffy & Wolter, INFORMS J. Comput. 28(3), 2016),
    a solve whose residuals are scaled up by the power of two that brings
    the largest to about 1, so that the solver's tolerances act on the
    residuals and not on the solution:

    * the primal step is the LP for the step from the first point, with
      right-hand sides and boxes scaled by at most 2^30;
    * the dual step is the LP with the refined multipliers y priced in: the
      inequality rows become equalities with slack columns t >= 0, the cost
      is (c - A^T y) on x and -y on t, both scaled by at most 2^40.  On the
      feasible set that cost is c^T x less a constant, so its optimum is the
      LP's, and its multipliers, divided by the scale, correct y; the slack
      prices let a multiplier shrink to 0 but not change sign.

    The dual step alone, priced from the first solve's marginals, is not
    enough: near mu = 1 its bound read up to 6.8e-9 above a r (2 - a r) and
    the first solve's primal 3.9e-8 off.  If a step fails, the bounds of the
    solves before it stand; the safe bound is the least of them.  Measured over about 5,000 (mu, n) pairs
    with n in {10, 25, 50, 64, 150}, and 8 at n = 1000: the primal is within
    1.1e-12 of a r (2 - a r) (within 1e-15 at most points), and the safe
    bound at most 7.3e-11 above it.  The three solves take about 20 ms at
    n = 50 and up to 2.3 s at n = 1000.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"the atom a must lie in (0, 1), got {a}")
    if n < 1:
        raise DomainError(f"the reduced-form LP needs at least 1 cell, got {n}")
    t = math.log(a) / n  # ln(1/r); r = exp(-t) never overflows, unlike (1/a)**(1/n)
    r = math.exp(-t)
    lp = _ReducedFormLp.build(t, n)
    no_eq = np.zeros(n + 1)

    first = lp.solve(lp.cost, lp.b_ub, no_eq, (0.0, 1.0))
    # the primal step: the LP for the step from the first point
    x0 = first.x
    slack_ub = lp.b_ub - lp.a_ub @ x0
    slack_eq = -(lp.a_eq @ x0)
    scale = _refinement_scale(-slack_ub, abs(slack_eq), -x0, x0 - 1.0, cap=_MAX_PRIMAL_SCALE)
    try:
        final = lp.solve(
            lp.cost,
            scale * slack_ub,
            scale * slack_eq,
            np.column_stack((-scale * x0, scale * (1.0 - x0))),
        )
    except ConvergenceError:
        final, x, nit = first, x0, first.nit  # the first solve's bound still holds
    else:
        x, nit = x0 + final.x / scale, first.nit + final.nit
    # the dual step: the LP with the refined multipliers priced in
    y_ub = np.minimum(final.ineqlin.marginals, 0.0)
    y_eq = final.eqlin.marginals
    duals = [(first.ineqlin.marginals, first.eqlin.marginals), (y_ub, y_eq)]
    reduced = lp.cost - lp.a_ub.T @ y_ub - lp.a_eq.T @ y_eq
    violation = np.concatenate((-reduced[x < 1.0 - _HIGHS_TOL], reduced[x > _HIGHS_TOL]))
    dual_scale = _refinement_scale(violation, cap=_MAX_DUAL_SCALE)
    try:
        step = lp.solve_priced(dual_scale * reduced, -dual_scale * y_ub)
    except ConvergenceError:
        pass  # the bounds of the solves before it still hold
    else:
        nit += step.nit
        rows = lp.b_ub.size
        z = step.eqlin.marginals / dual_scale
        duals.append((y_ub + z[:rows], y_eq + z[rows:]))

    dual_value = max(lp.dual_bound(y_ub, y_eq) for y_ub, y_eq in duals)
    return ReducedFormBound(
        lp_optimum=-float(lp.cost @ x) * (a * r),
        safe_bound=math.nextafter(-dual_value * math.nextafter(a * r, math.inf), math.inf),
        rounded_up_bound=a * r * (2.0 - a * r),
        n=n,
        status=int(final.status),
        nit=int(nit),
    )


@dataclass(frozen=True)
class _ReducedFormLp:
    """``reduced_form_bound``'s LP in scipy's form: minimize cost^T x subject
    to a_ub x <= b_ub, a_eq x = 0 and the unit boxes; columns Q | tau | sigma."""

    cost: np.ndarray
    a_ub: "sparse.csr_matrix"
    b_ub: np.ndarray
    a_eq: "sparse.csr_matrix"
    border: np.ndarray  # the rows of a_ub that carry Border's condition

    @classmethod
    def build(cls, t: float, n: int) -> "_ReducedFormLp":
        """The LP on n cells, from t = ln(1/r) = ln(a)/n."""
        from scipy import sparse

        inv_r = math.exp(t)
        big_n = n + 1
        k = np.arange(big_n)
        lo, hi = k[:-1], k[1:]
        big_t, big_s = big_n, 2 * big_n  # first columns of tau and sigma
        ratio = np.full(n, inv_r)  # v_lo / v_hi
        ratio[-1] = 1.0  # the top cell and the atom both have value 1
        ic, mono = lo, n + lo
        bir = 2 * n + k
        border = 2 * n + big_n + k
        one = np.ones(big_n)
        entries = [
            (ic, lo, one[:-1]),
            (ic, hi, -one[:-1]),
            (ic, big_t + hi, one[:-1]),
            (ic, big_t + lo, -ratio),
            (mono, lo, one[:-1]),
            (mono, hi, -one[:-1]),
            (bir, big_t + k, one),
            (bir, k, -one),
            (border, big_s + k, one),
        ]
        rows, cols, vals = map(np.concatenate, zip(*entries))
        a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(2 * n + 2 * big_n, 3 * big_n))
        b_ub = np.zeros(a_ub.shape[0])
        b_ub[border] = 1.0 - 0.5 * np.exp(k * t)  # 1 - q_k/2

        share = np.full(big_n, -math.expm1(t))  # p_k / q_k
        share[-1] = 1.0
        entries = [(k, big_s + k, one), (k, k, -share), (lo, big_s + hi, np.full(n, -inv_r))]
        rows, cols, vals = map(np.concatenate, zip(*entries))
        a_eq = sparse.csr_matrix((vals, (rows, cols)), shape=(big_n, 3 * big_n))

        cost = np.zeros(3 * big_n)
        cost[big_t:big_s] = 2.0 * math.expm1(t)  # -2 (1 - 1/r)
        cost[big_s - 1] = -2.0 * inv_r
        return cls(cost, a_ub, b_ub, a_eq, border)

    def solve(self, objective, rhs_ub, rhs_eq, bounds):
        """The LP with this objective, right-hand sides and boxes."""
        return _highs(objective, A_ub=self.a_ub, b_ub=rhs_ub, A_eq=self.a_eq, b_eq=rhs_eq, bounds=bounds)

    def solve_priced(self, reduced: np.ndarray, slack_cost: np.ndarray):
        """The LP as equalities, a_ub x + t = b_ub and a_eq x = 0, with slack
        columns t >= 0 of cost ``slack_cost`` and cost ``reduced`` on x."""
        from scipy import sparse

        rows, cols = self.a_ub.shape
        a_eq = sparse.vstack(
            (
                sparse.hstack((self.a_ub, sparse.identity(rows, format="csr"))),
                sparse.hstack((self.a_eq, sparse.csr_matrix((self.a_eq.shape[0], rows)))),
            ),
            format="csr",
        )
        bounds = np.zeros((cols + rows, 2))
        bounds[:cols, 1] = 1.0
        bounds[cols:, 1] = np.inf
        return _highs(
            np.concatenate((reduced, slack_cost)),
            A_eq=a_eq,
            b_eq=np.concatenate((self.b_ub, np.zeros(self.a_eq.shape[0]))),
            bounds=bounds,
        )

    def dual_bound(self, y_ub: np.ndarray, y_eq: np.ndarray) -> float:
        """Weak duality on the multipliers y_ub (clipped to <= 0) and y_eq: a
        lower bound on the minimum, rounding-safe (``reduced_form_bound``)."""
        a_ub, a_eq = self.a_ub, self.a_eq
        y_ub = np.minimum(y_ub, 0.0)
        reduced = self.cost - a_ub.T @ y_ub - a_eq.T @ y_eq
        size = abs(self.cost) + abs(a_ub).T @ abs(y_ub) + abs(a_eq).T @ abs(y_eq)
        m = 1 + int(np.max(a_ub.getnnz(axis=0) + a_eq.getnnz(axis=0)))
        gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
        border_terms = y_ub[self.border] * self.b_ub[self.border]
        terms = (
            np.minimum(reduced, 0.0),
            -(2.0 * gamma * size + m * _LEAST_SUBNORMAL),
            border_terms,
            -(2.0 * _UNIT_ROUNDOFF * abs(border_terms) + _LEAST_SUBNORMAL),
        )
        return math.nextafter(exact_sum(np.concatenate(terms)), -math.inf)


def _highs(objective, **lp):
    """``linprog`` under each of _HIGHS_SETTINGS until one succeeds."""
    for method, presolve in _HIGHS_SETTINGS:
        res = linprog(
            objective,
            **lp,
            method=method,
            options={
                "presolve": presolve,
                "primal_feasibility_tolerance": _HIGHS_TOL,
                "dual_feasibility_tolerance": _HIGHS_TOL,
            },
        )
        if res.success:
            return res
    raise ConvergenceError(f"LP solver failed: {res.message}")


def _refinement_scale(*violations: np.ndarray, cap: float) -> float:
    """The power of two, in [1, cap], that brings the largest violation up to
    about 1; ``cap`` when nothing is violated."""
    worst = max(float(v.max(initial=0.0)) for v in violations)
    if worst <= 0.0:
        return cap
    return min(cap, max(1.0, math.ldexp(1.0, -math.frexp(worst)[1])))


def _quantile_grid(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def lp_max_revenue(c: SolvedConstants, n: int) -> tuple[float, DiscreteDirectMechanism]:
    """Solve the midpoint cell LP; returns (optimum, mechanism).

    It exists only for ``upper-bound --dump-mechanism``: its optimum is no
    bound (see the module docstring), and ``reduced_form_bound`` is the
    upper bound.

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
