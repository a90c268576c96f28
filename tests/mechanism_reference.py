"""Reference checks for the mechanism that ``upper_bound.lp_max_revenue``
writes.

``bic_bir_violations`` checks a mechanism on a discrete type law against
every misreport pair, not only the adjacent ones the reduced-form LP imposes.
``myerson_revenue`` is the exact optimal revenue from two bidders with
independent types drawn from a discrete law (Myerson 1981, with ironing), so
the revenue of an optimal mechanism on those types must equal it.  Not named
``test_*``, so pytest does not collect it.
"""

import math

import numpy as np
from scipy.optimize import isotonic_regression


def bic_bir_violations(mech) -> dict:
    """Worst-case violations of BIC, BIR and ex-post feasibility.

    The interim allocations and payments are the opponent's expectations
    under ``mech.masses``.  Returns the largest BIC gain from any misreport,
    the largest negative surplus (BIR), and the largest cellwise allocation
    excess; all are <= 0 up to tolerance for a feasible mechanism.
    """
    s, p = mech.types, mech.masses
    Q1, Q2 = mech.q1 @ p, p @ mech.q2
    T1, T2 = mech.t1 @ p, p @ mech.t2
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


def myerson_revenue(values, masses) -> float:
    """Optimal expected revenue from two i.i.d. bidders with a discrete value law.

    Equal values are merged.  With q_j = P(V >= v_j), the virtual values are
    phi_j = (v_j q_j - v_{j+1} q_{j+1}) / p_j; ironed by the mass-weighted
    isotonic regression, the revenue is the expected positive part of the
    larger ironed value, sum max(phi_j, 0) (F_j^2 - F_{j-1}^2).
    """
    v, inverse = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    p = np.bincount(inverse, weights=np.broadcast_to(masses, inverse.shape))
    q = np.cumsum(p[::-1])[::-1]
    vq = np.append(v * q, 0.0)
    phi = isotonic_regression((vq[:-1] - vq[1:]) / p, weights=p).x
    cdf = np.cumsum(p)
    below = np.append(0.0, cdf[:-1])
    return float(np.sum(np.maximum(phi, 0.0) * (cdf * cdf - below * below)))
