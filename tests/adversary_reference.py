"""Frozen reference for ``adversary.minimize_revenue``: the fixed-step solver.

This is the solver as it stood before the bisection learned to stop early
and to decide the moment comparison from a guarded plain sum: 100 bisection
steps, every moment an exact ``math.fsum``, the argmin rebuilt from its masks
on each call, and the pool-adjacent-violators loop run on every input.  The
optimised solver makes the same decision at every step, so the tests require
its outputs to match these bit for bit.  Not named ``test_*``, so pytest does
not collect it.
"""

import math

import numpy as np

_COEF_TOL = 1e-12
_BISECT_STEPS = 100


def pav_loop(y):
    means, counts = [], []
    for v in y.astype(float):
        means.append(v)
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.empty(y.size)
    pos = 0
    for m, c in zip(means, counts):
        out[pos : pos + c] = m
        pos += c
    return out


def _argmin(lam, h, coef, w):
    g = np.empty_like(h)
    convex = coef > _COEF_TOL
    g[convex] = np.clip(
        (2.0 * h[convex] - lam * w[convex]) / (2.0 * coef[convex]), 0.0, 1.0
    )
    lin = ~convex
    slope = lam * w[lin] - 2.0 * h[lin]
    g[lin] = np.where(slope < 0.0, 1.0, 0.0)
    return g


def minimize_revenue(h_dist, K, constraint, target, tol_mean=1e-9):
    """The fixed-step solver; returns the fields the tests compare."""
    dx = 1.0 / K
    x = (np.arange(K) + 0.5) * dx
    h = np.asarray(h_dist.cdf(x), dtype=float)
    hp = np.asarray(h_dist.pdf(x), dtype=float)
    xhp = x * hp
    coef = h - xhp
    w = np.ones_like(x) if constraint == "mean" else 2.0 * x

    def moment(g):
        return math.fsum((w * (1.0 - g) * dx).tolist())

    lam_lo, lam_hi = 0.0, 2.0 * float(h_dist.cdf(1.0))
    for _ in range(_BISECT_STEPS):
        lam_mid = 0.5 * (lam_lo + lam_hi)
        if moment(_argmin(lam_mid, h, coef, w)) < target:
            lam_lo = lam_mid
        else:
            lam_hi = lam_mid
    lam_hat = 0.5 * (lam_lo + lam_hi)
    g_raw = _argmin(lam_hat, h, coef, w)
    residual = moment(g_raw) - target
    if abs(residual) > tol_mean:
        g_lo = _argmin(lam_lo, h, coef, w)
        g_hi = _argmin(lam_hi, h, coef, w)
        m0, m1 = moment(g_lo), moment(g_hi)
        theta = min(1.0, max(0.0, (target - m0) / (m1 - m0)))
        g_raw = (1.0 - theta) * g_lo + theta * g_hi

    lag_terms = (
        (coef * g_raw * g_raw + (lam_hat * w - 2.0 * h) * g_raw + xhp + h - lam_hat * w)
        * dx
    )
    lagrangian_bound = math.fsum(lag_terms.tolist()) + lam_hat * target
    g_proj = np.clip(pav_loop(g_raw), 0.0, 1.0)
    terms = ((1.0 - g_proj * g_proj) * (xhp + h) - h * 2.0 * g_proj * (1.0 - g_proj)) * dx
    return {
        "values": g_proj,
        "value": math.fsum(terms.tolist()),
        "lambda_hat": lam_hat,
        "constraint_residual": moment(g_proj) - target,
        "projection_delta": float(np.max(np.abs(g_proj - g_raw))),
        "lagrangian_bound": lagrangian_bound,
    }
