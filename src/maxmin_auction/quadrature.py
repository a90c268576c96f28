"""Deterministic quadrature helpers.

Two rules:

* ``adaptive_simpson`` -- classic recursive Simpson with Richardson error
  control, for scalar integrals of smooth functions.  Its one caller is
  ``verify``'s independent payment oracle, lo H(lo) + integral of t H'(t),
  which checks the closed-form ``mechanism.winner_payment``.
* ``composite_simpson`` -- a fixed-panel Simpson rule over an explicit edge
  grid, for functionals whose integrands have known kinks or one-sided
  limits.  Panel contributions are combined with ``math.fsum`` so the result
  does not depend on summation order.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = ["adaptive_simpson", "composite_simpson", "build_edges"]


def adaptive_simpson(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
    max_depth: int = 60,
) -> float:
    """Integrate ``f`` over ``[lo, hi]`` to absolute tolerance ``tol``.

    Uses the standard Simpson bisection with the |S2 - S|/15 error estimate.
    Raises ConvergenceError if the recursion depth budget is exhausted while
    the local error estimate still exceeds its share of ``tol``.
    """
    if lo == hi:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0

    def simpson(a: float, fa: float, b: float, fb: float) -> tuple[float, float, float]:
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, eps, depth):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps or b - a < 1e-14:
            return left + right + delta / 15.0
        if depth <= 0:
            raise ConvergenceError(
                f"adaptive Simpson did not converge on [{a}, {b}] "
                f"(remaining error estimate {abs(delta) / 15.0:.3e})"
            )
        return recurse(a, fa, m, fm, lm, flm, left, eps / 2.0, depth - 1) + recurse(
            m, fm, b, fb, rm, frm, right, eps / 2.0, depth - 1
        )

    fa, fb = f(lo), f(hi)
    m, fm, whole = simpson(lo, fa, hi, fb)
    return sign * recurse(lo, fa, hi, fb, m, fm, whole, tol, max_depth)


def build_edges(
    n_panels: int,
    interior_points: Iterable[float] = (),
    refine_windows: Iterable[tuple[float, float, int]] = (),
) -> np.ndarray:
    """Sorted unique panel edges on [0, 1].

    ``interior_points`` are inserted exactly (kinks and atom locations land on
    panel boundaries).  Each ``(lo, hi, factor)`` refine window is subdivided
    ``factor`` times finer than the base grid.
    """
    parts = [np.linspace(0.0, 1.0, n_panels + 1)]
    for p in interior_points:
        if 0.0 < p < 1.0:
            parts.append(np.array([p]))
    h = 1.0 / n_panels
    for lo, hi, factor in refine_windows:
        lo, hi = max(0.0, lo), min(1.0, hi)
        if hi <= lo:
            continue
        count = max(2, int(round((hi - lo) / h * factor)) + 1)
        parts.append(np.linspace(lo, hi, count))
    edges = np.unique(np.concatenate(parts))
    # Collapse edges closer than float resolution allows.
    keep = np.concatenate(([True], np.diff(edges) > 1e-15))
    return edges[keep]


def composite_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float] | np.ndarray,
) -> float:
    """Composite Simpson over the given edge grid.

    ``f`` must accept a numpy array.  The right edge of every panel is
    evaluated one float step inward (``nextafter``) so that integrands that
    are only right-continuous -- CDFs with atoms -- are integrated with their
    left limits at panel boundaries, which is the Lebesgue-correct value.
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    hi_in = np.nextafter(hi, lo)
    f_lo = f(lo)
    f_mid = f(mid)
    f_hi = f(hi_in)
    panels = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    return math.fsum(panels.tolist())
