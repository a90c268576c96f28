"""Deterministic quadrature helpers.

Two rules:

* ``adaptive_simpson`` -- Lyness's adaptive Simpson rule (J. ACM 16(3),
  1969), run breadth-first over an array of intervals with one vectorised
  integrand call per level.  Its one caller is ``verify``'s independent
  payment oracle, lo H(lo) + integral of t H'(t), over all pairs at once.
* ``composite_simpson`` -- a fixed-panel Simpson rule over an explicit edge
  grid, for functionals whose integrands have known kinks or one-sided
  limits.  Panel contributions are combined by ``exact_sum`` so the result
  does not depend on summation order.  ``build_edges`` lays the grid out
  geometrically, so that its error is relative at every scale.

``exact_sum`` is the package's one exact summation: ``math.fsum`` bit for
bit, from numpy sums.  It extracts error-free levels of the n terms and
stops at the first level after which the residual's plain numpy sum decides
the rounding, as AccSum does (Rump, Ogita & Oishi 2008).  That sum is off by
at most B = n**2 * 2**-52 times 2**-53 sigma, the bound on each residual
term left by a split at sigma; the total is returned once it lies strictly
inside its rounding cell with B to spare on either side.  On terms within a
few dozen binades of each other, the adversary's moments among them, one
level is enough.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = ["adaptive_simpson", "composite_simpson", "build_edges", "exact_sum"]

# Geometric panels per e-fold of x: neighbouring edges differ by the factor
# e^(1/400).  Simpson's error falls as the fourth power of this count; at 400
# it is about 2e-13 relative on the revenue functional (3e-12 at 200).
_PANELS_PER_EFOLD = 400
# Cap on the extraction levels of ``exact_sum``.  Each level takes at least
# 52 - bitlen(n - 1) bits off the residual, and the early exit usually stops
# after the first.
_EXACT_SUM_LEVELS = 40


def exact_sum(t: np.ndarray) -> float:
    """``math.fsum`` of the terms ``t``, bit for bit, from numpy sums.

    Each level splits the residual terms r against sigma = 2**(E + M), where
    max |r| < 2**E and M = bitlen(n - 1) + 1 (Rump, Ogita & Oishi, "Accurate
    floating-point summation, part I", SIAM J. Sci. Comput. 31(1), 2008):
    hi = (r + sigma) - sigma and r - hi are exact, every hi is a multiple of
    2**-53 sigma and the n of them add up to at most sigma / 2 in magnitude,
    so sum(hi) is exact in any order.  The level sums L and the residual
    then add up to the exact total.

    After each level the sum stops early, as AccSum does, once the plain
    numpy sum s of the residual decides the rounding.  Every new residual has
    |r_i| <= 2**-53 sigma, so s, summed in any order, is off by at most
    gamma_(n-1) * n * 2**-53 sigma.  B = n**2 * 2**-105 sigma is about twice
    that, enough to cover rounding n**2 to a double, and since the error is
    a multiple of 2**-1074, B rounded onto the subnormal grid still bounds
    it.  The exact total T thus lies in [L + s - B, L + s + B].  With
    c = fsum(L + [s]) and h+, h- the half-gaps from c up and down to its
    neighbouring doubles, the exact signs

        fsum(L + [s, B, -c, -h+]) < 0  and  fsum(L + [s, -B, -c, h-]) > 0

    put T strictly inside the interval of reals that round to c, so
    ``math.fsum`` of the terms is c.  fsum rounds correctly, rounding keeps
    the sign, and no summand reaches 2**1023, so fsum cannot overflow; a
    half-gap is exact except 2**-1075, which rounds to 0 and so only shrinks
    the interval.  Otherwise, and always where c is zero or non-finite, the
    next level is extracted; the residual stays in one buffer.  Once the
    residual is all zeros the level sums add up to the exact total, which
    ``math.fsum`` rounds correctly.  Non-finite terms, terms so large that
    sigma would overflow, and spreads that need more than _EXACT_SUM_LEVELS
    levels go to ``math.fsum`` itself, which also gives its errors and
    special values.
    """
    terms = np.asarray(t, dtype=float).ravel()
    n = terms.size
    if n == 0:
        return 0.0
    shift = (n - 1).bit_length() + 1
    levels: list[float] = []
    r, hi = terms, np.empty_like(terms)
    for _ in range(_EXACT_SUM_LEVELS):
        r_max, r_min = float(r.max()), float(r.min())
        if not (math.isfinite(r_max) and math.isfinite(r_min)):
            break
        top = max(r_max, -r_min)
        if top == 0.0:
            return math.fsum(levels)
        exponent = math.frexp(top)[1] + shift
        if exponent >= sys.float_info.max_exp:  # sigma would overflow
            break
        sigma = math.ldexp(1.0, exponent)
        np.add(r, sigma, out=hi)
        np.subtract(hi, sigma, out=hi)
        levels.append(float(hi.sum()))
        if r is terms:
            # the first residual takes hi's buffer, leaving the caller's
            # terms as they are; later residuals stay in it
            r, hi = np.subtract(terms, hi, out=hi), None
        else:
            np.subtract(r, hi, out=r)
        s = float(r.sum())
        c = math.fsum(levels + [s])
        if c != 0.0 and math.isfinite(c):
            bound = math.ldexp(float(n * n), exponent - 105)
            away = 0.5 * math.ulp(c)
            toward = 0.5 * (abs(c) - math.nextafter(abs(c), 0.0))
            up, down = (away, toward) if c > 0.0 else (toward, away)
            if (
                math.fsum(levels + [s, bound, -c, -up]) < 0.0
                and math.fsum(levels + [s, -bound, -c, down]) > 0.0
            ):
                return c
        if hi is None:
            hi = np.empty_like(terms)
    return math.fsum(terms)


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float = 1e-9,
    max_depth: int = 60,
):
    """Integrate ``f`` over each ``[lo, hi]`` to absolute tolerance ``tol``.

    Each interval is halved until the two half-interval Simpson sums differ
    from the whole one by at most 15 eps, with eps halved at every split, and
    the Richardson term (S2 - S)/15 is added.  Each tree is then summed
    bottom-up in the order the scalar recursion adds, so every interval gets
    that recursion's result bit for bit.  ``f`` must be vectorised; ``lo``
    and ``hi`` broadcast, a scalar pair gives a float and arrays an array.
    Reversed bounds flip the sign, and ``lo == hi`` gives 0 without
    evaluating ``f``.  Raises ConvergenceError if the depth budget runs out
    while a local error estimate still exceeds its share of ``tol``.
    """
    lo_arr, hi_arr = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    out = np.zeros(lo_arr.shape)
    live = lo_arr != hi_arr
    if live.any():
        a, b = np.minimum(lo_arr, hi_arr)[live], np.maximum(lo_arr, hi_arr)[live]
        m = 0.5 * (a + b)
        fa, fb, fm = np.split(f(np.concatenate((a, b, m))), 3)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        eps = np.full(a.size, float(tol))
        levels = []  # per level: node values, and the nodes that split
        depth = max_depth
        while True:
            lm, rm = 0.5 * (a + m), 0.5 * (m + b)
            flm, frm = np.split(f(np.concatenate((lm, rm))), 2)
            left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
            right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
            delta = left + right - whole
            done = (np.abs(delta) <= 15.0 * eps) | (b - a < 1e-14)
            split = np.flatnonzero(~done)
            levels.append((np.where(done, left + right + delta / 15.0, 0.0), split))
            if split.size == 0:
                break
            if depth <= 0:
                k = split[0]
                raise ConvergenceError(f"adaptive Simpson did not converge on [{a[k]}, {b[k]}]")
            # children: the left halves of the split nodes, then their right halves
            pairs = ((a, m), (lm, rm), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right))
            a, m, b, fa, fm, fb, whole = (np.concatenate((u[split], v[split])) for u, v in pairs)
            eps = np.tile(eps[split] / 2.0, 2)
            depth -= 1
        # a split node is worth (left subtree) + (right subtree), as in the recursion
        below = levels[-1][0]
        for values, split in reversed(levels[:-1]):
            values[split] = below[: split.size] + below[split.size :]
            below = values
        out[live] = below
    out = np.where(hi_arr < lo_arr, -out, out)
    return float(out) if out.ndim == 0 else out


def build_edges(interior_points: Iterable[float] = ()) -> np.ndarray:
    """Sorted unique panel edges on [0, 1]: 0, a geometric grid, and the kinks.

    The geometric part has ``_PANELS_PER_EFOLD`` panels per e-fold from
    ``floor`` to 1, where ``floor`` is 2**-40 times the smallest kink in
    (0, 1), or 2**-40 without one, and at least the smallest normal double.
    The integrands change scale at their smallest kink (the reserve's
    removable point ``a``), so this keeps the grid equally fine in relative
    terms at every mu.  ``interior_points`` in (0, 1) land on panel edges.
    """
    inner = [float(p) for p in interior_points if 0.0 < p < 1.0]
    floor = max(math.ldexp(min(inner, default=1.0), -40), sys.float_info.min)
    n_panels = math.ceil(_PANELS_PER_EFOLD * -math.log(floor))
    parts = [np.array([0.0]), np.geomspace(floor, 1.0, n_panels + 1), np.array(inner)]
    return np.unique(np.concatenate(parts))


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
    f_lo, f_mid, f_hi = np.split(f(np.concatenate((lo, mid, hi_in))), 3)
    panels = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    return exact_sum(panels)
