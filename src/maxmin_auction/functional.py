"""The expected-revenue functional and its pointwise Lagrangian integrand.

For a signal CDF G and a continuous reserve CDF H with density H', truthful
expected revenue equals

    L(G, H) = integral over [0, 1] of
              (1 - G(x)^2) [x H'(x) + H(x)]  -  H(x) 2 G(x)(1 - G(x)) dx,

obtained from the order statistics of two independent signals.  Subtracting a
multiplier times the mean constraint turns the integrand into a quadratic in
G(x) whose leading coefficient H(x) - x H'(x) is strictly positive for the
solved reserve; its clamped vertex recovers the worst-case signal CDF point
by point.  The first-order construction also forces the reserve CDF to solve

    (x - a) H'(x) + (a/x) H(x) = lambda / 2,

which ``check_ode`` verifies residually.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SolvedConstants, reserve_cdf, reserve_pdf
from .distributions import PiecewiseCdf
from .errors import DomainError
from .quadrature import build_edges, composite_simpson

__all__ = [
    "FunctionalValue",
    "revenue_functional",
    "lagrangian_integrand",
    "check_ode",
]

# Base panel count and the local refinement factor around reserve kinks.
_N_PANELS = 10_000
_REFINE_FACTOR = 100
_REFINE_HALFWIDTH = 0.01


@dataclass(frozen=True)
class FunctionalValue:
    """Value of the revenue functional with its two integral terms."""

    value: float
    first_term: float
    second_term: float


def _h_atom_check(h_dist: PiecewiseCdf) -> None:
    for loc, mass in h_dist.atoms:
        if loc > 0.0 and mass > 0.0:
            raise DomainError(
                "reserve distribution may not carry atoms in (0, 1]; "
                f"found mass {mass} at {loc}"
            )


def _edges_for(g_dist: PiecewiseCdf, h_dist: PiecewiseCdf) -> np.ndarray:
    interior = set(g_dist.breakpoints) | set(h_dist.breakpoints)
    interior |= {loc for loc, _ in g_dist.atoms if 0.0 < loc < 1.0}
    windows = []
    # Refine around the removable point of the analytic reserve and around
    # the origin, where x H'(x) behaves like x log x.
    for p in h_dist.breakpoints:
        windows.append((p - _REFINE_HALFWIDTH, p + _REFINE_HALFWIDTH, _REFINE_FACTOR))
    if h_dist.kind in ("reserve", "custom"):
        windows.append((0.0, _REFINE_HALFWIDTH, _REFINE_FACTOR))
    return build_edges(_N_PANELS, interior, windows)


def revenue_functional(g_dist: PiecewiseCdf, h_dist: PiecewiseCdf) -> FunctionalValue:
    """Expected truthful revenue of the reserve ``h_dist`` under signals ``g_dist``.

    Composite Simpson over a panel grid that splits exactly at both CDFs'
    kinks and atoms, with local refinement around the reserve's removable
    point.  An atom of G at 1 enters only through the left limits of the CDF
    values on [0, 1), which the panel rule uses at right edges.  The reserve
    must be atomless on (0, 1] (an atom at 0 is allowed).
    """
    _h_atom_check(h_dist)
    edges = _edges_for(g_dist, h_dist)

    def first(x: np.ndarray) -> np.ndarray:
        g = np.asarray(g_dist.cdf(x))
        h = np.asarray(h_dist.cdf(x))
        xhp = np.zeros_like(x)
        pos = x > 0.0
        xhp[pos] = x[pos] * np.asarray(h_dist.pdf(x[pos]))
        return (1.0 - g * g) * (xhp + h)

    def second(x: np.ndarray) -> np.ndarray:
        g = np.asarray(g_dist.cdf(x))
        h = np.asarray(h_dist.cdf(x))
        return h * 2.0 * g * (1.0 - g)

    first_term = composite_simpson(first, edges)
    second_term = composite_simpson(second, edges)
    return FunctionalValue(
        value=first_term - second_term,
        first_term=first_term,
        second_term=second_term,
    )


def lagrangian_integrand(g_val: float, x: float, c: SolvedConstants) -> float:
    """Pointwise multiplier-adjusted integrand as a quadratic in the CDF value.

    I(g, x) = [H - xH'] g^2 - 2[H + (1-a)/ln a] g + H + xH' + 2(1-a)/ln a,

    evaluated with the solved reserve's closed forms.  Defined for
    x in (0, 1) \\ {a} and g in [0, 1].
    """
    if x in (0.0, 1.0) or x == c.a:
        raise DomainError(f"integrand undefined at x = {x}")
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    if not 0.0 <= g_val <= 1.0:
        raise DomainError(f"CDF value must lie in [0, 1], got {g_val}")
    h = reserve_cdf(c, x)
    xhp = x * reserve_pdf(c, x)
    neg_h_at_a = -c.h_at_a  # (1 - a)/ln a
    return (
        (h - xhp) * g_val * g_val
        - 2.0 * (h + neg_h_at_a) * g_val
        + h
        + xhp
        + 2.0 * neg_h_at_a
    )


def check_ode(c: SolvedConstants, x):
    """Residual |(x - a) H'(x) + (a/x) H(x) - lambda/2| of the reserve ODE.

    Vectorised: a scalar ``x`` gives a float, an array an array.
    """
    arr = np.asarray(x, dtype=float)
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise DomainError(f"x must lie in (0, 1], got {x}")
    out = np.abs(
        (arr - c.a) * reserve_pdf(c, arr)
        + (c.a / arr) * reserve_cdf(c, arr)
        - c.lam / 2.0
    )
    return float(out) if arr.ndim == 0 else out
