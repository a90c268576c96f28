"""The expected-revenue functional and its pointwise Lagrangian integrand.

For a signal CDF G and a continuous reserve CDF H with density H', truthful
expected revenue equals

    L(G, H) = integral over [0, 1] of
              (1 - G(x)^2) [x H'(x) + H(x)]  -  H(x) 2 G(x)(1 - G(x)) dx,

obtained from the order statistics of two independent signals.

``revenue_functional`` integrates it in one composite Simpson pass on the
geometric grid of ``quadrature.build_edges``, which starts 40 octaves below
the smallest kink.  For the solved pair that kink is ``a`` and the integrand
lives on the scale of ``a``, so the error is relative: 1.8e-13 at mu = 0.5,
at most 2.7e-9 for mu in [1e-9, 1 - 1e-6] (rounding in 1 - G near 1).

Subtracting a multiplier times the mean constraint turns the integrand into
a quadratic in G(x) whose leading coefficient H(x) - x H'(x) is strictly
positive for the solved reserve; its clamped vertex recovers the worst-case
signal CDF point by point.  The first-order construction also forces the
reserve CDF to solve

    (x - a) H'(x) + (a/x) H(x) = lambda / 2,

which ``check_ode`` verifies residually.
"""

from __future__ import annotations

import numpy as np

from .constants import SolvedConstants, reserve_cdf, reserve_pdf
from .distributions import PiecewiseCdf
from .errors import DomainError
from .quadrature import build_edges, composite_simpson

__all__ = ["revenue_functional", "check_ode"]


def _h_atom_check(h_dist: PiecewiseCdf) -> None:
    for loc, mass in h_dist.atoms:
        if loc > 0.0 and mass > 0.0:
            raise DomainError(
                "reserve distribution may not carry atoms in (0, 1]; "
                f"found mass {mass} at {loc}"
            )


def _revenue_integrand(g, h, xhp):
    """(1 - G^2)(x H' + H) - 2 H G (1 - G) from G, H and x H' at the same points."""
    return (1.0 - g * g) * (xhp + h) - h * 2.0 * g * (1.0 - g)


def _lagrangian(g, h, xhp, lam_w):
    """(H - xH') G^2 + (lam w - 2H) G + xH' + H - lam w: the revenue integrand
    less the multiplier ``lam_w`` = lam * w times the constraint term w (1 - G)."""
    return (h - xhp) * g * g + (lam_w - 2.0 * h) * g + xhp + h - lam_w


def revenue_functional(g_dist: PiecewiseCdf, h_dist: PiecewiseCdf) -> float:
    """Expected truthful revenue of the reserve ``h_dist`` under signals ``g_dist``.

    One composite Simpson pass over the geometric grid of
    ``quadrature.build_edges``, split exactly at both CDFs' kinks and at the
    atoms of G.  An atom of G at 1 enters only through the left limits of the
    CDF values on [0, 1), which the panel rule uses at right edges.  The
    reserve must be atomless on (0, 1] (an atom at 0 is allowed).
    """
    _h_atom_check(h_dist)
    kinks = set(g_dist.breakpoints) | set(h_dist.breakpoints)
    kinks |= {loc for loc, _ in g_dist.atoms}

    def integrand(x: np.ndarray) -> np.ndarray:
        g = np.asarray(g_dist.cdf(x))
        h = np.asarray(h_dist.cdf(x))
        xhp = np.zeros_like(x)
        pos = x > 0.0
        xhp[pos] = x[pos] * np.asarray(h_dist.pdf(x[pos]))
        return _revenue_integrand(g, h, xhp)

    return composite_simpson(integrand, build_edges(kinks))


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
