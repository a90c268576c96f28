"""Frozen reference for ``PiecewiseCdf.from_grid``: the pair form.

This is the constructor as it stood when it took the atoms as (location,
mass) pairs: a dict from location to mass, one ``np.searchsorted`` per atom
onto the completed knots, and an error for an atom that is not on a knot.
The column form must build the same law bit for bit from pairs on distinct
knots, or reject the same input.  Two rules were added to both forms since:
a completed left value in (-1e-9, 0) is stored as 0, and a nonzero atom at
knot 0 that differs from F(0) by more than 1e-9 is rejected.  Not named
``test_*``, so pytest does not collect it.
"""

import math

import numpy as np

from maxmin_auction import DomainError, PiecewiseCdf

_VAL_TOL = 1e-9


def from_grid_pairs(knots, values, atoms=()):
    x = np.asarray(knots, dtype=float).copy()
    v = np.asarray(values, dtype=float).copy()
    if x.ndim != 1 or x.shape != v.shape or x.size < 1:
        raise DomainError("knots and values must be equal-length 1-d arrays")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise DomainError("knots and values must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise DomainError("knots must be strictly increasing")
    if x[0] < 0.0 or x[-1] > 1.0:
        raise DomainError("knots must lie in [0, 1]")
    if np.any(v < -_VAL_TOL) or np.any(v > 1.0 + _VAL_TOL):
        raise DomainError("CDF values must lie in [0, 1]")
    v = np.clip(v, 0.0, 1.0)

    mass = {float(loc): float(m) for loc, m in atoms if m != 0.0}
    if not all(math.isfinite(m) and m > 0.0 for m in mass.values()):
        raise DomainError("atom masses must be finite and nonnegative")

    if x[0] > 0.0:
        first_left = max(v[0] - mass.get(float(x[0]), 0.0), 0.0)
        x = np.concatenate(([0.0], x))
        v = np.concatenate(([first_left], v))
        if first_left > 0.0:
            mass[0.0] = first_left + mass.get(0.0, 0.0)
    elif v[0] > 0.0:
        given = mass.get(0.0, 0.0)
        if given != 0.0 and abs(given - v[0]) > _VAL_TOL:
            raise DomainError(f"the atom {given} at 0 must equal F(0) = {v[0]}, since F(0-) = 0")
        mass[0.0] = v[0]
    if x[-1] < 1.0:
        deficit = 1.0 - v[-1]
        x = np.concatenate((x, [1.0]))
        v = np.concatenate((v, [1.0]))
        if deficit > 0.0:
            mass[1.0] = deficit + mass.get(1.0, 0.0)
    if abs(v[-1] - 1.0) > _VAL_TOL:
        raise DomainError(f"CDF must reach 1 at x = 1, got {v[-1]}")
    v[-1] = 1.0

    m = np.zeros_like(v)
    for loc, mm in mass.items():
        idx = np.searchsorted(x, loc)
        if idx >= x.size or x[idx] != loc:
            raise DomainError(f"atom at {loc} does not coincide with a knot")
        m[idx] = mm

    left = v - m
    if np.any(left[1:] < v[:-1] - _VAL_TOL) or np.any(left < -_VAL_TOL):
        raise DomainError("CDF values (net of atoms) must be nondecreasing")

    return PiecewiseCdf(
        kind="grid",
        knots=x,
        values=v,
        masses=m,
        atoms=tuple((float(x[i]), float(m[i])) for i in np.nonzero(m)[0]),
        breakpoints=tuple(float(t) for t in x[1:-1]),
    )
