"""CDFs on [0, 1] with explicit atoms.

One container covers the three kinds the package needs:

* ``signal``   -- the analytic worst-case signal CDF (unit-elastic body with
  an atom at 1), with its exact integral, moments and quantile;
* ``grid``     -- a right-continuous piecewise-linear CDF given by knots,
  values and explicit atom masses (adversary iterates, user CSV input,
  discrete priors, and the uniform reserve of the second-moment variant,
  the two-knot grid through (0, 0) and (1, 1));
* ``custom``   -- vectorised callables with no integral: the analytic
  reserve-price CDF and its variants that differ from it below ``a``.

Atoms are carried explicitly, never smeared into the linear parts: the value
stored at a knot is the right limit, and the left limit is value minus atom
mass.  CSV round-trips use the column layout ``x, F, atom_mass`` with a
mandatory header.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import constants as cf
from .constants import _as_array, _check_unit_interval
from .errors import DomainError
from .quadrature import exact_sum

__all__ = ["PiecewiseCdf", "read_cdf_csv", "write_cdf_csv"]

_VAL_TOL = 1e-9
_CSV_BLOCK_ROWS = 65536


@dataclass(frozen=True)
class PiecewiseCdf:
    """A distribution on [0, 1]; see module docstring for the supported kinds."""

    kind: str
    constants: "cf.SolvedConstants | None" = None
    knots: np.ndarray | None = None
    values: np.ndarray | None = None
    masses: np.ndarray | None = None
    cdf_fn: Callable[[np.ndarray], np.ndarray] | None = None
    pdf_fn: Callable[[np.ndarray], np.ndarray] | None = None
    atoms: tuple[tuple[float, float], ...] = ()
    breakpoints: tuple[float, ...] = ()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def reserve(cls, c: "cf.SolvedConstants") -> "PiecewiseCdf":
        """The analytic reserve-price CDF for solved constants ``c``, a
        ``custom`` law like its zero-atom and linear-ramp variants.

        The callables look ``cf.reserve_cdf`` and ``cf.reserve_pdf`` up at
        each call, so a later rebinding of those names (the tracer in
        ``perfbench/trace_child.py``) reaches them.
        """
        return cls.custom(
            cdf_fn=lambda x: cf.reserve_cdf(c, x),
            pdf_fn=lambda x: cf.reserve_pdf(c, x),
            breakpoints=(c.a,),
        )

    @classmethod
    def signal(cls, c: "cf.SolvedConstants") -> "PiecewiseCdf":
        """The analytic worst-case signal CDF: atom of mass ``a`` at 1."""
        return cls(
            kind="signal",
            constants=c,
            atoms=((1.0, c.a),),
            breakpoints=(c.a,),
        )

    @classmethod
    def uniform(cls) -> "PiecewiseCdf":
        """The identity CDF on [0, 1]: the two-knot grid, whose one segment
        gives back ``x``, slope 1 and ``x*x/2`` exactly."""
        return cls.from_grid((0.0, 1.0), (0.0, 1.0))

    @classmethod
    def from_grid(
        cls,
        knots: Sequence[float],
        values: Sequence[float],
        atoms: Sequence[tuple[float, float]] = (),
    ) -> "PiecewiseCdf":
        """Piecewise-linear CDF through ``(knots, values)`` with explicit atoms.

        Values are right limits; every atom location must coincide with a
        knot.  If the grid does not reach 0 or 1 it is completed with constant
        extensions: the value left of the first knot becomes an atom at 0, and
        any deficit below 1 becomes an atom at 1.
        """
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

        # Complete the support to [0, 1].
        if x[0] > 0.0:
            first_left = v[0] - mass.get(float(x[0]), 0.0)
            x = np.concatenate(([0.0], x))
            v = np.concatenate(([first_left], v))
            if first_left > 0.0:
                mass[0.0] = first_left + mass.get(0.0, 0.0)
        elif v[0] > 0.0:
            # F(0-) = 0, so the full value at the origin is an atom there.
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

        atoms = tuple((float(x[i]), float(m[i])) for i in np.nonzero(m)[0])
        interior = tuple(float(t) for t in x[1:-1])
        return cls(
            kind="grid",
            knots=x,
            values=v,
            masses=m,
            atoms=atoms,
            breakpoints=interior,
        )

    @classmethod
    def from_discrete(
        cls, points: Sequence[float], masses: Sequence[float]
    ) -> "PiecewiseCdf":
        """Purely atomic distribution supported on ``points`` with ``masses``."""
        pts = np.asarray(points, dtype=float)
        ms = np.asarray(masses, dtype=float)
        if pts.shape != ms.shape or pts.ndim != 1 or pts.size == 0:
            raise DomainError("points and masses must be equal-length 1-d arrays")
        order = np.argsort(pts)
        pts, ms = pts[order], ms[order]
        if abs(ms.sum() - 1.0) > _VAL_TOL:
            raise DomainError("masses must sum to 1")
        vals = np.cumsum(ms)
        vals[-1] = 1.0
        return cls.from_grid(pts, vals, atoms=tuple(zip(pts.tolist(), ms.tolist())))

    @classmethod
    def custom(
        cls,
        cdf_fn: Callable[[np.ndarray], np.ndarray],
        pdf_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        atoms: Sequence[tuple[float, float]] = (),
        breakpoints: Sequence[float] = (),
    ) -> "PiecewiseCdf":
        """Wrap vectorised callables as a CDF object.

        It has no integral, so ``integral_to`` and ``mean`` raise DomainError.
        """
        return cls(
            kind="custom",
            cdf_fn=cdf_fn,
            pdf_fn=pdf_fn,
            atoms=tuple(atoms),
            breakpoints=tuple(breakpoints),
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def cdf(self, x):
        """Right-continuous CDF value at ``x`` (scalar or array)."""
        arr, scalar = _as_array(x)
        _check_unit_interval(arr, "CDF argument")
        if self.kind == "signal":
            out = cf.signal_cdf(self.constants, arr)
        elif self.kind == "custom":
            out = self.cdf_fn(arr)
        else:
            out = self._grid_cdf(arr)
        out = np.asarray(out, dtype=float)
        return float(out) if scalar else out

    def _segment(self, arr: np.ndarray) -> np.ndarray | int:
        """Index of the grid segment [x_i, x_{i+1}) holding each point; the last
        segment also holds x = 1.  A one-segment grid (the uniform law) gives
        the scalar 0, so its callers index scalars instead of gathering the
        same element at every point, with the same bits."""
        x = self.knots
        if x.size == 2:
            return 0
        return np.clip(np.searchsorted(x, arr, side="right") - 1, 0, x.size - 2)

    def _grid_cdf(self, arr: np.ndarray) -> np.ndarray:
        x, v, m = self.knots, self.values, self.masses
        idx = self._segment(arr)
        left_val = v[idx]
        right_left_limit = v[idx + 1] - m[idx + 1]
        width = x[idx + 1] - x[idx]
        frac = (arr - x[idx]) / width
        out = left_val + frac * (right_left_limit - left_val)
        return np.where(arr >= 1.0, 1.0, out)

    def pdf(self, x):
        """Density of the continuous part at ``x``; 0 where the CDF is flat.

        For grid CDFs this is the right-continuous segment slope.  Atom
        locations carry no density.  A ``custom`` CDF has the density of its
        ``pdf_fn``; one without it, and the ``signal`` kind, raise
        DomainError.
        """
        arr, scalar = _as_array(x)
        _check_unit_interval(arr, "density argument")
        if self.kind == "grid":
            idx = self._segment(arr)
            slope = self._grid_segments()[2]
            out = slope[idx] if np.ndim(idx) else np.full(arr.shape, slope[idx])
        elif self.pdf_fn is None:
            raise DomainError(f"this {self.kind} CDF has no density available")
        else:
            out = self.pdf_fn(arr)
        out = np.asarray(out, dtype=float)
        return float(out) if scalar else out

    def integral_to(self, x):
        """Exact integral of the CDF from 0 to ``x`` (scalar or array).

        A ``custom`` CDF has none and raises DomainError.
        """
        arr, scalar = _as_array(x)
        _check_unit_interval(arr, "integral bound")
        if self.kind == "signal":
            a = self.constants.a
            gated = np.maximum(arr, a)
            out = np.where(arr <= a, 0.0, gated - a - a * np.log(gated / a))
        elif self.kind == "custom":
            raise DomainError("a custom CDF has no integral available")
        else:
            out = self._grid_integral(arr)
        out = np.asarray(out, dtype=float)
        return float(out) if scalar else out

    def _grid_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment (width, left value, slope) of the linear parts."""
        x, v, m = self.knots, self.values, self.masses
        width = np.diff(x)
        left = v[:-1]
        slope = (v[1:] - m[1:] - left) / width
        return width, left, slope

    def _grid_integral(self, arr: np.ndarray) -> np.ndarray:
        x = self.knots
        width, left, slope = self._grid_segments()
        seg_int = width * left + 0.5 * slope * width * width
        cum = np.concatenate(([0.0], np.cumsum(seg_int)))
        idx = self._segment(arr)
        t = arr - x[idx]
        return cum[idx] + left[idx] * t + 0.5 * slope[idx] * t * t

    def mean(self) -> float:
        """E[X] = integral of (1 - F) over [0, 1], exact per kind.

        A grid CDF integrates 1 - F piece by piece and adds the pieces with
        ``exact_sum``, so a small mean keeps its relative accuracy; 1 minus
        the integral of F would lose it to cancellation.
        """
        if self.kind == "signal":
            return self.constants.mu
        if self.kind == "custom":
            raise DomainError("a custom CDF has no integral available")
        width, left, slope = self._grid_segments()
        return exact_sum(width * (1.0 - left) - 0.5 * slope * width * width)

    def second_moment(self) -> float:
        """E[X^2] = 2 * integral of x(1 - F(x)), exact for the grid and
        signal kinds; DomainError for ``custom``."""
        if self.kind == "grid":
            x = self.knots
            width, left, slope = self._grid_segments()
            p, q = x[:-1], x[1:]
            # integral of t*F(t) over each linear segment, in closed form
            int_xf = left * (q * q - p * p) / 2.0 + slope * (
                (q**3 - p**3) / 3.0 - p * (q * q - p * p) / 2.0
            )
            return 1.0 - 2.0 * exact_sum(int_xf)
        if self.kind == "signal":
            return self.constants.revenue_guarantee
        raise DomainError(f"no second moment available for a {self.kind} CDF")

    def quantile(self, u):
        """Generalised inverse: least x with F(x) >= u; u = 0 maps to the
        infimum of the support.  Vectorised."""
        arr, scalar = _as_array(u)
        _check_unit_interval(arr, "quantile level")
        if self.kind == "signal":
            out = cf.signal_quantile(self.constants, arr)
        elif self.kind == "grid":
            out = self._grid_quantile(arr)
        else:
            out = self._bisect_quantile(arr)
        out = np.asarray(out, dtype=float)
        return float(out) if scalar else out

    def _grid_quantile(self, u: np.ndarray) -> np.ndarray:
        x, v, m = self.knots, self.values, self.masses
        left = v - m
        # the infimum of the support: the knot where F leaves 0, or the one
        # before it where F leaves 0 continuously
        first = int(np.searchsorted(v, 0.0, side="right"))
        if first > 0 and left[first] > 0.0:
            first -= 1
        # first knot whose right value reaches u; levels at or below F(0) get
        # index 0 and the infimum of the support (u = 0 alone where F(0) = 0)
        idx = np.clip(np.searchsorted(v, u, side="left"), 0, x.size - 1)
        at_atom = u > left[idx]
        prev = np.clip(idx - 1, 0, x.size - 1)
        rise = left[idx] - v[prev]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (u - v[prev]) / rise
        inside = x[prev] + np.where(rise > 0.0, frac, 0.0) * (x[idx] - x[prev])
        knot = x if first == 0 else np.concatenate(([x[first]], x[1:]))
        return np.where(at_atom | (idx == 0), knot[idx], inside)

    def _bisect_quantile(self, u: np.ndarray) -> np.ndarray:
        """Bisection that keeps F(hi) >= u and returns hi, so the result
        never undershoots; 0 wherever F(0) >= u.

        It halves the int64 bit patterns of [0, 1], which order nonnegative
        doubles as their values do, so it ends on the least double with
        F(x) >= u at every magnitude, subnormals included, in at most 62
        steps.
        """
        lo = np.zeros(u.shape, dtype=np.int64)
        hi = np.full(u.shape, np.float64(1.0).view(np.int64))
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            below = np.asarray(self.cdf(mid.view(np.float64))) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return np.where(self.cdf(0.0) >= u, 0.0, hi.view(np.float64))


def write_cdf_csv(
    path: str | Path,
    x: Sequence[float],
    values: Sequence[float],
    masses: Sequence[float] | None = None,
) -> None:
    """Write a CDF curve as CSV; the atom column is included when any mass is set.

    The bytes are those ``csv.writer`` writes in its default dialect: fields
    joined by commas, ``\\r\\n`` line ends, numbers as ``%.17g``.  Rows are
    formatted in blocks of ``_CSV_BLOCK_ROWS``, one format string per block,
    so memory stays flat however long the curve is.
    """
    columns = [np.asarray(x, dtype=float), np.asarray(values, dtype=float)]
    header = ["x", "F"]
    if masses is not None and np.any(np.asarray(masses) != 0.0):
        columns.append(np.asarray(masses, dtype=float))
        header.append("atom_mass")
    rows = min(col.size for col in columns)
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, rows)
            block = np.column_stack([col[start:stop] for col in columns])
            fh.write((line * (stop - start)) % tuple(block.ravel().tolist()))


def read_cdf_csv(path: str | Path) -> PiecewiseCdf:
    """Read a grid CDF from CSV (header required, optional atom_mass column).

    A row that is short or not numeric raises DomainError naming its line.
    """
    xs, vs, atoms = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip().lower() != "x":
            raise DomainError(f"{path}: missing CSV header row starting with 'x'")
        with_mass = len(header) >= 3
        for row in reader:
            if not row:
                continue
            try:
                x, v = float(row[0]), float(row[1])
                mass = float(row[2]) if with_mass and len(row) >= 3 and row[2].strip() else 0.0
            except (IndexError, ValueError):
                raise DomainError(
                    f"{path}, line {reader.line_num}: expected numbers x, F[, atom_mass], got {row}"
                ) from None
            xs.append(x)
            vs.append(v)
            if mass != 0.0:
                atoms.append((x, mass))
    if not xs:
        raise DomainError(f"{path}: no data rows")
    return PiecewiseCdf.from_grid(xs, vs, atoms=atoms)
