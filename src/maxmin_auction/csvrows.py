"""CSV rows of doubles, each field as ``%.17g`` prints it, formatted in numpy.

``write_rows`` is ``distributions.write_cdf_csv``'s row writer.  It writes
the rows in blocks, so memory stays flat however long the curve is, and
numpy formats each block's fields.  ``write_cdf_csv`` imports this module at
its first call, so the commands that write no CSV never load it.

``%.17g`` rounds the exact binary value of ``v`` to 17 significant
digits, ties to even, and prints fixed notation when the rounded value's
decimal exponent ``X`` lies in [-4, 16], with trailing zeros and a bare
point dropped.  The fast path covers ``+0.0`` and ``-0.0`` (``0`` and
``-0``) and every ``v`` with ``1e-4 <= v < 1e17``.  For those:

* ``X = floor(log10 v)``, clipped to [-4, 16], and ``k = 16 - X``.
  ``10**k = 5**k * 2**k`` with ``5**k < 2**53`` is an exact double.
* Dekker's TwoProduct, splitting by ``2**27 + 1`` since numpy has no
  ``fma``, gives ``p = fl(v * 10**k)`` and ``e`` with ``p + e = T``, the
  exact product: nothing overflows, and with ``v >= 1e-4`` the error
  term lies far above the subnormal range.
* If ``p >= 1e16 > 2**53``, ``p`` is a multiple of its ulp, which is at
  least 2, so ``p`` is even and ``p + j`` has the parity of ``j``.
  Rounding ``T`` to an integer, ties to even, therefore gives
  ``N = p + rint(e)``, as ``rint`` rounds ties to even too.  If
  ``p < 1e16``, then ``p <= 1e16 - 2`` and ``|e| <= 1``, so ``N < 1e16``
  whatever ``p``'s fraction.
* ``N`` holds the 17 digits ``%.17g`` prints, at exponent ``X``, exactly
  when ``1e16 <= T`` and ``N < 1e17``, and ``1e16 <= N < 1e17`` tests
  both: ``N >= 1e16 > T`` would need ``T`` in ``[1e16 - 1/2, 1e16)``,
  and for no ``k`` in [0, 20] does a double ``v`` put ``v * 10**k``
  there.  The largest double below ``1e16 / 10**k`` gives at most
  ``1e16 - 0.83`` (the test suite checks every ``k`` in exact
  fractions).  A field that fails the test, where ``log10`` rounded into
  the wrong decade or the rounding carried to ``1e17``, takes the slow
  path.
* The digits of ``N`` come from a table of the 10,000 four-digit groups,
  its trailing zeros from a table of each group's trailing-zero count,
  and each decade's layout, ``d.ddd`` or ``0.000ddd``, from slice
  copies into a 24-byte field that is NUL past the text.

Every other field -- negative, below ``1e-4`` (``e`` notation), ``1e17``
and above, subnormal, ``nan`` or ``inf`` -- is formatted by one batched
``%-24.17g`` per column and block; 24 bytes hold the longest ``%.17g``
of any double.  Each block's fields, commas and line ends are laid out
in one byte matrix and written with its NULs compressed away.
"""

from __future__ import annotations

from typing import BinaryIO

import numpy as np

__all__ = ["write_rows"]

# 16384 rows format as fast as 65536 and hold a quarter of the buffers
_BLOCK_ROWS = 16384
# the longest %.17g of a double, "-2.2250738585072014e-308", is 24 bytes
_FIELD_BYTES = 24


def _dekker_split(a):
    """Dekker's split by 2**27 + 1: ``a = hi + lo``, each half of 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


# 10**k for k in [0, 20], exact doubles, and their Dekker halves
_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI, _POW10_LO = np.array([_dekker_split(p) for p in _POW10.tolist()]).T

# the groups "0000".."9999", four bytes to an element, and each group's
# trailing zeros (4 for "0000")
_GROUPS4 = np.arange(10000, dtype=np.int32)
_DIGITS4 = (
    np.stack([_GROUPS4 // place % 10 + ord("0") for place in (1000, 100, 10, 1)], axis=1)
    .astype(np.uint8)
    .view(np.uint32)[:, 0]
)
_TRAILING_ZEROS4 = sum((_GROUPS4 % place == 0).astype(np.int8) for place in (10, 100, 1000, 10000))
# row n keeps a field's first n bytes: 0xFF, then NUL
_KEEP = ((np.arange(_FIELD_BYTES) < np.arange(_FIELD_BYTES + 1)[:, None]) * np.uint8(0xFF)).view(np.uint64)


def _decade_layout(digits: np.ndarray, decade: int, out: np.ndarray) -> None:
    """Lay the 17 digits out as ``%.17g`` does in fixed notation at ``decade``:
    ``d.ddd`` with ``decade + 1`` digits before the point, or ``0.`` and
    ``-decade - 1`` zeros before them; what follows is cut later."""
    if decade >= 0:
        out[:, : decade + 1] = digits[:, : decade + 1]
        out[:, decade + 1] = ord(".")
        out[:, decade + 2 : 18] = digits[:, decade + 1 :]
    else:
        out[:, :2] = np.frombuffer(b"0.", dtype=np.uint8)
        out[:, 2 : 1 - decade] = ord("0")
        out[:, 1 - decade : 18 - decade] = digits


def _format_fields(v: np.ndarray, out: np.ndarray) -> None:
    """``%.17g`` of each ``v`` into the rows of ``out`` (n x _FIELD_BYTES),
    NUL-padded; the algorithm is in the module docstring."""
    fast = (v >= 1e-4) & (v < 1e17)
    if fast.any():
        fast &= _fixed_notation(np.where(fast, v, 1.0), out)
    rows = np.flatnonzero(v == 0.0)
    if rows.size:
        out[rows] = 0
        negative = np.signbit(v[rows])
        out[rows, 0] = np.where(negative, ord("-"), ord("0"))
        out[rows[negative], 1] = ord("0")
        fast[rows] = True
    rows = np.flatnonzero(~fast)
    if rows.size:
        text = (b"%-24.17g" * rows.size) % tuple(v[rows].tolist())
        part = np.frombuffer(text, dtype=np.uint8).reshape(rows.size, _FIELD_BYTES)
        out[rows] = part * (part != ord(" "))


def _fixed_notation(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lay out ``%.17g`` of each ``w`` in [1e-4, 1e17) in fixed notation;
    True where the digits are exact, False where they need the slow path."""
    decade = np.clip(np.floor(np.log10(w)), -4, 16).astype(np.int64)
    k = 16 - decade
    w_hi, w_lo = _dekker_split(w)
    p = w * _POW10[k]
    e = ((w_hi * _POW10_HI[k] - p) + w_hi * _POW10_LO[k] + w_lo * _POW10_HI[k]) + w_lo * _POW10_LO[k]
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    exact = (n >= 10**16) & (n < 10**17)

    # the 17 digits as groups of 1, 4, 4, 4 and 4, in int32 after one split
    hi = (n // 10**8).astype(np.int32)
    lo = (n - hi.astype(np.int64) * 10**8).astype(np.int32)
    groups = np.empty((n.size, 5), dtype=np.int32)
    groups[:, 0], groups[:, 1] = np.divmod(hi // 10**4, 10**4)
    groups[:, 2] = hi % 10**4
    groups[:, 3], groups[:, 4] = np.divmod(lo, 10**4)
    digits = _DIGITS4.take(groups).view(np.uint8)[:, 3:]
    # trailing zeros: the last group's, then earlier groups' behind zero ones
    zeros = _TRAILING_ZEROS4.take(groups[:, 4])
    rows = np.flatnonzero(groups[:, 4] == 0)
    for j in (3, 2, 1):
        group = groups[rows, j]
        zeros[rows] += _TRAILING_ZEROS4.take(group)
        rows = rows[group == 0]
    significant = 17 - zeros
    length = np.where(
        decade < 0,
        significant + 1 - decade,
        np.where(significant > decade + 1, significant + 1, decade + 1),
    )

    # the most common decade over every row, the others on their own rows
    counts = np.bincount(decade[exact] + 4, minlength=21)
    common = int(np.argmax(counts)) - 4
    _decade_layout(digits, common, out)
    for d in np.flatnonzero(counts) - 4:
        if d != common:
            rows = np.flatnonzero(exact & (decade == d))
            part = np.empty((rows.size, _FIELD_BYTES), dtype=np.uint8)
            _decade_layout(digits.take(rows, axis=0), int(d), part)
            out[rows] = part
    out.view(np.uint64)[...] &= _KEEP.take(length, axis=0)
    return exact


def write_rows(fh: BinaryIO, columns: list[np.ndarray]) -> None:
    """Write 1-d float columns of one length as CSV rows, in blocks of
    ``_BLOCK_ROWS``: ``%.17g`` fields, commas and ``\\r\\n``."""
    rows = columns[0].size
    size = min(rows, _BLOCK_ROWS)
    # each field takes _FIELD_BYTES and a separator, the last one \r\n
    step = _FIELD_BYTES + 1
    field = np.empty((size, _FIELD_BYTES), dtype=np.uint8)
    line = np.empty((size, step * len(columns) + 1), dtype=np.uint8)
    line[:, _FIELD_BYTES:-2:step] = ord(",")
    line[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        block = line[: stop - start]
        for j, col in enumerate(columns):
            _format_fields(col[start:stop], field[: stop - start])
            block[:, j * step : j * step + _FIELD_BYTES] = field[: stop - start]
        fh.write(block[block != 0].tobytes())
