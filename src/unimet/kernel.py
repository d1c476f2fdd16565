"""Exact integer kernels over one common denominator.

A matrix of ``Fraction`` entries (``None`` marks a forbidden hop) has an
integer form ``(M, L)``: ``L`` is the least common multiple of the entries'
denominators and ``M[i][j] = entry * L`` as an ``int``, ``None`` kept as
``None``.  Sums and comparisons of such entries are exact on ``M``, so the
min-plus product, the shortest-path closure and the triangle scan run on
Python ints and the results convert back exactly with ``Fraction(v, L)``.

No sentinel stands in for ``None``: entries may be negative (``glue_parts``
does not check its parts), so no finite value is safely "infinite".  In the
product and the closure, rows and columns free of ``None`` take the vector
path, where C builtins (``map``, ``min``, ``max`` over ``operator.add`` and
``sub``) do the inner loops; the others skip the missing hops entry by
entry.  The triangle scan packs each row into one int of ``w``-bit fields
(``packed_rows``), so a few exact big-int operations on two rows compare
every field at once (Lamport, "Multiple byte processing with full-word
instructions", CACM 1975).

Every matrix returned here is a list of lists, so results compare equal
exactly when their entries do.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from itertools import repeat
from operator import add, lshift, sub
from typing import Optional, Sequence

IntMatrix = list


def to_int_matrix(rows: Sequence[Sequence[Optional[Fraction]]]) -> tuple:
    """The integer form ``(M, L)`` of a matrix of Fractions and Nones."""
    scale = lcm(*{v.denominator for row in rows for v in row if v is not None})
    factor = {}
    out = []
    for row in rows:
        out_row = []
        for v in row:
            if v is None:
                out_row.append(None)
                continue
            q = v.denominator
            f = factor.get(q)
            if f is None:
                f = factor[q] = scale // q
            out_row.append(v.numerator * f)
        out.append(out_row)
    return out, scale


def to_fractions(m: IntMatrix, scale: int) -> tuple:
    """Convert an integer form back: each entry ``Fraction(v, scale)``,
    built once per distinct value (a symmetric matrix holds each at least
    twice) and shared, as Fractions are immutable."""
    made = {None: None}
    out = []
    for row in m:
        out_row = []
        for v in row:
            f = made.get(v, made)
            if f is made:
                f = made[v] = Fraction(v, scale)
            out_row.append(f)
        out.append(tuple(out_row))
    return tuple(out)


def _min_sum(row: Sequence[Optional[int]], col: Sequence[Optional[int]]) -> Optional[int]:
    """min over k of row[k] + col[k], skipping None; None if every k is None."""
    return min(
        (x + y for x, y in zip(row, col) if x is not None and y is not None),
        default=None,
    )


def min_plus(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Min-plus product: out[i][j] = min over k of a[i][k] + b[k][j].

    Pairs with a None factor are skipped; an entry with no finite pair is
    None.
    """
    cols = list(zip(*b))
    full = [None not in col for col in cols]
    out = []
    for row in a:
        if None in row:
            out.append([_min_sum(row, col) for col in cols])
        else:
            out.append([
                min(map(add, row, col)) if ok else _min_sum(row, col)
                for col, ok in zip(cols, full)
            ])
    return out


def closure(block: IntMatrix) -> IntMatrix:
    """Shortest-path closure by Floyd–Warshall, diagonal set to zero first.

    The loop order is k, then i, each row i relaxed through row k in place,
    so the result is defined on any input, negative entries included.  A
    None entry is unreachable and stays None.
    """
    dist = [list(row) for row in block]
    for i, row in enumerate(dist):
        row[i] = 0
    for k, row_k in enumerate(dist):
        k_full = None not in row_k
        for row_i in dist:
            dik = row_i[k]
            if dik is None:
                continue
            # The slice assignment builds the whole new row before it
            # writes, so each entry relaxes against row k as it stood for
            # this i; the entry-by-entry loop reads row_k[j] before it
            # writes j, which is the same value even when row_i is row_k.
            if k_full and None not in row_i:
                # Row i improves through k only where row_i - row_k > dik.
                if max(map(sub, row_i, row_k)) > dik:
                    row_i[:] = [
                        a if a <= b else b
                        for a, b in zip(row_i, map(add, repeat(dik), row_k))
                    ]
            else:
                row_i[:] = [
                    a if b is None else dik + b if a is None or dik + b < a else a
                    for a, b in zip(row_i, row_k)
                ]
    return dist


def packed_rows(m: IntMatrix) -> tuple:
    """``(P, K, R, H)`` for the triangle scan of the square int matrix ``m``:
    ``P[i]`` is the sum of ``m[i][k] << (w * k)``, ``R`` has a 1 in each
    ``w``-bit field, ``K = (2**(w-1) - 1) * R`` and ``H = R << (w - 1)``.
    For an entry ``d`` of ``m``, ``(P[i] + K - P[j] - d * R) & H`` has the
    top bit of field k set exactly when ``m[i][k] - m[j][k] > d``."""
    lo = min(map(min, m), default=0)
    hi = max(map(max, m), default=0)
    # The packing is linear, so field k of P[i] + K - P[j] - d*R holds
    # c = 2**(w-1) - 1 + m[i][k] - m[j][k] - d, between 2**(w-1) - 1 - (hi -
    # lo) - hi and 2**(w-1) - 1 + (hi - lo) - lo.  With 2**(w-1) > hi - lo +
    # max(hi, -lo), c lies in [0, 2**w): no field borrows from the next.
    w = (hi - lo + max(hi, -lo)).bit_length() + 1
    offsets = range(0, w * len(m), w)
    repunit = ((1 << w * len(m)) - 1) // ((1 << w) - 1)
    return ([sum(map(lshift, row, offsets)) for row in m],
            ((1 << (w - 1)) - 1) * repunit, repunit, repunit << (w - 1))


def first_triangle_witness(m: IntMatrix, packed: Optional[tuple] = None) -> Optional[tuple]:
    """Lexicographically first (i, j, k), k not in {i, j}, with
    m[i][k] > m[i][j] + m[j][k]; None when the triangle inequality holds.

    ``packed`` is ``packed_rows(m)``, built here when not given.  For each
    ordered pair (i, j) one packed test of the two rows clears every k at
    once; only when it flags a field does the walk over k run.  The test
    also covers k = i and k = j, so it can flag a defective diagonal
    (m[j][j] < 0, or m[i][i] large) without a witness; the walk then finds
    none and the scan moves on.
    """
    rows, offset, repunit, tops = packed or packed_rows(m)
    for i, (row_i, p) in enumerate(zip(m, rows)):
        a = p + offset
        for j, (row_j, q) in enumerate(zip(m, rows)):
            if j == i:
                continue
            dij = row_i[j]
            if not (a - q - dij * repunit) & tops:
                continue
            for k, (x, y) in enumerate(zip(row_i, row_j)):
                if x - y > dij and k != i and k != j:
                    return i, j, k
    return None
