"""Exact integer kernels over one common denominator.

A matrix of ``Fraction`` entries (``None`` marks a forbidden hop) has an
integer form ``(M, L)``: ``L`` is the least common multiple of the entries'
denominators and ``M[i][j] = entry * L`` as an ``int``, ``None`` kept as
``None``.  Sums and comparisons of such entries are exact on ``M``, so the
min-plus product, the shortest-path closure and the triangle scan run on
Python ints and the results convert back exactly with ``Fraction(v, L)``.

Every kernel packs each row into one int of ``w``-bit fields, so a few
exact big-int operations on two rows act on every field at once (Lamport,
"Multiple byte processing with full-word instructions", CACM 1975).  The
triangle scan packs the signed entries (``packed_rows``).  The product, the
chain powers (``ChainPowers``) and the closure relax a whole row in one
step, and pack ``None`` as a sentinel INF that no finite result reaches:
the largest sum plus one, ``max(a) + max(b) + 1``, in the product, and one
above the longest simple path, ``(n - 1) * max + 1``, in the chain powers
and the closure, where a cheapest chain is simple.  Fields at or above INF
read back as ``None``.  The sentinel is exact on matrices without a
negative entry, the one domain of all three: a chain block is a matrix of
distances, and ``glue_parts`` refuses a negative cross or a defective part
before its first relax pass.

``ChainPowers`` is the one chain engine: it packs a class block once and
takes each power d_(n+1) = min(B, d_n[:, P] (x) B[P, :]) by one relax step
per row and pivot in P, keeping the powers packed; ``quotients`` says which
pivots are exact.  Each step says whether the power moved, so one more
step after d_n certifies d_n = d_infinity when it leaves d_n as it is, in
place of a triangle scan of d_n.  ``min_plus serves the one-sided products of
``combinators.mcshane_rows``.

Every matrix returned here is a list of lists, so results compare equal
exactly when their entries do.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import and_, lshift, rshift
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


def _largest(m: IntMatrix) -> int:
    """The largest entry of ``m`` other than None, 0 if none."""
    rows = [[v for v in row if v is not None] if None in row else row for row in m]
    return max(map(max, filter(None, rows)), default=0)


def _fields(top: int, count: int) -> tuple:
    """``(w, offsets, R, H)`` for ``count`` fields of values in [0, top]
    below a guard bit: field k starts at bit ``offsets[k] = w * k``, ``R``
    has a 1 in each field and ``H = R << (w - 1)`` holds the guard bits."""
    w = top.bit_length() + 1
    repunit = ((1 << w * count) - 1) // ((1 << w) - 1)
    return w, range(0, w * count, w), repunit, repunit << (w - 1)


def _pack(row: Sequence[Optional[int]], offsets: range, inf: Optional[int] = None) -> int:
    """The sum of ``row[k] << offsets[k]``, None as ``inf`` when it is given."""
    if inf is not None and None in row:
        row = [inf if v is None else v for v in row]
    return sum(map(lshift, row, offsets))


def _unpack(p: int, w: int, offsets: range, inf: int) -> list:
    """The fields of ``p``, each at or above ``inf`` as None."""
    values = list(map(and_, map(rshift, repeat(p), offsets), repeat((1 << w) - 1)))
    if max(values, default=0) < inf:
        return values
    return [v if v < inf else None for v in values]


# One relax step on packed rows keeps, field by field, the smaller of a
# and b, both in [0, 2**(w-1)), below the guard bit.  Field k of
# (a | H) - (b + R) holds 2**(w-1) + a[k] - b[k] - 1, in [0, 2**w), so no
# field borrows from the next, and its guard bit is set exactly when
# a[k] > b[k]; t keeps those bits.  (t << 1) - (t >> (w-1)) fills each
# flagged field with ones, and a ^ (a ^ b) & fill takes b there.  The
# kernels build b + R directly, from a row that already holds its R.


def min_plus(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Min-plus product of an m x p ``a`` and a p x q ``b``:
    out[i][j] = min over k of a[i][k] + b[k][j].

    Pairs with a None factor are skipped; an entry with no finite pair is
    None.  Neither factor has a negative entry.  Row i of the product is the
    fieldwise minimum of a[i][k] * R + b_k over the k with a[i][k] not None,
    b_k the packed row k of ``b``: one relax step per k.
    """
    hi_a = _largest(a)
    inf = hi_a + _largest(b) + 1
    # A field holds at most a[i][k] + INF.
    w, offsets, repunit, tops = _fields(hi_a + inf, len(b[0]) if b else 0)
    guard = w - 1
    rows = [_pack(row, offsets, inf) + repunit for row in b]
    out = []
    for row in a:
        acc = None
        for x, p in zip(row, rows):
            if x is None:
                continue
            c = p + x * repunit
            if acc is None:
                acc = c - repunit
                continue
            t = ((acc | tops) - c) & tops
            if t:
                acc ^= (acc ^ (c - repunit)) & ((t << 1) - (t >> guard))
        out.append([None] * len(offsets) if acc is None else _unpack(acc, w, offsets, inf))
    return out


def closure(block: IntMatrix) -> IntMatrix:
    """Shortest-path closure by Floyd–Warshall, diagonal set to zero first.

    The loop order is k, then i, each row i relaxed through row k in place;
    a None entry is unreachable and stays None.  The block has no negative
    entry, and each relaxation is one step on packed rows, ``row_i <-
    min(row_i, d_ik * R + row_k)`` fieldwise.
    """
    n = len(block)
    dist = [list(row) for row in block]
    for i, row in enumerate(dist):
        row[i] = 0
    inf = (n - 1) * _largest(dist) + 1
    # A relaxed field d_ik + d_kj is below 2 * INF.  Fields never rise, and
    # where row i has no path to j yet, the paths i -> k and k -> j through
    # points below k share no point (else such a path would exist): their
    # sum is a simple path, below INF.
    w, offsets, repunit, tops = _fields(2 * inf - 1, n)
    mask, guard = (1 << w) - 1, w - 1
    rows = [_pack(row, offsets, inf) for row in dist]
    # Row k relaxes through itself with d_kk = 0 and stays as it is.
    for k, row_k in enumerate(rows):
        shift = offsets[k]
        above = row_k + repunit
        for i, row_i in enumerate(rows):
            dik = row_i >> shift & mask
            if dik >= inf:
                continue
            b = above + dik * repunit
            t = ((row_i | tops) - b) & tops
            if t:
                rows[i] = row_i ^ (row_i ^ (b - repunit)) & ((t << 1) - (t >> guard))
    return [_unpack(p, w, offsets, inf) for p in rows]


class ChainPowers:
    """The chain powers d_1, d_2, ... of a class block, pivoting at ``pivots``.

    ``block`` is square, with a zero diagonal and no negative entry (None
    forbids a hop).  The powers start at d_1 = ``block``, and each ``step``
    takes d_(n+1) = min(block, d_n[:, P] (x) block[P, :]) for P the pivots:
    the cheapest chain of at most n + 1 hops whose inner classes all lie in
    P.  With every class in P this is d_n (x) block, the full chain power
    (the pivot k = i gives the block row, k = j keeps d_n[i][j]).

    The block is packed once.  Row i of a step starts from the packed block
    row i and relaxes once through each pivot k with d_n[i][k] finite,
    ``row_i <- min(row_i, d_n[i][k] * R + block_k)`` fieldwise.  The powers
    stay packed; ``matrix`` unpacks the current one.
    """

    def __init__(self, block: IntMatrix, pivots: Sequence[int]) -> None:
        n = len(block)
        # No entry is negative, so the cheapest chain between two classes is
        # simple, at most (n - 1) * max: INF is one above.  A relaxed field
        # d_n[i][k] + block[k][j] is below 2 * INF.  A field starts at the
        # block's entry, INF for None, and only a smaller sum replaces it, so
        # every field is INF or its finite value: two powers are equal
        # exactly when their packed rows are.
        inf = (n - 1) * _largest(block) + 1
        self._inf = inf
        self._fields = _, offsets, repunit, _ = _fields(2 * inf - 1, n)
        self._block = self.rows = [_pack(row, offsets, inf) for row in block]
        self._pivots = [(offsets[k], self.rows[k] + repunit) for k in pivots]

    def step(self) -> bool:
        """Advance from d_n to d_(n+1), one relax pass; whether they differ."""
        w, _, repunit, tops = self._fields
        mask, guard, inf = (1 << w) - 1, w - 1, self._inf
        following = []
        for row, acc in zip(self.rows, self._block):
            for shift, above in self._pivots:
                d = row >> shift & mask
                if d >= inf:
                    continue
                b = above + d * repunit
                t = ((acc | tops) - b) & tops
                if t:
                    acc ^= (acc ^ (b - repunit)) & ((t << 1) - (t >> guard))
            following.append(acc)
        changed = following != self.rows
        self.rows = following
        return changed

    def matrix(self) -> IntMatrix:
        """The current power, None for no chain."""
        w, offsets, _, _ = self._fields
        return [_unpack(p, w, offsets, self._inf) for p in self.rows]


def packed_rows(m: IntMatrix) -> tuple:
    """``(P, K, R, H)`` for the triangle scan of the square int matrix ``m``:
    ``P[i]`` is the sum of ``m[i][k] << (w * k)``, ``R`` has a 1 in each
    ``w``-bit field, ``K = (2**(w-1) - 1) * R`` and ``H = R << (w - 1)``.
    For an entry ``d`` of ``m``, ``(P[i] + K - P[j] - d * R) & H`` has the
    top bit of field k set exactly when ``m[i][k] - m[j][k] > d``."""
    # The rows hold no None, so min and max take them as they are; a None
    # test on every row, as ``_largest`` makes, made this a quarter slower on
    # 40 points.
    lo, hi = min(map(min, m), default=0), max(map(max, m), default=0)
    # The packing is linear, so field k of P[i] + K - P[j] - d*R holds
    # c = 2**(w-1) - 1 + m[i][k] - m[j][k] - d, between 2**(w-1) - 1 - (hi -
    # lo) - hi and 2**(w-1) - 1 + (hi - lo) - lo.  With 2**(w-1) > hi - lo +
    # max(hi, -lo), c lies in [0, 2**w): no field borrows from the next.
    w, offsets, repunit, tops = _fields(hi - lo + max(hi, -lo), len(m))
    return ([_pack(row, offsets) for row in m],
            ((1 << (w - 1)) - 1) * repunit, repunit, tops)


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
