"""Moduli of continuity for maps between finite metric spaces.

On finite spaces a modulus of continuity is a finite table over the distance
spectrum.  A row (delta, epsilon) asserts: whenever the input distance is at
most delta, the output distance is at most epsilon.  Distances compare with
<= on both sides, so a delta of 0 is already a nontrivial claim when the map
glues points.

The table, and the pair scans of ``invlim``, read one primitive: a
``PairSweep`` sorts a list of pairs of distances once by the first, and
then answers, for any threshold t, with the largest second distance among
the pairs whose first distance is at most t, or with the first pair whose
second distance exceeds a bound.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import StructuralError
from .scalars import ZERO, Scalar
from .spaces import FiniteMetricSpace, ensure_total_map


@dataclass(frozen=True)
class ModulusTable:
    """Finite modulus of continuity: rows (delta, epsilon), delta increasing
    and epsilon nondecreasing.  Each row asserts that input distances at
    most delta give output distances at most epsilon; the rows are all the
    table stores.
    """

    rows: tuple

    def __post_init__(self) -> None:
        last_d: Optional[Scalar] = None
        last_e: Optional[Scalar] = None
        for row in self.rows:
            if len(row) != 2:
                raise StructuralError("modulus rows must be (delta, epsilon) pairs")
            d, e = row
            if not isinstance(d, Fraction) or not isinstance(e, Fraction):
                raise StructuralError("modulus entries must be exact scalars")
            if d < 0 or e < 0:
                raise StructuralError("modulus entries must be nonnegative")
            if last_d is not None and d < last_d:
                raise StructuralError("modulus rows must be sorted by delta")
            if last_e is not None and e < last_e:
                raise StructuralError("modulus epsilon column must be nondecreasing")
            last_d, last_e = d, e


class PairSweep:
    """Pairs ``(first, second, *tags)`` sorted once by their first distance.

    The sort is stable, so pairs with equal first distances keep the order
    they came in.  ``firsts`` lists the first distances in that order and
    ``peaks[k]`` is the largest second distance among pairs 0..k, so every
    query is one bisection.
    """

    def __init__(self, pairs: Iterable[Sequence]) -> None:
        self.pairs = tuple(sorted(pairs, key=itemgetter(0)))
        self.firsts = tuple(pair[0] for pair in self.pairs)
        self.peaks = tuple(accumulate((pair[1] for pair in self.pairs), max))

    def largest_within(self, t):
        """Largest second distance among pairs with first distance <= t;
        ``ZERO`` when no such pair is at a positive distance."""
        k = bisect_right(self.firsts, t)
        return self.peaks[k - 1] if k and self.peaks[k - 1] > 0 else ZERO

    def first_above(self, bound) -> Optional[Sequence]:
        """First pair, in sweep order, whose second distance exceeds bound.

        Its first distance is the smallest among all such pairs, and ties go
        to the pair that came first.  None when no pair exceeds the bound.
        """
        k = bisect_right(self.peaks, bound)
        return self.pairs[k] if k < len(self.pairs) else None


def pair_distances(source: Sequence, target: Sequence, mapping: Sequence[int]) -> list:
    """(source distance, image distance) for each pair i < j of source points.

    ``source`` and ``target`` are distance matrices, the ``dist`` views of
    two spaces or their ``ints`` alike.
    """
    return [
        (row[j], target[mapping[i]][mapping[j]])
        for i, row in enumerate(source)
        for j in range(i + 1, len(source))
    ]


def continuity_modulus(
    source: FiniteMetricSpace,
    target: FiniteMetricSpace,
    mapping,
) -> ModulusTable:
    """Exact modulus of continuity of a total map over the input spectrum.

    For each delta in the source spectrum the row gives the largest image
    distance among pairs at source distance <= delta.  The table certifies
    (delta, epsilon)-continuity for every row and is tight: each epsilon is
    attained by some pair.  The sweep runs on each space's own ``ints``;
    only the rows are converted back to Fractions.
    """
    m = ensure_total_map(mapping, source, target, "continuity_modulus")
    sweep = PairSweep(pair_distances(source.ints, target.ints, m))
    return ModulusTable(tuple(
        (Fraction(delta, source.scale), Fraction(sweep.largest_within(delta), target.scale))
        for delta in sorted({0, *sweep.firsts})
    ))
