"""One sweep over the pairs of a finite space.

A ``PairSweep`` sorts a list of pairs of distances once by the first, and
then answers, for any threshold t, with the largest second distance among
the pairs whose first distance is at most t, or with the first pair whose
second distance exceeds a bound.  Both compare with <=, so a threshold of
0 is already a nontrivial query when a map glues points.  The embedding's
separation rows and modulus of continuity, and ``invlim``'s scans over
thread pairs, all read it, each on ints over one scale.  A scan that asks
one threshold only takes a direct max instead and sorts nothing.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Optional, Sequence


class PairSweep:
    """Pairs ``(first, second, *tags)`` sorted once by their first distance.

    The sort is stable, so pairs with equal first distances keep the order
    they came in.  ``firsts`` lists the first distances in that order and
    ``peaks[k]`` is the largest second distance among pairs 0..k, so every
    query is one bisection.  ``scale`` is kept for the reader of distances
    given as ints over it; the sweep itself only compares them.
    """

    def __init__(self, pairs: Iterable[Sequence], scale: int = 1) -> None:
        self.scale = scale
        self.pairs = tuple(sorted(pairs, key=itemgetter(0)))
        self.firsts = tuple(pair[0] for pair in self.pairs)
        self.peaks = tuple(accumulate((pair[1] for pair in self.pairs), max))

    def largest_within(self, t):
        """Largest second distance among pairs with first distance <= t;
        the int 0 when no such pair is at a positive distance."""
        k = bisect_right(self.firsts, t)
        return self.peaks[k - 1] if k and self.peaks[k - 1] > 0 else 0

    def first_above(self, bound) -> Optional[Sequence]:
        """First pair, in sweep order, whose second distance exceeds bound.

        Its first distance is the smallest among all such pairs, and ties go
        to the pair that came first.  None when no pair exceeds the bound.
        """
        k = bisect_right(self.peaks, bound)
        return self.pairs[k] if k < len(self.pairs) else None
