"""Moduli of continuity and separation for maps between finite metric spaces.

On finite spaces every modulus is a finite table over the distance spectrum.
A row (delta, epsilon) of a continuity table asserts: whenever the input
distance is at most delta, the output distance is at most epsilon.  A row of a
separation table asserts the reverse implication: whenever the image distance
is at most delta, the source distance is at most epsilon.  Distances compare
with <= on both sides, so a delta of 0 is already a nontrivial claim when the
map glues points.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Optional

from .errors import StructuralError
from .scalars import ZERO, Scalar
from .spaces import FiniteMetricSpace, as_mapping, ensure_total_map


@dataclass(frozen=True)
class ModulusTable:
    """Finite modulus: rows (delta, epsilon), delta increasing.

    ``kind`` names the implication direction ("continuity", "separation",
    "quotient_order").  ``failed`` lists epsilon values for which no valid
    delta exists at all (separation tables only; empty otherwise).
    """

    kind: str
    rows: tuple
    failed: tuple = ()

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

    def epsilon_for(self, delta: Scalar) -> Optional[Scalar]:
        """Tightest epsilon valid at input scale delta, None if none."""
        best: Optional[Scalar] = None
        for d, e in self.rows:
            if d >= delta and (best is None or e < best):
                best = e
        return best

    def delta_for(self, epsilon: Scalar) -> Optional[Scalar]:
        """Largest delta whose epsilon is within the budget, None if none."""
        best: Optional[Scalar] = None
        for d, e in self.rows:
            if e <= epsilon and (best is None or d > best):
                best = d
        return best


def pair_distances(
    source: FiniteMetricSpace,
    target: FiniteMetricSpace,
    mapping: Mapping[int, int],
) -> list:
    """(source distance, image distance) for each pair i < j of source points."""
    pairs = []
    for i in range(source.n):
        for j in range(i + 1, source.n):
            pairs.append((source.d(i, j), target.d(mapping[i], mapping[j])))
    return pairs


def continuity_modulus(
    source: FiniteMetricSpace,
    target: FiniteMetricSpace,
    mapping,
) -> ModulusTable:
    """Exact modulus of continuity of a total map over the input spectrum.

    For each delta in the source spectrum the row gives the largest image
    distance among pairs at source distance <= delta.  The table certifies
    (delta, epsilon)-continuity for every row and is tight: each epsilon is
    attained by some pair.  The sweep runs on each space's own integer
    form; only the rows are converted back to Fractions.
    """
    m = as_mapping(mapping)
    ensure_total_map(m, source, target, "continuity_modulus")
    src, src_scale = source._int_form
    img, img_scale = target._int_form
    # One sweep: pairs sorted by source distance, spectrum ascending, with
    # the running max of the image distances admitted so far.
    pairs = sorted((
        (row[j], img[m[i]][m[j]])
        for i, row in enumerate(src)
        for j in range(i + 1, source.n)
    ), key=itemgetter(0))
    spectrum = sorted({0}.union(*(row[i + 1:] for i, row in enumerate(src))))
    rows = []
    eps = 0
    k = 0
    for delta in spectrum:
        while k < len(pairs) and pairs[k][0] <= delta:
            if pairs[k][1] > eps:
                eps = pairs[k][1]
            k += 1
        rows.append((Fraction(delta, src_scale), Fraction(eps, img_scale)))
    return ModulusTable("continuity", tuple(rows))


def separation_modulus(
    source: FiniteMetricSpace,
    target: FiniteMetricSpace,
    mapping,
) -> ModulusTable:
    """Largest image threshold that still pins source distances, per epsilon.

    For each epsilon in the source spectrum the row's delta is the largest
    image-spectrum value such that image distance <= delta forces source
    distance <= epsilon.  Epsilon values admitting no delta at all (the map
    collapses a pair further apart than epsilon, so even delta = 0 fails)
    appear in ``failed`` instead of the rows.
    """
    m = as_mapping(mapping)
    ensure_total_map(m, source, target, "separation_modulus")
    pairs = pair_distances(source, target, m)
    image_values = sorted({td for _, td in pairs} | {ZERO})
    rows = []
    failed = []
    for eps in source.spectrum():
        blocking = [td for sd, td in pairs if sd > eps]
        if not blocking:
            rows.append((image_values[-1], eps))
            continue
        cut = min(blocking)
        candidates = [v for v in image_values if v < cut]
        if candidates:
            rows.append((candidates[-1], eps))
        else:
            failed.append(eps)
    rows.sort()
    return ModulusTable("separation", tuple(rows), tuple(failed))


def check_uniform_continuity(
    source: FiniteMetricSpace,
    target: FiniteMetricSpace,
    mapping,
    delta: Scalar,
    epsilon: Scalar,
):
    """Witness check of one (delta, epsilon)-continuity claim.

    Returns None when the claim holds, else the lexicographically first
    offending pair (i, j, source_distance, image_distance).
    """
    m = as_mapping(mapping)
    ensure_total_map(m, source, target, "check_uniform_continuity")
    for i in range(source.n):
        for j in range(i + 1, source.n):
            if source.d(i, j) <= delta and target.d(m[i], m[j]) > epsilon:
                return (i, j, source.d(i, j), target.d(m[i], m[j]))
    return None
