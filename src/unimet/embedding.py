"""Nonexpansive embedding of a finite metric space into sequence space.

Each scale n contributes one block of coordinates: a point-finite cover by
small sets, with the coordinate for member V measuring clamped distance to
the complement of V.  Small image distance at the scale's clamp forces the
two points into one member, whose diameter is controlled, which is the
quantitative separation certificate; injectivity follows once the scales
outrun the smallest positive distance.

The covers run on the space's stored form (see ``covers``).  Each level's
refined cover gives one table of distances to its members' complements;
the level's clamp is reduced from that table and its coordinates are the
table's entries at each member's own points, clamped.  A level's two ball
covers are fixed by how many of the space's sorted distinct ints
(``spectrum_ints``) lie within each radius, so the level is keyed by those
two counts, and the covers, the refinement and the table are built only
when the key changes: from the depth where the radius drops below the
smallest positive distance on, every level shares one of each, and only
the clamp is taken again for the level's own cap.
The coordinates and image distances run on ints over one denominator,
``lcm(L, 2^(depth+2))`` with ``L`` the space's ``scale``, so that each
clamp 2^-n and radius 2^-(n+2) is an int too.  An image is stored as its
support: a point has a nonzero coordinate only for the few members of each
point-finite cover that hold it.  Each image also keeps its peak, its
largest coordinate, and an int mask of its support's coordinates.  Since
every coordinate is >= 0, two images whose masks do not meet are apart by
the larger peak; only a pair whose masks meet has its gap read over the
union of its two supports.  Each pair a < b is listed once, as (point
distance, image distance), and every certificate reads that one list: two
of them directly, the separation rows from one ``PairSweep`` keyed by
twice the image distance and the modulus of continuity from one keyed by
the point distance.  The result keeps the supports and the continuity rows
as these ints over ``big``; ``unimet embed`` prints them through
``scalars.ratio_texts`` and builds no Fraction for them.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from math import lcm
from operator import sub

from .covers import (
    Cover,
    RefinementResult,
    ball_cover,
    complement_distances,
    containment_from_distances,
    point_finite_refinement,
)
from .errors import PreconditionError
from .moduli import PairSweep
from .scalars import ONE, Scalar, pow2
from .spaces import FiniteMetricSpace, ensure_diameter_at_most, ensure_metric

# Deepest embedding built.  Each level adds a refinement and a block of
# coordinates, so the time grows with the depth: at depth 256 on Python
# 3.11 (a Xeon vCPU), ``aharoni_embed`` takes 0.02 s on 3 points and 0.3 s
# on the 40-point geometric space {2^-i}.  The depth that separates the
# points is about log2 of the spread diameter / smallest distance, so the
# cap admits spreads up to 2^255.
DEPTH_CAP = 256

# Most points embedded.  The ball covers and the pair gaps each grow with
# the square of the point count, and a spread space needs a depth that
# grows with it too.  On the same machine ``unimet embed`` on the geometric
# space {2^-i} takes 0.6-0.7 / 1.5-1.7 / 3.0-3.5 s on 80 / 120 / 160 points
# at its sufficient depth (equal to the point count) and 3.6-4.0 s on 160
# points at depth 256; a random wide-denominator space of 160 points takes
# 0.3 s at its sufficient depth and 0.7-0.8 s at depth 256 (three runs
# each).  A 176-point geometric space would take about (176/160)^3 times
# as long, past the 4.0 s that 160 points took when the cap was set.
POINT_CAP = 160


@dataclass(frozen=True)
class LevelData:
    """One scale of the embedding.

    ``refinement`` is the point-finite cover construction for the closed
    r-ball cover at r = 2^-(n+2); ``clamp`` is the scale's coordinate cap:
    a containment number of the refined cover, at most 2^-n; the level's
    coordinates occupy global indices offset .. offset+members-1.
    """

    level: int
    refinement: RefinementResult
    clamp: Scalar
    offset: int

    @property
    def cover(self) -> Cover:
        return self.refinement.cover


@dataclass(frozen=True)
class SeparationRow:
    """One checked implication: close images force close points."""

    level: int
    image_threshold: Scalar
    point_bound: Scalar
    holds: bool


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Quantitative properties of the embedding, all checked exhaustively.

    ``continuity_ints`` lists the modulus of continuity as (delta, epsilon)
    rows of ints over ``big``.
    """

    continuity_ints: tuple
    big: int
    separation: tuple
    injective: bool
    nonexpansive_ok: bool
    coordinate_bounds_ok: bool


@dataclass(frozen=True)
class AharoniEmbedding:
    """The embedding map with its levels and certificate.

    ``supports[x]`` is the image of point x as ``{coordinate: value}``, in
    coordinate order, each value a positive int over ``big``, every other
    coordinate 0.
    """

    space: FiniteMetricSpace
    depth: int
    levels: tuple
    supports: tuple = field(hash=False)
    big: int
    certificate: EmbeddingCertificate


def sufficient_depth(space: FiniteMetricSpace) -> int:
    """Smallest depth whose deepest separation bound certifies injectivity.

    The level-n bound is 2^(1-n); once it drops below the smallest positive
    distance, separated images force equal points.  A space that needs a
    depth above ``DEPTH_CAP`` is refused.
    """
    floor = space.min_positive_distance()
    if floor is None:
        return 1
    n = 1
    while pow2(1 - n) >= floor:
        if n == DEPTH_CAP:
            raise PreconditionError(
                f"separating the points needs a depth above DEPTH_CAP = {DEPTH_CAP}"
            )
        n += 1
    return n


def aharoni_embed(space: FiniteMetricSpace, depth: int) -> AharoniEmbedding:
    """Embed a space of diameter <= 1 into sequence space, scales 1..depth.

    Per scale n: cover by closed 2^-(n+2)-balls, refine point-finitely with
    the 1/5-radius ball helper (star-refinement holds with slack), clamp
    coordinates at a containment number <= 2^-n of the refined cover.  The
    coordinate for member V is min(d(x, complement of V), clamp), zero when
    V is the whole space.  The certificate checks: the map is nonexpansive,
    level-n coordinates lie in [0, 2^-n], and image distance <= clamp/2 at
    level n forces point distance <= 2^(1-n); injectivity is checked
    directly.  The modulus of continuity maps each delta of the spectrum to
    the largest image distance among pairs at point distance <= delta.

    A level is keyed by the counts of the space's ``spectrum_ints`` within
    its radius and within a fifth of it, which fix its target and helper
    covers.  A level whose key equals the previous level's reuses that
    level's covers, refinement and table of distances to the members'
    complements (``covers.complement_distances``); the clamp is reduced
    from the table for each level's own cap 2^-n.  Everything after the
    covers runs on ints over ``big = lcm(L, 2^(depth+2))``, ``L`` the
    space's ``scale``, so every distance, clamp, cap 2^-n and bound
    2^(1-n) is an int over ``big``.  Each image is its support,
    ``{coordinate: value}`` over the members that hold the point, and its
    tail is 0: a point outside V is at distance 0 from the complement of
    V.  An image gap is the largest |a_k - b_k| over all coordinates: the
    larger of the two peaks (largest values) when the supports share no
    coordinate, as every coordinate is >= 0, and else the largest over the
    union of the two supports.  The supports and the continuity rows are
    returned as these ints; Fractions are built only for the clamps and the
    separation rows.  A space of more than ``POINT_CAP`` points is refused
    before any cover is built.
    """
    if not space.n:
        raise PreconditionError("aharoni_embed needs a nonempty space")
    if space.n > POINT_CAP:
        raise PreconditionError(
            f"{space.n} points exceed the embedding's POINT_CAP = {POINT_CAP}"
        )
    ensure_metric(space, "aharoni_embed")
    ensure_diameter_at_most(space, ONE, "aharoni_embed")
    if not isinstance(depth, int) or depth < 1:
        raise PreconditionError("depth must be a positive integer")
    if depth > DEPTH_CAP:
        raise PreconditionError(f"depth {depth} exceeds DEPTH_CAP = {DEPTH_CAP}")

    levels = []
    tables = []
    offset = 0
    previous = None
    values, scale = space.spectrum_ints, space.scale
    for n in range(1, depth + 1):
        # The ball covers of radius r and r/5 hold the pairs whose ints are
        # at most scale * r and scale * r/5, floored, so the counts of the
        # space's distinct ints up to those two fix both covers.
        within = scale >> (n + 2)
        key = (bisect_right(values, within), bisect_right(values, within // 5))
        if key != previous:
            radius = pow2(-n - 2)
            try:
                refinement = point_finite_refinement(
                    ball_cover(space, radius), ball_cover(space, radius / 5))
            except PreconditionError as exc:
                raise PreconditionError(f"refinement failed at level {n}: {exc}")
            table = complement_distances(space, refinement.cover)
            previous = key
        clamp = containment_from_distances(space, table, cap=pow2(-n))
        if clamp is None or clamp <= 0:
            raise PreconditionError(f"no positive containment number at level {n}")
        levels.append(LevelData(n, refinement, clamp, offset))
        tables.append(table)
        offset += len(refinement.cover.members)

    big = lcm(space.scale, 2 ** (depth + 2))
    factor = big // space.scale
    clamps = [data.clamp.numerator * (big // data.clamp.denominator) for data in levels]
    # Each point's image as its support {coordinate: min(d(x, V^c), clamp)}
    # over the members V holding it, in coordinate order: a point outside V
    # is at distance 0 from V^c, since the space is a metric.
    supports = [{} for _ in range(space.n)]
    bounds_ok = True
    for data, table, clamp in zip(levels, tables, clamps):
        hi = big >> data.level
        for k, (member, column) in enumerate(zip(data.cover.members, table), data.offset):
            if column is None:
                continue
            for x in member:
                value = column[x] * factor
                supports[x][k] = value = value if value < clamp else clamp
                if not 0 <= value <= hi:
                    bounds_ok = False
    # Each pair a < b once: (point distance, image distance) over ``big``.
    # Coordinates are >= 0, so two images whose supports do not meet are
    # apart by the larger of their peaks; a pair whose masks meet has its
    # gap read over a's support and then over b's support outside a's.
    peaks = [max(support.values(), default=0) for support in supports]
    masks = [sum(1 << k for k in support) for support in supports]
    zeros = repeat(0)
    pairs = [
        (d * factor, max(
            max(map(abs, map(sub, sa.values(), map(sb.get, sa, zeros)))),
            max(map(sb.__getitem__, sb.keys() - sa.keys()), default=0),
        ) if ma & mb else pa if pa > pb else pb)
        for a, (row, sa, pa, ma) in enumerate(zip(space.ints, supports, peaks, masks))
        for d, sb, pb, mb in zip(row[a + 1:], supports[a + 1:], peaks[a + 1:], masks[a + 1:])
    ]

    nonexpansive = all(gap <= d for d, gap in pairs)
    # Level n fails when some pair has image gap <= clamp/2 but point
    # distance > 2^(1-n): the sweep keyed by twice the gap finds the
    # largest such point distance in one bisection.
    separating = PairSweep((2 * gap, d) for d, gap in pairs)
    separation = tuple(
        SeparationRow(
            data.level, data.clamp / 2, pow2(1 - data.level),
            separating.largest_within(clamp) <= big >> (data.level - 1),
        )
        for data, clamp in zip(levels, clamps)
    )
    injective = all(gap > 0 for _, gap in pairs)

    sweep = PairSweep(pairs)
    continuity = tuple(
        (delta, sweep.largest_within(delta)) for delta in sorted({0, *sweep.firsts})
    )
    certificate = EmbeddingCertificate(
        continuity, big, separation, injective, nonexpansive, bounds_ok
    )
    return AharoniEmbedding(space, depth, tuple(levels), tuple(supports), big, certificate)
