"""Cover calculus on finite grounds: refinement, stars, metrization.

A cover is an ordered list of index sets over a ground {0, ..., g-1}.  Order
matters (constructions key certificates to member indices), duplicates are
dropped keeping the first occurrence, and empty members are rejected.

The metrization routine turns a fundamental sequence of covers (each level a
star-refinement of the one before) into an exact metric via shortest chains,
with the classical two-sided comparison d <= f <= 2d checked entrywise.

Each member is kept twice: as its sorted tuple of points and as an int
mask, bit x set when x is in it.  A cover indexes its points once, on first
use: ``holders[x]`` lists the members that hold x, and ``star_masks[x]``,
the mask of the point star st(x), is the OR of their masks; the star of a
subset is the OR of its points' star masks.  Containment is one big-int
test, ``s | t == t`` for s inside t, so the star check and the kernels
and stars of the point-finite refinement run on masks, and the
metrization writes its gauge from the points of the star masks.  A cover
read from a file goes through ``index_set`` and builds its masks on first
use, so no mask is built before the metrization's ``GROUND_CAP`` is asked;
the ball covers and refinements built here are in range by construction,
skip ``index_set`` and carry their masks from the start.
Ball containment numbers are reduced, for any cap, from one table of int
distances to the members' complements (``complement_distances``), which a
caller can build once and reuse, by one bisection into the space's sorted
distinct ints.

Sets of small diameter are tested through the maximal cliques of a
threshold graph, listed by ``maximal_cliques``.  Their number can grow as
3^(n/3), so each listing stops past ``CLIQUE_CAP`` cliques.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress, count, filterfalse
from operator import or_
from typing import Iterable, Optional

from .errors import PreconditionError, StructuralError
from .kernel import closure
from .scalars import Scalar, ScalarLike, as_scalar, pow2
from .spaces import FiniteMetricSpace, index_set

# Maximal cliques one threshold graph may have.  Their count grows as
# 3^(n/3): the Moon–Moser graph on 27 points has 3^9 = 19,683, listed in
# about 60 ms on a 2.0 GHz Xeon vCPU; on 30 points, 59,049 take 265 ms.
CLIQUE_CAP = 20_000

# Most points a metrized ground may have.  ``unimet metrize`` on ball covers
# of depth 4 / 8 over random closure spaces takes 0.9-1.0 / 1.0-1.1 s on 448
# points, 1.1-1.2 / 1.0-1.3 s on 512 and 1.8-2.7 / 2.3-2.6 s on 640, within
# the 2.8-3.6 / 2.9-3.6 s it took on 448 points when 448 was the cap; three
# runs each, Python 3.11, Xeon vCPU.  With the covers on masks, the
# shortest-path closure leads: 0.57 of 1.29 s in a cProfile of 448 points.
GROUND_CAP = 640


def check_ground_size(ground: int) -> None:
    """Refuse more than ``GROUND_CAP`` points; ``jsonio`` asks after the first cover."""
    if ground > GROUND_CAP:
        raise PreconditionError(
            f"{ground} points exceed the metrization's GROUND_CAP = {GROUND_CAP}")


# A mask's binary digits, lowest bit first, as the bytes 0 and 1, and back.
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask_flags(mask: int) -> bytes:
    """Byte x is 1 when bit x of the mask is set, else 0, up to its top bit."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def _points(mask: int) -> tuple:
    """The points of a mask, ascending: the positions of its set bits."""
    return tuple(compress(count(), _mask_flags(mask)))


def _flag_mask(flags: bytes) -> int:
    """The mask whose bit x is ``flags[x]``, each flag 0 or 1."""
    return int(flags.translate(_DIGITS)[::-1], 2)


@dataclass(frozen=True)
class Cover:
    """Ordered cover of {0, ..., ground-1} by nonempty index sets."""

    ground: int
    members: tuple

    def __post_init__(self) -> None:
        if type(self.ground) is not int or self.ground <= 0:
            raise StructuralError("cover ground must be a positive integer")
        cleaned = tuple(dict.fromkeys(
            index_set(member, self.ground, "cover member index") for member in self.members
        ))
        if () in cleaned:
            raise StructuralError("cover members must be nonempty")
        object.__setattr__(self, "members", cleaned)
        covered = set().union(*cleaned)
        if len(covered) != self.ground:
            missing = sorted(set(range(self.ground)) - covered)
            raise StructuralError(f"not a cover: points {missing} uncovered")

    @classmethod
    def _built(cls, ground: int, members: Iterable[tuple], masks: Iterable[int]) -> "Cover":
        """A cover built here from sorted in-range members and their masks,
        kept as the constructor keeps them (the first of equal members) but
        without its ``index_set`` pass; the empty member and the uncovered
        point are refused on the masks."""
        if ground <= 0:
            raise StructuralError("cover ground must be a positive integer")
        kept = dict(zip(masks, members))
        if 0 in kept:
            raise StructuralError("cover members must be nonempty")
        missing = ((1 << ground) - 1) & ~reduce(or_, kept, 0)
        if missing:
            raise StructuralError(f"not a cover: points {list(_points(missing))} uncovered")
        cover = object.__new__(cls)
        cover.__dict__.update(ground=ground, members=tuple(kept.values()), masks=tuple(kept))
        return cover

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def holders(self) -> tuple:
        """Per point x, the indices of the members holding x, in cover order."""
        held = [[] for _ in range(self.ground)]
        for k, member in enumerate(self.members):
            for x in member:
                held[x].append(k)
        return tuple(map(tuple, held))

    @cached_property
    def masks(self) -> tuple:
        """Per member, its mask: the int with bit x set when x is in it.
        Built on first use, after any cap on the ground has been asked; the
        covers built here carry theirs from the start."""
        return tuple(sum(map((1).__lshift__, member)) for member in self.members)

    @cached_property
    def star_masks(self) -> tuple:
        """Per point x, the mask of st(x): the OR of the masks of the members
        holding x, built once and cached."""
        masks = self.masks
        return tuple(reduce(or_, map(masks.__getitem__, held)) for held in self.holders)

    def star_of(self, points: Iterable[int]) -> int:
        """The mask of the union of the members meeting the points: the OR
        of their ``star_masks``."""
        return reduce(or_, map(self.star_masks.__getitem__, points), 0)


def star_refines(cover: Cover, target: Cover):
    """None if the star of every member of cover lies in a member of target,
    else the index of the first member whose star does not.  A target
    member that holds the star holds the member's first point, so only the
    members in that point's ``holders`` are tested, each by one mask test."""
    targets = target.masks
    holders = target.holders
    for k, member in enumerate(cover.members):
        st = cover.star_of(member)
        if not any(st | targets[j] == targets[j] for j in holders[member[0]]):
            return k
    return None


def ball_cover(space: FiniteMetricSpace, radius: ScalarLike) -> Cover:
    """Cover by the closed balls of the given radius, one per point.

    Runs on the space's stored form: y lies in the ball of x when
    ``ints[x][y] * q <= p * scale`` for the radius p/q, that is when the int
    ``ints[x][y]`` is at most ``p * scale // q``, so the radius needs no
    common denominator with the distances.  Each row gives one byte flag per
    point, read as the member and as its mask.
    """
    r = as_scalar(radius)
    if r < 0:
        raise StructuralError("ball radius must be nonnegative")
    within = (r.numerator * space.scale // r.denominator).__ge__
    points = range(space.n)
    flags = [bytes(map(within, row)) for row in space.ints]
    return Cover._built(space.n, [tuple(compress(points, f)) for f in flags],
                        map(_flag_mask, flags))


# ---- small sets and containment numbers ----


def maximal_cliques(neighbours: list) -> list:
    """Every maximal clique of a graph on {0, ..., n-1}, each exactly once.

    ``neighbours[v]`` is the set of vertices adjacent to v (v itself not
    included).  Bron–Kerbosch with the pivot of Tomita, Tanaka and Takahashi
    (TCS 363 (2006) 28–42): a branch grows the clique R by a candidate v of
    P and keeps in P and in X (the vertices already tried) only the
    neighbours of v.  Its children are the candidates outside N(u), for a
    pivot u of P | X with the most neighbours in P: every maximal clique
    above R holds u or a vertex not adjacent to u, and is listed in that
    vertex's branch.  R is maximal exactly when P and X are both empty.
    More than ``CLIQUE_CAP`` cliques raise a ``PreconditionError``.
    """
    cliques = []
    stack = [((), set(range(len(neighbours))), set())]
    while stack:
        clique, p, x = stack.pop()
        if not p:
            if not x:
                cliques.append(frozenset(clique))
                if len(cliques) > CLIQUE_CAP:
                    raise PreconditionError(
                        f"more than {CLIQUE_CAP} maximal cliques, above the "
                        "clique cap (CLIQUE_CAP)"
                    )
            continue
        pivot = max(p | x, key=lambda u: len(p & neighbours[u]))
        for v in p - neighbours[pivot]:
            stack.append((clique + (v,), p & neighbours[v], x & neighbours[v]))
            p.remove(v)
            x.add(v)
    return cliques


def _cliques_within(space: FiniteMetricSpace, threshold: Scalar) -> list:
    """Maximal cliques of the graph joining the points at distance at most
    the threshold, sorted by their sorted tuples."""
    q, p = threshold.denominator, threshold.numerator * space.scale
    neighbours = [set() for _ in range(space.n)]
    for i, row in enumerate(space.ints):
        for j in range(i + 1, space.n):
            if row[j] * q <= p:
                neighbours[i].add(j)
                neighbours[j].add(i)
    return sorted(maximal_cliques(neighbours), key=sorted)


def complement_distances(space: FiniteMetricSpace, cover: Cover) -> list:
    """Per member V, in cover order, the column of d(x, complement of V)
    over the points x; None when V is the whole ground.

    The columns are ints over the space's ``scale``: the least entry of row
    x of its ``ints`` over the complement's points.  Each row is sorted by
    value once, so that entry is the first of x's sorted row whose point
    lies outside V, read off V's byte flags.  A row whose first point (its
    head) lies outside V holds its least entry there, so a column starts
    as the rows' least entries and only the rows headed by a point of V
    scan on; on a metric, row x is headed by x itself, so a column costs
    one scan per point of V.
    """
    if cover.ground != space.n:
        raise StructuralError("cover ground does not match the space")
    rows = space.ints
    orders = [sorted(range(space.n), key=row.__getitem__) for row in rows]
    lows = [row[order[0]] for row, order in zip(rows, orders)]
    headed = [[] for _ in rows]
    for x, order in enumerate(orders):
        headed[order[0]].append(x)
    whole = (1 << space.n) - 1
    table = []
    for member, mask in zip(cover.members, cover.masks):
        if mask == whole:
            table.append(None)
            continue
        inside = _mask_flags(mask).ljust(space.n, b"\0").__getitem__
        column = lows.copy()
        for y in member:
            for x in headed[y]:
                column[x] = rows[x][next(filterfalse(inside, orders[x]))]
        table.append(column)
    return table


def containment_from_distances(
    space: FiniteMetricSpace,
    table: list,
    cap: Optional[ScalarLike] = None,
) -> Optional[Scalar]:
    """Ball containment number of the cover whose ``complement_distances``
    are ``table``: the largest threshold L (from the spectrum, optionally
    capped) such that for every point some single member contains its open
    ball B(x, L).

    Stronger than a Lebesgue number for the uses here: it names a containing
    member per point rather than per small set.  Returns the cap itself when
    even the cap works, None when no positive threshold works.

    The open ball B(x, L) lies in a member V exactly when L is at most the
    distance from x to the complement of V, so a threshold works exactly
    when it is at most ``reach``, the least over x of the largest such
    distance over the members (unbounded when a member is the whole
    ground), an int over the space's ``scale`` like the table.  A cap that
    does not fit exceeds ``reach``, so the limit min(cap, reach) is then
    ``reach``, and the answer is the last of the space's sorted
    ``spectrum_ints`` at or below it: one bisection, and one ``Fraction``.
    """
    reach = None
    if all(column is not None for column in table):
        reach = min(map(max, zip(*table)))
    if cap is not None:
        capped = as_scalar(cap)
        if reach is None or capped <= Fraction(reach, space.scale):
            return capped
    values = space.spectrum_ints
    pos = len(values) if reach is None else bisect_right(values, reach)
    return Fraction(values[pos - 1], space.scale) if pos and values[pos - 1] > 0 else None


# ---- fundamental sequences and metrization ----


@dataclass(frozen=True)
class FundamentalSequence:
    """Covers C_1, ..., C_N of one ground, each star-refining its predecessor."""

    ground: int
    levels: tuple

    def __post_init__(self) -> None:
        if not self.levels:
            raise StructuralError("a fundamental sequence needs at least one level")
        for cover in self.levels:
            if not isinstance(cover, Cover):
                raise StructuralError("levels must be Cover instances")
            if cover.ground != self.ground:
                raise StructuralError("all levels must share the ground")

    @cached_property
    def refinement_witness(self):
        """None if each level star-refines the previous one, else a witness
        (level k, member index) meaning: the star of that member of C_k
        lies in no member of C_{k-1}.  Checked once and cached."""
        for k in range(1, len(self.levels)):
            bad = star_refines(self.levels[k], self.levels[k - 1])
            if bad is not None:
                return (k + 1, bad)
        return None


def ball_fundamental_sequence(
    space: FiniteMetricSpace,
    depth: int,
    base: ScalarLike = Fraction(1, 3),
    ratio: ScalarLike = Fraction(1, 3),
) -> FundamentalSequence:
    """Fundamental sequence of ball covers with geometrically shrinking radii.

    Radii r_k = base * ratio^(k-1) with ratio <= 1/3 guarantee the
    star-refinement property outright: the star of a radius-r ball in the
    radius-r cover sits inside the concentric ball of radius 3r.
    """
    b = as_scalar(base)
    q = as_scalar(ratio)
    if depth < 1:
        raise StructuralError("depth must be at least 1")
    if not (0 < q <= Fraction(1, 3)) or b <= 0:
        raise PreconditionError("need 0 < ratio <= 1/3 and base > 0 for guaranteed star-refinement")
    levels = []
    r = b
    for _ in range(depth):
        levels.append(ball_cover(space, r))
        r = r * q
    seq = FundamentalSequence(space.n, tuple(levels))
    bad = seq.refinement_witness
    if bad is not None:
        raise PreconditionError(f"ball covers failed star-refinement at {bad}")
    return seq


@dataclass(frozen=True)
class AuMetrization:
    """Output of the cover metrization: exact metric plus checked bounds."""

    space: FiniteMetricSpace
    gauge_ints: list = field(hash=False)  # the two-point function f, ints over gauge_scale
    gauge_scale: int
    comparison_ok: bool  # d <= f <= 2d entrywise
    member_diameter_ok: bool  # members of C_{2n} have d-diameter <= 2^-n
    clique_containment_ok: bool  # d-diameter <= 2^-(n+1) sets sit in C_{2n-1}
    witnesses: tuple = ()


def au_metrize(seq: FundamentalSequence) -> AuMetrization:
    """Metrize a fundamental sequence by chaining the level gauge.

    The gauge is f(x, y) = 2^-n with n the largest index such that y lies
    in x's point star at level C_{2n} (C_0 is the trivial cover, so n = 0
    always qualifies): written from the shallowest even level to the
    deepest, which writes last.  The metric is the shortest-chain closure
    of f.  Star-refinement (``refinement_witness``) makes f at most 2d, so
    the metric determines the same uniformity as the covers; both
    inequalities are checked exactly.  The gauge rows are written from
    the points of each level's ``star_masks``; the same points clear the
    diameters of the members of C_{2n} in one pass per level, and a level
    that fails has its member pairs walked for the witnesses.
    Sets of diameter at most 2^-(n+1) are checked through the maximal
    cliques of the threshold graph (``maximal_cliques``, at most ``CLIQUE_CAP``
    per level), in the order of their sorted tuples.  A ground past
    ``GROUND_CAP`` is refused first.
    """
    check_ground_size(seq.ground)
    bad = seq.refinement_witness
    if bad is not None:
        raise PreconditionError(
            f"not a fundamental sequence: star of member {bad[1]} of level {bad[0]} "
            f"is in no member of level {bad[0] - 1}"
        )
    g = seq.ground
    levels = seq.levels
    # The gauge 2^-h as the int 2^(top - h) over 2^top, top the deepest h;
    # level C_{2h} is levels[2h - 1].
    top = len(levels) // 2
    halves = range(1, top + 1)
    scale = 2**top
    gauge = [[scale] * g for _ in range(g)]
    stars = {}
    for h in halves:
        val = 2 ** (top - h)
        stars[h] = list(map(_points, levels[2 * h - 1].star_masks))
        for row, star in zip(gauge, stars[h]):
            for y in star:
                row[y] = val
    dist = closure(gauge)
    witnesses = []
    comparison_ok = True
    for x in range(g):
        for y in range(g):
            if not (dist[x][y] <= gauge[x][y] <= 2 * dist[x][y] or x == y):
                comparison_ok = False
                witnesses.append((
                    "comparison", x, y,
                    Fraction(dist[x][y], scale), Fraction(gauge[x][y], scale),
                ))
    space = FiniteMetricSpace.from_int(tuple(range(g)), dist, scale)
    member_diameter_ok = True
    for h in halves:
        bound = 2 ** (top - h)
        # y shares a member of C_{2h} with x exactly when y lies in st(x), so
        # no member has a pair past the bound when no row of dist passes it
        # over its point's star; only a level where one does is walked.
        if all(max(map(row.__getitem__, star)) <= bound for row, star in zip(dist, stars[h])):
            continue
        for idx, member in enumerate(levels[2 * h - 1].members):
            for a in range(len(member)):
                for b in member[a + 1:]:
                    if dist[member[a]][b] > bound:
                        member_diameter_ok = False
                        witnesses.append(("member_diameter", 2 * h, idx, member[a], b))
    clique_containment_ok = True
    for h in halves:
        targets = list(map(frozenset, levels[2 * h - 2].members))
        for clique in _cliques_within(space, pow2(-(h + 1))):
            if not any(clique <= t for t in targets):
                clique_containment_ok = False
                witnesses.append(("clique_containment", 2 * h, tuple(sorted(clique))))
    return AuMetrization(
        space,
        gauge,
        scale,
        comparison_ok,
        member_diameter_ok,
        clique_containment_ok,
        tuple(witnesses),
    )


# ---- point-finite refinement ----


@dataclass(frozen=True)
class RefinementResult:
    """Point-finite style refinement with certified index control.

    ``cover`` lists the surviving stars V_n, ``origins`` their indices in the
    input cover, ``core`` the pairwise disjoint kernels W_n.  Certificates:
    every V sits inside the double star of its origin member, and for every
    point x, every origin n with x in V_n is at most j for any input member
    U_j containing st(x, helper).
    """

    cover: Cover
    origins: tuple
    core: tuple
    double_star_ok: bool
    index_bound_ok: bool


def point_finite_refinement(target: Cover, helper: Cover) -> RefinementResult:
    """Refine an ordered cover into one with disjoint kernels and index bounds.

    Requires the helper to star-refine the target (star of every helper
    member inside some target member).  Kernels W_n peel the helper-star of
    target member n off the earlier stars; the output members are the helper
    stars of the surviving kernels.  Every star is the OR of the helper's
    ``star_masks`` over a set's points, and each target member's star is
    taken once, for its kernel and again as the inner star of its double
    star.  The index bound is read per point off the ``holders`` of the
    result and of the target.
    """
    if target.ground != helper.ground:
        raise StructuralError("covers must share the ground")
    bad = star_refines(helper, target)
    if bad is not None:
        raise PreconditionError(
            f"helper member {bad} has a star inside no target member"
        )
    # The helper star of each target member, as a mask.
    stars = list(map(helper.star_of, target.members))
    eaten = 0
    masks = []
    origins = []
    core = []
    for n, st_n in enumerate(stars):
        kernel = st_n & ~eaten
        eaten |= st_n
        if not kernel:
            continue
        points = _points(kernel)
        masks.append(helper.star_of(points))
        origins.append(n)
        core.append(points)
    result_cover = Cover._built(target.ground, map(_points, masks), masks)
    double_star_ok = all(
        v & ~helper.star_of(_points(stars[origins[pos]])) == 0
        for pos, v in enumerate(result_cover.masks)
    )
    # Per x, the largest origin among the refined members holding x against
    # the least target member containing st(x): the first in x's holders
    # that does, since x lies in st(x); the helper's star-refinement makes
    # one exist.
    targets = target.masks
    index_bound_ok = all(
        max(map(origins.__getitem__, held))
        <= next(j for j in target.holders[x] if point_star | targets[j] == targets[j])
        for x, (held, point_star) in enumerate(zip(result_cover.holders, helper.star_masks))
    )
    return RefinementResult(
        result_cover, tuple(origins), tuple(core), double_star_ok, index_bound_ok
    )
