"""Chain metrics on quotients of finite metric spaces.

A partition into classes induces the block distance (infimum over
representatives) and the chain distances d_n = cheapest n-segment chain of
block hops.  d_infinity is the shortest-path closure.  The classical facts
made checkable here: d_n decreases in n, doubling composes in the min-plus
sense, and d_infinity = d_n exactly when d_n already satisfies the triangle
inequality, and exactly when d_(n+1) = d_n.

One engine serves every construction: ``_class_block`` builds the class
block straight from the parts' rows, and ``kernel.ChainPowers`` takes its
chain powers (``_power``), packed from the first to the last.  On a
nonnegative block with a zero diagonal (None is +inf), d_n = d_infinity
exactly when one more relax pass leaves d_n as it is, so that pass is the
certificate: on k classes and pivots P it takes k * |P| packed relax
steps, where a triangle scan of d_n takes k(k - 1)/2 packed pair tests.
A result whose powers settled is a chain limit, which satisfies the
triangle inequality because chains concatenate, so its axiom scan leaves
that test out (``spaces._scan_proved_triangle``); a result that did not
settle is scanned in full when first checked, and the scan finds a
triangle violation.  ``glue_parts`` does not check its parts, so it
refuses a negative cross and a block outside that hypothesis before its
first relax pass.  The shortest-path closure runs only there, on a union
that d_steps leaves unconnected, to tell a union that needs more hops from
one that is disconnected.

Chains turn only at pivots.  ``quotient_by_discrete_family`` pivots at its
family's classes, since its space is checked to be a metric.
``glue_parts`` pivots at its multi-member classes when every part passes
the triangle inequality, read from the part's cached scan, and the cross
constant is None or at least half of every part's diameter; otherwise at
every class, which is the full min-plus power.  ``_power`` says why the
pivots are exact.

Gluing several spaces along identifications makes one union over the
points of all parts: distances inside a part are its metric, distances
across parts are a constant (or forbidden), and identified points in
different parts sit at distance zero, so they share a class.  Only its
class block is built, never the union matrix.

One routine, ``_assign_classes``, turns index groups into classes and
their member lists for ``quotient_by_discrete_family`` and ``glue_parts``
alike.  No result stores an axiom verdict apart from its space's report:
``is_metric`` and ``dn_equals_dinf`` read the scan that their space caches
(see ``spaces``), made as the space is built when its powers settled.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from math import lcm
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence, Tuple, Type

from .errors import PreconditionError, StructuralError
from .kernel import ChainPowers, closure
from .scalars import ONE, ScalarLike, as_scalar
from .spaces import (
    FiniteMetricSpace,
    _scan_proved_triangle,
    as_mapping,
    check_metric_axioms,
    ensure_diameter_at_most,
    ensure_metric,
    index_set,
    largest_gap,
    reflagged,
)


# Most hops a refused quotient's chain powers are followed to name where
# they settle, one ``ChainPowers.step`` relax pass per hop; a quotient that
# is built runs at most the first of them, the pass that certifies d_2.
# ``unimet build quotient`` on an irregular line (gaps in [1/2, 1] over
# denominators 7..31) with a two-point class every six points, whose powers
# settle past the cap, is refused in 0.31 / 1.4-1.7 / 8.8-13 s on 160 / 320
# / 640 points, and the same line with one two-point class builds in
# 0.30-0.34 / 1.3 / 5.7-5.8 s (two runs each, Python 3.11, 2-vCPU Xeon).
QUOTIENT_CAP = 8


def class_members(class_of: Sequence[int], count: int) -> list:
    """The member indices of each of ``count`` classes, in index order."""
    members_of: list = [[] for _ in range(count)]
    for i, c in enumerate(class_of):
        members_of[c].append(i)
    return members_of


def _assign_classes(
    labels: Sequence, groups: Iterable[Iterable[int]],
    overlap: Type[Exception] = StructuralError,
) -> tuple:
    """``(class_of, members_of)`` for groups of indices into ``labels``.

    Groups must be nonempty, in range and disjoint; every index is range
    checked before any overlap, and a point in two groups raises
    ``overlap`` naming its label.  Group k becomes class k, and each point
    that no group lists becomes a singleton class after them, in index
    order.
    """
    n = len(labels)
    cleaned = [index_set(group, n, "class member") for group in groups]
    if not all(cleaned):
        raise StructuralError("classes must be nonempty")
    class_of: list = [None] * n
    for k, members in enumerate(cleaned):
        for i in members:
            if class_of[i] is not None:
                raise overlap(f"point {labels[i]!r} assigned to two classes")
            class_of[i] = k
    count = len(cleaned)
    for i in range(n):
        if class_of[i] is None:
            class_of[i] = count
            count += 1
    return tuple(class_of), class_members(class_of, count)


def _class_block(parts, factors, hop, class_of, members_of, shared) -> list:
    """The class block of ``parts`` glued along classes, over one scale.

    A hop inside part p costs its int distance times ``factors[p]``, a hop
    between parts costs ``hop`` (None forbids it), and two members of one
    class in different parts sit at zero; a class hop is the least over
    member pairs, None when no pair has an allowed hop.  ``class_of`` runs
    over the points of all parts in order.  Classes from ``shared`` on are
    single points, those of a part in its index order (``_assign_classes``),
    so a point's row over the classes reads its part's row at those points,
    ``hop`` at the other parts' single points, and at each shared class the
    least over its members in the part, with ``hop`` when one lies outside.
    A shared class's row is the least of its members' rows, with a zero
    diagonal when its members lie in two parts.
    """
    count = len(members_of)
    point_rows, part_of = [], []
    start, offset = shared, 0
    for p, (part, f) in enumerate(zip(parts, factors)):
        m = part.ints if f == 1 else [list(map(mul, row, repeat(f))) for row in part.ints]
        end = offset + part.n
        single = [c >= shared for c in class_of[offset:end]]
        stop = start + sum(single)
        # Per shared class, its column over the part's points: the least
        # over its members here, and ``hop`` when one lies outside.
        columns = []
        for members in members_of[:shared]:
            cols = [g - offset for g in members if offset <= g < end]
            column = map(itemgetter(*cols), m) if cols else repeat(hop)
            if len(cols) > 1:
                column = map(min, column)
            if cols and len(cols) < len(members) and hop is not None:
                column = map(min, column, repeat(hop))
            columns.append(column)
        before, after = [hop] * (start - shared), [hop] * (count - stop)
        heads = zip(*columns) if columns else repeat(())
        point_rows += [[*head, *before, *compress(row, single), *after]
                       for head, row in zip(heads, m)]
        part_of += [p] * part.n
        offset, start = end, stop
    block = []
    for c, members in enumerate(members_of):
        row = point_rows[members[0]]
        for g in members[1:]:
            row = [b if a is None or b is not None and b < a else a
                   for a, b in zip(row, point_rows[g])]
        if len({part_of[g] for g in members}) > 1 and row[c] > 0:
            row[c] = 0
        block.append(row)
    return block


def _power(block: list, steps: int, pivots: Sequence[int]) -> tuple:
    """``(d_steps, settled)`` of an integer block matrix, with chains
    turning only at ``pivots`` (``kernel.ChainPowers``): ``settled`` says
    whether d_steps = d_infinity.  Chains never need more hops than
    class_count - 1, because repeats drop out, so no more steps are taken,
    and d_steps has settled when steps reaches that bound.  Below it, one
    more relax pass decides: d_(n+1) = d_n holds for good once it holds,
    so d_n = d_infinity exactly when d_(n+1) = d_n.

    That is exact for the pivots that ``glue_parts`` passes under its
    guard, the multi-member classes of parts that each pass the triangle
    inequality, glued with no cross constant or one at least half of every
    part's diameter; and so for the family's classes that
    ``quotient_by_discrete_family`` pivots at, one metric part with no cross
    hop.  A single-point class s of part p drops out of any chain: for the
    nearest members r and q of its neighbours, u(r, s) + u(s, q) >= u(r, q),
    where u is the union's distance,
    - by the triangle inequality when r and q both lie in p;
    - because u is the cross constant when exactly one of them lies
      outside p;
    - because 2 * cross >= diam when both lie in one other part (and u is
      at most the cross constant when they lie in two).
    Dropping s saves a hop and costs nothing, so the cheapest chain of at
    most n hops turns only at multi-member classes.  That holds for every
    n, so the restricted powers equal the full ones, and a restricted
    fixed point, d_(n+1) = d_n over the pivots, is d_infinity.
    """
    powers = ChainPowers(block, pivots)
    for _ in range(min(steps, len(block) - 1) - 1):
        powers.step()
    power = powers.matrix()
    return power, steps >= len(block) - 1 or not powers.step()


def _triangle_holds(space: FiniteMetricSpace) -> bool:
    """Whether the cached scan of ``space`` finds no triangle violation."""
    return "triangle" not in check_metric_axioms(space).violated_axioms()


# ---- quotients by families and glued unions ----


@dataclass(frozen=True)
class QuotientResult:
    """Quotient by a disjoint family with its settle index.

    ``class_of[i]`` is the class of point i; ``settled_at`` is the least n
    with d_n = d_infinity, 1 or 2.  A family whose d_2 falls short of
    d_infinity is refused, so every result has d_2 = d_infinity.
    """

    space: FiniteMetricSpace
    class_of: tuple
    settled_at: int


def quotient_by_discrete_family(
    space: FiniteMetricSpace,
    family: Sequence[Iterable[int]],
) -> QuotientResult:
    """Collapse each set of a disjoint family to a point, with certificates.

    For a metric source, the result is certified to be a metric.  The
    two-hop distance d_2 is certified equal to d_infinity: d_2 = d_1, at
    most three classes, or one more relax pass that leaves d_2 as it is.
    This holds automatically when the family has a single set (chains pivot
    at the one glued class), and is checked, not assumed, for larger
    families, where it can genuinely fail; failure raises, because callers
    rely on d_2 being the quotient metric, and names the least n with d_n =
    d_infinity, or that none is at most ``QUOTIENT_CAP``.  The result's
    axiom scan leaves out the triangle test, which d_infinity passes.
    """
    ensure_metric(space, "quotient_by_discrete_family")
    class_of, members_of = _assign_classes(space.points, family, PreconditionError)
    shared = len(family)
    block = _class_block([space], [1], None, class_of, members_of, shared)
    # The space is a metric, so chains turn only at the family's classes.
    powers = ChainPowers(block, range(shared))
    settled = 2 if powers.step() else 1
    power = powers.matrix()
    # d_2 = d_1 is a fixed point, and d_2 on at most three classes is
    # d_infinity by the hop bound.  Otherwise the powers settle at the first
    # n with d_n = d_{n+1}, since d_{n+1} = d_n then holds for good; the
    # first pass of this loop decides d_2 = d_infinity.
    if settled == 2 and len(block) > 3:
        while powers.step():
            if settled == QUOTIENT_CAP:
                raise PreconditionError(
                    "two-hop quotient distance differs from the chain limit for "
                    f"this family (they still differ at n = QUOTIENT_CAP = {settled})"
                )
            settled += 1
        if settled > 2:
            raise PreconditionError(
                "two-hop quotient distance differs from the chain limit for this "
                f"family (they agree first at n = {settled})"
            )
    labels = tuple(tuple(space.points[i] for i in members) for members in members_of)
    chain = FiniteMetricSpace.from_int(labels, power, space.scale)
    _scan_proved_triangle(chain)
    ensure_metric(chain, "quotient of a metric by a disjoint family")
    return QuotientResult(chain, class_of, settled)


@dataclass(frozen=True)
class GluedUnion:
    """Union of parts glued along identified points, via the chain engine.

    ``space`` carries d_steps on the classes; ``class_of_part`` maps (part
    index, point index) to a class index.  When d_steps settled, its space
    holds the report scanned as it was built, without the triangle test;
    otherwise the first check scans it in full.  Either way the two
    certificates read that one report.
    """

    space: FiniteMetricSpace
    steps: int
    class_of_part: tuple

    @property
    def dn_equals_dinf(self) -> bool:
        """Whether d_steps is the chain limit: the triangle verdict of the
        space's report, which ``is_metric`` reads too.  d_steps passes the
        triangle inequality exactly when it settled."""
        return _triangle_holds(self.space)

    def is_metric(self) -> bool:
        return check_metric_axioms(self.space, allow_pseudo=False).ok


def glue_parts(
    parts: Sequence[FiniteMetricSpace],
    identifications: Sequence[Sequence[Tuple[int, int]]],
    cross: Optional[ScalarLike],
    steps: int,
) -> GluedUnion:
    """Glue parts along classes of (part, point) pairs.

    Cross-part block hops cost the constant ``cross``; None forbids them, so
    every chain must pivot through glued classes.  Identified pairs must list
    existing points; points not identified become singleton classes.  One
    int matrix over the points of all parts, over one scale (None for a
    forbidden cross hop, zero between identified points of different parts),
    is reduced to the class block, and the chain engine runs on it,
    with one more relax pass to tell whether d_steps settled.  A negative
    ``cross`` and a block with a negative entry or a nonzero diagonal are
    refused before any product.
    """
    if not parts:
        raise StructuralError("glue_parts needs at least one part")
    cross_val = as_scalar(cross) if cross is not None else None
    if cross_val is not None and cross_val < 0:
        raise PreconditionError(f"glue_parts cross distance {cross_val} is negative")
    den = 1 if cross_val is None else cross_val.denominator
    scale = lcm(den, *(part.scale for part in parts))
    factors = [scale // part.scale for part in parts]
    hop = None if cross_val is None else cross_val.numerator * (scale // den)
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.n

    def global_index(part_idx: int, point_idx: int) -> int:
        index_set((part_idx,), len(parts), "part index")
        index_set((point_idx,), parts[part_idx].n, f"part {part_idx} point index")
        return offsets[part_idx] + point_idx

    point_labels = [(p, point) for p, part in enumerate(parts) for point in part.points]
    groups = [[global_index(*pair) for pair in group] for group in identifications]
    class_of, members_of = _assign_classes(point_labels, groups)
    labels = tuple(tuple(point_labels[g] for g in members) for members in members_of)

    block = _class_block(parts, factors, hop, class_of, members_of, len(groups))
    defect = next((c for c, row in enumerate(block)
                   if row[c] != 0
                   or min(row if None not in row else [v for v in row if v is not None]) < 0),
                  None)
    if defect is not None:
        raise PreconditionError(
            "glue_parts needs nonnegative distances and a zero diagonal, which "
            f"class {labels[defect]!r} breaks"
        )
    pivots = range(len(block))
    if (all(cross_val is None or 2 * cross_val >= part.diameter() for part in parts)
            and all(map(_triangle_holds, parts))):
        pivots = [c for c, members in enumerate(members_of) if len(members) > 1]
    power, settled = _power(block, steps, pivots)
    # A None in d_steps means no chain of at most ``steps`` hops; only the
    # closure tells whether a longer chain connects the pair.
    if any(None in row for row in power):
        if any(None in row for row in closure(block)):
            raise PreconditionError("glued union is disconnected")
        raise PreconditionError(f"glued union needs more hops than steps = {steps}")
    space = FiniteMetricSpace.from_int(labels, power, scale, pseudo=True)
    if settled:
        _scan_proved_triangle(space)
    class_of_part = tuple(
        tuple(class_of[offsets[p] + i] for i in range(parts[p].n))
        for p in range(len(parts))
    )
    return GluedUnion(space, steps, class_of_part)


def amalgamated_union(
    left: FiniteMetricSpace,
    right: FiniteMetricSpace,
    h,
) -> FiniteMetricSpace:
    """Glue two spaces along an isometry between subsets, cross distance 1.

    h maps indices of left to indices of right, must be injective and
    isometric on its domain; both spaces need diameter <= 1.  The result is
    the two-hop chain metric on the disjoint union with all cross distances
    1 and the pairs {a, h(a)} collapsed, certified to be a metric equal to
    the chain limit, with both factors embedded isometrically.
    """
    ensure_metric(left, "amalgamated_union left factor")
    ensure_metric(right, "amalgamated_union right factor")
    ensure_diameter_at_most(left, ONE, "amalgamated_union left factor")
    ensure_diameter_at_most(right, ONE, "amalgamated_union right factor")
    mapping = as_mapping(h, left, right, "gluing")
    if not mapping:
        raise PreconditionError("amalgamated_union needs a nonempty gluing map")
    if len(set(mapping.values())) != len(mapping):
        raise PreconditionError("gluing map must be injective")
    items = list(mapping.items())
    lm, rm = left.ints, right.ints
    for a, b in items:
        for a2, b2 in items:
            if lm[a][a2] * right.scale != rm[b][b2] * left.scale:
                raise PreconditionError(
                    "gluing map is not isometric: "
                    f"d({left.points[a]!r}, {left.points[a2]!r}) = {left.d(a, a2)} "
                    f"but d({right.points[b]!r}, {right.points[b2]!r}) = {right.d(b, b2)}"
                )
    glued = glue_parts(
        [left, right],
        [((0, a), (1, b)) for a, b in items],
        ONE,
        2,
    )
    if not glued.dn_equals_dinf:
        raise PreconditionError("amalgamated union: d_2 differs from the chain limit")
    ensure_metric(glued.space, "amalgamated union")
    # isometric embedding checks for both factors
    space = reflagged(glued.space, False)
    if largest_gap(left, space, glued.class_of_part[0]) != 0:
        raise PreconditionError("left factor does not embed isometrically")
    if largest_gap(right, space, glued.class_of_part[1]) != 0:
        raise PreconditionError("right factor does not embed isometrically")
    return space
