"""Chain metrics on quotients of finite metric spaces.

A partition into classes induces the block distance (infimum over
representatives) and the chain distances d_n = cheapest n-segment chain of
block hops.  d_infinity is the shortest-path closure.  The classical facts
made checkable here: d_n decreases in n, doubling composes in the min-plus
sense, and d_infinity = d_n exactly when d_n already satisfies the triangle
inequality.

One engine serves every construction: ``_class_block`` reduces a point
matrix to the class block, and the integer kernel takes its min-plus powers
(``_power``).  On a nonnegative block with a zero diagonal (None is +inf),
d_n = d_infinity exactly when d_n has no triangle violation, so the result's
one axiom scan is also that certificate.  ``glue_parts`` does not check its
parts, so it refuses a negative cross and a block outside that hypothesis
before its first product.  The shortest-path closure runs only there, on a
union that d_steps leaves unconnected, to tell a union that needs more hops
from one that is disconnected.

Gluing several spaces along identifications builds one union matrix over
the points of all parts first: distances inside a part are its metric,
distances across parts are a constant (or forbidden), and identified points
in different parts sit at distance zero, so they share a class.

One routine, ``_assign_classes``, turns index groups into classes and
their member lists for ``quotient_by_discrete_family`` and ``glue_parts``
alike.  No result stores an axiom verdict: ``is_metric`` and
``dn_equals_dinf`` read the scan that their space caches (see ``spaces``).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Optional, Sequence, Tuple, Type

from .errors import PreconditionError, StructuralError
from .kernel import closure, min_plus
from .scalars import ONE, ScalarLike, as_scalar
from .spaces import (
    FiniteMetricSpace,
    as_mapping,
    check_metric_axioms,
    ensure_diameter_at_most,
    ensure_metric,
    index_set,
    largest_gap,
    reflagged,
)


# Most hops a refused quotient's chain powers are followed to name where
# they settle, one min-plus product per hop; a quotient that is built never
# runs this loop.  ``unimet build quotient`` on an irregular line with a
# two-point class every six points, whose powers settle past the cap, is
# refused in 0.74 / 4.1 / 27 s on 160 / 320 / 640 points, and the same line
# with one two-point class builds in 0.53 / 2.3 / 14 s (two runs each,
# Python 3.11, Xeon vCPU).
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


def _class_block(dist, members_of: Sequence[Sequence[int]]) -> list:
    """Class-to-class minimum of ``dist`` over member pairs.

    ``None`` entries are forbidden hops; a pair of classes with no allowed
    hop gets None.  The rows of each class merge first, then the columns;
    a singleton class passes its row through.  Works on Fractions and on
    integer forms alike.
    """

    def merge(rows):
        return [
            rows[members[0]] if len(members) == 1 else [
                min((v for v in column if v is not None), default=None)
                for column in zip(*(rows[u] for u in members))
            ]
            for members in members_of
        ]

    return [list(row) for row in zip(*merge(list(zip(*merge(dist)))))]


def _hops(block: list, steps: int) -> int:
    """``max(1, min(steps, class_count - 1))``: chains never need more hops
    than class_count - 1, because repeats drop out."""
    return max(1, min(steps, len(block) - 1))


def _power(block: list, steps: int) -> list:
    """d_hops of an integer block matrix, hops as ``_hops`` caps them."""
    power = block
    for _ in range(_hops(block, steps) - 1):
        power = min_plus(power, block)
    return power


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
    two-hop distance d_2 is certified equal to d_infinity, read from the
    triangle scan of d_2; this holds automatically when the family has a
    single set (chains pivot at the one glued class), and is checked, not
    assumed, for larger families, where it can genuinely fail; failure
    raises, because callers rely on d_2 being the quotient metric, and names
    the least n with d_n = d_infinity, or that none is at most
    ``QUOTIENT_CAP``.
    """
    ensure_metric(space, "quotient_by_discrete_family")
    class_of, members_of = _assign_classes(space.points, family, PreconditionError)
    block = _class_block(space.ints, members_of)
    two = _power(block, 2)
    labels = tuple(tuple(space.points[i] for i in members) for members in members_of)
    chain = FiniteMetricSpace.from_int(labels, two, space.scale, pseudo=True)
    if not _triangle_holds(chain):
        # d_2 falls short, so d_1 and d_2 differ; the powers settle at the
        # first n with d_n = d_{n+1}, since d_{n+1} = d_n then holds for good.
        settled, power = 2, two
        while (following := min_plus(power, block)) != power:
            if settled == QUOTIENT_CAP:
                raise PreconditionError(
                    "two-hop quotient distance differs from the chain limit for "
                    f"this family (they still differ at n = QUOTIENT_CAP = {settled})"
                )
            settled, power = settled + 1, following
        raise PreconditionError(
            "two-hop quotient distance differs from the chain limit for this "
            f"family (they agree first at n = {settled})"
        )
    ensure_metric(chain, "quotient of a metric by a disjoint family")
    return QuotientResult(reflagged(chain, False), class_of, 1 if two == block else 2)


@dataclass(frozen=True)
class GluedUnion:
    """Union of parts glued along identified points, via the chain engine.

    ``space`` carries d_steps on the classes; ``class_of_part`` maps (part
    index, point index) to a class index.
    """

    space: FiniteMetricSpace
    steps: int
    class_of_part: tuple

    @property
    def dn_equals_dinf(self) -> bool:
        """Whether d_steps is the chain limit: the triangle verdict of the
        space's own scan, which ``is_metric`` reads too."""
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
    is reduced to the class block, and the chain engine runs on it.  A
    negative ``cross`` and a block with a negative entry or a nonzero
    diagonal are refused before any product.
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

    places = [(p, i) for p, part in enumerate(parts) for i in range(part.n)]
    point_labels = [(p, parts[p].points[i]) for p, i in places]
    class_of, members_of = _assign_classes(
        point_labels, [[global_index(*pair) for pair in group] for group in identifications]
    )
    union = [
        [
            parts[p].ints[i][j] * factors[p] if p == q
            else 0 if class_of[g] == class_of[h]
            else hop
            for h, (q, j) in enumerate(places)
        ]
        for g, (p, i) in enumerate(places)
    ]
    labels = tuple(tuple(point_labels[g] for g in members) for members in members_of)

    block = _class_block(union, members_of)
    defect = next((c for c, row in enumerate(block)
                   if row[c] != 0 or min(v for v in row if v is not None) < 0), None)
    if defect is not None:
        raise PreconditionError(
            "glue_parts needs nonnegative distances and a zero diagonal, which "
            f"class {labels[defect]!r} breaks"
        )
    power = _power(block, steps)
    # A None in d_steps means no chain of at most ``steps`` hops; only the
    # closure tells whether a longer chain connects the pair.
    if any(None in row for row in power):
        if any(None in row for row in closure(block)):
            raise PreconditionError("glued union is disconnected")
        raise PreconditionError(f"glued union needs more hops than steps = {steps}")
    space = FiniteMetricSpace.from_int(labels, power, scale, pseudo=True)
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
