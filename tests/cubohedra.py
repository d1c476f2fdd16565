"""Cubical complexes on dyadic lattices and their retraction homotopies.

The ambient complex cubulates the finitely supported sequences: at grid
level n the vertices are multiples of 2^-n and the cubes are axis boxes of
edge 2^-n along finitely many coordinates.  The lattice homotopy squeezes
each coordinate toward the nearest vertex; at t = 1 it collapses the closed
quarter-edge band around every vertex, which retracts a 2^-(n+2)
neighborhood of any subcomplex into it.

A reference model the tests check the embedding side of the paper against;
no command of the package builds a complex.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from sequences import SequencePoint
from unimet.errors import PreconditionError, StructuralError
from unimet.scalars import ONE, ZERO, Scalar, ScalarLike, as_scalar, pow2

HALF = Fraction(1, 2)


# ---- the coordinate homotopy ----


def tail_ramp(v: Scalar, t: Scalar) -> Scalar:
    """The contraction profile: v -> max(0, 1 - (1 - v)(1 + t)) on [0, 1].

    t = 0 is the identity; t = 1 collapses [0, 1/2] to 0 and stretches the
    rest linearly onto [0, 1]; 1 is fixed throughout.
    """
    candidate = 1 - (1 - v) * (1 + t)
    return candidate if candidate > 0 else ZERO


def nearest_lattice_integer(u: ScalarLike) -> int:
    """Nearest integer to u, taking the smaller one on half-integer ties."""
    return math.ceil(as_scalar(u) - HALF)


def squeeze_to_integer(u: ScalarLike, t: ScalarLike) -> Scalar:
    """One real coordinate of the homotopy, at the integer lattice.

    Writes u = k + w with k the nearest integer and |w| <= 1/2, and moves w
    by the signed profile (1/2) * ramp(2|w|, t): t = 0 changes nothing,
    t = 1 collapses |w| <= 1/4 onto the vertex.  Integers and half-integers
    stay fixed for every t.
    """
    uv, tv = as_scalar(u), as_scalar(t)
    if not 0 <= tv <= 1:
        raise PreconditionError("homotopy time must lie in [0, 1]")
    k = nearest_lattice_integer(uv)
    w = uv - k
    if w == 0:
        return Fraction(k)
    moved = HALF * tail_ramp(2 * abs(w), tv)
    return k + (moved if w > 0 else -moved)


def lattice_value(v: ScalarLike, t: ScalarLike, level: int) -> Scalar:
    """The homotopy at grid level n: v -> 2^-n G_t(2^n v)."""
    scale = pow2(level)
    return squeeze_to_integer(as_scalar(v) * scale, t) / scale


def lattice_homotopy(x: SequencePoint, t: ScalarLike, level: int) -> SequencePoint:
    """Apply the level-n coordinate homotopy to a whole sequence point.

    Every coordinate (the constant tail included) moves toward its nearest
    level-n vertex; multiples of 2^-n and 2^-(n+1) are fixed for all t.
    """
    if not isinstance(level, int) or level < 0:
        raise StructuralError("grid level must be a nonnegative integer")
    tv = as_scalar(t)
    return x.map_values(lambda v: lattice_value(v, tv, level))


# ---- cubes and complexes ----


@dataclass(frozen=True)
class Cube:
    """One axis box of a level-n complex: base vertex plus extent indices.

    ``base`` holds the nonzero coordinates of the bottom vertex as sorted
    (index, value) pairs; the box spans [base_i, base_i + 2^-n] along each
    index in ``extent`` and is pinned to base elsewhere.
    """

    base: tuple
    extent: tuple

    def __post_init__(self) -> None:
        pairs = []
        last = None
        for i, v in self.base:
            if type(i) is not int or i < 0:
                raise StructuralError("cube base indices must be nonnegative ints")
            if last is not None and i <= last:
                raise StructuralError("cube base must be sorted by index")
            last = i
            val = as_scalar(v)
            if val == 0:
                raise StructuralError("cube base omits zero coordinates")
            pairs.append((i, val))
        object.__setattr__(self, "base", tuple(pairs))
        for i in self.extent:
            if type(i) is not int or i < 0:
                raise StructuralError("cube extent indices must be nonnegative ints")
        object.__setattr__(self, "extent", tuple(sorted(set(self.extent))))

    @property
    def dimension(self) -> int:
        return len(self.extent)

    def base_value(self, index: int) -> Scalar:
        for i, v in self.base:
            if i == index:
                return v
        return ZERO

    def indices(self) -> tuple:
        return tuple(sorted({i for i, _ in self.base} | set(self.extent)))

    def interval(self, index: int, edge: Scalar) -> Tuple[Scalar, Scalar]:
        low = self.base_value(index)
        return (low, low + edge) if index in self.extent else (low, low)


def _is_face(small: Cube, big: Cube, edge: Scalar) -> bool:
    """Whether the box of ``small`` lies inside the box of ``big``."""
    for i in set(small.indices()) | set(big.indices()):
        lo_s, hi_s = small.interval(i, edge)
        lo_b, hi_b = big.interval(i, edge)
        if lo_s < lo_b or hi_s > hi_b:
            return False
    return True


@dataclass(frozen=True)
class Cubohedron:
    """Finite subcomplex of the level-n dyadic cubulation, stored as its
    maximal cubes.

    The complex is the union of the cubes and all their faces.  A face lies
    inside its cube, so membership and distance read the maximal cubes
    alone, and the 3^k faces of a k-cube are never listed.  The constructor
    validates vertex alignment (all base coordinates are multiples of the
    edge 2^-n), removes duplicates and drops every given cube that is a
    face of another, so ``cubes`` holds the maximal cubes ordered by
    dimension, extent and base.  That is quadratic in the given cubes.
    """

    level: int
    cubes: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.level, int) or self.level < 0:
            raise StructuralError("grid level must be a nonnegative integer")
        edge = self.edge
        scale = pow2(self.level)
        for cube in self.cubes:
            if not isinstance(cube, Cube):
                raise StructuralError("cubes must be Cube instances")
            for _, v in cube.base:
                if (v * scale).denominator != 1:
                    raise StructuralError(
                        f"cube base {v} is not a multiple of the edge {edge}"
                    )
        given = set(self.cubes)
        # A face of a distinct cube has a smaller dimension.
        maximal = [
            c for c in given
            if not any(o.dimension > c.dimension and _is_face(c, o, edge) for o in given)
        ]
        object.__setattr__(self, "cubes", tuple(sorted(maximal, key=_cube_key)))

    @property
    def edge(self) -> Scalar:
        return pow2(-self.level)


def _cube_key(cube: Cube):
    return (cube.dimension, cube.extent, cube.base)


def _point_interval_gap(value: Scalar, low: Scalar, high: Scalar) -> Scalar:
    if value < low:
        return low - value
    if value > high:
        return value - high
    return ZERO


def cube_contains(cube: Cube, edge: Scalar, x: SequencePoint) -> bool:
    if x.tail != 0:
        return False
    for i in set(cube.indices()) | set(x.support_indices()):
        low, high = cube.interval(i, edge)
        if not low <= x.value(i) <= high:
            return False
    return True


def subcomplex_membership(x: SequencePoint, complex_: Cubohedron) -> bool:
    """Exact membership test: x lies in some cube of the complex."""
    return any(cube_contains(c, complex_.edge, x) for c in complex_.cubes)


def distance_to_complex(x: SequencePoint, complex_: Cubohedron) -> Scalar:
    """Exact sup-norm distance from a tail-0 point to the complex."""
    if x.tail != 0:
        raise PreconditionError("distance_to_complex needs a tail-0 point")
    best = None
    for cube in complex_.cubes:
        worst = ZERO
        for i in set(cube.indices()) | set(x.support_indices()):
            low, high = cube.interval(i, complex_.edge)
            gap = _point_interval_gap(x.value(i), low, high)
            if gap > worst:
                worst = gap
        if best is None or worst < best:
            best = worst
    if best is None:
        raise PreconditionError("the complex has no cubes")
    return best


# ---- carriers and the minimal enclosing subcomplex ----


def carrier_cube(x: SequencePoint, level: int) -> Cube:
    """Smallest level-n cube containing x: lattice coordinates pinned,
    the rest spanned by the edge below."""
    if x.tail != 0:
        raise PreconditionError("carrier_cube needs a tail-0 point")
    scale = pow2(level)
    base = {}
    extent = []
    for i in x.support_indices():
        v = x.value(i)
        scaled = v * scale
        if scaled.denominator == 1:
            base[i] = v
        else:
            low = Fraction(math.floor(scaled)) / scale
            if low != 0:
                base[i] = low
            extent.append(i)
    return Cube(tuple(sorted(base.items())), tuple(extent))


@dataclass(frozen=True)
class MinimalComplexReport:
    """Minimal enclosing complex plus the minimality certificate."""

    complex: Cubohedron
    carriers: tuple
    covers_all: bool
    minimal: bool


def minimal_enclosing_subcomplex(
    points: Sequence[SequencePoint], level: int
) -> MinimalComplexReport:
    """The complex spanned by the points' carrier cubes, stored as the
    carriers that are no face of another carrier.

    Certifies that every input point is a member and that the complex is
    minimal: every maximal cube is the carrier of some input point, whose
    interior position means dropping that cube uncovers the point.
    """
    pts = list(points)
    if not pts:
        raise PreconditionError("minimal_enclosing_subcomplex needs points")
    carriers = tuple(carrier_cube(x, level) for x in pts)
    complex_ = Cubohedron(level, carriers)
    covers = all(subcomplex_membership(x, complex_) for x in pts)
    carrier_set = set(carriers)
    minimal = all(c in carrier_set for c in complex_.cubes)
    return MinimalComplexReport(complex_, carriers, covers, minimal)


# ---- the neighborhood retraction ----


@dataclass(frozen=True)
class RetractionSample:
    """Outcome of one retraction sample against a subcomplex."""

    distance: Scalar
    within_band: bool
    image_in_complex: bool

    @property
    def guaranteed_ok(self) -> bool:
        return not self.within_band or self.image_in_complex


@dataclass(frozen=True)
class RetractionReport:
    """Samples of the t = 1 homotopy against the guaranteed band.

    The band is the closed 2^-(n+2) neighborhood of the complex at homotopy
    level n; within it the image must land in the complex, outside it the
    outcome is recorded without any claim.
    """

    level: int
    band: Scalar
    samples: tuple

    @property
    def all_guaranteed_ok(self) -> bool:
        return all(s.guaranteed_ok for s in self.samples)


def neighborhood_retract_check(
    complex_: Cubohedron, samples: Sequence[SequencePoint], level: int
) -> RetractionReport:
    """Run the level-n retraction on samples and check the band guarantee.

    The homotopy level must be at least the complex's own level, making the
    complex a subcomplex of the finer lattice (its vertices are multiples
    of the coarser edge, hence of the finer one).
    """
    if not isinstance(level, int) or level < complex_.level:
        raise PreconditionError(
            "homotopy level must be an integer >= the complex level"
        )
    band = pow2(-level - 2)
    rows = []
    for x in samples:
        dist = distance_to_complex(x, complex_)
        image = lattice_homotopy(x, ONE, level)
        rows.append(
            RetractionSample(
                dist, dist <= band, subcomplex_membership(image, complex_)
            )
        )
    return RetractionReport(level, band, tuple(rows))
