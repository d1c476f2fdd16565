"""Finite metric spaces with exact rational distances.

A ``FiniteMetricSpace`` is a tuple of point labels and one stored form of
its distances: ``ints[i][j] / scale``, ``scale`` their least common
denominator (see ``kernel``).  The constructor takes a ``Fraction`` matrix,
checks only structure (unique labels, square matrix, exact scalars) and
converts it once; ``from_int`` takes ints and reduces them to the least
form.  ``dist``, the ``Fraction`` matrix, is a view built on first read,
and so are the sorted distinct ints above the diagonal,
``spectrum_ints``, and the ``spectrum`` built from them.
Scans and constructions run on the ints, which order, add and multiply
exactly as the Fractions do.  The metric axioms are the job of
``check_metric_axioms``, so that defective matrices can be represented and
reported with witnesses; its scan runs once per space, and ``reflagged``
carries it to a copy that only changes the pseudo flag.  The scan packs
each row of the ints into one int (``kernel.packed_rows``) and decides
first, by a verdict that tests each pair of rows in a few big-int
operations; it locates witnesses only on a matrix the verdict refuses.
A space whose builder has proved the triangle inequality, a chain limit
or an l1 product whose factors' scans prove it, is scanned as it is built,
with that test left out (``_scan_proved_triangle``): its report is the one
a full scan gives.

Witness order is deterministic: the checker scans index tuples in
lexicographic order and reports, per violated axiom, the first witness found,
with its ``Fraction`` values.

Indices are read in one place.  ``index_set`` reads a set of point
indices: it checks every entry, before it sorts any, to be an ``int`` in
range (a bool is no index), and returns the sorted distinct tuple.  A map
between two spaces comes in one of two forms, which ``as_mapping`` reads and
range-checks on both sides through ``index_set``: a dict from source to
target indices (what ``jsonio`` parses), or a flat sequence of images.
Every construction reads its subsets, families, members and maps through
these two, so none checks an index of its own.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import gcd, lcm
from operator import ne, sub
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import PreconditionError, StructuralError
from .kernel import first_triangle_witness, packed_rows, to_fractions, to_int_matrix
from .scalars import ZERO, Scalar, ScalarLike, as_scalar, brief_scalar


@dataclass(frozen=True, init=False)
class FiniteMetricSpace:
    """Labeled points with exact distances ``ints[i][j] / scale``.

    ``pseudo`` marks a space intended as a pseudo-metric (distinct points at
    distance zero allowed); it is advisory and consulted by the axiom checker
    and the CLI, never by constructions.
    """

    points: tuple
    ints: list = field(hash=False)
    scale: int
    pseudo: bool = False

    def __init__(self, points: tuple, dist: tuple, pseudo: bool = False) -> None:
        """Space with the ``Fraction`` matrix ``dist``, kept as its view."""
        points = tuple(points)
        _check_shape(points, dist)
        for row in dist:
            for value in row:
                if not isinstance(value, Fraction):
                    raise StructuralError("distance entries must be exact scalars")
        m, scale = to_int_matrix(dist)
        self.__dict__.update(points=points, ints=m, scale=scale, pseudo=pseudo, dist=dist)

    @staticmethod
    def from_rows(points: Sequence, rows: Sequence[Sequence[ScalarLike]],
                  pseudo: bool = False) -> "FiniteMetricSpace":
        dist = tuple(tuple(as_scalar(v) for v in row) for row in rows)
        return FiniteMetricSpace(points, dist, pseudo)

    @staticmethod
    def from_int(points: Sequence, m: list, scale: int,
                 pseudo: bool = False) -> "FiniteMetricSpace":
        """Space with distances ``m[i][j] / scale``, a square list of int
        rows, reduced to the least form: it equals the space the constructor
        builds from the same distances.  ``m`` is kept when already least."""
        points = tuple(points)
        _check_shape(points, m)
        common = gcd(scale, *chain.from_iterable(m))
        if common > 1:
            m = [[v // common for v in row] for row in m]
            scale //= common
        space = object.__new__(FiniteMetricSpace)
        space.__dict__.update(points=points, ints=m, scale=scale, pseudo=pseudo)
        return space

    @property
    def n(self) -> int:
        return len(self.points)

    def d(self, i: int, j: int) -> Scalar:
        return self.dist[i][j]

    @cached_property
    def dist(self) -> tuple:
        """The distances as a tuple of ``Fraction`` rows, built on first read."""
        return to_fractions(self.ints, self.scale)

    @cached_property
    def _axiom_report(self) -> AxiomReport:
        """The strict ``AxiomReport`` (positivity checked), scanned once."""
        return _scan_axioms(self)

    def diameter(self) -> Scalar:
        """Largest entry of the matrix, zero for the empty space."""
        return Fraction(max(map(max, self.ints), default=0), self.scale)

    @cached_property
    def spectrum_ints(self) -> tuple:
        """Sorted distinct ints of ``ints`` above the diagonal, zero
        included: the spectrum over ``scale``, sorted once and cached."""
        values = {0}
        for i, row in enumerate(self.ints):
            values.update(row[i + 1:])
        return tuple(sorted(values))

    @cached_property
    def _spectrum(self) -> tuple:
        return tuple(Fraction(v, self.scale) for v in self.spectrum_ints)

    def spectrum(self) -> tuple:
        """Sorted distinct distance values above the diagonal, zero
        included: built once per space from ``spectrum_ints`` and cached."""
        return self._spectrum

    def min_positive_distance(self) -> Optional[Scalar]:
        """Least positive distance above the diagonal, None when there is
        none: one ``Fraction``, of the least positive ``spectrum_ints``."""
        values = self.spectrum_ints
        pos = bisect_right(values, 0)
        return Fraction(values[pos], self.scale) if pos < len(values) else None

    def scaled(self, factor: ScalarLike) -> "FiniteMetricSpace":
        """Every distance times ``factor`` > 0, built from the stored form:
        entry v/L times p/q is v*p over L*q."""
        f = as_scalar(factor)
        if f <= 0:
            raise PreconditionError("scale factor must be positive")
        p = f.numerator
        return FiniteMetricSpace.from_int(
            self.points, [[v * p for v in row] for row in self.ints],
            self.scale * f.denominator, self.pseudo,
        )

    def rescaled_to_diameter(self, target: ScalarLike = 1) -> "FiniteMetricSpace":
        """Explicit normalization helper: scale so the diameter equals target.

        Operations that require diameter bounds never rescale silently; call
        this first.  A space of diameter zero is returned unchanged.
        """
        diam = self.diameter()
        if diam == 0:
            return self
        return self.scaled(as_scalar(target) / diam)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple
    lhs: Scalar
    rhs: Scalar


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    allow_pseudo: bool
    violations: tuple

    def violated_axioms(self) -> tuple:
        return tuple(v.axiom for v in self.violations)


def check_metric_axioms(space: FiniteMetricSpace,
                        allow_pseudo: Optional[bool] = None) -> AxiomReport:
    """Check symmetry, zero diagonal, nonnegativity, positivity, triangle.

    One violation per axiom, carrying the lexicographically first witness:
    the first index tuple in lexicographic order that breaks it, with the
    triangle witness (i, j, k) ranging over k distinct from i and j.  The
    scan runs on the space's stored form, so it is exact; the reported
    ``lhs`` and ``rhs`` are Fractions.  A verdict clears a metric by row
    checks and one packed test of the two rows of each pair i < j, every k
    at once; only a matrix it refuses is walked for witnesses.
    ``allow_pseudo`` defaults to the space's own pseudo flag; when true,
    the positivity axiom is skipped.
    The scan is cached per object: every call on one space, in either mode,
    reads the same strict report, with the positivity violation dropped for
    a pseudo check.
    """
    if allow_pseudo is None:
        allow_pseudo = space.pseudo
    report = space._axiom_report
    if allow_pseudo:
        violations = tuple(v for v in report.violations if v.axiom != "positivity")
        report = AxiomReport(not violations, allow_pseudo, violations)
    return report


def reflagged(space: FiniteMetricSpace, pseudo: bool) -> FiniteMetricSpace:
    """``space`` with its pseudo flag set to ``pseudo``.

    The copy shares the points and ``ints``, and keeps whatever ``dist``
    view and strict axiom report ``space`` has built: neither depends on
    the flag, so the copy is never converted or scanned again.
    """
    copy = FiniteMetricSpace.from_int(space.points, space.ints, space.scale, pseudo)
    built = space.__dict__
    copy.__dict__.update((k, built[k]) for k in ("dist", "_axiom_report") if k in built)
    return copy


def _scan_proved_triangle(space: FiniteMetricSpace) -> None:
    """Cache the strict report of ``space``, whose builder has proved the
    triangle inequality: ``_scan_axioms`` with the triangle test left out.
    Every other axiom is decided and located as in a full scan, so the
    report equals the one a full scan of the same matrix gives.  A chain
    limit is such a matrix (see ``quotients``), and so is a product whose
    factors' scans prove its triangles (see ``combinators``)."""
    space.__dict__["_axiom_report"] = _scan_axioms(space, False)


def _check_shape(points: Sequence, rows: Sequence) -> None:
    """Refuse repeated labels, then a matrix that is not n x n."""
    n = len(points)
    if len(set(points)) != n:
        raise StructuralError("point labels must be unique")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise StructuralError(f"distance matrix must be {n}x{n}")


# The axioms ``_scan_axioms`` checks, by the names it reports, in scan order.
AXIOMS = ("diagonal", "nonnegativity", "symmetry", "positivity", "triangle")


def _scan_axioms(space: FiniteMetricSpace, triangle: bool = True) -> AxiomReport:
    """Decide by ``_is_metric``, then locate: a matrix it refuses runs every
    axiom, positivity included, once over the stored form; a violation's
    witness values are the only Fractions built.  The verdict and the
    locator share one packing of the rows.  With ``triangle`` false the
    triangle inequality is already proved (see ``_scan_proved_triangle``):
    the rows are not packed, and neither the verdict's pair test nor the
    witness walk runs."""
    pts, m = space.points, space.ints
    packed = packed_rows(m) if triangle else None
    if _is_metric(m, packed, triangle):
        return AxiomReport(ok=True, allow_pseudo=False, violations=())
    frac = partial(Fraction, denominator=space.scale)
    violations = []

    for i, row in enumerate(m):
        if row[i] != 0:
            violations.append(AxiomViolation("diagonal", (pts[i],), frac(row[i]), ZERO))
            break
    for i, row in enumerate(m):
        if min(row) < 0:
            j = next(j for j, v in enumerate(row) if v < 0)
            violations.append(
                AxiomViolation("nonnegativity", (pts[i], pts[j]), frac(row[j]), ZERO))
            break
    cols = list(map(list, zip(*m)))
    # The first row that differs from its column does so first above the
    # diagonal: a difference at j < i would have shown in row j.
    for i, (row, col) in enumerate(zip(m, cols)):
        if row != col:
            j = list(map(ne, row, col)).index(True)
            violations.append(
                AxiomViolation("symmetry", (pts[i], pts[j]), frac(row[j]), frac(col[j])))
            break
    # Only a row with a zero off its diagonal can start a zero pair.
    pair = next(((i, j) for i, (row, col) in enumerate(zip(m, cols))
                 if row.count(0) > (row[i] == 0)
                 for j in range(i + 1, len(m)) if row[j] == 0 == col[j]), None)
    if pair is not None:
        i, j = pair
        violations.append(AxiomViolation("positivity", (pts[i], pts[j]), ZERO, ZERO))
    witness = first_triangle_witness(m, packed) if triangle else None
    if witness is not None:
        i, j, k = witness
        violations.append(AxiomViolation(
            "triangle", (pts[i], pts[j], pts[k]), frac(m[i][k]), frac(m[i][j] + m[j][k])))

    return AxiomReport(ok=not violations, allow_pseudo=False,
                       violations=tuple(violations))


def _is_metric(m, packed: Optional[tuple] = None, triangle: bool = True) -> bool:
    """Each row has a zero diagonal, no negative entry and no other zero,
    the matrix is symmetric, and, unless ``triangle`` is false, each pair
    i < j passes one test of the ``packed`` rows (``packed_rows(m)``, built
    when not given) in both directions: the triangles of (i, j) and (j, i),
    every k at once."""
    if any(row[i] != 0 or min(row) < 0 or row.count(0) != 1 for i, row in enumerate(m)):
        return False
    if any(map(ne, m, map(list, zip(*m)))):
        return False
    if not triangle:
        return True
    rows, offset, repunit, tops = packed or packed_rows(m)
    lifted = [p + offset for p in rows]
    return not any((a - q - (dr := d * repunit) | b - p - dr) & tops
                   for i, (p, a, row) in enumerate(zip(rows, lifted, m))
                   for q, b, d in zip(rows[i + 1:], lifted[i + 1:], row[i + 1:]))


def ensure_metric(space: FiniteMetricSpace, what: str = "space") -> None:
    """Raise PreconditionError unless the space passes the metric axioms,
    positivity included."""
    report = check_metric_axioms(space, allow_pseudo=False)
    if not report.ok:
        first = report.violations[0]
        raise PreconditionError(
            f"{what} is not a metric: "
            f"{first.axiom} fails at {first.witness} ({first.lhs} vs {first.rhs})")


def ensure_diameter_at_most(space: FiniteMetricSpace, bound: ScalarLike,
                            what: str = "space") -> None:
    b = as_scalar(bound)
    diam = space.diameter()
    if diam > b:
        raise PreconditionError(
            f"{what} has diameter {brief_scalar(diam)} > {brief_scalar(b)}; "
            "rescale explicitly first (rescaled_to_diameter)")


def largest_gap(space: FiniteMetricSpace, other: FiniteMetricSpace,
                index: Sequence[int]) -> Scalar:
    """Largest |d(a, b) - d_other(index[a], index[b])| over the points of
    ``space``; 0 exactly when ``index`` embeds ``space`` isometrically.
    Both stored forms are compared over the lcm of their scales."""
    scale = lcm(space.scale, other.scale)
    a, b = scale // space.scale, scale // other.scale
    m = other.ints
    gaps = [max(map(abs, map(sub, [v * a for v in row], [m[i][j] * b for j in index])), default=0)
            for i, row in zip(index, space.ints)]
    return Fraction(max(gaps, default=0), scale)


def index_set(indices: Iterable[int], n: int, what: str) -> tuple:
    """The sorted distinct tuple of ``indices``.  Each entry is checked
    before anything sorts them: it must be an ``int``, not a bool, in
    ``range(n)``; otherwise a StructuralError names it ("{what} {i!r} out of
    range")."""
    idx = tuple(indices)
    for i in idx:
        if not (type(i) is int and 0 <= i < n):
            raise StructuralError(f"{what} {i!r} out of range")
    return tuple(sorted(set(idx)))


MappingLike = Union[Mapping[int, int], Sequence[int]]


def as_mapping(obj: MappingLike, source: FiniteMetricSpace,
               target: FiniteMetricSpace, what: str = "map") -> dict:
    """A map from ``source`` into ``target`` as a dict of indices in source
    order: given as a dict, or as a flat sequence of images (i -> seq[i]).
    ``index_set`` checks its source indices against ``source`` and its
    images against ``target``."""
    pairs = list(obj.items() if isinstance(obj, Mapping) else enumerate(obj))
    index_set((a for a, _ in pairs), source.n, f"{what} source index")
    index_set((b for _, b in pairs), target.n, f"{what} target index")
    return dict(sorted(pairs))


def ensure_total_map(mapping: MappingLike, source: FiniteMetricSpace,
                     target: FiniteMetricSpace, what: str = "map") -> tuple:
    """Index tuple of ``mapping``, in any form ``as_mapping`` reads, checked
    to be a total map from ``source`` into ``target``."""
    m = as_mapping(mapping, source, target, what)
    if len(m) != source.n:
        raise PreconditionError(f"{what} must be total on the source points")
    return tuple(m.values())
