"""Euclidean and rectilinear cone models and their comparison bounds.

Reference models for Result 1 of the paper: the tests check the package's
quotient cone against them.  Both models put the apex at parameter t = 0
and the base at t = 1 (the radial convention; the package's quotient cone
collapses t = 1 instead).  The rectilinear models and the Kuratowski
embedding that feeds them are exact; the Euclidean cone metric follows the
Law of Cosines in floats, and comparisons with it run at documented
tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from sequences import SequencePoint
from unimet.errors import PreconditionError, StructuralError
from unimet.scalars import ONE, ZERO, Scalar, ScalarLike, as_scalar, parameter_grid
from unimet.spaces import (
    FiniteMetricSpace,
    check_metric_axioms,
    ensure_diameter_at_most,
    ensure_metric,
    index_set,
)

# rational lower bound of pi: guards "diameter <= pi" conservatively
# (inputs between this and pi are rejected, never the other way around)
PI_FLOOR = Fraction(314159265, 10**8)
# comparison-bound tolerance
COMPARISON_TOL = 1e-9


# ---- normed point sets ----


@dataclass(frozen=True)
class NormedPointSet:
    """Finitely many rational coordinate vectors with an exact norm.

    Supported norms: "sup" (max coordinate magnitude) and "l1".
    """

    dim: int
    points: tuple
    norm: str = "sup"

    def __post_init__(self) -> None:
        if self.norm not in ("sup", "l1"):
            raise StructuralError(f"unsupported norm {self.norm!r}")
        if not isinstance(self.dim, int) or self.dim < 0:
            raise StructuralError("dim must be a nonnegative integer")
        cleaned = []
        for p in self.points:
            vec = tuple(as_scalar(c) for c in p)
            if len(vec) != self.dim:
                raise StructuralError("point dimension mismatch")
            cleaned.append(vec)
        object.__setattr__(self, "points", tuple(cleaned))

    @property
    def n(self) -> int:
        return len(self.points)

    def norm_of(self, vector: Sequence[ScalarLike]) -> Scalar:
        coords = [abs(as_scalar(c)) for c in vector]
        if len(coords) != self.dim:
            raise StructuralError("vector dimension mismatch")
        if not coords:
            return ZERO
        return max(coords) if self.norm == "sup" else sum(coords)

    def distance(self, i: int, j: int) -> Scalar:
        return self.norm_of(
            tuple(a - b for a, b in zip(self.points[i], self.points[j]))
        )

    def max_norm(self) -> Scalar:
        return max((self.norm_of(p) for p in self.points), default=ZERO)

    def rescaled_to_unit_ball(self) -> "NormedPointSet":
        peak = self.max_norm()
        if peak <= 1:
            return self
        return NormedPointSet(
            self.dim,
            tuple(tuple(c / peak for c in p) for p in self.points),
            self.norm,
        )

    def as_metric_space(self, labels=None) -> FiniteMetricSpace:
        """Distance matrix of the points; pseudo if any coincide."""
        pts = labels if labels is not None else tuple(range(self.n))
        rows = tuple(
            tuple(self.distance(i, j) for j in range(self.n))
            for i in range(self.n)
        )
        pseudo = any(
            rows[i][j] == 0 for i in range(self.n) for j in range(i + 1, self.n)
        )
        return FiniteMetricSpace(tuple(pts), rows, pseudo=pseudo)


def kuratowski_embed(space: FiniteMetricSpace) -> list:
    """Isometric embedding into sequence space by distance coordinates.

    Point x maps to the sequence (d(x, p_0), d(x, p_1), ...) with tail 0.
    Requires diameter <= 1 so the image lives in the unit cube; rescale
    first if needed.  The embedding is exactly isometric for the sup norm.
    """
    audit = check_metric_axioms(space, allow_pseudo=True)
    if not audit.ok:
        first = audit.violations[0]
        raise PreconditionError(f"kuratowski_embed: {first.axiom} fails at {first.witness}")
    ensure_diameter_at_most(space, ONE, "kuratowski_embed")
    out = []
    for x in range(space.n):
        support = tuple((i, space.d(x, i)) for i in range(space.n))
        out.append(SequencePoint(support, ZERO))
    return out


def _scaled(vector: tuple, factor: Scalar) -> tuple:
    return tuple(factor * c for c in vector)


# ---- rectilinear models ----


def rectilinear_cone_point(point: Sequence[ScalarLike], t: ScalarLike) -> tuple:
    """f(x, t) = (t x, 1 - t): the apex (0, 1) at t = 0, the base at t = 1."""
    tv = as_scalar(t)
    return _scaled(tuple(as_scalar(c) for c in point), tv) + (ONE - tv,)


def rectilinear_cone(
    base: NormedPointSet, t_grid: Sequence[ScalarLike] = (ZERO, ONE)
) -> NormedPointSet:
    """Sample the cone over a sup-norm point set in one extra dimension.

    The ambient norm is max(point norm, |last coordinate|); samples are the
    segment points f(x, t) over the grid, with exact duplicates (notably
    the shared apex) dropped, keeping first occurrences.
    """
    if base.norm != "sup":
        raise PreconditionError("rectilinear cone model needs the sup norm")
    grid = parameter_grid(t_grid, ZERO, ONE, (ZERO, ONE))
    seen = set()
    sampled = []
    for p in base.points:
        for t in grid:
            q = rectilinear_cone_point(p, t)
            if q not in seen:
                seen.add(q)
                sampled.append(q)
    return NormedPointSet(base.dim + 1, tuple(sampled), "sup")


def rectilinear_join_point(
    left_point: Sequence[ScalarLike],
    right_point: Sequence[ScalarLike],
    tau: ScalarLike,
) -> Tuple[tuple, tuple, Scalar]:
    """Segment point between (x, 0, -1) and (0, y, +1) at parameter tau."""
    tv = as_scalar(tau)
    lw = (ONE - tv) / 2
    rw = (ONE + tv) / 2
    lvec = _scaled(tuple(as_scalar(c) for c in left_point), lw)
    rvec = _scaled(tuple(as_scalar(c) for c in right_point), rw)
    return lvec, rvec, tv


def independent_rectilinear_join(
    left: NormedPointSet,
    right: NormedPointSet,
    tau_grid: Sequence[ScalarLike] = (-ONE, ZERO, ONE),
) -> NormedPointSet:
    """Sample the independent join inside V x W x R with the sup norm.

    The left factor sits at tau = -1 (right coordinates zeroed) and the
    right factor at tau = +1; interior samples interpolate linearly.
    Exact duplicates are dropped keeping first occurrences.
    """
    if left.norm != "sup" or right.norm != "sup":
        raise PreconditionError("rectilinear join model needs sup norms")
    grid = parameter_grid(tau_grid, -ONE, ONE, (-ONE, ONE))
    seen = set()
    sampled = []
    for p in left.points:
        for q in right.points:
            for tau in grid:
                lvec, rvec, tv = rectilinear_join_point(p, q, tau)
                flat = lvec + rvec + (tv,)
                if flat not in seen:
                    seen.add(flat)
                    sampled.append(flat)
    return NormedPointSet(left.dim + right.dim + 1, tuple(sampled), "sup")


# ---- Euclidean cone ----


def euclidean_cone_distance(
    t: ScalarLike, s: ScalarLike, base_distance: ScalarLike
) -> float:
    """Law-of-Cosines distance sqrt(t^2 + s^2 - 2 t s cos d), as a float."""
    tf, sf, df = float(as_scalar(t)), float(as_scalar(s)), float(as_scalar(base_distance))
    squared = tf * tf + sf * sf - 2 * tf * sf * math.cos(df)
    return math.sqrt(squared) if squared > 0 else 0.0


@dataclass(frozen=True)
class EuclideanCone:
    """Euclidean cone samples: float matrix over ("apex",)/("seg", x, t)."""

    base: FiniteMetricSpace
    t_grid: tuple
    points: tuple
    matrix: tuple  # floats


def euclidean_cone_metric(base: FiniteMetricSpace, t_grid) -> EuclideanCone:
    """Sample the Law-of-Cosines cone over a base of diameter <= pi.

    The apex is the collapsed slice t = 0; the grid must contain 0 and stay
    within [0, 1].  The diameter guard compares exactly against a rational
    lower bound of pi (8 decimals), so inputs in the sliver between the
    bound and pi are conservatively rejected.
    """
    ensure_metric(base, "euclidean_cone_metric")
    if base.diameter() > PI_FLOOR:
        raise PreconditionError(
            "euclidean_cone_metric needs diameter <= pi "
            f"(guarded at {PI_FLOOR})"
        )
    # Not ``parameter_grid``: only the apex end 0 is required here.
    grid = sorted({as_scalar(t) for t in t_grid})
    if not grid or grid[0] < 0 or grid[-1] > 1:
        raise PreconditionError("t grid must lie in [0, 1]")
    if ZERO not in grid:
        raise PreconditionError("t grid must contain 0 (the apex)")
    positive = tuple(t for t in grid if t > 0)
    points: list = [("apex",)]
    params: list = [(0, ZERO)]
    for i in range(base.n):
        for t in positive:
            points.append(("seg", base.points[i], t))
            params.append((i, t))
    matrix = []
    for i, t in params:
        row = []
        for j, s in params:
            row.append(euclidean_cone_distance(t, s, base.d(i, j)))
        matrix.append(tuple(row))
    return EuclideanCone(base, tuple(grid), tuple(points), tuple(matrix))


# ---- comparison of the two models ----


@dataclass(frozen=True)
class ConeComparisonReport:
    """Sampled bounds between rectilinear (S) and Euclidean (E) distances.

    Violations list (sample index, S as float, E) for failed bounds; the
    ratio fields record the observed maxima of E/S and S/E over samples
    with both values positive.
    """

    samples_checked: int
    e_le_3s_ok: bool
    s_le_5e_ok: bool
    violations: tuple
    max_e_to_s: float
    max_s_to_e: float


def cone_comparison_bounds(
    base: NormedPointSet,
    samples: Sequence[Tuple[int, ScalarLike, int, ScalarLike]],
) -> ConeComparisonReport:
    """Check E <= 3S and S <= 5E over sampled cone-point pairs.

    Needs a sup-norm point set inside the closed unit ball (rescale first
    if not).  Each sample (i, t, j, s) compares the exact rectilinear
    distance S = max(||t x_i - s x_j||, |t - s|) with the float Euclidean
    distance E for the norm distance between the base points, at tolerance
    1e-9.  The point indices i and j are read by ``spaces.index_set``.
    """
    if base.norm != "sup":
        raise PreconditionError("cone comparison needs the sup norm")
    if base.max_norm() > 1:
        raise PreconditionError(
            "cone comparison needs points in the unit ball; "
            "use rescaled_to_unit_ball()"
        )
    violations = []
    max_es = 0.0
    max_se = 0.0
    first_ok = True
    second_ok = True
    count = 0
    for k, (i, t, j, s) in enumerate(samples):
        index_set((i, j), base.n, "sample point index")
        tv, sv = as_scalar(t), as_scalar(s)
        for v in (tv, sv):
            if not 0 <= v <= 1:
                raise StructuralError("cone parameters must lie in [0, 1]")
        diff = tuple(
            tv * a - sv * b for a, b in zip(base.points[i], base.points[j])
        )
        s_val = max(base.norm_of(diff), abs(tv - sv))
        e_val = euclidean_cone_distance(tv, sv, base.distance(i, j))
        s_float = float(s_val)
        count += 1
        if e_val > 3 * s_float + COMPARISON_TOL:
            first_ok = False
            violations.append((k, s_float, e_val))
        if s_float > 5 * e_val + COMPARISON_TOL:
            second_ok = False
            violations.append((k, s_float, e_val))
        if s_float > 0 and e_val > 0:
            max_es = max(max_es, e_val / s_float)
            max_se = max(max_se, s_float / e_val)
    return ConeComparisonReport(
        count, first_ok, second_ok, tuple(violations), max_es, max_se
    )
