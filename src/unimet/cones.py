"""Cones and joins over finite metric spaces on rational parameter grids.

The cone is the mapping cylinder of the map from its base to a point: the
apex sits at t = 1 over a base sampled at grid values in [0, 1], and
``cylinders.cylinder_slices`` builds it with the base as its own adjusted
metric (d + 0 = d).  Its two-case distance is the two-hop quotient metric
of the l1 product with the top slice collapsed.  The join samples
X x Y x [-1, 1]; the X factor survives at t = -1, the Y factor at t = +1,
and ``join_metric`` builds its rows on ints from a four-case formula that
realizes the three-hop chains through the two collapsed ends.  The
constructions evaluate the closed formulas only;
``cone_quotient_check`` and ``join_amalgam_equality`` take a built cone or
join and measure it against the product-quotient route, as the oracles
that tests and ``--oracle`` run.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .combinators import interval_space, product_metric
from .cylinders import CylinderSpace, cylinder_slices
from .errors import PreconditionError
from .quotients import GluedUnion, glue_parts, quotient_by_discrete_family
from .scalars import ONE, ZERO, Scalar, parameter_grid
from .spaces import (
    FiniteMetricSpace,
    check_metric_axioms,
    ensure_diameter_at_most,
    ensure_metric,
    largest_gap,
)


# ---- cone ----

# The one-point target of the cone's cylinder.
POINT = FiniteMetricSpace.from_int(("apex",), [[0]], 1)


class ConeSpace(CylinderSpace):
    """Cone over a base space: the cylinder of the map to a point, sampled
    at a t grid with the apex at t = 1.

    Points are ("seg", base label, t) for grid values t < 1, base-major,
    then ("apex",) last.
    """

    @property
    def base(self) -> FiniteMetricSpace:
        return self.source


def cone_metric(space: FiniteMetricSpace, t_grid) -> ConeSpace:
    """Cone over a space of diameter <= 2 (so the base slice is isometric).

    d([(x,t)], [(x',t')]) = min(d(x,x') + |t-t'|, (1-t) + (1-t')), with the
    whole slice t = 1 collapsed to the apex.
    """
    ensure_metric(space, "cone_metric")
    ensure_diameter_at_most(space, 2, "cone_metric")
    grid = parameter_grid(t_grid, ZERO, ONE, (ZERO, ONE))
    f = (0,) * space.n
    cone = cylinder_slices(space, POINT, f, grid, space, [("apex",)])
    return ConeSpace(cone, space, POINT, f, grid, space)


def cone_quotient_check(cone: ConeSpace) -> Scalar:
    """Largest gap between the cone formula and the collapsed-slice quotient.

    Builds the l1 product of the cone's base with its grid interval,
    collapses the top slice through the two-hop quotient, and compares
    entrywise with the cone distances.  Exactness means a return value of 0.
    The empty base has no top slice to collapse, so it is refused.
    """
    if not cone.base.n:
        raise PreconditionError("the collapsed-slice comparison needs a nonempty base")
    k = len(cone.t_grid)
    product = product_metric(cone.base, interval_space(cone.t_grid))
    top = [i * k + k - 1 for i in range(cone.base.n)]
    quotient = quotient_by_discrete_family(product, [top])
    class_of = quotient.class_of
    index = [class_of[i * k + tp] for i in range(cone.base.n) for tp in range(k - 1)]
    return largest_gap(cone.space, quotient.space, index + [class_of[top[0]]])


# ---- join ----


@dataclass(frozen=True)
class JoinSpace:
    """Join of two spaces sampled over a grid in [-1, 1].

    The X factor survives at t = -1 and the Y factor at t = +1.  Points are
    ordered: ("xend", x label) per X point, ("yend", y label) per Y point,
    then ("seg", x label, y label, t) for interior grid values, x-major.
    """

    space: FiniteMetricSpace
    left: FiniteMetricSpace
    right: FiniteMetricSpace
    t_grid: tuple

    @property
    def inner_ts(self) -> tuple:
        return tuple(t for t in self.t_grid if -1 < t < 1)

    def xend_index(self, i: int) -> int:
        return i

    def yend_index(self, j: int) -> int:
        return self.left.n + j

    def seg_index(self, i: int, j: int, t: Scalar) -> int:
        ts = self.inner_ts
        return self.left.n + self.right.n + (i * self.right.n + j) * len(ts) + ts.index(t)

    def class_index(self, i: int, j: int, t: Scalar) -> int:
        if t == -1:
            return self.xend_index(i)
        if t == 1:
            return self.yend_index(j)
        return self.seg_index(i, j, t)


def join_metric(
    left: FiniteMetricSpace, right: FiniteMetricSpace, t_grid
) -> JoinSpace:
    """Join of two spaces of diameter <= 2 over a [-1, 1] grid.

    A class is (x, y, t); at an end the collapsed coordinate's term drops
    out (the infimum over representatives picks equal values there).  The
    distance is the least of a direct product hop dx + dy + |ta - tb|, a
    detour through the X end dx + (ta + 1) + (tb + 1), one through the Y end
    dy + (1 - ta) + (1 - tb), and a crossing of both ends (2 - |ta - tb|) + 2.
    The rows are ints over S, the lcm of both scales and the inner grid's
    denominators: t is stored as t * S, so the ends sit at -S and S, and
    index n of a factor, whose row and column are zero, is its collapsed
    coordinate.
    """
    ensure_metric(left, "join_metric left factor")
    ensure_metric(right, "join_metric right factor")
    ensure_diameter_at_most(left, 2, "join_metric left factor")
    ensure_diameter_at_most(right, 2, "join_metric right factor")
    grid = parameter_grid(t_grid, -ONE, ONE, (-ONE, ONE))
    inner = tuple(t for t in grid if -1 < t < 1)
    nl, nr = left.n, right.n
    scale = lcm(left.scale, right.scale, *(t.denominator for t in inner))
    dx, dy = ([[v * (scale // sp.scale) for v in row] + [0] for row in sp.ints] + [[0] * (sp.n + 1)]
              for sp in (left, right))
    ticks = [t.numerator * (scale // t.denominator) for t in inner]
    classes = ([(i, nr, -scale) for i in range(nl)] + [(nl, j, scale) for j in range(nr)]
               + [(i, j, t) for i in range(nl) for j in range(nr) for t in ticks])
    two, four = 2 * scale, 4 * scale
    rows = []
    for xa, ya, ta in classes:
        row_x, row_y, row = dx[xa], dy[ya], []
        for xb, yb, tb in classes:
            gap = ta - tb if ta >= tb else tb - ta
            near_x, near_y = row_x[xb], row_y[yb]
            row.append(min(near_x + near_y + gap, near_x + two + ta + tb,
                           near_y + two - ta - tb, four - gap))
        rows.append(row)
    points = ([("xend", p) for p in left.points] + [("yend", q) for q in right.points]
              + [("seg", p, q, t) for p in left.points for q in right.points for t in inner])
    return JoinSpace(FiniteMetricSpace.from_int(points, rows, scale), left, right, grid)


# ---- the amalgam identity ----


@dataclass(frozen=True)
class JoinAmalgamReport:
    """Comparison of the join with the glued union of cone products."""

    join: JoinSpace
    amalgam: GluedUnion
    equal: bool
    max_discrepancy: Scalar
    two_hops_suffice: bool


def join_amalgam_equality(join: JoinSpace) -> JoinAmalgamReport:
    """Check that the join equals CX x Y and X x CY glued along X x Y.

    Both cone products carry l1 metrics; they are glued along the middle
    slice t = 0 with no direct cross hops, so chains pivot at glued classes.
    The join's grid must contain -1, 0 and 1, and both factors must be
    nonempty: a point of the other factor stands in for the coordinate that
    each end collapses.  The report compares the glued two-hop metric with
    the join distance entrywise.
    """
    left, right, grid = join.left, join.right, join.t_grid
    for name, factor in (("left", left), ("right", right)):
        if not factor.n:
            raise PreconditionError(f"the amalgam comparison needs a nonempty {name} factor")
    if ZERO not in grid:
        raise PreconditionError("the amalgam comparison needs 0 in the grid")
    grid_pos = tuple(t for t in grid if t >= 0)
    grid_neg_u = tuple(sorted({-t for t in grid if t <= 0}))
    cone_x = cone_metric(left, grid_pos)
    cone_y = cone_metric(right, grid_neg_u)
    # Scanning the two cones lets each product keep a scan without its
    # triangle test, which the glue's pivot guard then reads.
    check_metric_axioms(cone_x.space)
    check_metric_axioms(cone_y.space)
    part_top = product_metric(cone_x.space, right)
    part_bottom = product_metric(left, cone_y.space)

    def top_index(i: int, t: Scalar, j: int) -> int:
        return cone_x.class_index(i, t) * right.n + j

    def bottom_index(i: int, j: int, t: Scalar) -> int:
        return i * cone_y.space.n + cone_y.class_index(j, -t)

    identifications = []
    for i in range(left.n):
        for j in range(right.n):
            identifications.append(
                ((0, top_index(i, ZERO, j)), (1, bottom_index(i, j, ZERO)))
            )
    glued = glue_parts([part_top, part_bottom], identifications, None, 2)
    class_of_top = glued.class_of_part[0]
    class_of_bottom = glued.class_of_part[1]

    def amalgam_class(i: int, j: int, t: Scalar) -> int:
        if t > 0:
            return class_of_top[top_index(i, t, j)]
        if t < 0:
            return class_of_bottom[bottom_index(i, j, t)]
        return class_of_top[top_index(i, ZERO, j)]

    # the ends ignore the collapsed coordinate, so index 0 stands in for it
    index = (
        [amalgam_class(i, 0, -ONE) for i in range(left.n)]
        + [amalgam_class(0, j, ONE) for j in range(right.n)]
        + [
            amalgam_class(i, j, t)
            for i in range(left.n)
            for j in range(right.n)
            for t in join.inner_ts
        ]
    )
    worst = largest_gap(join.space, glued.space, index)
    return JoinAmalgamReport(
        join, glued, worst == 0, worst, glued.dn_equals_dinf
    )
