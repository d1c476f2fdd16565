"""Mapping cylinders with exact metrics.

The cylinder glues X x I onto Y along (x, 1) -> f(x).  Its metric is the
three-hop adjunction distance for the drift-adjusted l1 product upstairs,
which closes to three exact formulas.  ``mapping_cylinder_metric`` checks
its inputs and ``cylinder_slices`` evaluates the formulas; the slice builder
serves the cone too, which is the cylinder of the map to a point (see
``cones``).  ``cylinder_adjunction_check`` rebuilds the adjunction and
measures the gap, as the oracle that tests and ``--oracle`` run.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .combinators import interval_space, product_metric
from .errors import PreconditionError
from .gluing import adjunction_space
from .scalars import ONE, ZERO, Scalar, as_scalar, parameter_grid
from .spaces import (
    FiniteMetricSpace,
    ensure_diameter_at_most,
    ensure_metric,
    ensure_total_map,
    largest_gap,
)

CYLINDER_CROSS = as_scalar(3)


# ---- mapping cylinder ----


@dataclass(frozen=True)
class CylinderSpace:
    """Mapping cylinder of f: X -> Y on a t grid over [0, 1].

    Classes are ("seg", x label, t) for grid values t < 1, x-major, then
    ("y", y label); the top slice (x, 1) lands in the class of f(x).
    ``adjusted`` is the drift-adjusted metric on X actually used upstairs:
    d_X(x, x') + d_Y(f(x), f(x')).
    """

    space: FiniteMetricSpace
    source: FiniteMetricSpace
    target: FiniteMetricSpace
    mapping: tuple
    t_grid: tuple
    adjusted: FiniteMetricSpace

    @property
    def inner_ts(self) -> tuple:
        return tuple(t for t in self.t_grid if t < 1)

    def seg_index(self, source_index: int, t: Scalar) -> int:
        ts = self.inner_ts
        return source_index * len(ts) + ts.index(t)

    def y_index(self, target_index: int) -> int:
        return self.source.n * len(self.inner_ts) + target_index

    def class_index(self, source_index: int, t: Scalar) -> int:
        if t == 1:
            return self.y_index(self.mapping[source_index])
        return self.seg_index(source_index, t)


def adjusted_metric(
    source: FiniteMetricSpace, target: FiniteMetricSpace, mapping
) -> FiniteMetricSpace:
    """The drift-adjusted metric d_X(x,x') + d_Y(f(x),f(x')) on X's points.

    Always a metric (the image term obeys the triangle inequality and the
    d_X term keeps distinct points apart), and f is 1-Lipschitz for it.
    """
    m = ensure_total_map(mapping, source, target, "adjusted_metric")
    scale = lcm(source.scale, target.scale)
    a, b = scale // source.scale, scale // target.scale
    rows = [
        [v * a + image[y] * b for v, y in zip(row, m)]
        for row, image in zip(source.ints, (target.ints[y] for y in m))
    ]
    return FiniteMetricSpace.from_int(source.points, rows, scale)


def mapping_cylinder_metric(
    source: FiniteMetricSpace,
    target: FiniteMetricSpace,
    mapping,
    t_grid,
) -> CylinderSpace:
    """Mapping cylinder of a map between spaces of diameter <= 1.

    The metric is given by three exact formulas (rho is the adjusted metric):
    d([y],[y']) = d_Y(y,y'); d([(x,t)],[y]) = (1-t) + d_Y(f(x),y);
    d([(x,t)],[(x',t')]) = min(rho(x,x') + |t-t'|,
    (1-t) + (1-t') + d_Y(f(x),f(x'))).  ``cylinder_adjunction_check``
    compares them with the adjunction they close.
    """
    ensure_metric(source, "mapping_cylinder_metric source")
    ensure_metric(target, "mapping_cylinder_metric target")
    ensure_diameter_at_most(source, ONE, "mapping_cylinder_metric source")
    ensure_diameter_at_most(target, ONE, "mapping_cylinder_metric target")
    f = ensure_total_map(mapping, source, target, "mapping_cylinder_metric")
    grid = parameter_grid(t_grid, ZERO, ONE, (ZERO, ONE))
    adjusted = adjusted_metric(source, target, f)
    top_labels = [("y", q) for q in target.points]
    space = cylinder_slices(source, target, f, grid, adjusted, top_labels)
    return CylinderSpace(space, source, target, f, grid, adjusted)


def cylinder_slices(
    source: FiniteMetricSpace,
    target: FiniteMetricSpace,
    f: tuple,
    grid: tuple,
    adjusted: FiniteMetricSpace,
    top_labels: Sequence,
) -> FiniteMetricSpace:
    """The cylinder formulas over a checked map ``f``, a checked grid, the
    adjusted metric on the source and one label per class of the target.

    The points are ("seg", x label, t) for grid values t < 1, x-major, then
    ``top_labels``.  It runs on ints over the lcm of the two scales and the
    grid's denominators; each 1 - t, and each image's row, is computed once.
    """
    inner = tuple(t for t in grid if t < 1)
    scale = lcm(adjusted.scale, target.scale, *(t.denominator for t in inner))
    up = [scale - t.numerator * (scale // t.denominator) for t in inner]
    gaps = [[abs(u - v) for v in up] for u in up]
    a, b = scale // adjusted.scale, scale // target.scale
    lifted = [[v * b for v in row] for row in target.ints]
    image = [lifted[y] for y in f]
    points = [("seg", p, t) for p in source.points for t in inner] + list(top_labels)
    rows = []
    for i, row_i in enumerate(adjusted.ints):
        near = [v * a for v in row_i]
        for u, gap in zip(up, gaps):
            row = []
            for j, y in enumerate(f):
                lift = u + image[i][y]
                for g, v in zip(gap, up):
                    around = near[j] + g
                    through = lift + v
                    row.append(around if around <= through else through)
            row.extend(u + d for d in image[i])
            rows.append(row)
    for y, row_y in enumerate(lifted):
        rows.append([u + image[j][y] for j in range(source.n) for u in up] + row_y)
    return FiniteMetricSpace.from_int(points, rows, scale)


def cylinder_adjunction_check(cylinder: CylinderSpace) -> Scalar:
    """Largest gap between the cylinder formulas and the adjunction route.

    Rebuilds the cylinder as adjunction_space(adjusted X x I, top slice, Y)
    with cross hops at 3 (above every displayed value, so chains pivot at
    glued classes) and the product metric itself as the extension, requires
    every adjunction certificate, and compares entrywise.  The empty
    source has no top slice to attach, so it is refused.
    """
    if not cylinder.source.n:
        raise PreconditionError("the attachment comparison needs a nonempty source")
    k = len(cylinder.t_grid)
    product = product_metric(cylinder.adjusted, interval_space(cylinder.t_grid))
    top = [i * k + k - 1 for i in range(cylinder.source.n)]
    attaching = {a: cylinder.mapping[i] for i, a in enumerate(top)}
    result = adjunction_space(
        product,
        top,
        cylinder.target,
        attaching,
        cross=CYLINDER_CROSS,
        extension=product,
    )
    if not result.all_certified():
        raise PreconditionError(
            "cylinder adjunction oracle failed its certificates"
        )
    index = [
        result.x_class[i * k + tp]
        for i in range(cylinder.source.n)
        for tp in range(k - 1)
    ]
    return largest_gap(cylinder.space, result.space, index + list(result.y_class))
