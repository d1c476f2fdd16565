"""Product, weighted-sup and extension combinators on finite spaces.

Everything here is exact.  The product, the grid interval that the cone and
cylinder oracles multiply by, the weighted-sup rows and McShane's extension
build ints over a common scale.  Every diameter-1 refusal is
``spaces.ensure_diameter_at_most``.
"""
from __future__ import annotations

from math import lcm
from typing import Sequence

from .kernel import min_plus
from .scalars import ONE, Scalar, ScalarLike, as_scalar
from .spaces import FiniteMetricSpace, _scan_proved_triangle, ensure_diameter_at_most

def interval_space(grid: Sequence[ScalarLike]) -> FiniteMetricSpace:
    """Grid points of a real interval with the absolute-value metric, built
    on int ticks over the lcm of the grid's denominators."""
    values = tuple(sorted({as_scalar(t) for t in grid}))
    scale = lcm(*(t.denominator for t in values))
    ticks = [t.numerator * (scale // t.denominator) for t in values]
    return FiniteMetricSpace.from_int(values, [[abs(u - v) for v in ticks] for u in ticks], scale)


def product_metric(left: FiniteMetricSpace, right: FiniteMetricSpace) -> FiniteMetricSpace:
    """The l1 product on pairs (p, q), left index varying slowest: the sum
    of the factor distances, on their ints lifted to the lcm of their
    scales.

    When the cached scans of both factors found a zero diagonal, no negative
    entry and no triangle defect, each factor's triangles hold for every k,
    k = i and k = j included, so their sums do: the product is scanned as it
    is built with the triangle test left out (``_scan_proved_triangle``).
    A factor that was never scanned is not scanned here."""
    scale = lcm(left.scale, right.scale)
    a, b = scale // left.scale, scale // right.scale
    points = [(p, q) for p in left.points for q in right.points]
    rows = [[x * a + y * b for x in row_l for y in row_r]
            for row_l in left.ints for row_r in right.ints]
    space = FiniteMetricSpace.from_int(points, rows, scale, left.pseudo or right.pseudo)
    if all(map(_cached_triangles_hold, (left, right))):
        _scan_proved_triangle(space)
    return space


def _cached_triangles_hold(space: FiniteMetricSpace) -> bool:
    """Whether ``space`` has a cached scan that found a zero diagonal, no
    negative entry and no triangle defect."""
    report = space.__dict__.get("_axiom_report")
    return report is not None and {"diagonal", "nonnegativity", "triangle"}.isdisjoint(
        report.violated_axioms())


def check_weighted_levels(levels: Sequence[FiniteMetricSpace]) -> None:
    """Refuse a level of diameter above 1, where the weights stop dominating."""
    for pos, level in enumerate(levels):
        ensure_diameter_at_most(level, ONE, f"weighted sup level {pos}")


def weighted_sup_rows(levels: Sequence[FiniteMetricSpace], index_tuples) -> tuple:
    """``(rows, scale)``: int rows of max_k 2^{-(k+1)} d_k(a_k, b_k), or 0,
    over the index tuples; ``scale`` is the lcm of each level's scale << k+1."""
    scale = lcm(*(level.scale << (k + 1) for k, level in enumerate(levels)))
    weighted = [(lv.ints, scale // (lv.scale << (k + 1))) for k, lv in enumerate(levels)]
    rows = []
    for ta in index_tuples:
        row = []
        for tb in index_tuples:
            best = 0
            for (m, factor), a, b in zip(weighted, ta, tb):
                val = m[a][b] * factor
                if val > best:
                    best = val
            row.append(best)
        rows.append(row)
    return rows, scale


# ---- extensions ----


def mcshane_rows(space: FiniteMetricSpace, subset: Sequence[int], rows: Sequence[Sequence[int]],
                 scale: int, lipschitz: Scalar) -> tuple:
    """``(ints, out_scale)``: McShane's extension g'(x) = min over a of
    g(a) + L d(x, a) of each row of values g(a) * ``scale`` in subset order,
    one min-plus product over ``lcm(scale, L.denominator * space.scale)``.
    The caller passes L-Lipschitz rows of distances, never negative, as the
    product requires, so each extension restricts to its row and is
    L-Lipschitz on the whole space."""
    L, m = lipschitz, space.ints
    out_scale = lcm(scale, L.denominator * space.scale)
    factor = L.numerator * (out_scale // (L.denominator * space.scale))
    lifted = [[v * (out_scale // scale) for v in row] for row in rows]
    return min_plus(lifted, [[row[a] * factor for row in m] for a in subset]), out_scale
