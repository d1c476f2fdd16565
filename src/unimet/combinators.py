"""Product, union, hyperspace, and extension combinators on finite spaces.

Everything here is exact.  The product, the grid interval that the cone and
cylinder oracles multiply by, the disjoint union, the weighted-sup rows and
McShane's extension build ints over a common scale; the hyperspace, the
Hausdorff distance and the Kuratowski embedding read the ``Fraction`` view.
The "l2" product returns squared distances, over the square of the common
scale, as square roots leave the exact field: a squared metric, not a
metric.  Every diameter-1 refusal is ``spaces.ensure_diameter_at_most``.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError, StructuralError
from .kernel import min_plus, to_int_matrix
from .scalars import ONE, ZERO, Scalar, ScalarLike, as_scalar
from .sequences import SequencePoint
from .spaces import FiniteMetricSpace, ensure_diameter_at_most, ensure_metric, index_set

PRODUCT_NORMS = ("l1", "linf", "l2")
# Per norm: how two factor entries over one scale combine.
_COMBINE = {"l1": add, "linf": max, "l2": lambda x, y: x * x + y * y}

# Hyperspaces grow as 2^n; refuse grounds larger than this many points.
HYPERSPACE_CAP = 12


def interval_space(grid: Sequence[ScalarLike]) -> FiniteMetricSpace:
    """Grid points of a real interval with the absolute-value metric, built
    on int ticks over the lcm of the grid's denominators."""
    values = tuple(sorted({as_scalar(t) for t in grid}))
    scale = lcm(*(t.denominator for t in values))
    ticks = [t.numerator * (scale // t.denominator) for t in values]
    return FiniteMetricSpace.from_int(values, [[abs(u - v) for v in ticks] for u in ticks], scale)


def product_metric(
    left: FiniteMetricSpace,
    right: FiniteMetricSpace,
    norm: str = "linf",
) -> FiniteMetricSpace:
    """Product space on pairs (p, q), left index varying slowest.

    norm "l1" sums the factor distances, "linf" takes their max, and "l2"
    returns the *squared* Euclidean combination d_X^2 + d_Y^2 so the result
    stays rational; the l2 matrix is a squared metric, not a metric.  The
    factors' ints are lifted to the lcm of their scales, and the "l2" rows
    are over its square.
    """
    if norm not in PRODUCT_NORMS:
        raise StructuralError(f"unknown product norm {norm!r}; use one of {PRODUCT_NORMS}")
    combine = _COMBINE[norm]
    scale = lcm(left.scale, right.scale)
    a, b = scale // left.scale, scale // right.scale
    points = [(p, q) for p in left.points for q in right.points]
    rows = [[combine(x * a, y * b) for x in row_l for y in row_r]
            for row_l in left.ints for row_r in right.ints]
    scale = scale * scale if norm == "l2" else scale
    return FiniteMetricSpace.from_int(points, rows, scale, left.pseudo or right.pseudo)


def disjoint_union_metric(
    left: FiniteMetricSpace,
    right: FiniteMetricSpace,
) -> FiniteMetricSpace:
    """Disjoint union with every cross distance exactly 1.

    Both factors must have diameter at most 1, otherwise the triangle
    inequality through the other side fails.
    """
    ensure_diameter_at_most(left, ONE, "disjoint_union_metric left factor")
    ensure_diameter_at_most(right, ONE, "disjoint_union_metric right factor")
    points = tuple(("L", p) for p in left.points) + tuple(("R", q) for q in right.points)
    scale = lcm(left.scale, right.scale)
    a, b = scale // left.scale, scale // right.scale
    rows = [[v * a for v in row] + [scale] * right.n for row in left.ints]
    rows += [[scale] * left.n + [v * b for v in row] for row in right.ints]
    return FiniteMetricSpace.from_int(points, rows, scale, left.pseudo or right.pseudo)


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


def weighted_sup_metric(levels: Sequence[FiniteMetricSpace]) -> FiniteMetricSpace:
    """Countable-product style metric on the full product of the levels.

    d((x_i), (y_i)) = max_i 2^{-i} d_i(x_i, y_i), levels weighted from i = 1.
    Each level must have diameter at most 1 so the weights dominate.
    """
    if not levels:
        raise StructuralError("weighted_sup_metric needs at least one level")
    check_weighted_levels(levels)
    index_tuples = [()]
    for level in levels:
        index_tuples = [t + (i,) for t in index_tuples for i in range(level.n)]
    points = tuple(tuple(lv.points[i] for lv, i in zip(levels, t)) for t in index_tuples)
    rows, scale = weighted_sup_rows(levels, index_tuples)
    return FiniteMetricSpace.from_int(points, rows, scale, any(l.pseudo for l in levels))


# ---- hyperspace ----


def _subset_labels(space: FiniteMetricSpace, mask: int) -> tuple:
    return tuple(space.points[i] for i in range(space.n) if mask >> i & 1)


def hausdorff_hyperspace(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Space of nonempty subsets under the Hausdorff distance capped at 1.

    Points are label tuples in index order; the metric is min(d_H, 1).  The
    construction enumerates all 2^n - 1 subsets, so grounds beyond
    ``HYPERSPACE_CAP`` points are refused.
    """
    ensure_metric(space, "hausdorff_hyperspace")
    if space.n > HYPERSPACE_CAP:
        raise PreconditionError(
            f"hyperspace over {space.n} points exceeds the cap of {HYPERSPACE_CAP}"
        )
    n = space.n
    masks = list(range(1, 1 << n))
    # dist_to[mask][x] = d(x, subset mask)
    dist_to = {}
    for mask in masks:
        members = [i for i in range(n) if mask >> i & 1]
        dist_to[mask] = [min(space.d(x, m) for m in members) for x in range(n)]
    points = tuple(_subset_labels(space, mask) for mask in masks)
    rows = []
    for ma in masks:
        row = []
        for mb in masks:
            if ma == mb:
                row.append(ZERO)
                continue
            da = dist_to[mb]
            db = dist_to[ma]
            best = ZERO
            for i in range(n):
                if ma >> i & 1 and da[i] > best:
                    best = da[i]
                if mb >> i & 1 and db[i] > best:
                    best = db[i]
                if best >= 1:
                    best = ONE
                    break
            row.append(best)
        rows.append(tuple(row))
    return FiniteMetricSpace(points, tuple(rows))


def hausdorff_distance(space: FiniteMetricSpace, a: Iterable[int], b: Iterable[int]) -> Scalar:
    """Uncapped Hausdorff distance between two nonempty index sets."""
    sa = index_set(a, space.n, "subset index")
    sb = index_set(b, space.n, "subset index")
    if not sa or not sb:
        raise StructuralError("hausdorff_distance needs nonempty subsets")
    d_a = max(min(space.d(x, y) for y in sb) for x in sa)
    d_b = max(min(space.d(x, y) for y in sa) for x in sb)
    return d_a if d_a >= d_b else d_b


# ---- embeddings and extensions ----


def kuratowski_embed(space: FiniteMetricSpace) -> list:
    """Isometric embedding into sequence space by distance coordinates.

    Point x maps to the sequence (d(x, p_0), d(x, p_1), ...) with tail 0.
    Requires diameter <= 1 so the image lives in the unit cube; rescale
    first if needed.  The embedding is exactly isometric for the sup norm.
    """
    ensure_metric(space, "kuratowski_embed", allow_pseudo=True)
    ensure_diameter_at_most(space, ONE, "kuratowski_embed")
    out = []
    for x in range(space.n):
        support = tuple((i, space.d(x, i)) for i in range(space.n))
        out.append(SequencePoint(support, ZERO))
    return out


def mcshane_rows(space: FiniteMetricSpace, subset: Sequence[int], rows: Sequence[Sequence[int]],
                 scale: int, lipschitz: Scalar) -> tuple:
    """``(ints, out_scale)``: McShane's extension g'(x) = min over a of
    g(a) + L d(x, a) of each row of values g(a) * ``scale`` in subset order,
    one min-plus product over ``lcm(scale, L.denominator * space.scale)``.
    On a symmetric subset a row is L-Lipschitz exactly when its extension
    restricts to it; otherwise the first failing pair, in order, is refused."""
    L, m = lipschitz, space.ints
    out_scale = lcm(scale, L.denominator * space.scale)
    factor = L.numerator * (out_scale // (L.denominator * space.scale))
    lifted = [[v * (out_scale // scale) for v in row] for row in rows]
    ints = min_plus(lifted, [[row[a] * factor for row in m] for a in subset])
    block = [[m[a][b] for b in subset] for a in subset]
    if [[out[a] for a in subset] for out in ints] != lifted or block != [
            list(col) for col in zip(*block)]:
        for row in lifted:
            for a, ga in zip(subset, row):
                for b, gb in zip(subset, row):
                    if abs(ga - gb) > m[a][b] * factor:
                        raise PreconditionError(
                            f"values are not {L}-Lipschitz on the subset: "
                            f"|g({space.points[a]!r}) - g({space.points[b]!r})| = "
                            f"{Fraction(abs(ga - gb), out_scale)} > "
                            f"{Fraction(m[a][b] * factor, out_scale)}")
    return ints, out_scale


def mcshane_extend(
    space: FiniteMetricSpace,
    subset: Sequence[int],
    values,
    lipschitz: ScalarLike,
) -> list:
    """Extend an L-Lipschitz function off a subset, preserving the constant L.

    g'(x) = min over a in the subset of g(a) + L d(x, a).  The restriction to
    the subset is exactly g, and g' is L-Lipschitz on the whole space.
    """
    L = as_scalar(lipschitz)
    if L < 0:
        raise StructuralError("Lipschitz constant must be nonnegative")
    idxs = list(subset)
    if not idxs:
        raise PreconditionError("mcshane_extend needs a nonempty subset")
    if len(index_set(idxs, space.n, "subset index")) != len(idxs):
        raise StructuralError("duplicate subset index")
    vals = [values[a] for a in idxs] if isinstance(values, Mapping) else list(values)
    if len(vals) != len(idxs):
        raise StructuralError("values must align with the subset")
    (row,), scale = to_int_matrix([[as_scalar(v) for v in vals]])
    (out,), out_scale = mcshane_rows(space, idxs, [row], scale, L)
    return [Fraction(v, out_scale) for v in out]
