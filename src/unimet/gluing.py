"""Metric extension off a subset and adjunction (attaching) spaces.

``extend_metric`` solves: given a metric D on a subset A of a metric space
X, produce a metric on all of X restricting to D exactly.  It pairs two
pseudo-metrics by pointwise max: the sup of clamped one-point Lipschitz
extensions of the coordinate functions D(., a), which restricts to D, and
the quotient metric of X with A collapsed, scaled into [0, 1], which is
positive off A.

``adjunction_space`` attaches X to Y along a map f on A: it equips the
disjoint union with a metric making f 1-Lipschitz (by default the capped
extension of d_X + d_Y(f., f.)), glues the graph classes, and certifies the
three-hop identity, the isometry of Y inside the result, and the positive
clearance of X - A from the attached part.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import sub
from typing import Iterable, Optional

from .combinators import mcshane_rows
from .errors import PreconditionError, StructuralError
from .quotients import glue_parts
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


def _clean_subset(space: FiniteMetricSpace, subset: Iterable[int], what: str) -> tuple:
    idxs = index_set(subset, space.n, f"{what}: subset index")
    if not idxs:
        raise PreconditionError(f"{what}: the subset must be nonempty")
    return idxs


def _partial_space(partial, size: int, what: str) -> FiniteMetricSpace:
    given = isinstance(partial, FiniteMetricSpace)
    rows = partial.ints if given else [[as_scalar(v) for v in row] for row in partial]
    if len(rows) != size or any(len(r) != size for r in rows):
        raise StructuralError(f"{what}: partial metric must be {size}x{size}")
    probe = (FiniteMetricSpace.from_int(range(size), rows, partial.scale) if given
             else FiniteMetricSpace.from_rows(range(size), rows))
    ensure_metric(probe, f"{what}: partial metric")
    return probe


def extend_metric(
    space: FiniteMetricSpace,
    subset: Iterable[int],
    partial,
) -> FiniteMetricSpace:
    """Extend a metric D given on a subset A to all of X, exactly.

    The result restricts to D on A (checked), is a metric on X (checked),
    and has diameter at most max(diam D, 1).  The extension is the pointwise
    max of the coordinate construction sup_a |D~(x, a) - D~(y, a)| (each
    D~(., a) a clamped Lipschitz extension of D(., a), all one
    ``mcshane_rows``) with the collapsed quotient metric scaled into [0, 1];
    the first part carries D, the second separates points outside A.  X/A
    is one pass in closed form (``_collapse``); only the result is scanned.
    """
    ensure_metric(space, "extend_metric")
    A = _clean_subset(space, subset, "extend_metric")
    probe = _partial_space(partial, len(A), "extend_metric")
    D, d = probe.ints, space.ints

    # L: the largest D(a, b) / d(a, b), and 1, compared as D * d' > D' * d.
    top_d, top_x = probe.scale, space.scale
    for i, a in enumerate(A):
        for j, b in enumerate(A):
            if a != b and D[i][j] * top_x > top_d * d[a][b]:
                top_d, top_x = D[i][j], d[a][b]
    L = Fraction(top_d * space.scale, top_x * probe.scale)

    coords, scale = mcshane_rows(space, A, D, probe.scale, L)
    # The collapsed quotient, scaled into [0, 1]: q / max(X's scale, diam q).
    q, q_class = _collapse(space, A)
    q_scale = max(space.scale, max(map(max, q)))
    out_scale = lcm(scale, q_scale)
    # Each point's coordinates, clamped at diam D, over out_scale.
    cap, lift = max(map(max, D)) * (scale // probe.scale), out_scale // scale
    vecs = [[(v if v <= cap else cap) * lift for v in col] for col in zip(*coords)]
    q_lift = out_scale // q_scale
    rows = [[max(q[cx][cy] * q_lift, *map(abs, map(sub, vx, vy))) for vy, cy in zip(vecs, q_class)]
            for vx, cx in zip(vecs, q_class)]
    for i, a in enumerate(A):
        for j, b in enumerate(A):
            if rows[a][b] * probe.scale != D[i][j] * out_scale:
                raise PreconditionError(
                    "extension failed to restrict to the given metric at "
                    f"({space.points[a]!r}, {space.points[b]!r})"
                )
    result = FiniteMetricSpace.from_int(space.points, rows, out_scale)
    report = check_metric_axioms(result)
    if not report.ok:
        raise PreconditionError(f"extension failed the metric axioms: {report.violations[0]}")
    return result


def _collapse(space: FiniteMetricSpace, A: tuple) -> tuple:
    """``(q, class_of)`` of X/A over X's scale: class 0 is A (its first
    point stands for it), then the other points in index order, and
    q = min(d(x, y), d(x, A) + d(A, y)), the quotient metric of one set."""
    d = space.ints
    near = [min([row[a] for a in A]) for row in d]
    in_A = set(A)
    rest = [x for x in range(space.n) if x not in in_A]
    class_of = [0] * space.n
    for c, x in enumerate(rest, 1):
        class_of[x] = c
    reps = [A[0], *rest]
    q = [[min(d[x][y], near[x] + near[y]) for y in reps] for x in reps]
    return q, class_of


@dataclass(frozen=True)
class AdjunctionResult:
    """Attached space with its computed certificates.

    ``space`` is the quotient with the three-hop metric; ``x_class`` and
    ``y_class`` locate the images of the original points.  ``clearance``
    gives, for each X point, its extension distance to the subset; the
    positivity certificate asserts every class distance from [x], x outside
    the subset, to any attached class is at least that clearance.
    """

    space: FiniteMetricSpace
    extension: FiniteMetricSpace
    x_class: tuple
    y_class: tuple
    clearance: tuple
    d3_equals_dinf: bool
    metric_ok: bool
    y_isometric: bool
    positivity_ok: bool

    def failed_certificates(self) -> tuple:
        """The names of the certificate flags that are false, in field order."""
        names = ("d3_equals_dinf", "metric_ok", "y_isometric", "positivity_ok")
        return tuple(name for name in names if not getattr(self, name))

    def all_certified(self) -> bool:
        return not self.failed_certificates()


def adjunction_space(
    space: FiniteMetricSpace,
    subset: Iterable[int],
    target: FiniteMetricSpace,
    attaching,
    cross: Optional[ScalarLike] = None,
    extension: Optional[FiniteMetricSpace] = None,
) -> AdjunctionResult:
    """Attach ``space`` to ``target`` along a map defined on the subset.

    Default route (no explicit extension): both spaces need diameter <= 1;
    the union metric on the X side is the extension of
    D(a, b) = d_X(a, b) + d_Y(f(a), f(b)) capped at 1 (the extension itself,
    with its scan, when no entry exceeds 1), and cross pairs sit at
    distance 1.  With an explicit extension (a metric on X's points making
    f 1-Lipschitz, checked), the cross constant defaults to
    1 + diam(extension) + diam(target) so cross hops never shorten chains.
    Either default is at least half of both diameters, so the three-hop
    chains of ``glue_parts`` turn only at the attached classes; an explicit
    ``cross`` below half a diameter makes them turn at every class.  An
    explicit ``cross`` must be at least 0; ``glue_parts`` refuses a negative
    one before any relax pass.

    The returned certificates are computed on the instance: the three-hop
    chain distance equals the chain limit, it is a metric, the target embeds
    isometrically, and points of X off the subset keep positive clearance
    from every attached class.
    """
    ensure_metric(space, "adjunction_space")
    ensure_metric(target, "adjunction_space target")
    A = _clean_subset(space, subset, "adjunction_space")
    f = as_mapping(attaching, space, target, "attaching map")
    if tuple(f) != A:
        raise PreconditionError("attaching map must be defined exactly on the subset")

    image = target.ints
    if extension is None:
        ensure_diameter_at_most(space, ONE, "adjunction_space")
        ensure_diameter_at_most(target, ONE, "adjunction_space target")
        scale = lcm(space.scale, target.scale)
        u, w, d = scale // space.scale, scale // target.scale, space.ints
        D = [[d[a][b] * u + image[f[a]][f[b]] * w for b in A] for a in A]
        raw = extend_metric(space, A, FiniteMetricSpace.from_int(A, D, scale))
        # Capped at 1.  An extension that the cap leaves as it is stays the
        # same object, so ``glue_parts`` reads the scan it already has.
        ext = raw
        if max(map(max, raw.ints)) > raw.scale:
            capped = [[min(v, raw.scale) for v in row] for row in raw.ints]
            ext = FiniteMetricSpace.from_int(space.points, capped, raw.scale)
        default_cross = ONE
    else:
        if extension.n != space.n:
            raise StructuralError("extension must live on the points of the space")
        ensure_metric(extension, "adjunction_space extension")
        ext = extension
        default_cross = ONE + ext.diameter() + target.diameter()
    cross_val = default_cross if cross is None else as_scalar(cross)
    e = ext.ints
    for a in A:
        for b in A:
            if image[f[a]][f[b]] * ext.scale > e[a][b] * target.scale:
                raise PreconditionError(
                    "attaching map is not 1-Lipschitz for the union metric at "
                    f"({space.points[a]!r}, {space.points[b]!r})"
                )

    groups = {}
    for a in A:
        groups.setdefault(f[a], []).append(a)
    identifications = [
        tuple([(1, y)] + [(0, a) for a in sorted(members)])
        for y, members in sorted(groups.items())
    ]
    glued = glue_parts([ext, target], identifications, cross_val, 3)

    x_class = glued.class_of_part[0]
    y_class = glued.class_of_part[1]
    metric_ok = glued.is_metric()
    result_space = reflagged(glued.space, not metric_ok)
    y_isometric = largest_gap(target, result_space, y_class) == 0
    near = [min([row[a] for a in A]) for row in e]
    clearance = tuple(Fraction(v, ext.scale) for v in near)
    r = result_space.ints
    attached_classes = set(y_class)
    in_subset = set(A)
    positivity_ok = all(
        near[x] > 0
        and min([r[x_class[x]][c] for c in attached_classes]) * ext.scale
        >= near[x] * result_space.scale
        for x in range(space.n) if x not in in_subset
    )
    return AdjunctionResult(
        result_space,
        ext,
        x_class,
        y_class,
        clearance,
        glued.dn_equals_dinf,
        metric_ok,
        y_isometric,
        positivity_ok,
    )
