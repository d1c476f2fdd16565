"""Truncated inverse sequences: threads, limit diagnostics, telescopes.

A truncation holds finitely many levels X_0 .. X_N and total bonding maps
p_i: X_{i+1} -> X_i.  Every verdict produced here is scoped to the window
0..N; nothing extrapolates to an infinite tail.  The pieces:

- threads: compatible tuples (x_0, .., x_N) with p_i(x_{i+1}) = x_i, and the
  weighted-sup metric on them (the restriction of the full product metric).
- stabilization (discrete image chains), convergence and Cauchy containment
  tables: neighborhood diagnostics per level and per spectrum scale.
- separation index: the first level whose thread projection pins thread
  distances, with the certifying threshold.
- telescope metrics: iterated mapping-cylinder attachments over a segment
  of levels.
- ladder perturbation analysis: given a second truncation, cross maps, and
  closeness budgets, build the telescoping limit maps and verify the
  advertised closeness, uniqueness, and injectivity bounds.

Neighborhoods are closed throughout: the eps-neighborhood of a set contains
the points at distance <= eps from it, so all containments are exact
rational comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .cylinders import mapping_cylinder_metric
from .errors import PreconditionError, StructuralError
from .gluing import adjunction_space
from .moduli import check_uniform_continuity, pair_distances
from .scalars import ONE, ZERO, Scalar, ScalarLike, as_scalar, pow2
from .spaces import FiniteMetricSpace, as_mapping, ensure_total_map

# Exhaustive thread enumeration refuses levels larger than this.
THREAD_CAP = 16

DEFAULT_TELESCOPE_GRID = (ZERO, Fraction(1, 2), ONE)


# ---- truncations ----


@dataclass(frozen=True)
class InverseSequenceTruncation:
    """Levels X_0 .. X_N with total bonds p_i: X_{i+1} -> X_i.

    ``bonds[i]`` is the index tuple of p_i, so ``bonds[i][x]`` is the image
    in level i of point x of level i+1.  Composites p_i o .. o p_{j-1} are
    cached; ``composite(j, i)`` is the identity when j == i.
    """

    levels: tuple
    bonds: tuple

    def __post_init__(self) -> None:
        if not self.levels:
            raise StructuralError("a truncation needs at least one level")
        for level in self.levels:
            if not isinstance(level, FiniteMetricSpace):
                raise StructuralError("levels must be finite metric spaces")
        if len(self.bonds) != len(self.levels) - 1:
            raise StructuralError(
                f"{len(self.levels)} levels need {len(self.levels) - 1} bonds, "
                f"got {len(self.bonds)}"
            )
        for i, bond in enumerate(self.bonds):
            if len(bond) != self.levels[i + 1].n:
                raise StructuralError(f"bond {i} must be total on level {i + 1}")
            for value in bond:
                if not isinstance(value, int) or not 0 <= value < self.levels[i].n:
                    raise StructuralError(f"bond {i} image {value!r} out of range")

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def _composites(self) -> dict:
        return {}

    def composite(self, j: int, i: int) -> tuple:
        """Index tuple of p^j_i: X_j -> X_i for i <= j."""
        if not 0 <= i <= j <= self.top:
            raise StructuralError(f"composite needs 0 <= i <= j <= {self.top}")
        key = (j, i)
        cache = self._composites
        if key not in cache:
            if i == j:
                cache[key] = tuple(range(self.levels[j].n))
            else:
                upper = self.composite(j - 1, i)
                cache[key] = tuple(upper[x] for x in self.bonds[j - 1])
        return cache[key]

    def image(self, j: int, i: int) -> tuple:
        """Sorted index set of p^j_i(X_j) inside level i."""
        return tuple(sorted(set(self.composite(j, i))))

    def bond_surjective(self, i: int) -> bool:
        return set(self.bonds[i]) == set(range(self.levels[i].n))

    def surjective_bonds(self) -> tuple:
        """Per-bond surjectivity flags; informational, never required."""
        return tuple(self.bond_surjective(i) for i in range(self.top))


def inverse_sequence(levels: Sequence[FiniteMetricSpace], bonds: Sequence) -> InverseSequenceTruncation:
    """Build a truncation, normalizing each bond to a total index tuple."""
    level_tuple = tuple(levels)
    if not level_tuple:
        raise StructuralError("a truncation needs at least one level")
    if len(bonds) != len(level_tuple) - 1:
        raise StructuralError(
            f"{len(level_tuple)} levels need {len(level_tuple) - 1} bonds, "
            f"got {len(bonds)}"
        )
    normalized = []
    for i, bond in enumerate(bonds):
        mapping = as_mapping(bond)
        ensure_total_map(mapping, level_tuple[i + 1], level_tuple[i], f"bond {i}")
        normalized.append(tuple(mapping[x] for x in range(level_tuple[i + 1].n)))
    return InverseSequenceTruncation(level_tuple, tuple(normalized))


# ---- threads ----


@dataclass(frozen=True)
class Thread:
    """Compatible tuple of per-level point indices."""

    entries: tuple

    def compatible_with(self, truncation: InverseSequenceTruncation) -> bool:
        if len(self.entries) != truncation.top + 1:
            return False
        return all(
            truncation.bonds[i][self.entries[i + 1]] == self.entries[i]
            for i in range(truncation.top)
        )


def _check_cap(truncation: InverseSequenceTruncation, cap: int) -> None:
    for i, level in enumerate(truncation.levels):
        if level.n > cap:
            raise PreconditionError(
                f"level {i} has {level.n} points, above the enumeration cap {cap}"
            )


def threads(truncation: InverseSequenceTruncation, cap: int = THREAD_CAP) -> list:
    """All threads of the truncation, in top-level point order.

    Compatibility pins every lower entry from the top one (x_i must equal
    p^N_i(x_N)), so the exhaustive thread set is exactly one thread per
    top-level point.  The cap guards the associated table sizes.
    """
    _check_cap(truncation, cap)
    composites = [truncation.composite(truncation.top, i) for i in range(truncation.top + 1)]
    return [
        Thread(tuple(comp[x] for comp in composites))
        for x in range(truncation.levels[truncation.top].n)
    ]


@dataclass(frozen=True)
class ThreadSpace:
    """Thread set with the weighted-sup metric restriction.

    ``space`` carries d(t, t') = max_i 2^{-(i+1)} d_i(t_i, t'_i) on the
    thread tuples, the restriction of the full product metric to the thread
    set; its points are the per-level label tuples in thread order.
    """

    truncation: InverseSequenceTruncation
    threads: tuple
    space: FiniteMetricSpace

    def projection(self, i: int) -> tuple:
        """Index tuple of the projection to level i, in thread order."""
        return tuple(thread.entries[i] for thread in self.threads)


def thread_space(truncation: InverseSequenceTruncation, cap: int = THREAD_CAP) -> ThreadSpace:
    """Threads with their weighted-sup metric.

    Levels need diameter <= 1 so the level weights dominate, exactly as in
    the full product construction; rescale the levels first otherwise.
    """
    for i, level in enumerate(truncation.levels):
        for a in range(level.n):
            for b in range(level.n):
                if level.d(a, b) > ONE:
                    raise PreconditionError(
                        "weighted sup needs diameter <= 1; level "
                        f"{i} has d({level.points[a]!r}, {level.points[b]!r}) "
                        f"= {level.d(a, b)}"
                    )
    thread_list = tuple(threads(truncation, cap))
    weights = [pow2(-(i + 1)) for i in range(truncation.top + 1)]
    points = tuple(
        tuple(
            truncation.levels[i].points[thread.entries[i]]
            for i in range(truncation.top + 1)
        )
        for thread in thread_list
    )
    rows = []
    for ta in thread_list:
        row = []
        for tb in thread_list:
            best = ZERO
            for i, level in enumerate(truncation.levels):
                value = weights[i] * level.d(ta.entries[i], tb.entries[i])
                if value > best:
                    best = value
            row.append(best)
        rows.append(tuple(row))
    space = FiniteMetricSpace(points, tuple(rows))
    return ThreadSpace(truncation, thread_list, space)


# ---- image stabilization ----


@dataclass(frozen=True)
class StabilizationRow:
    """Image chain p^k_i(X_k), k = level..top, with its settling point.

    ``stabilized_at`` is the smallest j with the chain constant from j to
    the top, provided at least one equality step witnesses it (or the chain
    has a single entry); None means the images were still changing at the
    last step, so stabilization cannot be claimed within the window.
    """

    level: int
    images: tuple
    stabilized_at: Optional[int]

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None

    def constant_from(self, j: int) -> bool:
        offset = j - self.level
        return all(image == self.images[-1] for image in self.images[offset:])


@dataclass(frozen=True)
class MittagLefflerReport:
    rows: tuple

    @property
    def all_stabilized(self) -> bool:
        return all(row.stabilized for row in self.rows)


def mittag_leffler_report(truncation: InverseSequenceTruncation) -> MittagLefflerReport:
    """Per-level stabilization verdicts for the image chains.

    Treats the levels as discrete sets: only images of the bonding maps
    matter, distances are ignored.  Levels flagged as pseudo-metrics are
    refused since points at distance zero are not discretely separated.
    """
    for i, level in enumerate(truncation.levels):
        if level.pseudo:
            raise PreconditionError(
                f"stabilization needs discretely separated points; level {i} "
                "is flagged as a pseudo-metric"
            )
    rows = []
    top = truncation.top
    for i in range(top + 1):
        images = tuple(truncation.image(k, i) for k in range(i, top + 1))
        settle = top
        for k in range(top - 1, i - 1, -1):
            if images[k - i] == images[-1]:
                settle = k
            else:
                break
        witnessed = settle < top or i == top
        rows.append(StabilizationRow(i, images, settle if witnessed else None))
    return MittagLefflerReport(tuple(rows))


# ---- convergence and Cauchy tables ----


def _distance_to_set(space: FiniteMetricSpace, point: int, subset) -> Scalar:
    return min(space.d(point, other) for other in subset)


def _within_neighborhood(space: FiniteMetricSpace, inner, outer, eps: Scalar) -> bool:
    # Empty inner sets are contained in anything; nothing nonempty fits in
    # a neighborhood of the empty set.
    if not inner:
        return True
    if not outer:
        return False
    return all(_distance_to_set(space, x, outer) <= eps for x in inner)


@dataclass(frozen=True)
class ConvergenceRow:
    """Containments of level images in a neighborhood of the limit shadow.

    ``holds[k]`` says whether p^j_i(X_j), j = level + k, lies inside the
    closed epsilon-neighborhood of the thread projection; ``holds_from`` is
    the smallest j from which every later containment holds (the top index
    at worst, where the containment is automatic).
    """

    level: int
    top: int
    epsilon: Scalar
    holds: tuple
    holds_from: int

    @property
    def all_hold(self) -> bool:
        return self.holds_from == self.level

    @property
    def witnessed(self) -> bool:
        # The top containment alone is automatic, never evidence.
        return self.holds_from < self.top or self.level == self.top


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple

    @property
    def all_hold(self) -> bool:
        return all(row.all_hold for row in self.rows)

    def row(self, level: int, epsilon: ScalarLike) -> ConvergenceRow:
        eps = as_scalar(epsilon)
        for row in self.rows:
            if row.level == level and row.epsilon == eps:
                return row
        raise StructuralError(f"no convergence row for level {level} at {eps}")


def convergence_row(
    truncation: InverseSequenceTruncation, level: int, epsilon: ScalarLike
) -> ConvergenceRow:
    """One containment row; the thread projection is the top-level image.

    Every top-level point generates a thread, so the projection of the
    thread set to any level coincides with the image of the top level there.
    """
    if not 0 <= level <= truncation.top:
        raise StructuralError(f"level {level} out of range")
    eps = as_scalar(epsilon)
    space = truncation.levels[level]
    shadow = truncation.image(truncation.top, level)
    holds = tuple(
        _within_neighborhood(space, truncation.image(j, level), shadow, eps)
        for j in range(level, truncation.top + 1)
    )
    start = truncation.top
    for j in range(truncation.top - 1, level - 1, -1):
        if holds[j - level]:
            start = j
        else:
            break
    return ConvergenceRow(level, truncation.top, eps, holds, start)


def convergence_report(truncation: InverseSequenceTruncation) -> ConvergenceReport:
    """Containment rows for every level and every spectrum scale of it."""
    rows = []
    for i in range(truncation.top + 1):
        for eps in truncation.levels[i].spectrum():
            rows.append(convergence_row(truncation, i, eps))
    return ConvergenceReport(tuple(rows))


@dataclass(frozen=True)
class CauchyRow:
    """Anchors k whose image stays inside later images' neighborhoods.

    ``viable[k - level]`` says whether every later image's closed
    epsilon-neighborhood contains p^k_i(X_k); ``holds_from`` is the smallest
    viable anchor (the top index at worst, vacuously).
    """

    level: int
    top: int
    epsilon: Scalar
    viable: tuple
    holds_from: int

    @property
    def witnessed(self) -> bool:
        return self.holds_from < self.top or self.level == self.top


@dataclass(frozen=True)
class CauchyReport:
    rows: tuple

    def row(self, level: int, epsilon: ScalarLike) -> CauchyRow:
        eps = as_scalar(epsilon)
        for row in self.rows:
            if row.level == level and row.epsilon == eps:
                return row
        raise StructuralError(f"no cauchy row for level {level} at {eps}")


def cauchy_row(
    truncation: InverseSequenceTruncation, level: int, epsilon: ScalarLike
) -> CauchyRow:
    if not 0 <= level <= truncation.top:
        raise StructuralError(f"level {level} out of range")
    eps = as_scalar(epsilon)
    space = truncation.levels[level]
    images = {
        j: truncation.image(j, level) for j in range(level, truncation.top + 1)
    }
    viable = []
    for k in range(level, truncation.top + 1):
        viable.append(
            all(
                _within_neighborhood(space, images[k], images[j], eps)
                for j in range(k + 1, truncation.top + 1)
            )
        )
    start = next(
        k for k in range(level, truncation.top + 1) if viable[k - level]
    )
    return CauchyRow(level, truncation.top, eps, tuple(viable), start)


def cauchy_report(truncation: InverseSequenceTruncation) -> CauchyReport:
    """Anchor rows for every level and every spectrum scale of it."""
    rows = []
    for i in range(truncation.top + 1):
        for eps in truncation.levels[i].spectrum():
            rows.append(cauchy_row(truncation, i, eps))
    return CauchyReport(tuple(rows))


# ---- window-scoped summary verdicts ----


def level_shadow_reached(truncation: InverseSequenceTruncation, level: int) -> bool:
    """Whether the image chain descends into the thread shadow inside the window.

    True when some j strictly below the top (or the top level itself) has
    image(j) contained in the shadow at scale zero.  Images only shrink, so
    this is the same as the chain being constant from j on: the sharpest
    convergence verdict a single window can certify.
    """
    return convergence_row(truncation, level, ZERO).witnessed


@dataclass(frozen=True)
class CauchyAnchorVerdict:
    """Window-scoped Cauchy verdict for one level.

    A single truncation cannot witness tail clustering at arbitrarily fine
    scales, so the verdict asks for what a window can show: either the
    image chain stabilizes outright, or some scale at most half the level
    diameter admits an anchor covering at least half of the remaining
    window.  Windows shorter than three steps are not judged.
    """

    level: int
    stabilized: bool
    short_window: bool
    anchor_scale: Optional[Scalar]
    anchor_from: Optional[int]

    @property
    def anchored(self) -> bool:
        return self.stabilized or self.short_window or self.anchor_scale is not None


def level_anchor_verdict(
    truncation: InverseSequenceTruncation, level: int
) -> CauchyAnchorVerdict:
    if level_shadow_reached(truncation, level):
        return CauchyAnchorVerdict(level, True, False, None, None)
    top = truncation.top
    if top - level < 3:
        return CauchyAnchorVerdict(level, False, True, None, None)
    space = truncation.levels[level]
    half = space.diameter() / 2
    depth_needed = (top - level + 1) // 2
    for eps in space.spectrum():
        if eps == 0 or eps > half:
            continue
        row = cauchy_row(truncation, level, eps)
        if top - row.holds_from >= depth_needed:
            return CauchyAnchorVerdict(level, False, False, eps, row.holds_from)
    return CauchyAnchorVerdict(level, False, False, None, None)


# ---- separation index ----


@dataclass(frozen=True)
class SeparationLevel:
    """Outcome of the separation scan at one level.

    ``threshold`` certifies: image distance strictly below it forces thread
    distance at most epsilon.  On failure it is None and ``blocking_pair``
    holds (thread a, thread b, image distance, thread distance) with the
    two threads too far apart despite the smallest image gap.
    """

    level: int
    threshold: Optional[Scalar]
    blocking_pair: Optional[tuple]

    @property
    def separates(self) -> bool:
        return self.threshold is not None


@dataclass(frozen=True)
class SeparationIndexResult:
    epsilon: Scalar
    level: Optional[int]
    threshold: Optional[Scalar]
    scanned: tuple

    @property
    def found(self) -> bool:
        return self.level is not None


def separation_index(
    truncation: InverseSequenceTruncation,
    epsilon: ScalarLike,
    cap: int = THREAD_CAP,
) -> SeparationIndexResult:
    """Smallest level whose projection pins thread distances to epsilon.

    A level qualifies when some threshold from its distance spectrum
    certifies: projected distance strictly below the threshold forces
    thread distance at most epsilon.  The open comparison lets the
    certificate quote an attained spectrum value (any smaller positive
    value then witnesses the closed form).  The scan reports every level
    it visited; a miss at all levels is an honest not-found, no claim
    beyond the window.
    """
    eps = as_scalar(epsilon)
    bundle = thread_space(truncation, cap)
    if not bundle.threads:
        raise PreconditionError("separation_index needs at least one thread")
    count = len(bundle.threads)
    scanned = []
    for i in range(truncation.top + 1):
        level_space = truncation.levels[i]
        proj = bundle.projection(i)
        cut: Optional[Scalar] = None
        witness: Optional[tuple] = None
        for a in range(count):
            for b in range(a + 1, count):
                if bundle.space.d(a, b) <= eps:
                    continue
                gap = level_space.d(proj[a], proj[b])
                if cut is None or gap < cut:
                    cut = gap
                    witness = (a, b, gap, bundle.space.d(a, b))
        if cut is None:
            # Nothing to separate at this scale: any threshold certifies.
            positive = level_space.positive_spectrum()
            threshold = positive[-1] if positive else ONE
            row = SeparationLevel(i, threshold, None)
        elif cut > 0:
            row = SeparationLevel(i, cut, None)
        else:
            row = SeparationLevel(i, None, witness)
        scanned.append(row)
        if row.separates:
            return SeparationIndexResult(eps, i, row.threshold, tuple(scanned))
    return SeparationIndexResult(eps, None, None, tuple(scanned))


# ---- telescopes ----


@dataclass(frozen=True)
class Telescope:
    """Iterated mapping-cylinder union over a segment of levels.

    ``level_classes[j - start]`` maps the points of level j to their classes
    in the telescope: the shallow end is the first cylinder's target copy,
    interior levels are the glued copies, the deep end is the slice of the
    last cylinder at the zero end of its segment grid.
    """

    start: int
    stop: int
    t_grid: tuple
    space: FiniteMetricSpace
    level_classes: tuple
    stages_certified: tuple

    def level_class(self, j: int) -> tuple:
        if not self.start <= j <= self.stop:
            raise StructuralError(f"level {j} outside segment [{self.start}, {self.stop}]")
        return self.level_classes[j - self.start]

    @property
    def all_certified(self) -> bool:
        return all(self.stages_certified)


def telescope_metric(
    truncation: InverseSequenceTruncation,
    start: int,
    stop: int,
    t_grid=DEFAULT_TELESCOPE_GRID,
) -> Telescope:
    """Union of the mapping cylinders of the bonds over levels [start, stop].

    A single level comes back unchanged.  Otherwise the cylinder of each
    bond is attached in turn: the union built so far meets the next
    cylinder in a shared level, sitting in the union as the zero-end slice
    (whose metric carries the extra image term) and in the cylinder as its
    target copy (carrying the level metric itself).  The identification is
    therefore 1-Lipschitz into the cylinder, and each attachment is an
    adjunction keeping the new cylinder isometric while distances across
    the old part may legitimately shorten through the new one.  Every stage
    must come back fully certified (three-hop chains settle, metric axioms,
    isometric target, positive clearance); a failed certificate raises.

    Levels on the segment need diameter <= 1, inherited from the cylinder
    construction; rescale the levels first otherwise.
    """
    if not 0 <= start <= stop <= truncation.top:
        raise StructuralError(
            f"segment [{start}, {stop}] out of range for top level {truncation.top}"
        )
    if start == stop:
        level = truncation.levels[start]
        return Telescope(
            start, stop, tuple(as_scalar(t) for t in t_grid), level,
            (tuple(range(level.n)),), (),
        )

    first = mapping_cylinder_metric(
        truncation.levels[start + 1],
        truncation.levels[start],
        truncation.bonds[start],
        t_grid,
    )
    current = first.space
    tracked = [
        tuple(first.y_index(j) for j in range(truncation.levels[start].n)),
        tuple(first.class_index(i, ZERO) for i in range(truncation.levels[start + 1].n)),
    ]
    certified = []
    for k in range(start + 1, stop):
        cylinder = mapping_cylinder_metric(
            truncation.levels[k + 1],
            truncation.levels[k],
            truncation.bonds[k],
            t_grid,
        )
        slice_classes = tracked[-1]
        attaching = {
            slice_classes[x]: cylinder.y_index(x)
            for x in range(truncation.levels[k].n)
        }
        result = adjunction_space(
            current,
            slice_classes,
            cylinder.space,
            attaching,
            cross=None,
            extension=current,
        )
        if not result.all_certified():
            raise PreconditionError(
                f"telescope stage at level {k} failed its certificates"
            )
        certified.append(True)
        tracked = [tuple(result.x_class[c] for c in classes) for classes in tracked]
        tracked[-1] = tuple(
            result.y_class[cylinder.y_index(x)]
            for x in range(truncation.levels[k].n)
        )
        tracked.append(
            tuple(
                result.y_class[cylinder.class_index(i, ZERO)]
                for i in range(truncation.levels[k + 1].n)
            )
        )
        current = result.space
    return Telescope(
        start, stop, first.t_grid, current, tuple(tracked), tuple(certified)
    )


# ---- ladders and perturbation limits ----


def _check_indices(
    indices: tuple,
    source: InverseSequenceTruncation,
    target: InverseSequenceTruncation,
) -> None:
    """One in-range source level per target level, in nondecreasing order."""
    if len(indices) != target.top + 1:
        raise StructuralError("one source index per target level required")
    for n in indices:
        if not isinstance(n, int) or not 0 <= n <= source.top:
            raise StructuralError(f"source index {n!r} out of range")
    if any(low > high for low, high in zip(indices, indices[1:])):
        raise StructuralError("source indices must be nondecreasing")


@dataclass(frozen=True)
class LadderData:
    """Two truncations joined by cross maps, with closeness budgets.

    ``cross[i]`` maps source level ``indices[i]`` to target level i; the
    index sequence is nondecreasing.  ``alphas[i]`` budgets the defect of
    square i (cross then bond against bond then cross); ``betas[j]`` scales
    every advertised closeness bound at target level j.
    """

    source: InverseSequenceTruncation
    target: InverseSequenceTruncation
    indices: tuple
    cross: tuple
    alphas: tuple
    betas: tuple

    def __post_init__(self) -> None:
        squares = self.target.top
        _check_indices(self.indices, self.source, self.target)
        if len(self.cross) != squares + 1:
            raise StructuralError("one cross map per target level required")
        if len(self.alphas) != squares:
            raise StructuralError(f"{squares} squares need {squares} alpha budgets")
        if len(self.betas) != squares + 1:
            raise StructuralError("one beta per target level required")
        for beta in self.betas:
            if beta <= 0:
                raise PreconditionError("beta scales must be positive")


def _measured_square(ladder_data: LadderData, i: int):
    """Worst defect of square i and its witness (point, left, right)."""
    source = ladder_data.source
    target = ladder_data.target
    down = source.composite(ladder_data.indices[i + 1], ladder_data.indices[i])
    bond = target.composite(i + 1, i)
    f_low = ladder_data.cross[i]
    f_high = ladder_data.cross[i + 1]
    worst = ZERO
    witness = None
    for x in range(source.levels[ladder_data.indices[i + 1]].n):
        left = f_low[down[x]]
        right = bond[f_high[x]]
        gap = target.levels[i].d(left, right)
        if witness is None or gap > worst:
            worst = gap
            witness = (x, left, right)
    return worst, witness


def _attained_continuity(
    target: InverseSequenceTruncation, upper: int, lower: int, alpha: Scalar
) -> Scalar:
    """Worst image distance of the bond composite upper -> lower at delta <= alpha.

    The largest image distance over the pairs at source distance within the
    alpha budget: the largest epsilon of the composite's continuity modulus
    among its rows with delta <= alpha.  The composite is total by
    construction.
    """
    attained = ZERO
    for sd, td in pair_distances(
        target.levels[upper], target.levels[lower], target.composite(upper, lower)
    ):
        if sd <= alpha and td > attained:
            attained = td
    return attained


def ladder(
    source: InverseSequenceTruncation,
    target: InverseSequenceTruncation,
    cross: Sequence,
    indices: Optional[Sequence[int]] = None,
    alphas: Optional[Sequence[ScalarLike]] = None,
    betas: Optional[Sequence[ScalarLike]] = None,
) -> LadderData:
    """Assemble ladder data, filling in measured or default budgets.

    With ``indices`` omitted, target level i is fed from source level i.
    With ``alphas`` omitted, each budget is the measured defect of its
    square, so the closeness hypothesis holds with equality.  With
    ``betas`` omitted, beta_j is the larger of one ninth of the smallest
    positive distance of target level j (one when the level has no
    positive distances) and 2^(i-j) times the worst distance that the bond
    composite from level i >= j down to j attains on pairs within alpha_i.
    The first term keeps the advertised bounds below the level's
    resolution; the second is the least scale at which every continuity
    hypothesis holds, so measured alphas with default betas satisfy all
    hypotheses.  When every alpha is zero the second term vanishes on
    metric levels and the default is the resolution term alone.
    """
    if indices is None:
        if target.top > source.top:
            raise StructuralError(
                "default indices need at least as many source levels as target levels"
            )
        index_tuple = tuple(range(target.top + 1))
    else:
        index_tuple = tuple(indices)
    _check_indices(index_tuple, source, target)
    if len(cross) != target.top + 1:
        raise StructuralError("one cross map per target level required")
    normalized = []
    for i, mapping in enumerate(cross):
        m = as_mapping(mapping)
        ensure_total_map(
            m, source.levels[index_tuple[i]], target.levels[i], f"cross map {i}"
        )
        normalized.append(
            tuple(m[x] for x in range(source.levels[index_tuple[i]].n))
        )
    partial = LadderData(
        source, target, index_tuple, tuple(normalized),
        tuple(ZERO for _ in range(target.top)),
        tuple(ONE for _ in range(target.top + 1)),
    )
    if alphas is None:
        alpha_tuple = tuple(
            _measured_square(partial, i)[0] for i in range(target.top)
        )
    else:
        alpha_tuple = tuple(as_scalar(a) for a in alphas)
    # Rebuilding validates the alpha count before the defaults index it.
    budgeted = replace(partial, alphas=alpha_tuple)
    if betas is None:
        beta_list = []
        for j, level in enumerate(target.levels):
            floor = level.min_positive_distance()
            beta = floor / 9 if floor is not None else ONE
            for i in range(j, target.top):
                beta = max(
                    beta,
                    pow2(i - j) * _attained_continuity(target, i, j, alpha_tuple[i]),
                )
            beta_list.append(beta)
        beta_tuple = tuple(beta_list)
    else:
        beta_tuple = tuple(as_scalar(b) for b in betas)
    return replace(budgeted, betas=beta_tuple)


@dataclass(frozen=True)
class LadderSquareRow:
    """Closeness of square ``level``: measured defect against its budget."""

    level: int
    budget: Scalar
    measured: Scalar
    witness: Optional[tuple]

    @property
    def ok(self) -> bool:
        return self.measured <= self.budget


@dataclass(frozen=True)
class ContinuityBudgetRow:
    """Bond composite continuity at the alpha scale of one square.

    The composite from target level ``upper`` down to ``lower`` must send
    pairs within alpha to pairs within the halving bound; ``attained`` is
    the exact worst image distance, one scan over ``pair_distances``.
    """

    upper: int
    lower: int
    alpha: Scalar
    bound: Scalar
    attained: Scalar
    witness: Optional[tuple]

    @property
    def ok(self) -> bool:
        return self.attained <= self.bound


@dataclass(frozen=True)
class TelescopingRow:
    """One telescoping step: consecutive stage maps stay within budget."""

    stage: int
    level: int
    bound: Scalar
    measured: Scalar

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound


@dataclass(frozen=True)
class LimitClosenessRow:
    """Final closeness of the limit map against the double-beta bound."""

    level: int
    bound: Scalar
    measured: Scalar
    witness: Optional[int]

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound


@dataclass(frozen=True)
class UniquenessRow:
    """Thread distance forced by agreeing within the competing-gap bound.

    Any rival limit map within the advertised closeness differs from the
    built one by at most ``threshold`` on level ``level``; ``forced`` is
    the largest thread distance compatible with that gap.
    """

    level: int
    threshold: Scalar
    forced: Scalar


@dataclass(frozen=True)
class InjectivityRow:
    """Separation constants pulled back through one target level.

    Image distance <= five betas forces cross-map source distance at most
    ``gamma``; projected source distance <= gamma forces thread distance at
    most ``epsilon``.
    """

    level: int
    gamma: Scalar
    epsilon: Scalar


@dataclass(frozen=True)
class PerturbationReport:
    """Limit map of a ladder with every advertised bound checked.

    ``limit_maps[j]`` is the stage-limit map from the source top level into
    target level j; ``thread_map`` sends each source thread (keyed by its
    top point) to the target thread generated by the top limit map.  The
    uniqueness and injectivity sections need the thread metrics on both
    sides; when a level is too large or too wide for them the sections are
    empty and ``separation_note`` says why.
    """

    ladder: LadderData
    square_rows: tuple
    continuity_rows: tuple
    telescoping_rows: tuple
    limit_rows: tuple
    limit_maps: tuple
    thread_map: tuple
    uniqueness_rows: tuple
    unique: Optional[bool]
    injectivity_rows: tuple
    injective_certified: Optional[bool]
    injective_observed: bool
    separation_note: Optional[str]

    @property
    def hypotheses_ok(self) -> bool:
        return all(row.ok for row in self.square_rows) and all(
            row.ok for row in self.continuity_rows
        )

    @property
    def bounds_ok(self) -> bool:
        return all(row.ok for row in self.telescoping_rows) and all(
            row.ok for row in self.limit_rows
        )


def _diameter_at_most_one(truncation: InverseSequenceTruncation) -> bool:
    return all(level.diameter() <= ONE for level in truncation.levels)


def perturbation_limit(ladder_data: LadderData, cap: int = THREAD_CAP) -> PerturbationReport:
    """Build the stage-limit maps of a ladder and audit every bound.

    Stage map (i, j) sends the source top level through source bonds to
    level ``indices[i]``, across by cross map i, then down by target bonds
    to level j.  When the square defects stay within their alpha budgets
    and each down-composite is (alpha, halving-bound)-continuous, moving
    the stage up one level shifts the map by at most 2^(j-i) beta_j, so
    the final stage sits within 2 beta_j of the direct cross route; the
    report measures all of this exactly and flags each comparison.

    Hypothesis failures are reported with their level and witness pair,
    never raised; downstream bounds are still measured so the damage is
    visible.  Uniqueness and injectivity are separation readouts: the
    forced-distance rows certify them when some level forces distance
    zero, and a single thread makes either vacuous.
    """
    source = ladder_data.source
    target = ladder_data.target
    top = source.top
    stages = target.top
    levels = target.levels

    square_rows = []
    for i in range(stages):
        measured, witness = _measured_square(ladder_data, i)
        square_rows.append(
            LadderSquareRow(i, ladder_data.alphas[i], measured, witness)
        )

    continuity_rows = []
    for i in range(stages):
        alpha = ladder_data.alphas[i]
        for j in range(i, -1, -1):
            bound = pow2(j - i) * ladder_data.betas[j]
            attained = _attained_continuity(target, i, j, alpha)
            witness = None
            if attained > bound:
                witness = check_uniform_continuity(
                    levels[i], levels[j], target.composite(i, j), alpha, bound
                )
            continuity_rows.append(
                ContinuityBudgetRow(i, j, alpha, bound, attained, witness)
            )

    def stage_map(i: int, j: int) -> tuple:
        down = source.composite(top, ladder_data.indices[i])
        across = ladder_data.cross[i]
        out = target.composite(i, j)
        return tuple(
            out[across[down[x]]] for x in range(source.levels[top].n)
        )

    telescoping_rows = []
    for j in range(stages + 1):
        for i in range(j, stages):
            lower = stage_map(i, j)
            upper = stage_map(i + 1, j)
            measured = ZERO
            for x in range(source.levels[top].n):
                gap = levels[j].d(lower[x], upper[x])
                if gap > measured:
                    measured = gap
            telescoping_rows.append(
                TelescopingRow(i, j, pow2(j - i) * ladder_data.betas[j], measured)
            )

    limit_maps = tuple(stage_map(stages, j) for j in range(stages + 1))
    limit_rows = []
    for j in range(stages + 1):
        direct = stage_map(j, j)
        measured = ZERO
        witness = None
        for x in range(source.levels[top].n):
            gap = levels[j].d(limit_maps[j][x], direct[x])
            if witness is None or gap > measured:
                measured = gap
                witness = x
        limit_rows.append(
            LimitClosenessRow(j, 2 * ladder_data.betas[j], measured, witness)
        )
    thread_map = limit_maps[stages]

    injective_observed = len(set(thread_map)) == source.levels[top].n

    uniqueness_rows: tuple = ()
    unique: Optional[bool] = None
    injectivity_rows: tuple = ()
    injective_certified: Optional[bool] = None
    note: Optional[str] = None
    oversized = any(level.n > cap for level in source.levels) or any(
        level.n > cap for level in target.levels
    )
    if oversized:
        note = f"separation readouts skipped: a level exceeds the enumeration cap {cap}"
    elif not (_diameter_at_most_one(source) and _diameter_at_most_one(target)):
        note = (
            "separation readouts skipped: thread metrics need every level "
            "of diameter <= 1"
        )
    else:
        target_bundle = thread_space(target, cap)
        source_bundle = thread_space(source, cap)

        rows = []
        for j in range(stages + 1):
            threshold = 4 * ladder_data.betas[j]
            proj = target_bundle.projection(j)
            forced = ZERO
            for a in range(len(target_bundle.threads)):
                for b in range(a + 1, len(target_bundle.threads)):
                    if levels[j].d(proj[a], proj[b]) <= threshold:
                        gap = target_bundle.space.d(a, b)
                        if gap > forced:
                            forced = gap
            rows.append(UniquenessRow(j, threshold, forced))
        uniqueness_rows = tuple(rows)
        unique = len(target_bundle.threads) <= 1 or any(
            row.forced == 0 for row in uniqueness_rows
        )

        rows = []
        for j in range(stages + 1):
            five = 5 * ladder_data.betas[j]
            cross_map = ladder_data.cross[j]
            level = source.levels[ladder_data.indices[j]]
            gamma = ZERO
            for a in range(level.n):
                for b in range(a + 1, level.n):
                    if levels[j].d(cross_map[a], cross_map[b]) <= five:
                        if level.d(a, b) > gamma:
                            gamma = level.d(a, b)
            proj = source_bundle.projection(ladder_data.indices[j])
            epsilon = ZERO
            for a in range(len(source_bundle.threads)):
                for b in range(a + 1, len(source_bundle.threads)):
                    if level.d(proj[a], proj[b]) <= gamma:
                        gap = source_bundle.space.d(a, b)
                        if gap > epsilon:
                            epsilon = gap
            rows.append(InjectivityRow(j, gamma, epsilon))
        injectivity_rows = tuple(rows)
        injective_certified = len(source_bundle.threads) <= 1 or any(
            row.epsilon == 0 for row in injectivity_rows
        )

    return PerturbationReport(
        ladder_data,
        tuple(square_rows),
        tuple(continuity_rows),
        tuple(telescoping_rows),
        tuple(limit_rows),
        limit_maps,
        thread_map,
        uniqueness_rows,
        unique,
        injectivity_rows,
        injective_certified,
        injective_observed,
        note,
    )
