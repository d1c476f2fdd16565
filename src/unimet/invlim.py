"""Truncated inverse sequences: threads, limit diagnostics, telescopes.

A truncation holds finitely many levels X_0 .. X_N and total bonding maps
p_i: X_{i+1} -> X_i.  Every verdict produced here is scoped to the window
0..N; nothing extrapolates to an infinite tail.  The truncation and the
ladder data normalize their own maps: each reads its bonds or cross maps, in
any form that ``spaces.as_mapping`` reads, into total index tuples with
``spaces.ensure_total_map``.  The ladder data also fills in the budgets it
is not given.  Composites are built in a loop, one bond at a time, so no
truncation needs a deep stack; ``check_level_count`` refuses more than
``LEVEL_CAP`` levels, in a file before any level is parsed.  The pieces:

- threads: compatible tuples (x_0, .., x_N) with p_i(x_{i+1}) = x_i, held
  as plain index tuples, and the weighted-sup metric on them (the
  restriction of the full product metric).
- stabilization (discrete image chains) and the neighborhood table: per
  level and per spectrum scale, from which image on every image lies near
  the limit shadow.  The truncation builds the table once, and it answers
  the convergence, the shadow and the Cauchy question alike.  Each level
  keeps its points sorted by their distance to the shadow, with the
  suffix maxima of their survival depths, so a row of the table, and a
  ``convergence_row`` at any scale, is one bisection.
- separation index: the first level whose thread projection pins thread
  distances, with the certifying threshold.
- telescope metrics: iterated mapping-cylinder attachments over a segment
  of levels.
- ladder perturbation analysis: given a second truncation, cross maps, and
  closeness budgets, build the telescoping limit maps and verify the
  advertised closeness, uniqueness, and injectivity bounds.

Every diagnostic but the ladder reads one int per point, its survival
depth, in work linear in the point count.  A ladder reads each pair of
levels once: it pushes the pairs it checks, and the columns of its stage
maps, down one bond at a time, and caches nothing per level pair.

Neighborhoods are closed throughout: the eps-neighborhood of a set contains
the points at distance <= eps from it.  Every table here is kept on the
stored form: a level's distances to the shadow are ints over the level's
``scale``, and a pair sweep holds ints over one scale, the lcm of the two
spaces it compares.  A query floors its rational threshold into that scale
(``_floor``), so each containment and each bound is an exact int
comparison, and Fractions are built only for the values and witnesses a
report prints.  A scan over thread pairs that answers several thresholds
reads a ``moduli.PairSweep``; a truncation builds its depths, its points'
order by distance to the shadow, its columns, its neighborhood table and its
thread space once and keeps them.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Optional, Sequence

from .combinators import check_weighted_levels, weighted_sup_rows
from .cylinders import mapping_cylinder_metric
from .errors import PreconditionError, StructuralError
from .gluing import adjunction_space
from .moduli import PairSweep
from .scalars import ONE, ZERO, Scalar, ScalarLike, as_scalar, parameter_grid, pow2
from .spaces import FiniteMetricSpace, ensure_total_map, index_set

# Exhaustive thread enumeration refuses levels larger than this.
THREAD_CAP = 16

# Most levels a truncation may have.  All modes but ``perturb`` read one
# depth per point: on 1,500 one- or six-point levels each takes at most 0.4 s
# and peaks under 46 MiB RSS (Python 3.11, in process, best of three).  But
# ``ml`` prints each chain that does not settle: on one that never does, 61 MB
# in 4.1 s and 285 MiB at 1,500 levels, growing with the square of the count.
LEVEL_CAP = 1_500

DEFAULT_TELESCOPE_GRID = (ZERO, Fraction(1, 2), ONE)


def _floor(t: Scalar, scale: int) -> int:
    """floor(t * scale): an int v over ``scale`` is at most the rational t
    exactly when v <= _floor(t, scale), and above it exactly when v > it."""
    return t.numerator * scale // t.denominator


def _within(sweep: PairSweep, t: Scalar) -> Scalar:
    """``sweep.largest_within`` at the rational t, as a Fraction."""
    return Fraction(sweep.largest_within(_floor(t, sweep.scale)), sweep.scale)


def _map_sweep(source: FiniteMetricSpace, target: FiniteMetricSpace, f: tuple) -> PairSweep:
    """The pairs a < b of ``source`` as (d(f(a), f(b)), d(a, b), a, b),
    keyed by image distance and swept once: ints over the lcm of the two
    scales."""
    scale = lcm(source.scale, target.scale)
    lift, image_lift, m = scale // source.scale, scale // target.scale, target.ints
    return PairSweep((
        (m[fa][f[b]] * image_lift, row[b] * lift, a, b)
        for a, (row, fa) in enumerate(zip(source.ints, f))
        for b in range(a + 1, len(f))
    ), scale)


def check_level_count(count: int) -> None:
    """Refuse more than ``LEVEL_CAP`` levels; ``jsonio`` asks before parsing any."""
    if count > LEVEL_CAP:
        raise PreconditionError(f"{count} levels exceed LEVEL_CAP = {LEVEL_CAP}")


# ---- truncations ----


@dataclass(frozen=True)
class InverseSequenceTruncation:
    """Levels X_0 .. X_N with total bonds p_i: X_{i+1} -> X_i.

    ``bonds[i]`` is the index tuple of p_i, so ``bonds[i][x]`` is the image
    in level i of point x of level i+1; a bond given as a dict or a sequence
    is normalized to that tuple, checked total and in range.  Its survival
    depths, per level the order of its points by distance to the shadow,
    columns p^top_i, neighborhood table and thread space are built once and
    kept; a composite p_i o .. o p_{j-1} is built on each call, one bond at
    a time, and ``composite(i, i)`` is the identity.  More than
    ``LEVEL_CAP`` levels raise a PreconditionError.
    """

    levels: tuple
    bonds: tuple

    def __post_init__(self) -> None:
        if not self.levels:
            raise StructuralError("a truncation needs at least one level")
        check_level_count(len(self.levels))
        for level in self.levels:
            if not isinstance(level, FiniteMetricSpace):
                raise StructuralError("levels must be finite metric spaces")
        if len(self.bonds) != len(self.levels) - 1:
            raise StructuralError(
                f"{len(self.levels)} levels need {len(self.levels) - 1} bonds, "
                f"got {len(self.bonds)}"
            )
        object.__setattr__(self, "bonds", tuple(
            ensure_total_map(bond, self.levels[i + 1], self.levels[i], f"bond {i}")
            for i, bond in enumerate(self.bonds)
        ))

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def composite(self, j: int, i: int) -> tuple:
        """Index tuple of p^j_i: X_j -> X_i for i <= j."""
        if not 0 <= i <= j <= self.top:
            raise StructuralError(f"composite needs 0 <= i <= j <= {self.top}")
        column = tuple(range(self.levels[j].n))
        for bond in reversed(self.bonds[i:j]):
            column = tuple(bond[x] for x in column)
        return column

    @cached_property
    def _depths(self) -> tuple:
        """Per level i, the survival depth of each point x, the deepest k
        with x in p^k_i(X_k): image k is the points of depth >= k and the
        shadow those of depth ``top``.  One pass down the bonds: a point
        takes the largest of its level and the depths of its preimages."""
        depth = (self.top,) * self.levels[self.top].n
        table = [depth]
        for i in range(self.top - 1, -1, -1):
            below = [i] * self.levels[i].n
            for x, d in zip(self.bonds[i], depth):
                if d > below[x]:
                    below[x] = d
            depth = tuple(below)
            table.append(depth)
        return tuple(reversed(table))

    @cached_property
    def _reach(self) -> tuple:
        """Per level i, ``(cuts, starts)``: its points' distances to the
        shadow, ints over the level's ``scale``, sorted, and for each k the
        first image inside the closed neighborhood of the shadow at a scale
        floored into [cuts[k - 1], cuts[k]): one past the deepest point at a
        distance in cuts[k:], or i past them all.  A level whose shadow is
        empty has no cuts: no neighborhood reaches any of its points."""
        top, table = self.top, []
        for i, (space, depth) in enumerate(zip(self.levels, self._depths)):
            shadow = [y for y, d in enumerate(depth) if d == top]
            if shadow:
                near = [min(map(row.__getitem__, shadow)) for row in space.ints]
                cuts, depths = zip(*sorted(zip(near, depth)))
                deepest = i - 1
            else:
                cuts, depths, deepest = (), (), max(depth, default=i - 1)
            starts = [d + 1 for d in accumulate(reversed(depths), max, initial=deepest)]
            table.append((cuts, starts[::-1]))
        return tuple(table)

    @cached_property
    def _convergence_rows(self) -> tuple:
        """Per level, its neighborhood row at each scale of its spectrum, in
        spectrum order: the first row of each group is the one at scale 0.
        A spectrum int is its own floor, so each row is one bisection."""
        top = self.top
        return tuple(
            tuple(NeighborhoodRow(i, top, eps, starts[bisect_right(cuts, v)])
                  for eps, v in zip(level.spectrum(), level.spectrum_ints))
            for i, (level, (cuts, starts)) in enumerate(zip(self.levels, self._reach))
        )

    @cached_property
    def _columns(self) -> tuple:
        """Per level i, the index tuple of p^top_i, composed from the top
        one bond at a time."""
        column = tuple(range(self.levels[self.top].n))
        columns = [column]
        for bond in reversed(self.bonds):
            column = tuple(bond[x] for x in column)
            columns.append(column)
        return tuple(reversed(columns))

    @cached_property
    def _threads(self) -> tuple:
        return tuple(zip(*self._columns))

    @cached_property
    def _thread_space(self) -> "ThreadSpace":
        points = [tuple(lv.points[x] for lv, x in zip(self.levels, e)) for e in self._threads]
        rows, scale = weighted_sup_rows(self.levels, self._threads)
        space = FiniteMetricSpace.from_int(points, rows, scale)
        return ThreadSpace(self, self._threads, space)


def inverse_sequence(levels: Sequence[FiniteMetricSpace], bonds: Sequence) -> InverseSequenceTruncation:
    """Build a truncation from level and bond sequences; the truncation
    normalizes each bond to a total index tuple."""
    return InverseSequenceTruncation(tuple(levels), tuple(bonds))


# ---- threads ----


def _check_cap(truncation: InverseSequenceTruncation) -> None:
    for i, level in enumerate(truncation.levels):
        if level.n > THREAD_CAP:
            raise PreconditionError(
                f"level {i} has {level.n} points, above the enumeration cap {THREAD_CAP}"
            )


def threads(truncation: InverseSequenceTruncation) -> list:
    """All threads of the truncation as tuples of per-level point indices,
    in top-level point order.

    Compatibility pins every lower entry from the top one (x_i must equal
    p^N_i(x_N)), so the exhaustive thread set is exactly one thread per
    top-level point.  ``THREAD_CAP`` guards the associated table sizes.
    """
    _check_cap(truncation)
    return list(truncation._threads)


@dataclass(frozen=True)
class ThreadSpace:
    """Thread set with the weighted-sup metric restriction.

    ``threads`` holds the index tuples of ``threads()``.  ``space`` carries
    d(t, t') = max_i 2^{-(i+1)} d_i(t_i, t'_i) on them, the restriction of
    the full product metric to the thread set; its points are the per-level
    label tuples in thread order.
    """

    truncation: InverseSequenceTruncation
    threads: tuple
    space: FiniteMetricSpace

    def projection(self, i: int) -> tuple:
        """Index tuple of the projection to level i, in thread order."""
        return self.truncation._columns[i]

    @cached_property
    def pair_sweeps(self) -> tuple:
        """Per level i, the thread pairs a < b as (distance of their
        projections to level i, thread distance, a, b), ints over the lcm of
        the level's and the thread space's scales, each swept once."""
        return tuple(
            _map_sweep(self.space, level, self.projection(i))
            for i, level in enumerate(self.truncation.levels)
        )


def thread_space(truncation: InverseSequenceTruncation) -> ThreadSpace:
    """Threads with the weighted-sup metric, ``combinators.weighted_sup_rows``
    on the thread tuples.

    Levels need diameter <= 1 so the level weights dominate, exactly as in
    the full product; rescale the levels first otherwise.
    Built once per truncation; each call checks ``THREAD_CAP``, and the
    diameters until the space exists (it is built only after they pass).
    """
    if "_thread_space" not in vars(truncation):
        check_weighted_levels(truncation.levels)
    _check_cap(truncation)
    return truncation._thread_space


# ---- image stabilization ----


@dataclass(frozen=True)
class StabilizationRow:
    """Image chain p^k_i(X_k), k = level..top, with its settling point.

    ``stabilized_at`` is the smallest j with the chain constant from j to
    the top, provided at least one equality step witnesses it (or the chain
    has a single entry); None means the images were still changing at the
    last step, so stabilization cannot be claimed within the window.
    Only such a row lists its sorted ``images``; the others keep ().
    """

    level: int
    images: tuple
    stabilized_at: Optional[int]

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None


def mittag_leffler_report(truncation: InverseSequenceTruncation) -> tuple:
    """Per-level stabilization rows for the image chains.

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
    for i, depth in enumerate(truncation._depths):
        # Image k is the points of depth >= k, so it equals the shadow from
        # one past the deepest point below the top on.
        settle = max([d + 1 for d in depth if d < top], default=i)
        witnessed = settle < top or i == top
        images = () if witnessed else tuple(
            tuple(x for x, d in enumerate(depth) if d >= k) for k in range(i, top + 1))
        rows.append(StabilizationRow(i, images, settle if witnessed else None))
    return tuple(rows)


# ---- neighborhood tables ----


@dataclass(frozen=True)
class NeighborhoodRow:
    """Containments of the level images in a neighborhood of the shadow.

    ``holds_from`` is the first j >= level with p^j_i(X_j) inside the
    closed epsilon-neighborhood of the shadow, the thread projection.  That
    is the convergence containment, and it is also the Cauchy condition
    that image j lies in the neighborhood of every later image: each later
    image contains the shadow, so the shadow's neighborhood is the
    smallest of them.  Images only shrink, so the containment holds for
    every image from ``holds_from`` on; it always holds at the top.
    """

    level: int
    top: int
    epsilon: Scalar
    holds_from: int

    @property
    def witnessed(self) -> bool:
        # The top containment alone is automatic, never evidence.
        return self.holds_from < self.top or self.level == self.top


def convergence_row(
    truncation: InverseSequenceTruncation, level: int, epsilon: ScalarLike
) -> NeighborhoodRow:
    """One neighborhood row, read from the level's points in order of their
    distance to the shadow: image j holds a point farther than epsilon,
    floored into the level's scale, exactly while j is at most that point's
    depth, so one bisection of the floor finds the first j that holds none;
    over an empty shadow every point is too far."""
    top = truncation.top
    if not 0 <= level <= top:
        raise StructuralError(f"level {level} out of range")
    eps = as_scalar(epsilon)
    # The floor is negative exactly when epsilon is.
    cut = _floor(eps, truncation.levels[level].scale)
    if cut < 0:
        raise PreconditionError("a neighborhood scale must be nonnegative")
    cuts, starts = truncation._reach[level]
    return NeighborhoodRow(level, top, eps, starts[bisect_right(cuts, cut)])


def convergence_report(truncation: InverseSequenceTruncation) -> tuple:
    """The neighborhood table: per level, one row per spectrum scale of it,
    built once per truncation.

    A Cauchy anchor k needs image k inside the neighborhood of every later
    image, and the smallest of those neighborhoods is the shadow's, so the
    table answers the Cauchy question too.  The first row of a level, at
    scale 0, is ``witnessed`` when the image chain descends into the shadow
    inside the window: images only shrink, so that is the chain being
    constant from some j below the top on, the sharpest convergence verdict
    a single window can certify.
    """
    return truncation._convergence_rows


# ---- window-scoped summary verdicts ----


@dataclass(frozen=True)
class CauchyAnchorVerdict:
    """Window-scoped Cauchy verdict for one level.

    A single truncation cannot witness tail clustering at arbitrarily fine
    scales, so the verdict asks for what a window can show: either the
    image chain stabilizes outright, or some scale at most half the level
    diameter admits an anchor covering at least half of the remaining
    window.  Windows shorter than three steps are not judged.  The verdict
    reads the level's rows of the neighborhood table.
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
    if not 0 <= level <= truncation.top:
        raise StructuralError(f"level {level} out of range")
    rows = truncation._convergence_rows[level]
    if rows[0].witnessed:
        return CauchyAnchorVerdict(level, True, False, None, None)
    top = truncation.top
    if top - level < 3:
        return CauchyAnchorVerdict(level, False, True, None, None)
    space = truncation.levels[level]
    # The rows after the first are at the positive spectrum ints, over the
    # level's scale like its diameter.
    diameter = max(map(max, space.ints), default=0)
    depth_needed = (top - level + 1) // 2
    for row, value in zip(rows[1:], space.spectrum_ints[1:]):
        if 2 * value <= diameter and top - row.holds_from >= depth_needed:
            return CauchyAnchorVerdict(level, False, False, row.epsilon, row.holds_from)
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
    bundle = thread_space(truncation)
    if not bundle.threads:
        raise PreconditionError("separation_index needs at least one thread")
    scanned = []
    for i, level in enumerate(truncation.levels):
        # The closest pair at level i among the threads further apart than
        # epsilon; ties go to the lexicographically first pair.
        sweep = bundle.pair_sweeps[i]
        blocking = sweep.first_above(_floor(eps, sweep.scale))
        if blocking is None:
            # Nothing to separate at this scale: any threshold certifies,
            # the level's largest distance when it is positive.
            largest = Fraction(level.spectrum_ints[-1], level.scale)
            row = SeparationLevel(i, largest or ONE, None)
        elif blocking[0] > 0:
            row = SeparationLevel(i, Fraction(blocking[0], sweep.scale), None)
        else:
            gap, apart, a, b = blocking
            row = SeparationLevel(
                i, None, (a, b, Fraction(gap, sweep.scale), Fraction(apart, sweep.scale)))
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

    def level_class(self, j: int) -> tuple:
        if not self.start <= j <= self.stop:
            raise StructuralError(f"level {j} outside segment [{self.start}, {self.stop}]")
        return self.level_classes[j - self.start]


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
    isometric target, positive clearance); a failed certificate raises,
    naming each flag that failed.

    Levels on the segment need diameter <= 1, inherited from the cylinder
    construction; rescale the levels first otherwise.  The grid is checked
    by ``parameter_grid`` over [0, 1] with both ends, for a single level too.
    """
    if not 0 <= start <= stop <= truncation.top:
        raise PreconditionError(
            f"segment [{start}, {stop}] out of range for top level {truncation.top}"
        )
    # tracked[j - start] holds the classes of level j in the union so far;
    # the first cylinder replaces the single level, later ones are attached.
    current = truncation.levels[start]
    grid = parameter_grid(t_grid, ZERO, ONE, (ZERO, ONE))
    tracked = [tuple(range(current.n))]
    for k in range(start, stop):
        level, upper = truncation.levels[k], truncation.levels[k + 1]
        cylinder = mapping_cylinder_metric(upper, level, truncation.bonds[k], grid)
        if k == start:
            current, y_class = cylinder.space, range(cylinder.space.n)
        else:
            slice_classes = tracked[-1]
            attaching = {slice_classes[x]: cylinder.y_index(x) for x in range(level.n)}
            result = adjunction_space(
                current,
                slice_classes,
                cylinder.space,
                attaching,
                cross=None,
                extension=current,
            )
            failed = result.failed_certificates()
            if failed:
                raise PreconditionError(
                    f"telescope stage at level {k} failed its certificates: "
                    + ", ".join(failed)
                )
            tracked = [tuple(result.x_class[c] for c in classes) for classes in tracked]
            current, y_class = result.space, result.y_class
        tracked[-1:] = [
            tuple(y_class[cylinder.y_index(x)] for x in range(level.n)),
            tuple(y_class[cylinder.class_index(i, ZERO)] for i in range(upper.n)),
        ]
    return Telescope(start, stop, grid, current, tuple(tracked))


# ---- ladders and perturbation limits ----


@dataclass(frozen=True)
class LadderData:
    """Two truncations joined by cross maps, with closeness budgets.

    ``cross[i]`` maps source level ``indices[i]`` to target level i, and is
    normalized to a total index tuple once the indices are checked; the
    index sequence is nondecreasing.  ``alphas[i]`` budgets the defect of
    square i (cross then bond against bond then cross); ``betas[j]`` scales
    every advertised closeness bound at target level j.

    The budgets are filled in when omitted.  Each measured alpha is the
    defect of its square, so the closeness hypothesis holds with equality.
    The default beta_j is the larger of one ninth of the smallest positive
    distance of target level j (one when the level has no positive
    distances) and 2^(i-j) times the worst distance that the bond composite
    from level i >= j down to j attains on pairs within alpha_i.  The first
    term keeps the advertised bounds below the level's resolution; the
    second is the least scale at which every continuity hypothesis holds,
    so measured alphas with default betas satisfy all hypotheses.  When
    every alpha is zero the second term vanishes on metric levels and the
    default is the resolution term alone.
    """

    source: InverseSequenceTruncation
    target: InverseSequenceTruncation
    indices: tuple
    cross: tuple
    alphas: Optional[tuple] = None
    betas: Optional[tuple] = None

    def __post_init__(self) -> None:
        squares = self.target.top
        if len(self.indices) != squares + 1:
            raise StructuralError("one source index per target level required")
        index_set(self.indices, self.source.top + 1, "source index")
        if any(low > high for low, high in zip(self.indices, self.indices[1:])):
            raise StructuralError("source indices must be nondecreasing")
        if len(self.cross) != squares + 1:
            raise StructuralError("one cross map per target level required")
        object.__setattr__(self, "cross", tuple(
            ensure_total_map(
                mapping, self.source.levels[n], self.target.levels[i], f"cross map {i}"
            )
            for i, (n, mapping) in enumerate(zip(self.indices, self.cross))
        ))
        if self.alphas is None:
            alphas = tuple(_measured_square(self, i)[0] for i in range(squares))
        else:
            alphas = tuple(as_scalar(a) for a in self.alphas)
        if len(alphas) != squares:
            raise StructuralError(f"{squares} squares need {squares} alpha budgets")
        object.__setattr__(self, "alphas", alphas)
        if self.betas is None:
            betas = []
            for level in self.target.levels:
                floor = level.min_positive_distance()
                betas.append(floor / 9 if floor is not None else ONE)
            for i, j, _, gaps in _pushed_pairs(self.target, alphas):
                # Every beta is positive already, so a row attaining 0 keeps it.
                peak = max(gaps, default=0)
                if peak:
                    attained = Fraction(peak, self.target.levels[j].scale)
                    betas[j] = max(betas[j], pow2(i - j) * attained)
        else:
            betas = [as_scalar(b) for b in self.betas]
        if len(betas) != squares + 1:
            raise StructuralError("one beta per target level required")
        for beta in betas:
            if beta <= 0:
                raise PreconditionError("beta scales must be positive")
        object.__setattr__(self, "betas", tuple(betas))


def _pushed_pairs(truncation: InverseSequenceTruncation, alphas: tuple):
    """For each level i below ``len(alphas)``, the pairs a < b of level i
    within alpha_i, in (a, b) order, found once and pushed down one bond per
    level: yields (i, j, pairs, gaps) for j = i, i - 1, .., 0, where
    ``gaps`` holds the distances of the pairs' images under p^i_j as ints
    over level j's scale."""
    levels = truncation.levels
    for i, alpha in enumerate(alphas):
        cut = _floor(alpha, levels[i].scale)
        pairs = [
            (a, b) for a, row in enumerate(levels[i].ints)
            for b in range(a + 1, len(row)) if row[b] <= cut
        ]
        images = pairs
        for j in range(i, -1, -1):
            if j < i:
                bond = truncation.bonds[j]
                images = [(bond[x], bond[y]) for x, y in images]
            m = levels[j].ints
            yield i, j, pairs, [m[x][y] for x, y in images]


def _worst_gap(level: FiniteMetricSpace, f: tuple, g: tuple) -> tuple:
    """Sup distance between two maps into ``level`` and the first point
    attaining it (None for maps on an empty source): the gap that the
    square, telescoping and limit rows measure."""
    gaps = [level.ints[y][z] for y, z in zip(f, g)]
    worst = max(gaps, default=0)
    return Fraction(worst, level.scale), gaps.index(worst) if gaps else None


def _measured_square(ladder_data: LadderData, i: int):
    """Worst defect of square i and its witness (point, left, right)."""
    down = ladder_data.source.composite(ladder_data.indices[i + 1], ladder_data.indices[i])
    bond = ladder_data.target.composite(i + 1, i)
    left = tuple(ladder_data.cross[i][y] for y in down)
    right = tuple(bond[y] for y in ladder_data.cross[i + 1])
    worst, x = _worst_gap(ladder_data.target.levels[i], left, right)
    return worst, None if x is None else (x, left[x], right[x])


def ladder(
    source: InverseSequenceTruncation,
    target: InverseSequenceTruncation,
    cross: Sequence,
    indices: Optional[Sequence[int]] = None,
    alphas: Optional[Sequence[ScalarLike]] = None,
    betas: Optional[Sequence[ScalarLike]] = None,
) -> LadderData:
    """Assemble ladder data; ``LadderData`` fills in omitted budgets.  With
    ``indices`` omitted, target level i is fed from source level i."""
    if indices is None:
        if target.top > source.top:
            raise StructuralError(
                "default indices need at least as many source levels as target levels"
            )
        indices = range(target.top + 1)
    return LadderData(source, target, tuple(indices), tuple(cross), alphas, betas)


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
    the exact worst image distance over the pairs within alpha, 0 when
    there are none, read from the scan that the default betas read too.  A
    failing row's ``witness`` is the lexicographically least pair (a, b,
    distance, image distance) within alpha and past the bound.
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
    injective_observed: bool
    uniqueness_rows: tuple
    unique: Optional[bool]
    injectivity_rows: tuple
    injective_certified: Optional[bool]
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


def _separation_readouts(ladder_data: LadderData) -> tuple:
    """The last five fields of ``PerturbationReport``, from the uniqueness
    rows to the note that says why they are empty when they are."""
    source = ladder_data.source
    target = ladder_data.target
    try:
        _check_cap(source)
        _check_cap(target)
    except PreconditionError:
        note = f"separation readouts skipped: a level exceeds the enumeration cap {THREAD_CAP}"
        return (), None, (), None, note
    if any(level.diameter() > ONE for level in source.levels + target.levels):
        note = (
            "separation readouts skipped: thread metrics need every level "
            "of diameter <= 1"
        )
        return (), None, (), None, note
    target_bundle = thread_space(target)
    source_bundle = thread_space(source)
    betas = ladder_data.betas

    uniqueness_rows = tuple(
        UniquenessRow(j, 4 * betas[j], _within(target_bundle.pair_sweeps[j], 4 * betas[j]))
        for j in range(target.top + 1)
    )
    unique = len(target_bundle.threads) <= 1 or any(
        row.forced == 0 for row in uniqueness_rows
    )

    injectivity_rows = []
    for j in range(target.top + 1):
        n = ladder_data.indices[j]
        # The largest source distance among cross-map pairs whose images
        # lie within five betas.
        level, f, m = source.levels[n], ladder_data.cross[j], target.levels[j].ints
        cut = _floor(5 * betas[j], target.levels[j].scale)
        gamma = Fraction(max((
            row[b] for a, row in enumerate(level.ints)
            for b in range(a + 1, len(row)) if m[f[a]][f[b]] <= cut
        ), default=0), level.scale)
        epsilon = _within(source_bundle.pair_sweeps[n], gamma)
        injectivity_rows.append(InjectivityRow(j, gamma, epsilon))
    injective_certified = len(source_bundle.threads) <= 1 or any(
        row.epsilon == 0 for row in injectivity_rows
    )
    return uniqueness_rows, unique, tuple(injectivity_rows), injective_certified, None


def perturbation_limit(ladder_data: LadderData) -> PerturbationReport:
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
    indices = ladder_data.indices
    alphas = ladder_data.alphas
    betas = ladder_data.betas

    square_rows = tuple(
        LadderSquareRow(i, alphas[i], *_measured_square(ladder_data, i))
        for i in range(stages)
    )

    continuity_rows = []
    for i, j, pairs, gaps in _pushed_pairs(target, alphas):
        bound = pow2(j - i) * betas[j]
        upper, scale = levels[i], levels[j].scale
        over = _floor(bound, scale)
        peak = max(gaps, default=0)
        witness = None
        if peak > over:
            k = next(k for k, gap in enumerate(gaps) if gap > over)
            a, b = pairs[k]
            witness = (a, b, Fraction(upper.ints[a][b], upper.scale), Fraction(gaps[k], scale))
        continuity_rows.append(
            ContinuityBudgetRow(i, j, alphas[i], bound, Fraction(peak, scale), witness)
        )

    # Stage map (i, j) for i = j .. stages: the source column into level
    # indices[i], across by cross map i, then down the target column p^i_j,
    # which each stage extends by one bond.
    telescoping_rows, limit_maps, limit_rows = [], [], []
    for j in range(stages + 1):
        column, stage_maps = range(levels[j].n), []
        for i in range(j, stages + 1):
            if i > j:
                column = tuple(column[x] for x in target.bonds[i - 1])
            across = ladder_data.cross[i]
            stage_maps.append(tuple(column[across[y]] for y in source._columns[indices[i]]))
        telescoping_rows += [
            TelescopingRow(i, j, pow2(j - i) * betas[j], _worst_gap(levels[j], f, g)[0])
            for i, f, g in zip(range(j, stages), stage_maps, stage_maps[1:])
        ]
        limit_maps.append(stage_maps[-1])
        limit_rows.append(LimitClosenessRow(
            j, 2 * betas[j], *_worst_gap(levels[j], stage_maps[-1], stage_maps[0])))

    thread_map = limit_maps[stages]
    return PerturbationReport(
        ladder_data,
        square_rows,
        tuple(continuity_rows),
        tuple(telescoping_rows),
        tuple(limit_rows),
        tuple(limit_maps),
        thread_map,
        len(set(thread_map)) == source.levels[top].n,
        *_separation_readouts(ladder_data),
    )
