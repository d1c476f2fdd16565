"""Shared fixtures and seeded generators for the test suite."""

import random
from fractions import Fraction
from typing import NamedTuple, Optional

from hypothesis import example
from hypothesis import strategies as st

from unimet.covers import Cover, FundamentalSequence
from unimet.invlim import inverse_sequence, ladder
from unimet.jsonio import space_to_json
from unimet.quotients import glue_parts
from unimet.spaces import FiniteMetricSpace

ZERO = Fraction(0)
ONE = Fraction(1)


# ---- explicit spaces ----


def space(labels, dists):
    """Space from a dict of index-pair distances (values parse as Fraction)."""
    n = len(labels)
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), v in dists.items():
        rows[i][j] = rows[j][i] = Fraction(v)
    return FiniteMetricSpace(tuple(labels), tuple(tuple(r) for r in rows))


def interval_points(labels, scale=ONE):
    """Metric space on numeric labels with |a - b| * scale distances."""
    pts = tuple(labels)
    rows = tuple(
        tuple(abs(Fraction(a) - Fraction(b)) * Fraction(scale) for b in pts)
        for a in pts
    )
    return FiniteMetricSpace(pts, rows)


# ---- deterministic random spaces ----


def random_matrix(rng, size, den=8, top=16):
    """Random symmetric nonnegative matrix with zero diagonal (not
    necessarily triangle valid)."""
    m = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = Fraction(rng.randint(1, top), den)
            m[i][j] = v
            m[j][i] = v
    return m


def metric_closure(matrix):
    """Shortest-path closure: the largest metric below the input weights."""
    size = len(matrix)
    dist = [row[:] for row in matrix]
    for k in range(size):
        for i in range(size):
            for j in range(size):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


def random_space(rng, size, den=8, top=16, labels=None):
    """Random finite metric space via shortest-path closure of random
    symmetric weights."""
    dist = metric_closure(random_matrix(rng, size, den, top))
    pts = tuple(labels) if labels is not None else tuple(range(size))
    return FiniteMetricSpace(pts, tuple(tuple(row) for row in dist))


PRIMES_7_TO_31 = (7, 11, 13, 17, 19, 23, 29, 31)


def wide_matrix(rng, size):
    """Random symmetric nonnegative matrix with zero diagonal whose entries
    lie in (0, 2] over denominators drawn from the primes 7..31."""
    m = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            q = rng.choice(PRIMES_7_TO_31)
            m[i][j] = m[j][i] = Fraction(rng.randint(1, 2 * q), q)
    return m


def wide_space(rng, size, labels=None):
    """Random finite metric space with coprime denominators: the
    shortest-path closure of ``wide_matrix``."""
    dist = metric_closure(wide_matrix(rng, size))
    pts = tuple(labels) if labels is not None else tuple(range(size))
    return FiniteMetricSpace(pts, tuple(tuple(row) for row in dist))


def matrix_of(space):
    """Plain Fraction matrix in point-index order."""
    return [list(row) for row in space.dist]


def random_partition(rng, size, classes):
    """Surjective class assignment of ``size`` points onto 0..classes-1."""
    class_of = list(range(classes)) + [
        rng.randrange(classes) for _ in range(size - classes)
    ]
    rng.shuffle(class_of)
    return class_of


def chain_on_classes(sp, class_of, steps):
    """d_steps on the classes that ``class_of`` assigns: ``glue_parts`` of
    the one part ``sp`` with class k as group k, which is the chain
    distance on the quotient, with ``dn_equals_dinf`` and ``is_metric``."""
    classes = [[i for i, c in enumerate(class_of) if c == k] for k in range(max(class_of) + 1)]
    return glue_parts([sp], [[(0, i) for i in cls] for cls in classes], None, steps)


# ---- Moon–Moser graphs: 3^k maximal cliques on 3k points ----


def moon_moser_neighbours(triples):
    """Neighbour sets of the complement of ``triples`` disjoint triangles;
    its maximal cliques take one point from each triangle."""
    size = 3 * triples
    return [{v for v in range(size) if v // 3 != u // 3} for u in range(size)]


def moon_moser_sequence(triples):
    """Fundamental sequence (whole, whole, whole, cross-triple pairs).

    Its metric puts the cross-triple pairs at 1/4 and the other pairs at
    1/2, so the sets of diameter at most 1/4 that ``au_metrize`` tests at
    level 2 are the cliques of the Moon–Moser graph.
    """
    size = 3 * triples
    whole = Cover(size, (tuple(range(size)),))
    pairs = Cover(size, tuple(
        (i, j) for i in range(size) for j in range(i + 1, size) if i // 3 != j // 3
    ))
    return FundamentalSequence(size, (whole, whole, whole, pairs))


# ---- generated construction inputs ----


class ConstructionInputs(NamedTuple):
    """A source space and a parameter grid, with the target space and the
    map that the join and the cylinder also read."""

    source: FiniteMetricSpace
    grid: tuple
    target: Optional[FiniteMetricSpace] = None
    mapping: tuple = ()


@st.composite
def metric_spaces(draw, min_size, max_size):
    """A space of min_size..max_size points, drawn from a seed as
    ``random_space`` (dyadic weights) or ``wide_space`` (denominators
    7..31)."""
    make = draw(st.sampled_from((random_space, wide_space)))
    size = draw(st.integers(min_size, max_size))
    return make(random.Random(draw(st.integers(0, 2**32 - 1))), size)


@st.composite
def stored_spaces(draw):
    """A ``metric_spaces`` space of 0..5 points with up to two entries,
    the diagonal included, made negative over a denominator 7..31."""
    sp = draw(metric_spaces(0, 5))
    rows = [list(row) for row in sp.dist]
    if sp.n:
        index = st.integers(0, sp.n - 1)
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(index), draw(index)
            rows[i][j] = -rows[i][j] - Fraction(1, draw(st.sampled_from(PRIMES_7_TO_31)))
    return FiniteMetricSpace(sp.points, tuple(map(tuple, rows)), draw(st.booleans()))


@st.composite
def construction_inputs(draw, low, required, cap, max_size=4):
    """Inputs for the cone, join and cylinder formula-versus-oracle tests.

    Each space has 1..max_size points (the source at least 2) and is drawn
    by ``metric_spaces``, then rescaled to a drawn diameter k/8 * cap for
    k in 1..8.  The map sends source indices to target indices; the grid
    holds ``required`` and up to three more values in [low, 1] with
    denominators up to 8.
    """

    def one_space(min_size):
        drawn = draw(metric_spaces(min_size, max_size))
        return drawn.rescaled_to_diameter(Fraction(draw(st.integers(1, 8)), 8) * cap)

    source = one_space(2)
    target = one_space(1)
    image = st.integers(0, target.n - 1)
    mapping = draw(st.lists(image, min_size=source.n, max_size=source.n))
    extra = draw(st.sets(st.fractions(low, ONE, max_denominator=8), max_size=3))
    grid = tuple(sorted(extra | set(required)))
    return ConstructionInputs(source, grid, target, tuple(mapping))


def with_examples(cases):
    """Decorator: run each of ``cases`` as an explicit hypothesis example."""

    def decorate(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test

    return decorate


# ---- inverse sequence fixtures ----


def _index_lists(draw, size, count):
    """``count`` indices into 0..size-1, as a list."""
    return draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count))


@st.composite
def truncations(draw, max_levels=4, max_size=5):
    """A truncation of 1..max_levels levels, each drawn by ``metric_spaces``
    with 1..max_size points and rescaled to a diameter k/8 for k in 1..8,
    with arbitrary total bonds, so images shrink at uneven rates."""
    levels = [
        draw(metric_spaces(1, max_size)).rescaled_to_diameter(
            Fraction(draw(st.integers(1, 8)), 8)
        )
        for _ in range(draw(st.integers(1, max_levels)))
    ]
    bonds = [
        _index_lists(draw, lower.n, upper.n)
        for lower, upper in zip(levels, levels[1:])
    ]
    return inverse_sequence(levels, bonds)


class LadderCase(NamedTuple):
    """A ladder and whether its betas took their defaults."""

    data: object
    default_betas: bool


@st.composite
def ladders(draw):
    """A ladder between two drawn truncations: default or drawn
    nondecreasing indices, arbitrary cross maps, measured or drawn alphas
    and default or drawn betas (multiples of 1/64 up to 1)."""
    source = draw(truncations())
    target = draw(truncations(max_levels=source.top + 1))
    indices = None
    if draw(st.booleans()):
        indices = sorted(_index_lists(draw, source.top + 1, target.top + 1))
    feeds = indices if indices is not None else range(target.top + 1)
    cross = [
        _index_lists(draw, level.n, source.levels[n].n)
        for n, level in zip(feeds, target.levels)
    ]
    scale = st.integers(0, 64).map(lambda k: Fraction(k, 64))
    alphas = draw(st.none() | st.lists(scale, min_size=target.top, max_size=target.top))
    betas = draw(st.none() | st.lists(
        scale.filter(lambda v: v > 0), min_size=target.top + 1, max_size=target.top + 1
    ))
    data = ladder(source, target, cross, indices=indices, alphas=alphas, betas=betas)
    return LadderCase(data, betas is None)


def retraction_tower(depth, scale=Fraction(1, 8)):
    """Levels {0..i} of a scaled line for i < depth; bonds clamp down.

    Every bond is a retraction (surjective), so image chains stabilize at
    their own level and the truncation is as convergent as a finite window
    can certify.
    """
    levels = [interval_points(range(i), scale) for i in range(1, depth + 1)]
    bonds = [
        tuple(min(x, i - 1) for x in range(i + 1)) for i in range(1, depth)
    ]
    return inverse_sequence(levels, bonds)


def halving_chain(depth, floor):
    """Level i holds {2^-k : k = i..floor}; bonds are the inclusions.

    Images of deep points keep sliding toward zero with no limit point in
    the window: distances cluster (Cauchy) but nothing converges.
    """
    levels = []
    for i in range(depth):
        pts = tuple(Fraction(1, 2**k) for k in range(floor, i - 1, -1))
        rows = tuple(tuple(abs(a - b) for b in pts) for a in pts)
        levels.append(FiniteMetricSpace(pts, rows))
    bonds = [tuple(range(floor - i)) for i in range(depth - 1)]
    return inverse_sequence(levels, bonds)


def window_chain(depth, width=3):
    """Sliding windows {k/8 .. (k+width)/8} with shift-and-clamp bonds.

    Tail images keep drifting right: neither convergence nor clustering
    holds inside the window.
    """
    levels = []
    for k in range(depth):
        pts = tuple(Fraction(k + j, 8) for j in range(width + 1))
        rows = tuple(tuple(abs(a - b) for b in pts) for a in pts)
        levels.append(FiniteMetricSpace(pts, rows))
    bonds = [tuple(min(x + 1, width) for x in range(width + 1))] * (depth - 1)
    return inverse_sequence(levels, bonds)


def empty_top_chain():
    """Levels of 2, 1 and 0 points.  The top level is empty, and so is the
    shadow at every level, and the nonempty images below the top lie in no
    neighborhood of it."""
    levels = [interval_points(range(n), Fraction(1, 8)) for n in (2, 1, 0)]
    return inverse_sequence(levels, [(0,), ()])


# ---- input files ----


def cover_to_json(cover):
    return {"ground": cover.ground, "sets": [list(m) for m in cover.members]}


def fundamental_sequence_to_json(seq):
    return {"covers": [cover_to_json(c) for c in seq.levels]}


def truncation_to_json(truncation):
    return {
        "levels": [space_to_json(level) for level in truncation.levels],
        "bonds": [{"pairs": [list(pair) for pair in enumerate(bond)]}
                  for bond in truncation.bonds],
    }
