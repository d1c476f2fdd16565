"""Shared fixtures and seeded generators for the test suite."""

from fractions import Fraction

from unimet.invlim import inverse_sequence
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


# ---- inverse sequence fixtures ----


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
