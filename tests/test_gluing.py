"""Metric extension off a subset and adjunction spaces."""

import random
from fractions import Fraction

import pytest

from helpers import interval_points, metric_closure, random_matrix, random_space
from unimet.errors import PreconditionError, StructuralError
from unimet.gluing import adjunction_space, extend_metric
from unimet.spaces import FiniteMetricSpace, check_metric_axioms


def random_partial(rng, size):
    return metric_closure(random_matrix(rng, size, den=8, top=8))


# ---- metric extension ----


def test_extension_restricts_exactly_and_separates():
    rng = random.Random(211)
    for _ in range(15):
        sp = random_space(rng, rng.randint(3, 7))
        k = rng.randint(1, sp.n - 1)
        subset = sorted(rng.sample(range(sp.n), k))
        partial = random_partial(rng, k)
        result = extend_metric(sp, subset, partial)
        assert result.points == sp.points
        for i, a in enumerate(subset):
            for j, b in enumerate(subset):
                assert result.d(a, b) == partial[i][j]
        assert check_metric_axioms(result).ok
        diam_d = max((v for row in partial for v in row), default=Fraction(0))
        bound = max(diam_d, Fraction(1))
        assert result.diameter() <= bound


def test_extension_small_case():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    result = extend_metric(sp, [0, 2], [["0", "1"], ["1", "0"]])
    assert result.d(0, 2) == 1
    assert result.d(0, 1) > 0
    assert result.d(1, 2) > 0


def test_extension_guards():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    with pytest.raises(PreconditionError, match="nonempty"):
        extend_metric(sp, [], [])
    with pytest.raises(StructuralError, match="range"):
        extend_metric(sp, [0, 5], [["0", "1"], ["1", "0"]])
    with pytest.raises(StructuralError, match="2x2"):
        extend_metric(sp, [0, 2], [["0"]])
    bad = [["0", "1", "1/4"], ["1", "0", "1/4"], ["1/4", "1/4", "0"]]
    with pytest.raises(PreconditionError):
        extend_metric(sp, [0, 1, 2], bad)


# ---- adjunction spaces ----


def test_adjunction_certificates_on_random_instances():
    rng = random.Random(223)
    for _ in range(15):
        sp = random_space(rng, rng.randint(2, 6), den=16, top=16)
        target = random_space(rng, rng.randint(1, 4), den=16, top=16)
        k = rng.randint(1, sp.n)
        subset = sorted(rng.sample(range(sp.n), k))
        attaching = {a: rng.randrange(target.n) for a in subset}
        result = adjunction_space(sp, subset, target, attaching)
        assert result.all_certified()
        # attached points land in the class of their image
        for a in subset:
            assert result.x_class[a] == result.y_class[attaching[a]]
        # clearance restates the extension distance to the subset
        for x in range(sp.n):
            assert result.clearance[x] == min(result.extension.d(x, a) for a in subset)
        # points off the subset stay strictly away from every attached class
        attached = set(result.y_class)
        for x in range(sp.n):
            if x in subset:
                continue
            assert result.clearance[x] > 0
            for q in attached:
                assert result.space.d(result.x_class[x], q) >= result.clearance[x]
        # the target sits isometrically inside the result
        for i in range(target.n):
            for j in range(target.n):
                assert result.space.d(
                    result.y_class[i], result.y_class[j]
                ) == target.d(i, j)


def test_adjunction_with_explicit_extension():
    sp = interval_points([0, 1, 2], Fraction(1, 2))
    target = interval_points([0, 1], Fraction(1, 4))
    # the identity-like attachment is 1-Lipschitz for the given extension
    result = adjunction_space(
        sp, [0, 2], target, {0: 0, 2: 1}, extension=sp
    )
    assert result.all_certified()
    assert result.space.d(result.x_class[0], result.y_class[0]) == 0


def test_adjunction_rejects_non_lipschitz_attaching():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    target = interval_points([0, 1], Fraction(1))
    with pytest.raises(PreconditionError, match="Lipschitz"):
        adjunction_space(sp, [0, 1], target, {0: 0, 1: 1}, extension=sp)


def test_adjunction_guards():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    target = interval_points([0, 1], Fraction(1, 2))
    with pytest.raises(PreconditionError, match="exactly"):
        adjunction_space(sp, [0, 1], target, {0: 0})
    with pytest.raises(StructuralError, match="range"):
        adjunction_space(sp, [0], target, {0: 7})
    big = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="diameter"):
        adjunction_space(big, [0], target, {0: 0})
    with pytest.raises(StructuralError, match="points of the space"):
        adjunction_space(sp, [0], target, {0: 0}, extension=target)
    with pytest.raises(PreconditionError, match="cross distance -1/4 is negative"):
        adjunction_space(sp, [0], target, {0: 0}, cross="-1/4")
    # A zero cross is at the boundary: it builds, and its certificates say
    # that the result is no metric.
    zero = adjunction_space(sp, [0], target, {0: 0}, cross=0)
    assert not zero.metric_ok
