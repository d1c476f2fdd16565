"""Mapping cylinders."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from helpers import (
    ConstructionInputs,
    construction_inputs,
    interval_points,
    random_space,
    space,
    with_examples,
)
from oracles import sub_cylinder
from unimet.cylinders import (
    CYLINDER_CROSS,
    adjusted_metric,
    cylinder_adjunction_check,
    mapping_cylinder_metric,
)
from unimet.errors import PreconditionError
from unimet.spaces import check_metric_axioms

GRID = (Fraction(0), Fraction(1, 2), Fraction(1))


def _seeded_cylinder_inputs():
    rng = random.Random(311)
    cases = []
    for _ in range(8):
        source = random_space(rng, rng.randint(2, 4), den=16, top=16)
        target = random_space(rng, rng.randint(1, 3), den=16, top=16)
        mapping = tuple(rng.randrange(target.n) for _ in range(source.n))
        cases.append(ConstructionInputs(source, GRID, target, mapping))
    return cases


# ---- adjusted metric ----


def test_adjusted_metric_values_and_lipschitz():
    rng = random.Random(307)
    for _ in range(10):
        source = random_space(rng, rng.randint(2, 5))
        target = random_space(rng, rng.randint(1, 4))
        mapping = [rng.randrange(target.n) for _ in range(source.n)]
        rho = adjusted_metric(source, target, mapping)
        assert check_metric_axioms(rho).ok
        for i in range(source.n):
            for j in range(source.n):
                assert rho.d(i, j) == source.d(i, j) + target.d(mapping[i], mapping[j])
                assert target.d(mapping[i], mapping[j]) <= rho.d(i, j)


# ---- cylinder formulas ----


def expected_distance(cyl, a, b):
    inner = cyl.inner_ts
    seg_count = cyl.source.n * len(inner)
    if a >= seg_count and b >= seg_count:
        return cyl.target.d(a - seg_count, b - seg_count)
    if a >= seg_count or b >= seg_count:
        if a >= seg_count:
            a, b = b, a
        i, tp = divmod(a, len(inner))
        return (1 - inner[tp]) + cyl.target.d(cyl.mapping[i], b - seg_count)
    i, tp = divmod(a, len(inner))
    j, sp = divmod(b, len(inner))
    t, s = inner[tp], inner[sp]
    around = cyl.adjusted.d(i, j) + abs(t - s)
    through = (1 - t) + (1 - s) + cyl.target.d(cyl.mapping[i], cyl.mapping[j])
    return min(around, through)


@with_examples(_seeded_cylinder_inputs())
@given(construction_inputs(Fraction(0), (Fraction(0), Fraction(1)), Fraction(1)))
def test_cylinder_matches_displayed_formulas(inputs):
    cyl = mapping_cylinder_metric(
        inputs.source, inputs.target, inputs.mapping, inputs.grid
    )
    assert check_metric_axioms(cyl.space).ok
    for a in range(cyl.space.n):
        for b in range(cyl.space.n):
            assert cyl.space.d(a, b) == expected_distance(cyl, a, b)
    assert cylinder_adjunction_check(cyl) == 0


def test_cylinder_indexing_and_top_slice():
    source = space("ab", {(0, 1): "1/2"})
    target = space("xy", {(0, 1): "1/4"})
    cyl = mapping_cylinder_metric(source, target, (1, 0), GRID)
    assert cyl.inner_ts == (Fraction(0), Fraction(1, 2))
    assert cyl.space.points[cyl.seg_index(1, Fraction(1, 2))] == (
        "seg",
        "b",
        Fraction(1, 2),
    )
    assert cyl.space.points[cyl.y_index(0)] == ("y", "x")
    # the top slice is glued onto the image point
    assert cyl.class_index(0, Fraction(1)) == cyl.y_index(1)
    assert cyl.space.d(cyl.seg_index(0, Fraction(1, 2)), cyl.y_index(1)) == Fraction(1, 2)
    # Y sits isometrically at the end of the cylinder
    assert cyl.space.d(cyl.y_index(0), cyl.y_index(1)) == Fraction(1, 4)


def test_cylinder_guards():
    small = space("ab", {(0, 1): "1/2"})
    big = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="diameter"):
        mapping_cylinder_metric(big, small, (0, 0), GRID)
    with pytest.raises(PreconditionError, match="diameter"):
        mapping_cylinder_metric(small, big, (0, 0), GRID)
    with pytest.raises(PreconditionError, match="contain"):
        mapping_cylinder_metric(small, small, (0, 1), (Fraction(0), Fraction(1, 2)))
    with pytest.raises(PreconditionError):
        mapping_cylinder_metric(small, small, (0, 1), (Fraction(0), Fraction(2)))
    assert CYLINDER_CROSS == 3


def test_sub_cylinder_is_the_induced_submetric():
    rng = random.Random(313)
    for _ in range(8):
        source = random_space(rng, rng.randint(3, 4), den=16, top=16)
        target = random_space(rng, rng.randint(1, 3), den=16, top=16)
        mapping = tuple(rng.randrange(target.n) for _ in range(source.n))
        cyl = mapping_cylinder_metric(source, target, mapping, GRID)
        keep = sorted(rng.sample(range(source.n), rng.randint(1, source.n - 1)))
        sub, induced_equal = sub_cylinder(cyl, keep)
        assert induced_equal
        assert sub.source.n == len(keep)
        assert sub.mapping == tuple(mapping[i] for i in keep)
