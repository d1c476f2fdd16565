"""Cone and join metrics against the product-quotient constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from helpers import (
    ConstructionInputs,
    construction_inputs,
    interval_points,
    matrix_of,
    random_space,
    space,
    with_examples,
)
from oracles import cone_reference, join_reference
from unimet.combinators import interval_space
from unimet.cones import (
    cone_metric,
    cone_quotient_check,
    join_amalgam_equality,
    join_metric,
)
from unimet.cylinders import mapping_cylinder_metric
from unimet.errors import PreconditionError
from unimet.scalars import ONE
from unimet.spaces import FiniteMetricSpace, check_metric_axioms

CONE_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))
JOIN_GRID = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))


# ---- interval grids ----


def test_interval_space_sorts_and_dedups():
    sp = interval_space(("1/2", 0, 1, "1/2"))
    assert sp.points == (Fraction(0), Fraction(1, 2), Fraction(1))
    assert sp.d(0, 2) == 1
    assert sp.d(0, 1) == Fraction(1, 2)


# ---- cones ----


def test_cone_distance_two_cases():
    base = interval_points([0, 1], Fraction(2))
    cone = cone_metric(base, CONE_GRID)
    half = Fraction(1, 2)
    # around the base: 2 + 0; through the apex: 1/2 + 1/2
    assert cone.space.d(cone.seg_index(0, half), cone.seg_index(1, half)) == 1
    assert cone.space.d(cone.seg_index(0, Fraction(0)), cone.seg_index(0, half)) == half


def test_cone_matches_collapsed_product_reference():
    rng = random.Random(401)
    for grid in (CONE_GRID, (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))):
        for _ in range(6):
            base = random_space(rng, rng.randint(2, 4), den=8, top=16)
            cone = cone_metric(base, grid)
            assert check_metric_axioms(cone.space).ok
            seen, matrix = cone_reference(matrix_of(base), grid)
            assert cone.space.n == len(seen)
            for key_a, qa in seen.items():
                ca = (
                    cone.y_index(0)
                    if key_a == ("apex",)
                    else cone.seg_index(key_a[1], key_a[2])
                )
                for key_b, qb in seen.items():
                    cb = (
                        cone.y_index(0)
                        if key_b == ("apex",)
                        else cone.seg_index(key_b[1], key_b[2])
                    )
                    assert cone.space.d(ca, cb) == matrix[qa][qb]


def test_cone_indexing_and_base_slice():
    base = space("ab", {(0, 1): "1/2"})
    cone = cone_metric(base, CONE_GRID)
    assert cone.inner_ts == (Fraction(0), Fraction(1, 2))
    assert cone.space.points[-1] == ("apex",)
    assert cone.y_index(0) == cone.space.n - 1
    assert cone.class_index(1, Fraction(1)) == cone.y_index(0)
    # the bottom slice is isometric to the base
    assert cone.space.d(cone.seg_index(0, Fraction(0)), cone.seg_index(1, Fraction(0))) == Fraction(1, 2)
    # apex sits at height 1 - t above each segment point
    assert cone.space.d(cone.y_index(0), cone.seg_index(0, Fraction(1, 2))) == Fraction(1, 2)


@given(construction_inputs(Fraction(0), (Fraction(0), Fraction(1)), ONE))
def test_the_cone_is_the_cylinder_onto_a_point(inputs):
    base, grid = inputs.source, inputs.grid
    point = FiniteMetricSpace(("*",), ((Fraction(0),),))
    cone = cone_metric(base, grid)
    cylinder = mapping_cylinder_metric(base, point, [0] * base.n, grid)
    assert cone.space.dist == cylinder.space.dist
    assert cone.space.points[:-1] == cylinder.space.points[:-1]
    assert cone.space.points[-1] == ("apex",)


def _seeded_bases():
    rng = random.Random(409)
    return [
        ConstructionInputs(
            random_space(rng, rng.randint(2, 4), den=8, top=16), CONE_GRID
        )
        for _ in range(6)
    ]


@with_examples(_seeded_bases())
@given(construction_inputs(Fraction(0), (Fraction(0), Fraction(1)), Fraction(2)))
def test_cone_quotient_check_is_exact(inputs):
    cone = cone_metric(inputs.source, inputs.grid)
    assert cone_quotient_check(cone) == 0


def test_cone_guards():
    big = interval_points([0, 1], Fraction(5, 2))
    with pytest.raises(PreconditionError, match="diameter"):
        cone_metric(big, CONE_GRID)
    small = interval_points([0, 1], Fraction(1, 2))
    with pytest.raises(PreconditionError, match="contain"):
        cone_metric(small, (Fraction(0), Fraction(1, 2)))
    with pytest.raises(PreconditionError, match="outside"):
        cone_metric(small, (Fraction(0), Fraction(1), Fraction(2)))
    with pytest.raises(PreconditionError, match="nonempty"):
        cone_metric(small, ())


# ---- joins ----


def test_join_distance_four_cases():
    left = interval_points([0, 1], Fraction(2))
    right = interval_points([0, 1], Fraction(2))
    zero = Fraction(0)
    join = join_metric(left, right, (-1, Fraction(-3, 4), 0, Fraction(3, 4), 1))

    def d(a, b):
        return join.space.d(join.class_index(*a), join.class_index(*b))

    # direct product hop
    assert d((0, 0, zero), (0, 1, zero)) == 2
    # through the collapsed bottom: x terms only
    assert d((0, 0, Fraction(-3, 4)), (0, 1, Fraction(-3, 4))) == Fraction(1, 2)
    # through the collapsed top: y terms only
    assert d((0, 0, Fraction(3, 4)), (1, 0, Fraction(3, 4))) == Fraction(1, 2)
    # crossing both ends caps everything at 4
    assert d((0, 0, zero), (1, 1, zero)) == 4


def test_join_matches_collapsed_product_reference():
    rng = random.Random(419)
    for grid in (JOIN_GRID, (Fraction(-1), Fraction(0), Fraction(1))):
        for _ in range(5):
            left = random_space(rng, rng.randint(2, 3), den=8, top=16)
            right = random_space(rng, rng.randint(2, 3), den=8, top=16)
            join = join_metric(left, right, grid)
            assert check_metric_axioms(join.space).ok
            seen, matrix = join_reference(matrix_of(left), matrix_of(right), grid)
            assert join.space.n == len(seen)

            def join_index(key):
                if key[0] == "x":
                    return join.xend_index(key[1])
                if key[0] == "y":
                    return join.yend_index(key[1])
                return join.seg_index(key[1], key[2], key[3])

            for key_a, qa in seen.items():
                for key_b, qb in seen.items():
                    assert join.space.d(join_index(key_a), join_index(key_b)) == matrix[qa][qb]


def test_join_end_slices():
    left = space("ab", {(0, 1): "1/2"})
    right = space("xyz", {(0, 1): "1/4", (0, 2): "1/3", (1, 2): "1/4"})
    join = join_metric(left, right, JOIN_GRID)
    for i in range(left.n):
        for k in range(left.n):
            assert join.space.d(join.xend_index(i), join.xend_index(k)) == left.d(i, k)
    for j in range(right.n):
        for l in range(right.n):
            assert join.space.d(join.yend_index(j), join.yend_index(l)) == right.d(j, l)
    # opposite ends always sit at distance exactly 2
    for i in range(left.n):
        for j in range(right.n):
            assert join.space.d(join.xend_index(i), join.yend_index(j)) == 2
    assert join.class_index(0, 1, Fraction(-1)) == join.xend_index(0)
    assert join.class_index(0, 1, Fraction(1)) == join.yend_index(1)


def test_join_guards():
    small = interval_points([0, 1], Fraction(1, 2))
    big = interval_points([0, 1], Fraction(5, 2))
    with pytest.raises(PreconditionError, match="diameter"):
        join_metric(big, small, JOIN_GRID)
    with pytest.raises(PreconditionError, match="contain"):
        join_metric(small, small, (Fraction(0), Fraction(1)))
    with pytest.raises(PreconditionError, match="needs 0"):
        join_amalgam_equality(
            join_metric(small, small, (Fraction(-1), Fraction(1, 2), Fraction(1)))
        )


def _seeded_factor_pairs():
    rng = random.Random(421)
    cases = []
    for _ in range(5):
        left = random_space(rng, rng.randint(2, 3), den=8, top=16)
        right = random_space(rng, rng.randint(2, 3), den=8, top=16)
        cases.append(ConstructionInputs(left, JOIN_GRID, right))
    return cases


@with_examples(_seeded_factor_pairs())
@given(
    construction_inputs(
        Fraction(-1), (Fraction(-1), Fraction(0), Fraction(1)), Fraction(2), max_size=3
    )
)
def test_join_equals_amalgam_of_cone_products(inputs):
    join = join_metric(inputs.source, inputs.target, inputs.grid)
    report = join_amalgam_equality(join)
    assert report.equal
    assert report.max_discrepancy == 0
    assert report.two_hops_suffice
