"""Sequence points with constant tails: canonical form, the reference sup
distance, and the contraction profile."""

import random
from fractions import Fraction

import pytest

from cubohedra import tail_ramp
from oracles import sup_distance
from sequences import SequencePoint
from unimet.errors import StructuralError


def random_unit_point(rng):
    support = {
        rng.randrange(10): Fraction(rng.randint(0, 8), 8) for _ in range(rng.randint(0, 4))
    }
    return SequencePoint.from_dict(support, Fraction(rng.randint(0, 8), 8))


# ---- canonical form ----


def test_support_canonicalization():
    p = SequencePoint(((3, Fraction(1, 2)), (1, Fraction(0))), Fraction(0))
    # tail-valued entries are dropped, the rest sorted by index
    assert p.support == ((3, Fraction(1, 2)),)
    assert p.value(3) == Fraction(1, 2)
    assert p.value(7) == 0
    assert p == SequencePoint.from_dict({3: "1/2", 1: 0})
    assert p.as_dict() == {3: Fraction(1, 2)}
    assert p.support_indices() == (3,)


def test_sequence_point_guards():
    with pytest.raises(StructuralError, match="duplicate"):
        SequencePoint(((1, Fraction(1)), (1, Fraction(2))), Fraction(0))
    with pytest.raises(StructuralError, match="nonnegative"):
        SequencePoint(((-1, Fraction(1)),), Fraction(0))
    with pytest.raises(StructuralError, match="exact"):
        SequencePoint(((1, 0.5),), Fraction(0))
    with pytest.raises(StructuralError, match="exact"):
        SequencePoint((), 0.5)


def test_map_values_applies_everywhere():
    p = SequencePoint.from_dict({0: "1/2"}, "1/4")
    doubled = p.map_values(lambda v: 2 * v)
    assert doubled.value(0) == 1
    assert doubled.tail == Fraction(1, 2)


# ---- sup distance ----


def test_sup_distance_sees_tails_and_supports():
    a = SequencePoint.from_dict({0: "1/2"}, 0)
    b = SequencePoint.from_dict({5: "1/4"}, 0)
    assert sup_distance(a, b) == Fraction(1, 2)
    c = SequencePoint.from_dict({}, "1/3")
    # beyond both supports the gap is the tail gap
    assert sup_distance(a, c) == Fraction(1, 3)
    assert sup_distance(a, a) == 0


def test_sup_distance_triangle_inequality():
    rng = random.Random(503)
    for _ in range(50):
        a, b, c = (random_unit_point(rng) for _ in range(3))
        assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c)
        assert sup_distance(a, b) == sup_distance(b, a)


# ---- contraction profile ----


def test_tail_ramp_profile():
    assert tail_ramp(Fraction(1, 2), Fraction(0)) == Fraction(1, 2)
    assert tail_ramp(Fraction(1, 2), Fraction(1)) == 0
    assert tail_ramp(Fraction(3, 4), Fraction(1)) == Fraction(1, 2)
    assert tail_ramp(Fraction(1), Fraction(1)) == 1
