"""Continuity modulus tables."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import interval_points, metric_spaces, random_space, space, wide_space
from oracles import continuity_modulus_reference, uniform_continuity_witness_reference
from unimet.errors import PreconditionError, StructuralError
from unimet.moduli import ModulusTable, continuity_modulus


# ---- table shape ----


def test_table_validates_rows():
    rows = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)))
    assert ModulusTable(rows).rows == rows
    with pytest.raises(StructuralError, match="sorted"):
        ModulusTable(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    with pytest.raises(StructuralError, match="nondecreasing"):
        ModulusTable(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    with pytest.raises(StructuralError, match="pairs"):
        ModulusTable(((Fraction(0),),))
    with pytest.raises(StructuralError, match="exact"):
        ModulusTable(((0.5, Fraction(1)),))


# ---- continuity tables ----


def test_continuity_rows_certify_and_are_tight():
    rng = random.Random(101)
    for make in [random_space] * 15 + [wide_space] * 10:
        source = make(rng, rng.randint(2, 6))
        target = make(rng, rng.randint(2, 5))
        mapping = [rng.randrange(target.n) for _ in range(source.n)]
        table = continuity_modulus(source, target, mapping)
        assert table == continuity_modulus_reference(source, target, mapping)
        assert [d for d, _ in table.rows] == sorted(source.spectrum())
        for delta, eps in table.rows:
            assert uniform_continuity_witness_reference(source, target, mapping, delta, eps) is None
            # tight: shrinking epsilon breaks the row unless it is zero
            if eps > 0:
                shrunk = eps * Fraction(99, 100)
                witness = uniform_continuity_witness_reference(
                    source, target, mapping, delta, shrunk
                )
                assert witness is not None
                i, j, sd, td = witness
                assert sd <= delta and td > shrunk


# ---- against the reference ----


@given(metric_spaces(1, 6), metric_spaces(1, 5), st.data())
def test_moduli_tables_match_the_frozen_loops(source, target, data):
    image = st.integers(0, target.n - 1)
    mapping = data.draw(st.lists(image, min_size=source.n, max_size=source.n))
    assert continuity_modulus(source, target, mapping) == continuity_modulus_reference(
        source, target, mapping
    )


# ---- mapping guards ----


def test_moduli_reject_partial_maps():
    source = interval_points([0, 1, 2], Fraction(1, 4))
    target = interval_points([0, 1], Fraction(1, 2))
    with pytest.raises(PreconditionError):
        continuity_modulus(source, target, {0: 0, 1: 1})
    with pytest.raises(StructuralError):
        continuity_modulus(source, target, [0, 1, 5])
