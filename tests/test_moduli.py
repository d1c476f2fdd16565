"""Continuity rows from one pair sweep."""

import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from helpers import metric_spaces, random_space, wide_space
from oracles import continuity_modulus_reference, uniform_continuity_witness_reference
from unimet.moduli import PairSweep
from unimet.scalars import ZERO


def sweep_rows(source, target, mapping):
    """Per delta of the source spectrum, the largest image distance among
    pairs i < j at source distance <= delta, read from one sweep."""
    sweep = PairSweep(
        (row[j], target.dist[mapping[i]][mapping[j]])
        for i, row in enumerate(source.dist)
        for j in range(i + 1, source.n)
    )
    return tuple(
        (delta, sweep.largest_within(delta)) for delta in sorted({ZERO, *sweep.firsts})
    )


# ---- continuity rows ----


def test_continuity_rows_certify_and_are_tight():
    rng = random.Random(101)
    for make in [random_space] * 15 + [wide_space] * 10:
        source = make(rng, rng.randint(2, 6))
        target = make(rng, rng.randint(2, 5))
        mapping = [rng.randrange(target.n) for _ in range(source.n)]
        rows = sweep_rows(source, target, mapping)
        assert rows == continuity_modulus_reference(source, target, mapping)
        assert [d for d, _ in rows] == sorted(source.spectrum())
        for delta, eps in rows:
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
    assert sweep_rows(source, target, mapping) == continuity_modulus_reference(
        source, target, mapping
    )


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=8))
def test_an_int_sweep_answers_ints(pairs):
    # Below every first distance, and where every pair within is at 0, the
    # answer is the int 0 too.
    sweep = PairSweep(pairs)
    for t in range(-1, 11):
        assert type(sweep.largest_within(t)) is int
