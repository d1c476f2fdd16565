"""Nonexpansive scale-block embedding into sequence space."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    PRIMES_7_TO_31,
    interval_points,
    metric_spaces,
    random_space,
    wide_space,
)
from oracles import (
    aharoni_embed_dense,
    aharoni_embed_reference,
    continuity_rows,
    embedded_images,
    sup_distance,
)
from unimet import embedding
from unimet.covers import ball_cover, point_finite_refinement
from unimet.embedding import aharoni_embed, sufficient_depth
from unimet.errors import PreconditionError
from unimet.scalars import pow2
from unimet.spaces import FiniteMetricSpace


# ---- depth heuristic ----


def test_sufficient_depth_outruns_the_smallest_distance():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    depth = sufficient_depth(sp)
    assert pow2(1 - depth) < Fraction(1, 4)
    assert pow2(1 - (depth - 1)) >= Fraction(1, 4)
    rng = random.Random(701)
    for _ in range(10):
        sp = random_space(rng, rng.randint(2, 6), den=16, top=16)
        depth = sufficient_depth(sp)
        floor = sp.min_positive_distance()
        assert pow2(1 - depth) < floor


# ---- the embedding certificate ----


def test_embedding_certificates_on_random_spaces():
    rng = random.Random(709)
    for _ in range(8):
        sp = random_space(rng, rng.randint(2, 6), den=16, top=16)
        depth = rng.randint(1, 4)
        emb = aharoni_embed(sp, depth)
        cert = emb.certificate
        assert cert.nonexpansive_ok
        assert cert.coordinate_bounds_ok
        assert all(row.holds for row in cert.separation)
        assert len(emb.levels) == depth
        images = embedded_images(emb)
        assert len(images) == sp.n
        # nonexpansive, rechecked directly on the images
        for a in range(sp.n):
            for b in range(sp.n):
                assert sup_distance(images[a], images[b]) <= sp.d(a, b)
        # level blocks carry coordinates in [0, 2^-n]
        for data in emb.levels:
            members = len(data.cover.members)
            assert data.clamp <= pow2(-data.level)
            for img in images:
                for idx, value in img.support:
                    if data.offset <= idx < data.offset + members:
                        assert 0 <= value <= pow2(-data.level)
        # separation rows restate the checked implication
        for data, row in zip(emb.levels, cert.separation):
            assert row.level == data.level
            assert row.image_threshold == data.clamp / 2
            assert row.point_bound == pow2(1 - data.level)
            for a in range(sp.n):
                for b in range(sp.n):
                    gap = sup_distance(images[a], images[b])
                    if gap <= row.image_threshold:
                        assert sp.d(a, b) <= row.point_bound


def test_sufficient_depth_certifies_injectivity():
    rng = random.Random(719)
    for _ in range(6):
        sp = random_space(rng, rng.randint(2, 5), den=16, top=16)
        emb = aharoni_embed(sp, sufficient_depth(sp))
        assert emb.certificate.injective
        images = embedded_images(emb)
        for a in range(sp.n):
            for b in range(a + 1, sp.n):
                assert sup_distance(images[a], images[b]) > 0


def test_embedding_continuity_table_covers_the_spectrum():
    sp = interval_points([0, 1, 2, 3], Fraction(1, 4))
    emb = aharoni_embed(sp, 3)
    table = continuity_rows(emb.certificate)
    assert [d for d, _ in table] == sorted(sp.spectrum())
    # nonexpansiveness makes every epsilon at most its delta
    for delta, eps in table:
        assert eps <= delta


def test_embedding_guards():
    big = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="rescale"):
        aharoni_embed(big, 2)
    small = interval_points([0, 1], Fraction(1, 2))
    with pytest.raises(PreconditionError, match="depth"):
        aharoni_embed(small, 0)


# ---- the integer form against the Fraction code ----


def _reference_cases():
    """Wide spaces, whose odd denominators do not divide the clamps 2^-n,
    and dyadic ones, each rescaled to diameter 1, at every depth from 1 to
    one past ``sufficient_depth``."""
    rng = random.Random(733)
    for make in (wide_space, wide_space, random_space):
        for size in range(2, 8):
            sp = make(rng, size).rescaled_to_diameter(1)
            for depth in range(1, sufficient_depth(sp) + 2):
                yield sp, depth


def test_embedding_matches_the_fraction_reference():
    cases = 0
    for sp, depth in _reference_cases():
        got = aharoni_embed(sp, depth)
        want = aharoni_embed_reference(sp, depth)
        assert [(d.cover, d.clamp, d.offset) for d in got.levels] == [
            (d.cover, d.clamp, d.offset) for d in want.levels
        ]
        assert embedded_images(got) == embedded_images(want)
        cert, ref = got.certificate, want.certificate
        assert cert.separation == ref.separation
        assert cert.injective == ref.injective
        assert cert.nonexpansive_ok == ref.nonexpansive_ok
        assert cert.coordinate_bounds_ok == ref.coordinate_bounds_ok
        assert continuity_rows(cert) == continuity_rows(ref)
        assert got == want
        cases += 1
    assert cases > 50


def _counted_embedding(sp, depth):
    """``aharoni_embed(sp, depth)`` with the covers it builds and the
    refinements it takes recorded, and the distinct (target, helper) pairs
    of ball covers over its levels, in level order."""
    pairs = []
    for n in range(1, depth + 1):
        radius = pow2(-n - 2)
        pair = (ball_cover(sp, radius), ball_cover(sp, radius / 5))
        if pair not in pairs:
            pairs.append(pair)
    covers, refined = [], []

    def counted_cover(space, radius):
        covers.append(ball_cover(space, radius))
        return covers[-1]

    def counted_refinement(target, helper):
        refined.append((target, helper))
        return point_finite_refinement(target, helper)

    with mock.patch.object(embedding, "ball_cover", counted_cover), \
            mock.patch.object(embedding, "point_finite_refinement", counted_refinement):
        got = aharoni_embed(sp, depth)
    return got, pairs, list(zip(covers[::2], covers[1::2])), refined


def test_levels_with_equal_covers_share_one_refinement():
    """From level depth - 3 on, the radius 2^-(n+2) is below the smallest
    positive distance, so target and helper are both the singleton cover:
    those levels share one refinement, and each still clamps at its own
    cap 2^-n.  On every support space, at its sufficient depth and two
    levels short of it, the covers are built in pairs, one pair and one
    refinement per distinct pair of a level's covers, and the embedding is
    the dense loop's."""
    sp = wide_space(random.Random(757), 12).rescaled_to_diameter(1)
    depth = sufficient_depth(sp)
    got, pairs, built, refined = _counted_embedding(sp, depth)
    assert (depth, len(pairs)) == (5, 2)
    assert built == refined == pairs
    assert got == aharoni_embed_reference(sp, depth)
    counts = []
    for sp in _support_spaces():
        deepest = sufficient_depth(sp)
        for depth in sorted({max(1, deepest - 2), deepest}):
            got, pairs, built, refined = _counted_embedding(sp, depth)
            assert built == refined == pairs
            assert got == aharoni_embed_dense(sp, depth)
        counts.append((deepest, len(pairs)))
    # (sufficient depth, distinct pairs) per space: on {2^-i} the last
    # four levels share one pair, on the clusters more levels do.
    assert counts == [(9, 6), (10, 6), (13, 10), (9, 6), (11, 8), (25, 22),
                      (9, 6), (13, 10), (41, 38)]


def _support_spaces():
    """At 12, 24 and 40 points, each of diameter 1: a dyadic cluster with
    many tied distances (multiples of 1/128 below 5/16, and 1), a cluster
    over the denominators 8q for the primes q from 7 to 31 (up to 1/4,
    and 1), and the geometric space {2^-i}.  In the clusters the helper balls
    hold several points, so a point can lie in more than one member of a
    level."""
    rng = random.Random(761)
    for size in (12, 24, 40):
        yield interval_points(
            [0, 1] + [Fraction(k, 128) for k in rng.sample(range(1, 40), size - 2)]
        )
        ends = {Fraction(0), Fraction(1)}
        while len(ends) < size:
            q = rng.choice(PRIMES_7_TO_31)
            ends.add(Fraction(rng.randint(1, 2 * q), 8 * q))
        yield interval_points(sorted(ends))
        yield interval_points([Fraction(1, 2**i) for i in range(size)])


def test_supports_match_the_dense_loop_and_the_fraction_reference():
    """Images stored as supports give the same embedding, certificate and
    all, as the dense integer loop at the sufficient depth and two levels
    short of it, and as the Fraction code at the sufficient depth up to 24
    points (on the 40-point geometric space at depth 40 it takes 20 s)."""
    shared = []
    for sp in _support_spaces():
        deepest = sufficient_depth(sp)
        for depth in sorted({max(1, deepest - 2), deepest}):
            got = aharoni_embed(sp, depth)
            assert got == aharoni_embed_dense(sp, depth)
        if sp.n <= 24:
            assert got == aharoni_embed_reference(sp, deepest)
        shared.append(max(
            len(data.cover.holders[x])
            for data in got.levels
            for x in range(sp.n)
        ))
    # The most members of one level that hold one point, per space.
    assert shared == [2, 1, 1, 2, 2, 1, 2, 6, 1]


def test_a_space_past_the_point_cap_is_refused_before_any_cover(monkeypatch):
    """More than ``POINT_CAP`` points are refused by name, before the
    metric scan and before any cover is built."""
    n = embedding.POINT_CAP + 1
    flat = FiniteMetricSpace.from_int(
        tuple(range(n)), [[int(i != j) for j in range(n)] for i in range(n)], 1
    )
    monkeypatch.setattr(embedding, "ball_cover", None)
    monkeypatch.setattr(embedding, "ensure_metric", None)
    refusal = f"{n} points exceed the embedding's POINT_CAP = {n - 1}"
    with pytest.raises(PreconditionError, match=refusal):
        aharoni_embed(flat, 1)
    monkeypatch.undo()
    monkeypatch.setattr(embedding, "POINT_CAP", 2)
    with pytest.raises(PreconditionError, match="3 points exceed .* POINT_CAP = 2"):
        aharoni_embed(interval_points([0, 1, 2], Fraction(1, 2)), 2)
    assert aharoni_embed(interval_points([0, 1], Fraction(1, 2)), 2).certificate.injective


# ---- properties on generated spaces ----


@st.composite
def embedding_inputs(draw):
    """A space of diameter 1 and a depth from 1 to one past
    ``sufficient_depth``."""
    sp = draw(metric_spaces(2, 6)).rescaled_to_diameter(1)
    return sp, draw(st.integers(1, sufficient_depth(sp) + 1))


@given(embedding_inputs())
# From level 1 to 2 the target cover stays (no distance in (1/16, 1/8]) and
# the helper cover changes (1/50 lies in (1/80, 1/40]).
@example((interval_points([0, Fraction(1, 50), 1]), 3))
def test_covers_are_built_once_per_distinct_level_pair(case):
    """One pair of covers built and one refinement taken per distinct pair
    of a level's target and helper covers, and the dense loop's result."""
    sp, depth = case
    got, pairs, built, refined = _counted_embedding(sp, depth)
    assert built == refined == pairs
    assert got == aharoni_embed_dense(sp, depth)


@given(embedding_inputs())
def test_embedding_properties(case):
    sp, depth = case
    emb = aharoni_embed(sp, depth)
    cert = emb.certificate
    images = embedded_images(emb)
    gaps = [[sup_distance(a, b) for b in images] for a in images]
    assert cert.nonexpansive_ok
    assert all(gaps[a][b] <= sp.d(a, b) for a in range(sp.n) for b in range(sp.n))
    assert cert.coordinate_bounds_ok
    for data in emb.levels:
        assert 0 < data.clamp <= pow2(-data.level)
        block = range(data.offset, data.offset + len(data.cover.members))
        for img in images:
            assert all(0 <= img.value(i) <= data.clamp for i in block)
    assert all(row.holds for row in cert.separation)
    for data, row in zip(emb.levels, cert.separation):
        assert (row.image_threshold, row.point_bound) == (
            data.clamp / 2, pow2(1 - data.level)
        )
        assert all(
            gaps[a][b] > row.image_threshold or sp.d(a, b) <= row.point_bound
            for a in range(sp.n)
            for b in range(sp.n)
        )
    injective = all(gaps[a][b] > 0 for a in range(sp.n) for b in range(a + 1, sp.n))
    assert cert.injective == injective
    if depth >= sufficient_depth(sp):
        assert injective
    # The modulus: exact rows over the sorted spectrum, epsilons
    # nonnegative and nondecreasing, each the largest image distance among
    # pairs within its delta, so that it holds and is tight.
    assert all(type(x) is int for row in cert.continuity_ints for x in row)
    rows = continuity_rows(cert)
    assert [delta for delta, _ in rows] == sorted(sp.spectrum())
    epsilons = [eps for _, eps in rows]
    assert epsilons[0] >= 0 and epsilons == sorted(epsilons)
    for delta, eps in rows:
        assert eps == max(
            gaps[a][b] for a in range(sp.n) for b in range(sp.n) if sp.d(a, b) <= delta
        )
