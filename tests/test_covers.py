"""Cover calculus: refinement relations, metrization, point-finite refinement."""

import random
import re
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    interval_points,
    metric_closure,
    moon_moser_neighbours,
    moon_moser_sequence,
    random_space,
    wide_matrix,
    wide_space,
)
from oracles import (
    ball_containment_number_reference,
    ball_cover_reference,
    complement_distances_reference,
    gauge_from_covers,
    maximal_cliques_reference,
    member_diameter_reference,
    point_finite_refinement_reference,
    star_refines_reference,
)
from unimet import covers
from unimet.covers import (
    CLIQUE_CAP,
    Cover,
    FundamentalSequence,
    au_metrize,
    ball_cover,
    ball_fundamental_sequence,
    complement_distances,
    containment_from_distances,
    maximal_cliques,
    point_finite_refinement,
    star_refines,
)
from unimet.errors import PreconditionError, StructuralError
from unimet.spaces import FiniteMetricSpace


def pseudo_pair():
    zero = Fraction(0)
    return FiniteMetricSpace(("u", "v"), ((zero, zero), (zero, zero)), pseudo=True)


# ---- cover construction ----


def test_cover_cleans_members():
    cover = Cover(3, ((2, 0, 2), (0, 2), (1,)))
    # members are sorted and duplicates keep the first occurrence
    assert cover.members == ((0, 2), (1,))
    assert len(cover) == 2
    assert cover.holders == ((0,), (1,), (0,))


def test_cover_guards():
    with pytest.raises(StructuralError, match="nonempty"):
        Cover(2, ((0,), ()))
    with pytest.raises(StructuralError, match="uncovered"):
        Cover(3, ((0, 1),))
    with pytest.raises(StructuralError, match="range"):
        Cover(2, ((0, 2),))
    with pytest.raises(StructuralError, match="ground"):
        Cover(0, ())


# ---- refinement relations ----


def test_star_is_union_of_meeting_members():
    cover = Cover(4, ((0, 1), (1, 2), (3,)))
    assert cover.masks == (0b11, 0b110, 0b1000)
    assert cover.star_masks == (0b11, 0b111, 0b110, 0b1000)
    assert cover.star_of((0,)) == 0b11
    assert cover.star_of((1,)) == 0b111
    assert cover.star_of((0, 3)) == 0b1011
    assert cover.star_of(()) == 0


def _sets(masks):
    """Each mask as the frozenset of its set bits."""
    return [frozenset(x for x in range(m.bit_length()) if m >> x & 1) for m in masks]


def refines(cover, target):
    """Every member of cover sits inside some member of target."""
    return all(any(set(m) <= set(t) for t in target.members) for m in cover.members)


def test_star_refinement_implies_weaker_relations():
    rng = random.Random(131)
    for _ in range(10):
        sp = random_space(rng, rng.randint(3, 7))
        radius = Fraction(rng.randint(1, 8), 16)
        fine = ball_cover(sp, radius / 5)
        coarse = ball_cover(sp, radius)
        assert star_refines(fine, coarse) is None
        # the star of every point lies in a member, and so does every member
        assert all(any(s <= set(t) for t in coarse.members) for s in _sets(fine.star_masks))
        assert refines(fine, coarse)


def test_star_refinement_is_strictly_stronger():
    coarse = Cover(3, ((0, 1), (1, 2)))
    # each member sits in itself, but stars span the whole ground
    assert refines(coarse, coarse)
    assert star_refines(coarse, coarse) == 0


def test_ball_cover_uses_closed_balls():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    cover = ball_cover(sp, Fraction(1, 4))
    assert cover.members == ((0, 1), (0, 1, 2), (1, 2))
    with pytest.raises(StructuralError, match="nonnegative"):
        ball_cover(sp, Fraction(-1))


# ---- maximal cliques ----


@st.composite
def graphs(draw, max_size=10):
    """Neighbour sets of a graph on 0..max_size vertices."""
    size = draw(st.integers(0, max_size))
    neighbours = [set() for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            if draw(st.booleans()):
                neighbours[a].add(b)
                neighbours[b].add(a)
    return neighbours


@given(graphs())
def test_maximal_cliques_match_brute_force(neighbours):
    cliques = maximal_cliques(neighbours)
    assert len(set(cliques)) == len(cliques)
    assert set(cliques) == set(maximal_cliques_reference(neighbours))


def test_maximal_cliques_count_on_moon_moser_graphs():
    cliques = maximal_cliques(moon_moser_neighbours(8))
    assert len(set(cliques)) == len(cliques) == 3**8
    assert all(sorted(v // 3 for v in c) == list(range(8)) for c in cliques)


def test_clique_cap_stops_the_listing(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(covers, "CLIQUE_CAP", 9)
        assert len(maximal_cliques(moon_moser_neighbours(2))) == 9
        patched.setattr(covers, "CLIQUE_CAP", 8)
        with pytest.raises(PreconditionError, match="more than 8 maximal cliques"):
            maximal_cliques(moon_moser_neighbours(2))
    # 3^10 maximal cliques on 30 points, past the default cap
    triples = 10
    assert 3**triples > CLIQUE_CAP
    with pytest.raises(PreconditionError, match="CLIQUE_CAP"):
        au_metrize(moon_moser_sequence(triples))
    # below the cap it runs
    assert au_metrize(moon_moser_sequence(2)).clique_containment_ok


def test_ball_containment_number_uses_open_balls():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    table = complement_distances(sp, ball_cover(sp, Fraction(1, 4)))
    assert containment_from_distances(sp, table) == Fraction(1, 2)
    # the cap itself is returned when it works
    assert containment_from_distances(sp, table, Fraction(3, 8)) == Fraction(3, 8)
    degenerate = pseudo_pair()
    singletons = complement_distances(degenerate, Cover(2, ((0,), (1,))))
    assert containment_from_distances(degenerate, singletons) is None


def _random_cover(rng, n, whole):
    members = [
        [y for y in range(n) if rng.random() < 0.4] or [rng.randrange(n)]
        for _ in range(rng.randint(1, n))
    ]
    if whole:
        members.append(range(n))
    members += [[y] for y in range(n)]
    rng.shuffle(members)
    return Cover(n, tuple(members))


def _defective_space(rng, n):
    """A symmetric matrix without the triangle inequality, then a few
    asymmetric, negative or zero entries."""
    rows = wide_matrix(rng, n)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = Fraction(rng.randint(-3, 20), rng.choice((7, 11, 13)))
    return FiniteMetricSpace(tuple(range(n)), tuple(map(tuple, rows)))


def _outcome(function, *args):
    """The result, or the type and text of the error raised."""
    try:
        return function(*args)
    except StructuralError as exc:
        return type(exc), str(exc)


def test_ball_covers_match_the_fraction_reference():
    """Ball covers at radii r and r/5, tables of distances to the members'
    complements, and containment numbers under caps, with denominators
    dyadic and coprime to the spaces' (37, 41, 43)."""
    rng = random.Random(739)
    spaces = [wide_space(rng, rng.randint(2, 7)) for _ in range(8)]
    spaces += [random_space(rng, rng.randint(2, 7)) for _ in range(4)]
    spaces += [_defective_space(rng, rng.randint(2, 6)) for _ in range(4)]
    spaces.append(pseudo_pair())
    for sp in spaces:
        radii = [Fraction(1, 2**k) for k in range(0, 6)]
        radii += [Fraction(rng.randint(1, 60), q) for q in (37, 41)]
        caps = [None, Fraction(0), Fraction(-1, 3), Fraction(1, 2 ** rng.randint(0, 5))]
        caps += [Fraction(rng.randint(1, 60), 43), Fraction(2)]
        covers = [_random_cover(rng, sp.n, whole) for whole in (False, True)]
        for r in radii:
            for radius in (r, r / 5):
                got = _outcome(ball_cover, sp, radius)
                assert got == _outcome(ball_cover_reference, sp, radius)
                if isinstance(got, Cover):
                    covers.append(got)
        scale = sp.scale
        for cover in covers:
            ints = complement_distances(sp, cover)
            table = [
                None if column is None else [Fraction(v, scale) for v in column]
                for column in ints
            ]
            assert table == complement_distances_reference(sp, cover)
            for cap in caps:
                got = containment_from_distances(sp, ints, cap)
                assert got == ball_containment_number_reference(sp, cover, cap)


# ---- fundamental sequences ----


def test_fundamental_sequence_guards():
    with pytest.raises(StructuralError, match="at least one"):
        FundamentalSequence(3, ())
    with pytest.raises(StructuralError, match="ground"):
        FundamentalSequence(2, (Cover(3, ((0, 1, 2),)),))


def test_refinement_witness_names_level_and_member():
    whole = Cover(3, ((0, 1, 2),))
    halves = Cover(3, ((0, 1), (1, 2)))
    good = FundamentalSequence(3, (whole, whole))
    assert good.refinement_witness is None
    # the halves cover does not star-refine itself: witness names level 3
    bad = FundamentalSequence(3, (whole, halves, halves))
    assert bad.refinement_witness == (3, 0)


def test_ball_fundamental_sequence_guards():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    seq = ball_fundamental_sequence(sp, 4)
    assert len(seq.levels) == 4 and seq.refinement_witness is None
    with pytest.raises(StructuralError, match="depth"):
        ball_fundamental_sequence(sp, 0)
    with pytest.raises(PreconditionError, match="1/3"):
        ball_fundamental_sequence(sp, 2, ratio=Fraction(1, 2))


# ---- metrization ----


def _metrize_inputs(rng):
    """Ball sequences on small dyadic spaces at depth 2-4, then on wide
    spaces of 7-14 points at depth 5-6 from balls of the space's diameter,
    where a point lies in several members of one even level."""
    for _ in range(10):
        sp = random_space(rng, rng.randint(2, 6), den=16, top=16)
        yield ball_fundamental_sequence(sp, rng.randint(2, 4))
    for _ in range(6):
        sp = wide_space(rng, rng.randint(7, 14))
        yield ball_fundamental_sequence(sp, rng.randint(5, 6), base=sp.diameter())


def test_au_metrize_matches_gauge_reference():
    shared = []
    for seq in _metrize_inputs(random.Random(139)):
        result = au_metrize(seq)
        member_lists = [list(level.members) for level in seq.levels]
        want_gauge = gauge_from_covers(member_lists, seq.ground)
        # the whole gauge, its nonzero diagonal included, as ints over its scale
        assert result.gauge_ints == [[v * result.gauge_scale for v in row] for row in want_gauge]
        # the metric is the shortest-chain closure of the gauge off the diagonal
        off = [[v if x != y else 0 for y, v in enumerate(row)]
               for x, row in enumerate(want_gauge)]
        assert [list(row) for row in result.space.dist] == metric_closure(off)
        assert result.comparison_ok
        assert result.member_diameter_ok
        assert result.clique_containment_ok
        assert result.witnesses == ()
        shared.append(max(len(held) for level in seq.levels[1::2] for held in level.holders))
    assert max(shared[10:]) > 2


def test_au_metrize_rejects_bad_sequences():
    whole = Cover(3, ((0, 1, 2),))
    halves = Cover(3, ((0, 1), (1, 2)))
    bad = FundamentalSequence(3, (whole, halves, halves))
    with pytest.raises(PreconditionError, match="fundamental"):
        au_metrize(bad)


def test_au_metrize_refuses_a_ground_past_the_cap_first(monkeypatch):
    monkeypatch.setattr(covers, "GROUND_CAP", 2)
    whole = Cover(3, ((0, 1, 2),))
    halves = Cover(3, ((0, 1), (1, 2)))
    with pytest.raises(PreconditionError, match="^3 points exceed the metrization's GROUND_CAP = 2$"):
        au_metrize(FundamentalSequence(3, (whole, halves, halves)))
    pair = Cover(2, ((0, 1),))
    assert au_metrize(FundamentalSequence(2, (pair, pair))).comparison_ok


# ---- point-finite refinement ----


def test_point_finite_refinement_with_singleton_helper():
    target = Cover(3, ((0, 1), (1, 2), (2,)))
    singletons = Cover(3, ((0,), (1,), (2,)))
    result = point_finite_refinement(target, singletons)
    assert result.cover.members == ((0, 1), (2,))
    assert result.origins == (0, 1)
    assert result.core == ((0, 1), (2,))
    assert result.double_star_ok
    assert result.index_bound_ok


def test_point_finite_refinement_invariants():
    """On small dyadic spaces, then on wide spaces of 7-14 points."""
    rng = random.Random(149)
    for k in range(23):
        sp = (random_space(rng, rng.randint(3, 8)) if k < 15
              else wide_space(rng, rng.randint(7, 14)))
        radius = Fraction(rng.randint(1, 8), 16)
        helper = ball_cover(sp, radius)
        target = ball_cover(sp, 5 * radius)
        result = point_finite_refinement(target, helper)
        assert result.cover.ground == sp.n
        # kernels: nonempty, pairwise disjoint, exhaustive, inside their member
        seen = set()
        for pos, kernel in enumerate(result.core):
            assert kernel
            assert not seen & set(kernel)
            seen.update(kernel)
            assert set(kernel) <= set(result.cover.members[pos])
        assert seen == set(range(sp.n))
        assert list(result.origins) == sorted(set(result.origins))
        assert result.double_star_ok
        assert result.index_bound_ok
        # index bound, checked independently: membership index never exceeds
        # the index of any target member containing the point's helper star
        target_sets = [set(u) for u in target.members]
        for x in range(sp.n):
            hits = [
                result.origins[pos]
                for pos, v in enumerate(result.cover.members)
                if x in v
            ]
            point_star = set().union(*(u for u in helper.members if x in u))
            bounds = [j for j, u in enumerate(target_sets) if point_star <= u]
            assert hits and bounds
            assert max(hits) <= min(bounds)


def test_point_finite_refinement_guards():
    coarse = Cover(3, ((0, 1), (1, 2)))
    with pytest.raises(PreconditionError, match="star"):
        point_finite_refinement(coarse, coarse)
    with pytest.raises(StructuralError, match="ground"):
        point_finite_refinement(coarse, Cover(2, ((0, 1),)))


# ---- the masks against the set code ----


@st.composite
def covers_on(draw, ground):
    """An ordered cover of {0, ..., ground-1}: random members, repeats
    allowed, each point they leave out joined to one of them, shuffled."""
    members = draw(st.lists(
        st.sets(st.integers(0, ground - 1), min_size=1), min_size=1, max_size=ground + 2))
    for x in range(ground):
        if not any(x in m for m in members):
            members[draw(st.integers(0, len(members) - 1))].add(x)
    return Cover(ground, tuple(map(tuple, draw(st.permutations(members)))))


@st.composite
def cover_pairs(draw):
    """A helper cover and a target cover of one ground.  The target holds
    random members and the helper stars of some of the helper's members, so
    the helper star-refines it in some draws and fails in others."""
    ground = draw(st.integers(1, 8))
    helper = draw(covers_on(ground))
    stars = [
        tuple(sorted(set().union(*(v for v in helper.members if set(u) & set(v)))))
        for u in helper.members
    ]
    members = draw(st.lists(
        st.sets(st.integers(0, ground - 1), min_size=1, max_size=3), max_size=ground))
    members += [star for star in stars if draw(st.booleans())]
    members += [(x,) for x in range(ground) if not any(x in m for m in members)]
    return Cover(ground, tuple(map(tuple, draw(st.permutations(members))))), helper


@given(cover_pairs())
def test_star_refines_matches_the_set_reference(pair):
    """The first member whose star lies in no target member, or None."""
    target, helper = pair
    assert star_refines(helper, target) == star_refines_reference(helper, target)
    assert star_refines(target, helper) == star_refines_reference(target, helper)


@given(cover_pairs())
def test_point_finite_refinement_matches_the_set_reference(pair):
    """Every field of the refinement, or the same refusal."""
    target, helper = pair
    try:
        got = point_finite_refinement(target, helper)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=f"^{re.escape(str(exc))}$"):
            point_finite_refinement_reference(target, helper)
        return
    want = point_finite_refinement_reference(target, helper)
    assert got == want
    assert got.cover.masks == tuple(sum(1 << x for x in m) for m in want.cover.members)


@st.composite
def cover_sequences(draw):
    """Two to five covers of one ground; each level after the first holds
    singletons and some random pairs, so most draws star-refine."""
    ground = draw(st.integers(1, 7))
    levels = [draw(covers_on(ground))]
    for _ in range(draw(st.integers(1, 4))):
        pairs = draw(st.lists(st.sets(st.integers(0, ground - 1), min_size=1, max_size=2),
                              max_size=3))
        members = [(x,) for x in range(ground)] + [tuple(p) for p in pairs]
        levels.append(Cover(ground, tuple(draw(st.permutations(members)))))
    return FundamentalSequence(ground, tuple(levels))


def _clique_witnesses(space, levels, top):
    """The metrization's clique rows by brute force: per h, each maximal
    clique of diameter at most 2^-(h+1) inside no member of C_{2h-1}."""
    found = []
    for h in range(1, top + 1):
        bound = Fraction(1, 2 ** (h + 1))
        neighbours = [{y for y in range(space.n) if y != x and space.d(x, y) <= bound}
                      for x in range(space.n)]
        for clique in sorted(maximal_cliques_reference(neighbours), key=sorted):
            if not any(clique <= set(m) for m in levels[2 * h - 2].members):
                found.append(("clique_containment", 2 * h, tuple(sorted(clique))))
    return found


@given(cover_sequences())
def test_au_metrize_matches_the_set_references(seq):
    """The refinement witness, the gauge, the member-diameter rows and the
    clique rows against the set code, on sequences that fail too."""
    levels = seq.levels
    bad = next(((k + 1, b) for k in range(1, len(levels))
                if (b := star_refines_reference(levels[k], levels[k - 1])) is not None), None)
    assert seq.refinement_witness == bad
    if bad is not None:
        with pytest.raises(PreconditionError, match="not a fundamental sequence"):
            au_metrize(seq)
        return
    result = au_metrize(seq)
    scale = result.gauge_scale
    gauge = gauge_from_covers([list(level.members) for level in levels], seq.ground)
    assert result.gauge_ints == [[v * scale for v in row] for row in gauge]
    dist = [[v * scale for v in row] for row in result.space.dist]
    top = len(levels) // 2
    diameters = [("member_diameter", 2 * h, *w) for h in range(1, top + 1)
                 for w in member_diameter_reference(levels[2 * h - 1], dist, 2 ** (top - h))]
    cliques = _clique_witnesses(result.space, levels, top)
    assert result.member_diameter_ok == (not diameters)
    assert result.clique_containment_ok == (not cliques)
    assert [w for w in result.witnesses if w[0] != "comparison"] == diameters + cliques


@st.composite
def sequences_with_a_metric(draw):
    """A fundamental sequence and an int matrix on its ground, asymmetric
    and with any diagonal, as no closure returns, so that both the star
    verdict and the pair walk run."""
    seq = draw(cover_sequences().filter(lambda seq: seq.refinement_witness is None))
    scale = 2 ** (len(seq.levels) // 2)
    values = st.integers(0, 2 * scale)
    return seq, [[draw(values) for _ in range(seq.ground)] for _ in range(seq.ground)]


@given(sequences_with_a_metric())
def test_member_diameter_rows_match_the_pair_loop(case):
    """Whatever the closure returns, the member-diameter rows are the pair
    loop's on it, level by level: the star verdict skips only levels the
    loop clears."""
    seq, dist = case
    levels = seq.levels
    top = len(levels) // 2
    with mock.patch.object(covers, "closure", lambda gauge: dist):
        result = au_metrize(seq)
    diameters = [("member_diameter", 2 * h, *w) for h in range(1, top + 1)
                 for w in member_diameter_reference(levels[2 * h - 1], dist, 2 ** (top - h))]
    assert [w for w in result.witnesses if w[0] == "member_diameter"] == diameters
    assert result.member_diameter_ok == (not diameters)
