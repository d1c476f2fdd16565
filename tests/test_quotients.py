"""Chain quotient metrics against independent oracles."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import unimet.quotients
from helpers import (
    chain_on_classes,
    interval_points,
    matrix_of,
    metric_closure,
    metric_spaces,
    random_partition,
    random_space,
    space,
)
from oracles import (
    block_distance_matrix,
    chain_limit_apsp,
    chain_power,
    dijkstra_apsp,
    glued_union_reference,
    triangle_valid,
)
from unimet.errors import PreconditionError, StructuralError
from unimet.jsonio import classes_from_json
from unimet.kernel import ChainPowers, to_fractions, to_int_matrix
from unimet.spaces import FiniteMetricSpace, _scan_axioms, check_metric_axioms
from unimet.quotients import (
    amalgamated_union,
    glue_parts,
    quotient_by_discrete_family,
)


# ---- class assignments ----


def test_surjection_guards():
    """A ``class_of`` array must hit each class from 0 to its largest
    index, for every point; each failure names its rule."""
    s = interval_points([0, 1, 2], Fraction(1, 4))
    for class_of, message in [
        ([], "class_of must assign every point"),
        ([0, 1], "class_of must assign every point"),
        ([0, -1, 1], "class index -1 out of range"),
        ([-1, -1, -1], "class index -1 out of range"),
        ([0, 2, 2], r"classes \[1\] are empty"),
    ]:
        with pytest.raises(StructuralError, match=f"^{message}$"):
            classes_from_json({"class_of": class_of}, s)
    assert classes_from_json({"class_of": [1, 0, 1]}, s) == [[1], [0, 2]]


def test_surjection_from_classes_appends_singletons():
    s = interval_points([0, 1, 2, 3], Fraction(1, 8))
    assert quotient_by_discrete_family(s, [[1, 3]]).class_of == (1, 0, 2, 0)
    with pytest.raises(PreconditionError, match="two classes"):
        quotient_by_discrete_family(s, [[0], [0]])
    with pytest.raises(StructuralError, match="nonempty"):
        quotient_by_discrete_family(s, [[]])


# ---- chain metrics vs oracle ----


def test_chain_metrics_match_oracle_and_biconditional():
    """d_n on the classes is the oracle's chain power, decreasing in n, and
    ``dn_equals_dinf`` holds exactly when d_n is the chain limit, which is
    exactly when d_n satisfies the triangle inequality."""
    rng = random.Random(2024)
    for _ in range(60):
        size = rng.randint(2, 8)
        classes = rng.randint(1, size)
        sp = random_space(rng, size)
        class_of = random_partition(rng, size, classes)
        block = block_distance_matrix(matrix_of(sp), class_of)
        limit = chain_limit_apsp(block)
        previous = None
        for n in range(1, classes + 1):
            glued = chain_on_classes(sp, class_of, n)
            dn = [list(r) for r in glued.space.dist]
            assert dn == chain_power(block, n)
            # d_n decreases in n
            if previous is not None:
                for p in range(classes):
                    for q in range(classes):
                        assert dn[p][q] <= previous[p][q]
            previous = dn
            # the settling criterion: d_n = d_inf iff d_n is triangle-valid
            assert glued.dn_equals_dinf == (dn == limit) == triangle_valid(dn)


@st.composite
def blocks(draw, symmetric):
    """A block matrix of 1..7 classes with zero diagonal: each off-diagonal
    entry is None or a multiple of 1/12 in [0, 4]."""
    size = draw(st.integers(1, 7))
    entry = st.none() | st.integers(0, 48).map(lambda k: Fraction(k, 12))
    block = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            block[i][j] = draw(entry)
            block[j][i] = block[i][j] if symmetric else draw(entry)
    return block


@given(blocks(symmetric=True))
def test_chain_limit_oracle_matches_the_longest_chains(block):
    # With a zero diagonal, chains of n - 1 hops reach every shortest path.
    assert chain_limit_apsp(block) == chain_power(block, max(len(block) - 1, 1))


@given(blocks(symmetric=False))
def test_chain_limit_oracle_matches_networkx(block):
    nx = pytest.importorskip("networkx")
    size = len(block)
    graph = nx.Graph()
    graph.add_nodes_from(range(size))
    for i in range(size):
        for j in range(i + 1, size):
            weights = [w for w in (block[i][j], block[j][i]) if w is not None]
            if weights:
                graph.add_edge(i, j, weight=min(weights))
    lengths = nx.floyd_warshall(graph, weight="weight")
    expected = [
        [None if lengths[i][j] == float("inf") else Fraction(lengths[i][j])
         for j in range(size)]
        for i in range(size)
    ]
    assert chain_limit_apsp(block) == expected


@given(blocks(symmetric=False))
def test_chain_limit_oracle_matches_dijkstra(block):
    # The networkx test's graph, searched by the stdlib Dijkstra instead.
    edges = {}
    for i in range(len(block)):
        for j in range(i + 1, len(block)):
            weights = [w for w in (block[i][j], block[j][i]) if w is not None]
            if weights:
                edges[i, j] = min(weights)
    assert chain_limit_apsp(block) == dijkstra_apsp(len(block), edges)


def test_chain_doubling_composes():
    # d_{2n}(p, q) = min_r d_n(p, r) + d_n(r, q)
    rng = random.Random(77)
    for _ in range(20):
        size = rng.randint(3, 7)
        classes = rng.randint(2, size)
        sp = random_space(rng, size)
        class_of = random_partition(rng, size, classes)
        for n in (1, 2):
            dn = chain_on_classes(sp, class_of, n).space.dist
            d2n = chain_on_classes(sp, class_of, 2 * n).space.dist
            for p in range(classes):
                for q in range(classes):
                    best = min(dn[p][r] + dn[r][q] for r in range(classes))
                    assert d2n[p][q] == best


def test_chain_metric_guards():
    s = interval_points([0, 1, 2], Fraction(1, 4))
    class_of = [0, 0, 1]
    # steps beyond class_count - 1 equal the chain limit
    big = chain_on_classes(s, class_of, 99)
    block = block_distance_matrix(matrix_of(s), class_of)
    assert [list(r) for r in big.space.dist] == chain_limit_apsp(block)
    assert big.dn_equals_dinf


# ---- quotients by families ----


def test_single_set_quotient_settles_at_two_hops():
    rng = random.Random(55)
    for _ in range(20):
        size = rng.randint(3, 7)
        sp = random_space(rng, size)
        members = sorted(rng.sample(range(size), rng.randint(2, size - 1)))
        result = quotient_by_discrete_family(sp, [members])
        assert result.settled_at <= 2
        assert check_metric_axioms(result.space).ok


def test_quotient_family_guards():
    s = interval_points([0, 1, 2], Fraction(1, 4))
    with pytest.raises(PreconditionError):
        quotient_by_discrete_family(s, [[0, 1], [1, 2]])
    with pytest.raises(StructuralError):
        quotient_by_discrete_family(s, [[]])
    bad = space("abc", {(0, 1): 1, (0, 2): "1/4", (1, 2): "1/4"})
    with pytest.raises(PreconditionError):
        quotient_by_discrete_family(bad, [[0, 1]])


def test_a_family_index_is_range_checked_before_the_overlap():
    s = space("abc", {(0, 1): "1/2", (0, 2): "1/3", (1, 2): "1/4"})
    with pytest.raises(StructuralError, match="99 out of range"):
        quotient_by_discrete_family(s, [[99], [99]])
    with pytest.raises(PreconditionError, match="'b'"):
        quotient_by_discrete_family(s, [[0, 1], [1, 2]])


def _family_classes(n, family):
    """Group k is class k and the other points follow as singletons."""
    class_of = [None] * n
    for k, members in enumerate(family):
        for i in members:
            class_of[i] = k
    singles = [i for i in range(n) if class_of[i] is None]
    for k, i in enumerate(singles, len(family)):
        class_of[i] = k
    return class_of


def least_settling_hops(block):
    """The least n with d_n = d_infinity, by the oracles."""
    limit = chain_limit_apsp(block)
    return next(n for n in range(1, len(block) + 1) if chain_power(block, n) == limit)


def test_two_set_family_failure_raises():
    # collapsing both ends of a long path makes two hops beat three only
    # through the glued classes; engineered so d_2 > d_inf
    s = interval_points([0, 1, 2, 3, 4, 5], Fraction(1, 8))
    family = [[0, 2], [3, 5]]
    block = block_distance_matrix(matrix_of(s), [0, 2, 0, 1, 3, 1])
    settled = least_settling_hops(block)
    if chain_power(block, 2) != chain_limit_apsp(block):
        with pytest.raises(PreconditionError, match="two-hop"):
            quotient_by_discrete_family(s, family)
    else:
        assert quotient_by_discrete_family(s, family).settled_at == settled

    # three short hops 0 -> 1 ~ 4 -> 5 ~ 8 -> 9 beat every chain of at most
    # two hops, so d_2 > d_inf here for certain
    line = interval_points(range(10), Fraction(1, 8))
    family = [[1, 4], [5, 8]]
    class_of = [2, 0, 3, 4, 0, 1, 5, 6, 1, 7]
    settled = least_settling_hops(block_distance_matrix(matrix_of(line), class_of))
    assert settled > 2
    message = (
        "two-hop quotient distance differs from the chain limit for this "
        f"family (they agree first at n = {settled})"
    )
    with pytest.raises(PreconditionError, match=re.escape(message)):
        quotient_by_discrete_family(line, family)


def test_a_refused_quotient_follows_its_powers_up_to_the_cap(monkeypatch):
    """The refusal names the settle index when it is at most ``QUOTIENT_CAP``
    and the cap otherwise, after at most ``QUOTIENT_CAP`` relax passes."""
    line = interval_points(range(40), Fraction(1, 8))
    family = [[6 * m + 1, 6 * m + 6] for m in range(6)]
    class_of = _family_classes(40, family)
    settled = least_settling_hops(block_distance_matrix(matrix_of(line), class_of))
    assert settled > 4
    passes = []
    step = ChainPowers.step

    def counted(powers):
        passes.append(powers)
        return step(powers)

    monkeypatch.setattr(ChainPowers, "step", counted)
    for cap in (2, settled - 1, settled):
        monkeypatch.setattr(unimet.quotients, "QUOTIENT_CAP", cap)
        passes.clear()
        found = f"agree first at n = {settled}" if cap == settled else (
            f"still differ at n = QUOTIENT_CAP = {cap}")
        with pytest.raises(PreconditionError, match=re.escape(f"family (they {found})")):
            quotient_by_discrete_family(line, family)
        assert len(passes) <= cap


def test_a_quotient_that_settles_in_two_hops_builds_past_the_cap(monkeypatch):
    monkeypatch.setattr(unimet.quotients, "QUOTIENT_CAP", 2)
    line = interval_points(range(193), Fraction(1, 8))
    result = quotient_by_discrete_family(line, [[0, 96, 192]])
    assert (result.space.n, result.settled_at) == (191, 2)


@st.composite
def spaces_with_families(draw):
    """A ``metric_spaces`` space of 1..6 points and a disjoint family: each
    point joins one of up to three groups, or none, and each group lists its
    members in a drawn order; empty groups are left out."""
    sp = draw(metric_spaces(1, 6))
    picks = draw(st.lists(st.integers(-1, 2), min_size=sp.n, max_size=sp.n))
    groups = [[i for i, k in enumerate(picks) if k == g] for g in range(3)]
    return sp, [draw(st.permutations(members)) for members in groups if members]


# Three short hops 0 -> 1 ~ 4 -> 5 ~ 8 -> 9 beat every two-hop chain.
THREE_HOP_LINE = (interval_points(range(10), Fraction(1, 8)), [[1, 4], [5, 8]])


@given(spaces_with_families())
@example(THREE_HOP_LINE)
def test_quotient_matches_the_chain_limit_oracle(case):
    """Group k is class k and the other points follow as singletons; the
    quotient is the oracle's chain limit on the class block, or a two-hop
    refusal exactly where two hops fall short of that limit.  Either way it
    names the least n whose chain power is that limit."""
    sp, family = case
    class_of = _family_classes(sp.n, family)
    block = block_distance_matrix(matrix_of(sp), class_of)
    limit = chain_limit_apsp(block)
    settled = least_settling_hops(block)
    if chain_power(block, 2) != limit:
        message = (
            "two-hop quotient distance differs from the chain limit for this "
            f"family (they agree first at n = {settled})"
        )
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            quotient_by_discrete_family(sp, family)
        return
    result = quotient_by_discrete_family(sp, family)
    assert result.class_of == tuple(class_of)
    assert [list(row) for row in result.space.dist] == limit
    assert result.settled_at == settled


def test_chain_metric_takes_only_the_powers_it_returns(monkeypatch):
    """d_2 on the classes of the line above needs two relax passes, d_2 and
    the one that finds d_3 below it, and no closure, although its powers
    settle only at n = 3."""
    calls = []
    for owner, name in ((unimet.quotients, "closure"), (ChainPowers, "step")):
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    line, family = THREE_HOP_LINE
    groups = [[(0, i) for i in members] for members in family]
    two = glue_parts([line], groups, None, 2)
    assert calls == ["step", "step"]
    block = block_distance_matrix(matrix_of(line), two.class_of_part[0])
    assert [list(row) for row in two.space.dist] == chain_power(block, 2)
    assert not two.dn_equals_dinf


@st.composite
def pivot_cases(draw):
    """(block, pivots): the Fraction class block of a quotient or a glued
    union, and the classes its chains turn at.  A quotient of a
    ``spaces_with_families`` space pivots at its family's classes.  A union
    of 1..3 ``metric_spaces`` parts of 1..3 points, each point in one of up
    to three groups or in none, pivots at its multi-member classes; its
    cross constant is None, half the largest part diameter, or above every
    diameter."""
    if draw(st.booleans()):
        sp, family = draw(spaces_with_families())
        class_of = _family_classes(sp.n, family)
        return block_distance_matrix(matrix_of(sp), class_of), range(len(family))
    parts = draw(st.lists(metric_spaces(1, 3), min_size=1, max_size=3))
    places = [(p, i) for p, part in enumerate(parts) for i in range(part.n)]
    picks = draw(st.lists(st.integers(-1, 2), min_size=len(places), max_size=len(places)))
    groups = [[pl for pl, k in zip(places, picks) if k == g] for g in range(3)]
    largest = max(part.diameter() for part in parts)
    cross = draw(st.sampled_from((None, largest / 2, largest + Fraction(1, 7))))
    union, class_of = glued_union_reference(parts, [g for g in groups if g], cross)
    pivots = [c for c in set(class_of) if class_of.count(c) > 1]
    return block_distance_matrix(union, class_of), pivots


@given(pivot_cases(), st.integers(1, 4))
@example((block_distance_matrix(matrix_of(THREE_HOP_LINE[0]), _family_classes(10, THREE_HOP_LINE[1])),
          range(2)), 3)
def test_chains_that_turn_only_at_glued_classes_are_the_chain_powers(case, hops):
    """Under the pivot guard of ``glue_parts``, the chains of at most
    ``hops`` hops that turn only at glued classes are as cheap as all of
    them: ``_power`` over those pivots is the oracle's chain power, and it
    has settled exactly when the oracle's next power equals it."""
    block, pivots = case
    ints, scale = to_int_matrix(block)
    power, settled = unimet.quotients._power(ints, hops, pivots)
    want = chain_power(block, hops)
    assert [list(row) for row in to_fractions(power, scale)] == want
    assert settled == (chain_power(block, hops + 1) == want)


def test_glue_parts_turns_at_every_class_outside_the_pivot_guard():
    """Two unions whose cheapest chain turns at a single-point class, so
    ``glue_parts`` takes every class as a pivot: X two points at distance 1
    and Y one point with cross 1/4, below half of diam X, where the chain
    through Y costs 1/2; and one part that breaks the triangle inequality,
    where the chain through its middle point costs 1/2."""
    two, point = interval_points([0, 1]), interval_points([0])
    bad = space("abc", {(0, 1): "1/4", (1, 2): "1/4", (0, 2): 1})
    for parts, cross, ends in (([two, point], Fraction(1, 4), (0, 1)), ([bad], None, (0, 2))):
        glued = glue_parts(parts, [], cross, 2)
        union, class_of = glued_union_reference(parts, [], cross)
        block = block_distance_matrix(union, class_of)
        assert [list(row) for row in glued.space.dist] == chain_power(block, 2)
        assert glued.space.d(*ends) == Fraction(1, 2)


@st.composite
def glue_cases(draw):
    """(parts, groups, cross, steps) for ``glue_parts``: 1..3
    ``metric_spaces`` parts of 1..3 points, the first perhaps of three
    points with one triangle broken by a unit; each point in one of up to
    three groups or in none; a cross constant that is None, half the
    largest diameter, above every diameter, or below half of one part's
    diameter (the pivot guard off); and 1..4 steps or the hop bound, one
    below the class count."""
    parts = draw(st.lists(metric_spaces(1, 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        part = draw(metric_spaces(3, 3))
        i, j, k = draw(st.permutations(range(3)))
        m = [list(row) for row in part.ints]
        m[i][k] = m[k][i] = m[i][j] + m[j][k] + 1
        parts[0] = FiniteMetricSpace.from_int(part.points, m, part.scale)
    places = [(p, i) for p, part in enumerate(parts) for i in range(part.n)]
    picks = draw(st.lists(st.integers(-1, 2), min_size=len(places), max_size=len(places)))
    groups = [[pl for pl, k in zip(places, picks) if k == g] for g in range(3)]
    groups = [group for group in groups if group]
    diameters = [part.diameter() for part in parts]
    cross = draw(st.sampled_from((None, max(diameters) / 2, max(diameters) + Fraction(1, 7),
                                  draw(st.sampled_from(diameters)) / 3)))
    _, class_of = glued_union_reference(parts, groups, cross)
    steps = draw(st.sampled_from((1, 2, 3, 4, max(class_of))))
    return parts, groups, cross, max(steps, 1)


@given(glue_cases())
def test_a_union_settles_exactly_when_a_fresh_scan_finds_no_triangle_defect(case):
    """``glue_parts`` scans d_steps as it builds it exactly when one more
    relax pass, or the hop bound, shows that it settled; that is when a
    fresh scan of an equal copy finds no triangle violation, and the
    report it keeps is that fresh scan's.  A union that did not settle is
    left to the full scan of its first check."""
    parts, groups, cross, steps = case
    try:
        glued = glue_parts(parts, groups, cross, steps)
    except PreconditionError as refusal:
        assert re.search("disconnected|needs more hops", str(refusal))
        return
    sp = glued.space
    fresh = _scan_axioms(FiniteMetricSpace.from_int(sp.points, sp.ints, sp.scale, sp.pseudo))
    settled = "_axiom_report" in sp.__dict__
    assert settled == ("triangle" not in fresh.violated_axioms())
    if settled:
        assert sp.__dict__["_axiom_report"] == fresh
    assert glued.dn_equals_dinf == settled


@st.composite
def quotient_cases(draw):
    """A ``spaces_with_families`` case, or a line of 4..9 points with one to
    three disjoint pairs collapsed, where chains of three hops and more can
    beat two."""
    if draw(st.booleans()):
        return draw(spaces_with_families())
    n = draw(st.integers(4, 9))
    order = draw(st.permutations(range(n)))
    pairs = draw(st.integers(1, min(3, n // 2)))
    return interval_points(range(n)), [order[2 * k:2 * k + 2] for k in range(pairs)]


@given(quotient_cases())
@example(THREE_HOP_LINE)
# Four classes, the fewest on which d_2 can fall short: 0 -> 1 ~ 2 -> 3 ~ 4
# -> 5 costs 3, and every two-hop chain from 0 to 5 costs 4.
@example((interval_points(range(6)), [[1, 2], [3, 4]]))
def test_a_quotient_builds_exactly_when_a_fresh_scan_of_d2_finds_no_triangle_defect(case):
    """A quotient is built exactly when a fresh scan of the oracle's d_2
    finds no triangle violation, and its space keeps the report that a
    fresh scan of an equal copy gives."""
    sp, family = case
    class_of = _family_classes(sp.n, family)
    two = chain_power(block_distance_matrix(matrix_of(sp), class_of), 2)
    holds = "triangle" not in _scan_axioms(
        FiniteMetricSpace.from_rows(range(len(two)), two)).violated_axioms()
    if not holds:
        with pytest.raises(PreconditionError, match="two-hop"):
            quotient_by_discrete_family(sp, family)
        return
    q = quotient_by_discrete_family(sp, family).space
    fresh = _scan_axioms(FiniteMetricSpace.from_int(q.points, q.ints, q.scale, q.pseudo))
    assert q.__dict__["_axiom_report"] == fresh


# ---- glued unions ----


def test_glue_parts_cross_none_forces_pivots():
    a = interval_points([0, 1], Fraction(1, 2))
    b = interval_points([0, 1], Fraction(1, 2))
    glued = glue_parts([a, b], [((0, 1), (1, 0))], None, 2)
    assert glued.is_metric()
    ca, cb = glued.class_of_part
    # the glued class is shared; opposite free ends connect through it
    assert ca[1] == cb[0]
    assert glued.space.d(ca[0], cb[1]) == 1


def test_glue_parts_disconnected_raises():
    a = interval_points([0], Fraction(1))
    b = interval_points([0], Fraction(1))
    with pytest.raises(PreconditionError, match="disconnected"):
        glue_parts([a, b], [], None, 2)


def test_glue_parts_names_the_steps_a_connected_union_needs():
    """Three unit segments glued end to end, cross hops forbidden: the far
    ends are three hops apart, so two hops leave the union connected but
    unreached, and three give the chain limit."""
    segments = [interval_points([0, 1]) for _ in range(3)]
    ends = [((0, 1), (1, 0)), ((1, 1), (2, 0))]
    with pytest.raises(PreconditionError, match=r"more hops than steps = 2$"):
        glue_parts(segments, ends, None, 2)
    glued = glue_parts(segments, ends, None, 3)
    assert glued.is_metric() and glued.dn_equals_dinf
    ca, cc = glued.class_of_part[0], glued.class_of_part[2]
    assert glued.space.d(ca[0], cc[1]) == 3


def test_amalgamated_union_certificates():
    rng = random.Random(31)
    for _ in range(15):
        left = random_space(rng, rng.randint(2, 5), den=16, top=16)
        shared = rng.randint(1, min(2, left.n))
        picks = sorted(rng.sample(range(left.n), shared))
        # build the right factor to contain an isometric copy of the picks
        right_size = rng.randint(shared, shared + 3)
        right = random_space(rng, right_size, den=16, top=16)
        rows = [list(r) for r in right.dist]
        for a in range(shared):
            for b in range(shared):
                rows[a][b] = left.d(picks[a], picks[b])
        # re-close so the patched matrix stays a metric
        rows = metric_closure(rows)
        ok = all(
            rows[a][b] == left.d(picks[a], picks[b])
            for a in range(shared)
            for b in range(shared)
        )
        if not ok:
            continue
        right = FiniteMetricSpace(right.points, tuple(tuple(r) for r in rows))
        h = {picks[a]: a for a in range(shared)}
        glued = amalgamated_union(left, right, h)
        assert check_metric_axioms(glued).ok
        assert glued.n == left.n + right.n - shared


def test_amalgamated_union_guards():
    left = interval_points([0, 1], Fraction(1, 2))
    right = interval_points([0, 1], Fraction(1, 4))
    with pytest.raises(PreconditionError, match="isometric"):
        amalgamated_union(left, right, {0: 0, 1: 1})
    big = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="diameter"):
        amalgamated_union(big, right, {0: 0})
    with pytest.raises(PreconditionError, match="injective"):
        amalgamated_union(left, right, {0: 0, 1: 0})
    with pytest.raises(PreconditionError, match="nonempty"):
        amalgamated_union(left, right, {})
