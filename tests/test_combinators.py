"""Products, weighted-sup rows, and extension operators."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conemodels import kuratowski_embed
from helpers import interval_points, metric_spaces, random_space, space, stored_spaces
from oracles import sup_distance, weighted_sup_reference
from unimet.combinators import (
    check_weighted_levels,
    mcshane_rows,
    product_metric,
    weighted_sup_rows,
)
from unimet.errors import PreconditionError
from unimet.kernel import to_int_matrix
from unimet.spaces import FiniteMetricSpace, _scan_axioms, check_metric_axioms


# ---- products ----


def test_product_norms_agree_with_factor_distances():
    """The l1 product sums the factor distances."""
    left = space("ab", {(0, 1): "1/2"})
    right = space("xyz", {(0, 1): "1/4", (0, 2): "1/3", (1, 2): "1/4"})
    prod = product_metric(left, right)
    assert prod.n == left.n * right.n
    # left index varies slowest
    assert prod.points[0] == ("a", "x")
    assert prod.points[right.n] == ("b", "x")
    for a in range(prod.n):
        i, j = divmod(a, right.n)
        for b in range(prod.n):
            k, l = divmod(b, right.n)
            assert prod.d(a, b) == left.d(i, k) + right.d(j, l)


def test_product_of_metrics_is_a_metric():
    rng = random.Random(11)
    for _ in range(10):
        left = random_space(rng, rng.randint(2, 4))
        right = random_space(rng, rng.randint(2, 4))
        assert check_metric_axioms(product_metric(left, right)).ok


def test_product_propagates_pseudo_flag():
    plain = interval_points([0, 1], Fraction(1, 2))
    degenerate = FiniteMetricSpace(
        ("u", "v"), ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))), pseudo=True
    )
    assert product_metric(plain, degenerate).pseudo
    assert not product_metric(plain, plain).pseudo


def scanned(sp):
    """``sp`` with its axiom scan cached."""
    check_metric_axioms(sp)
    return sp


@st.composite
def product_factors(draw):
    """A factor for ``product_metric``: a ``metric_spaces`` space of 1..4
    points, perhaps with one triangle broken by a unit, or a
    ``stored_spaces`` space, whose negative entries may sit on the
    diagonal; with its axiom scan cached or not."""
    if draw(st.booleans()):
        sp = draw(stored_spaces())
    else:
        sp = draw(metric_spaces(1, 4))
        if sp.n >= 3 and draw(st.booleans()):
            i, j, k = draw(st.permutations(range(sp.n)))[:3]
            m = [list(row) for row in sp.ints]
            m[i][k] = m[k][i] = m[i][j] + m[j][k] + 1
            sp = FiniteMetricSpace.from_int(sp.points, m, sp.scale)
    return scanned(sp) if draw(st.booleans()) else sp


# Factors whose scans find no triangle defect, but whose product's does:
# a negative diagonal entry, and a negative entry off it.
LINE = space("xyz", {(0, 1): 1, (1, 2): 1, (0, 2): 2})
NEGATIVE_DIAGONAL = FiniteMetricSpace.from_int("ab", [[-1, 1], [1, 0]], 1)
NEGATIVE_PAIR = FiniteMetricSpace.from_int("ab", [[0, -1], [-1, 0]], 1)


@given(product_factors(), product_factors())
@example(scanned(NEGATIVE_DIAGONAL), scanned(LINE))
@example(scanned(LINE), scanned(NEGATIVE_PAIR))
def test_a_product_keeps_a_scan_exactly_when_its_factors_prove_its_triangles(left, right):
    """The product keeps a scan as it is built exactly when both factors
    have cached scans that find a zero diagonal, no negative entry and no
    triangle defect; the kept report is a fresh full scan's of the same
    matrix, whose triangle test then finds nothing."""
    prod = product_metric(left, right)
    kept = prod.__dict__.get("_axiom_report")
    fresh = _scan_axioms(FiniteMetricSpace.from_int(prod.points, prod.ints, prod.scale, prod.pseudo))
    proved = all(
        "_axiom_report" in factor.__dict__
        and not {"diagonal", "nonnegativity", "triangle"} & {
            *_scan_axioms(factor).violated_axioms()}
        for factor in (left, right)
    )
    assert (kept is not None) == proved
    if proved:
        assert kept == fresh


# ---- weighted sup products ----


def test_weighted_sup_matches_reference():
    rng = random.Random(23)
    for _ in range(10):
        count = rng.randint(1, 3)
        levels = [random_space(rng, rng.randint(2, 3), den=16, top=16) for _ in range(count)]
        dists = [[list(r) for r in lv.dist] for lv in levels]
        tuples = [()]
        for lv in levels:
            tuples = [t + (i,) for t in tuples for i in range(lv.n)]
        rows, scale = weighted_sup_rows(levels, tuples)
        prod = FiniteMetricSpace.from_int(tuples, rows, scale)
        for a, ta in enumerate(tuples):
            for b, tb in enumerate(tuples):
                assert prod.d(a, b) == weighted_sup_reference(dists, ta, tb)
        assert check_metric_axioms(prod).ok


def test_weighted_sup_guards():
    big = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="weighted sup level 1.*diameter"):
        check_weighted_levels([interval_points([0, 1]), big])


# ---- isometric embedding into sequences ----


def test_kuratowski_embedding_is_isometric():
    rng = random.Random(59)
    for _ in range(10):
        sp = random_space(rng, rng.randint(2, 6), den=16, top=16)
        image = kuratowski_embed(sp)
        for x in range(sp.n):
            assert image[x].value(x) == 0
            for y in range(sp.n):
                assert sup_distance(image[x], image[y]) == sp.d(x, y)


def test_kuratowski_needs_diameter_at_most_one():
    big = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="diameter"):
        kuratowski_embed(big)


def test_kuratowski_accepts_pseudo_spaces():
    degenerate = FiniteMetricSpace(
        ("u", "v"), ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))), pseudo=True
    )
    image = kuratowski_embed(degenerate)
    assert sup_distance(image[0], image[1]) == 0


# ---- Lipschitz extension ----


def test_mcshane_extension_restricts_exactly_and_keeps_constant():
    rng = random.Random(67)
    for _ in range(10):
        sp = random_space(rng, rng.randint(3, 6))
        subset = sorted(rng.sample(range(sp.n), rng.randint(1, sp.n - 1)))
        L = Fraction(rng.randint(1, 4), 2)
        # generate Lipschitz data by restricting an L-scaled distance function
        anchor = rng.randrange(sp.n)
        (row,), scale = to_int_matrix([[L * sp.d(a, anchor) for a in subset]])
        (out,), out_scale = mcshane_rows(sp, subset, [row], scale, L)
        extended = [Fraction(v, out_scale) for v in out]
        for a, v in zip(subset, row):
            assert extended[a] == Fraction(v, scale)
        for x in range(sp.n):
            for y in range(sp.n):
                assert abs(extended[x] - extended[y]) <= L * sp.d(x, y)
