"""Products, unions, hyperspaces, and extension operators."""

import random
from fractions import Fraction

import pytest

from helpers import interval_points, random_space, space
from oracles import hausdorff_formula, sup_distance, weighted_sup_reference
from unimet import combinators
from unimet.combinators import (
    disjoint_union_metric,
    hausdorff_distance,
    hausdorff_hyperspace,
    kuratowski_embed,
    mcshane_extend,
    product_metric,
    weighted_sup_metric,
)
from unimet.errors import PreconditionError, StructuralError
from unimet.spaces import FiniteMetricSpace, check_metric_axioms


# ---- products ----


def test_product_norms_agree_with_factor_distances():
    left = space("ab", {(0, 1): "1/2"})
    right = space("xyz", {(0, 1): "1/4", (0, 2): "1/3", (1, 2): "1/4"})
    for norm in ("l1", "linf", "l2"):
        prod = product_metric(left, right, norm)
        assert prod.n == left.n * right.n
        # left index varies slowest
        assert prod.points[0] == ("a", "x")
        assert prod.points[right.n] == ("b", "x")
        for a in range(prod.n):
            i, j = divmod(a, right.n)
            for b in range(prod.n):
                k, l = divmod(b, right.n)
                dx = left.d(i, k)
                dy = right.d(j, l)
                if norm == "l1":
                    want = dx + dy
                elif norm == "linf":
                    want = max(dx, dy)
                else:
                    want = dx * dx + dy * dy
                assert prod.d(a, b) == want


def test_product_l1_and_linf_are_metrics():
    rng = random.Random(11)
    for _ in range(10):
        left = random_space(rng, rng.randint(2, 4))
        right = random_space(rng, rng.randint(2, 4))
        for norm in ("l1", "linf"):
            assert check_metric_axioms(product_metric(left, right, norm)).ok


def test_product_rejects_unknown_norm():
    s = interval_points([0, 1], Fraction(1, 2))
    with pytest.raises(StructuralError, match="norm"):
        product_metric(s, s, "l3")


def test_product_propagates_pseudo_flag():
    plain = interval_points([0, 1], Fraction(1, 2))
    degenerate = FiniteMetricSpace(
        ("u", "v"), ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))), pseudo=True
    )
    assert product_metric(plain, degenerate, "linf").pseudo
    assert not product_metric(plain, plain, "linf").pseudo


# ---- disjoint unions ----


def test_disjoint_union_cross_distance_is_one():
    left = space("ab", {(0, 1): "1/2"})
    right = space("xy", {(0, 1): "1/4"})
    union = disjoint_union_metric(left, right)
    assert union.points[:2] == (("L", "a"), ("L", "b"))
    assert union.points[2:] == (("R", "x"), ("R", "y"))
    assert union.d(0, 1) == Fraction(1, 2)
    assert union.d(2, 3) == Fraction(1, 4)
    for a in range(2):
        for b in range(2, 4):
            assert union.d(a, b) == 1
    assert check_metric_axioms(union).ok


def test_disjoint_union_needs_small_diameter():
    small = interval_points([0, 1], Fraction(1, 2))
    big = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="diameter"):
        disjoint_union_metric(small, big)
    with pytest.raises(PreconditionError, match="diameter"):
        disjoint_union_metric(big, small)


# ---- weighted sup products ----


def test_weighted_sup_matches_reference():
    rng = random.Random(23)
    for _ in range(10):
        count = rng.randint(1, 3)
        levels = [random_space(rng, rng.randint(2, 3), den=16, top=16) for _ in range(count)]
        prod = weighted_sup_metric(levels)
        dists = [[list(r) for r in lv.dist] for lv in levels]
        tuples = [()]
        for lv in levels:
            tuples = [t + (i,) for t in tuples for i in range(lv.n)]
        assert prod.n == len(tuples)
        for a, ta in enumerate(tuples):
            for b, tb in enumerate(tuples):
                assert prod.d(a, b) == weighted_sup_reference(dists, ta, tb)
        assert check_metric_axioms(prod).ok


def test_weighted_sup_guards():
    with pytest.raises(StructuralError, match="at least one"):
        weighted_sup_metric([])
    big = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="diameter"):
        weighted_sup_metric([big])


# ---- hyperspaces ----


def test_hyperspace_values_are_capped_hausdorff_distances():
    rng = random.Random(41)
    sp = random_space(rng, 5, den=4, top=8)
    hyper = hausdorff_hyperspace(sp)
    assert hyper.n == 2**5 - 1
    dist = [list(r) for r in sp.dist]
    masks = list(range(1, 1 << 5))
    for a, ma in enumerate(masks):
        members_a = [i for i in range(5) if ma >> i & 1]
        assert hyper.points[a] == tuple(sp.points[i] for i in members_a)
        for b, mb in enumerate(masks):
            members_b = [i for i in range(5) if mb >> i & 1]
            want = min(Fraction(1), hausdorff_formula(dist, members_a, members_b))
            assert hyper.d(a, b) == want
    assert check_metric_axioms(hyper).ok


def test_hyperspace_guards(monkeypatch):
    rng = random.Random(42)
    sp = random_space(rng, 6)
    monkeypatch.setattr(combinators, "HYPERSPACE_CAP", 5)
    with pytest.raises(PreconditionError, match="cap"):
        hausdorff_hyperspace(sp)
    bad = space("abc", {(0, 1): 1, (0, 2): "1/4", (1, 2): "1/4"})
    with pytest.raises(PreconditionError):
        hausdorff_hyperspace(bad)


def test_hausdorff_distance_matches_reference_and_guards():
    rng = random.Random(43)
    sp = random_space(rng, 6, den=4, top=12)
    dist = [list(r) for r in sp.dist]
    for _ in range(40):
        a = rng.sample(range(6), rng.randint(1, 6))
        b = rng.sample(range(6), rng.randint(1, 6))
        assert hausdorff_distance(sp, a, b) == hausdorff_formula(dist, a, b)
    with pytest.raises(StructuralError, match="nonempty"):
        hausdorff_distance(sp, [], [0])
    with pytest.raises(StructuralError, match="range"):
        hausdorff_distance(sp, [0], [6])


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
        values = [L * sp.d(a, anchor) for a in subset]
        extended = mcshane_extend(sp, subset, values, L)
        for a, v in zip(subset, values):
            assert extended[a] == v
        for x in range(sp.n):
            for y in range(sp.n):
                assert abs(extended[x] - extended[y]) <= L * sp.d(x, y)


def test_mcshane_accepts_mapping_values():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    out = mcshane_extend(sp, [0, 2], {0: Fraction(0), 2: Fraction(1, 2)}, 1)
    assert out[0] == 0
    assert out[2] == Fraction(1, 2)
    assert out[1] == Fraction(1, 4)


def test_mcshane_guards():
    sp = interval_points([0, 1, 2], Fraction(1, 4))
    with pytest.raises(PreconditionError, match="Lipschitz"):
        mcshane_extend(sp, [0, 2], [Fraction(0), Fraction(2)], 1)
    with pytest.raises(StructuralError, match="nonnegative"):
        mcshane_extend(sp, [0], [Fraction(0)], -1)
    with pytest.raises(PreconditionError, match="nonempty"):
        mcshane_extend(sp, [], [], 1)
    with pytest.raises(StructuralError, match="duplicate"):
        mcshane_extend(sp, [0, 0], [Fraction(0), Fraction(0)], 1)
    with pytest.raises(StructuralError, match="align"):
        mcshane_extend(sp, [0, 1], [Fraction(0)], 1)
