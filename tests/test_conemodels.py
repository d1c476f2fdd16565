"""Rectilinear and Euclidean cone models, their comparison bounds, and the
quotient cone measured against both (Result 1 for the cone)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given

from conemodels import (
    COMPARISON_TOL,
    PI_FLOOR,
    NormedPointSet,
    cone_comparison_bounds,
    euclidean_cone_distance,
    euclidean_cone_metric,
    independent_rectilinear_join,
    kuratowski_embed,
    rectilinear_cone,
    rectilinear_cone_point,
    rectilinear_join_point,
)
from helpers import construction_inputs
from unimet.cones import cone_metric
from unimet.errors import PreconditionError, StructuralError
from unimet.spaces import FiniteMetricSpace, check_metric_axioms


def random_point_set(rng, count, dim, norm="sup"):
    points = tuple(
        tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(dim))
        for _ in range(count)
    )
    return NormedPointSet(dim, points, norm)


# ---- normed point sets ----


def test_norms_and_distances():
    ps = NormedPointSet(2, ((0, 0), ("1/2", "-3/4")), "sup")
    assert ps.norm_of((Fraction(1, 2), Fraction(-3, 4))) == Fraction(3, 4)
    assert ps.distance(0, 1) == Fraction(3, 4)
    l1 = NormedPointSet(2, ((0, 0), ("1/2", "-3/4")), "l1")
    assert l1.distance(0, 1) == Fraction(5, 4)
    assert ps.max_norm() == Fraction(3, 4)
    with pytest.raises(StructuralError, match="norm"):
        NormedPointSet(1, ((0,),), "l2")
    with pytest.raises(StructuralError, match="dimension"):
        NormedPointSet(2, ((0,),))


def test_rescaling_into_the_unit_ball():
    ps = NormedPointSet(1, ((2,), (-4,)))
    scaled = ps.rescaled_to_unit_ball()
    assert scaled.max_norm() == 1
    assert scaled.points == ((Fraction(1, 2),), (Fraction(-1),))
    inside = NormedPointSet(1, ((Fraction(1, 2),),))
    assert inside.rescaled_to_unit_ball() is inside


def test_as_metric_space_flags_coincident_points():
    ps = NormedPointSet(1, ((0,), (0,)))
    sp = ps.as_metric_space()
    assert sp.pseudo
    distinct = NormedPointSet(1, ((0,), (1,)))
    sp = distinct.as_metric_space(labels=("a", "b"))
    assert not sp.pseudo
    assert sp.points == ("a", "b")
    assert check_metric_axioms(sp).ok


# ---- rectilinear models ----


def test_rectilinear_cone_point_and_sampling():
    assert rectilinear_cone_point((Fraction(1, 2),), Fraction(0)) == (
        Fraction(0),
        Fraction(1),
    )
    assert rectilinear_cone_point((Fraction(1, 2),), Fraction(1)) == (
        Fraction(1, 2),
        Fraction(0),
    )
    base = NormedPointSet(1, ((Fraction(1, 2),), (Fraction(-1, 2),)))
    cone = rectilinear_cone(base, (0, "1/2", 1))
    # the apex is shared: 2 points x 3 grid values minus 1 duplicate
    assert cone.n == 5
    assert cone.dim == 2
    assert cone.points[0] == (Fraction(0), Fraction(1))
    with pytest.raises(PreconditionError, match="sup"):
        rectilinear_cone(NormedPointSet(1, ((0,),), "l1"))
    with pytest.raises(PreconditionError, match="contain"):
        rectilinear_cone(base, (0, "1/2"))


def test_rectilinear_join_point_and_sampling():
    left = NormedPointSet(1, ((Fraction(1),),))
    right = NormedPointSet(1, ((Fraction(-1),),))
    lvec, rvec, tv = rectilinear_join_point(left.points[0], right.points[0], 0)
    assert lvec == (Fraction(1, 2),)
    assert rvec == (Fraction(-1, 2),)
    assert tv == 0
    join = independent_rectilinear_join(left, right)
    assert join.dim == 3
    # tau = -1 zeroes the right block, tau = +1 the left block
    assert (Fraction(1), Fraction(0), Fraction(-1)) in join.points
    assert (Fraction(0), Fraction(-1), Fraction(1)) in join.points
    with pytest.raises(PreconditionError, match="contain"):
        independent_rectilinear_join(left, right, (0, 1))
    with pytest.raises(PreconditionError, match="sup"):
        independent_rectilinear_join(NormedPointSet(1, ((0,),), "l1"), right)


# ---- Euclidean cone ----


def test_law_of_cosines_endpoints():
    assert euclidean_cone_distance(0, 0, 1) == 0.0
    # two unit radii at base distance pi/2 sit sqrt(2) apart
    val = euclidean_cone_distance(1, 1, Fraction(314159265, 2 * 10**8))
    assert abs(val - math.sqrt(2)) < 1e-7
    # radial pairs differ by |t - s|
    assert abs(euclidean_cone_distance(Fraction(1, 4), Fraction(3, 4), 0) - 0.5) < 1e-15


def test_euclidean_cone_sampling_and_guards():
    base = FiniteMetricSpace(
        ("a", "b"),
        ((Fraction(0), Fraction(16, 5)), (Fraction(16, 5), Fraction(0))),
    )
    with pytest.raises(PreconditionError, match="pi"):
        euclidean_cone_metric(base, (0, 1))
    ok = FiniteMetricSpace(
        ("a", "b"), ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    )
    cone = euclidean_cone_metric(ok, (0, "1/2", 1))
    assert cone.points[0] == ("apex",)
    assert cone.points[1] == ("seg", "a", Fraction(1, 2))
    apex = cone.points.index(("apex",))
    seg = cone.points.index(("seg", "b", Fraction(1)))
    assert abs(cone.matrix[apex][seg] - 1.0) < 1e-15
    with pytest.raises(PreconditionError, match="apex"):
        euclidean_cone_metric(ok, ("1/2", 1))


# ---- model comparison ----


def test_comparison_bounds_hold_on_samples():
    rng = random.Random(433)
    base = random_point_set(rng, 6, 3).rescaled_to_unit_ball()
    samples = [
        (
            rng.randrange(base.n),
            Fraction(rng.randint(0, 16), 16),
            rng.randrange(base.n),
            Fraction(rng.randint(0, 16), 16),
        )
        for _ in range(300)
    ]
    report = cone_comparison_bounds(base, samples)
    assert report.samples_checked == 300
    assert report.e_le_3s_ok and report.s_le_5e_ok
    assert report.violations == ()
    assert report.max_e_to_s <= 3 + COMPARISON_TOL
    assert report.max_s_to_e <= 5 + COMPARISON_TOL


def test_comparison_guards():
    outside = NormedPointSet(1, ((2,),))
    with pytest.raises(PreconditionError, match="unit ball"):
        cone_comparison_bounds(outside, [(0, 0, 0, 0)])
    l1 = NormedPointSet(1, ((0,),), "l1")
    with pytest.raises(PreconditionError, match="sup"):
        cone_comparison_bounds(l1, [(0, 0, 0, 0)])
    inside = NormedPointSet(1, ((Fraction(1, 2),),))
    with pytest.raises(StructuralError, match="parameters"):
        cone_comparison_bounds(inside, [(0, 0, 0, 2)])
    assert PI_FLOOR < Fraction(31416, 10000)


# ---- the quotient cone against the models ----


@given(construction_inputs(Fraction(0), (Fraction(0), Fraction(1)), Fraction(1)))
def test_the_quotient_cone_coincides_with_the_rectilinear_and_euclidean_cones(inputs):
    """Result 1 for the cone, on a base of diameter <= 1.

    The quotient point (x, t), apex at t = 1, goes to the rectilinear point
    ((1 - t) Kx, t), Kx the Kuratowski image.  Then d_R <= d_Q and
    d_Q^2 <= 9 d_R, exactly, and the same pairs, in the rectilinear model's
    radial parameter 1 - t, meet the Euclidean cone's bounds E <= 3 d_R and
    d_R <= 5 E: the identity is uniformly continuous both ways along
    quotient <-> rectilinear <-> Euclidean.
    """
    base = inputs.source
    cone = cone_metric(base, inputs.grid)
    images = kuratowski_embed(base)
    kuratowski = NormedPointSet(
        base.n, tuple(tuple(im.value(z) for z in range(base.n)) for im in images)
    )
    # (base index, radial parameter 1 - t) of each cone point; the apex is
    # the radial parameter 0 over any base point.
    radial = [
        (base.points.index(label[1]), 1 - label[2]) if label[0] == "seg" else (0, Fraction(0))
        for label in cone.space.points
    ]
    model = [rectilinear_cone_point(kuratowski.points[x], r) for x, r in radial]
    samples = []
    for a in range(cone.space.n):
        for b in range(cone.space.n):
            d_q = cone.space.d(a, b)
            d_r = max(abs(u - v) for u, v in zip(model[a], model[b]))
            assert d_r <= d_q
            assert d_q * d_q <= 9 * d_r
            samples.append((*radial[a], *radial[b]))
    report = cone_comparison_bounds(kuratowski, samples)
    assert report.samples_checked == cone.space.n ** 2
    assert report.e_le_3s_ok and report.s_le_5e_ok, report.violations
