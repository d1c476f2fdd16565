"""Exact scalars, finite metric spaces, and the axiom checker."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    PRIMES_7_TO_31,
    interval_points,
    metric_closure,
    random_matrix,
    random_space,
    space,
)
from oracles import diameter_reference, scaled_reference, spectrum_reference, submetric
from unimet.errors import PreconditionError, StructuralError
from unimet.kernel import to_int_matrix
from unimet import spaces
from unimet.scalars import ONE, ZERO, as_scalar, brief_scalar, format_scalar, pow2
from unimet.spaces import (
    FiniteMetricSpace,
    as_mapping,
    check_metric_axioms,
    ensure_diameter_at_most,
    ensure_metric,
    ensure_total_map,
)


# ---- scalars ----


def test_as_scalar_accepts_exact_forms():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar("5/8") == Fraction(5, 8)
    assert as_scalar("0.25") == Fraction(1, 4)
    assert as_scalar("-7/2") == Fraction(-7, 2)
    assert as_scalar(Fraction(2, 3)) == Fraction(2, 3)
    assert as_scalar(" -2.5e-3 ") == Fraction(-1, 400)
    assert as_scalar("1e4299") == 10**4299


def test_as_scalar_rejects_floats_bools_and_garbage():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(True)
    with pytest.raises(ValueError):
        as_scalar("abc")
    with pytest.raises(ValueError):
        as_scalar("1/0")
    # 10^4300 has 4,301 digits, past int's default limit of 4,300
    for oversized in ("1e4300", "1e-4300", "1.5e4299"):
        with pytest.raises(ValueError, match="exponent"):
            as_scalar(oversized)


def test_format_scalar_round_trips():
    for v in (Fraction(0), Fraction(3), Fraction(-5, 8), Fraction(22, 7)):
        assert as_scalar(format_scalar(v)) == v


def test_brief_scalar_bounds_long_values():
    assert brief_scalar(Fraction(-22, 7)) == "-22/7"
    assert brief_scalar(Fraction(2) ** 100) == str(2**100)
    assert brief_scalar(Fraction(10) ** 4000) == "about 1.000e4000"
    assert brief_scalar(-Fraction(99999, 10**5000)) == "about -9.999e-4996"
    # past the digits int may print, the exponent still comes out exactly
    assert brief_scalar(Fraction(7) * 10**9000) == "about 7.000e9000"


def test_pow2_both_signs():
    assert pow2(0) == 1
    assert pow2(3) == 8
    assert pow2(-4) == Fraction(1, 16)


# ---- space structure ----


def test_space_structural_guards():
    with pytest.raises(StructuralError):
        FiniteMetricSpace(("a", "a"), ((ZERO, ZERO), (ZERO, ZERO)))
    with pytest.raises(StructuralError):
        FiniteMetricSpace(("a", "b"), ((ZERO,),))
    with pytest.raises(StructuralError):
        FiniteMetricSpace(("a",), ((0.0,),))


def test_space_lookup_and_views():
    s = space("abc", {(0, 1): "1/2", (0, 2): "1/3", (1, 2): "1/4"})
    assert s.n == 3
    assert s.diameter() == Fraction(1, 2)
    assert s.spectrum() == (ZERO, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    assert s.spectrum()[1:] == (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    assert s.min_positive_distance() == Fraction(1, 4)
    sub = submetric(s, [0, 2])
    assert sub.points == ("a", "c")
    assert sub.d(0, 1) == Fraction(1, 3)


def test_scaling_helpers():
    s = interval_points([0, 1, 2], Fraction(1, 2))
    assert s.scaled(2).diameter() == 2
    assert s.rescaled_to_diameter().diameter() == 1
    assert s.rescaled_to_diameter(Fraction(1, 4)).diameter() == Fraction(1, 4)
    with pytest.raises(PreconditionError):
        s.scaled(0)
    # zero-diameter spaces come back unchanged
    z = FiniteMetricSpace(("p",), ((ZERO,),))
    assert z.rescaled_to_diameter() is z


@st.composite
def defective_spaces(draw):
    """Spaces of 0..6 points over denominators drawn from the primes 7..31:
    a symmetric matrix with zero diagonal, then up to four entries
    overwritten one at a time, which makes negative entries, nonzero
    diagonals and asymmetric pairs."""
    n = draw(st.integers(0, 6))
    primes = st.sampled_from(PRIMES_7_TO_31)
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = draw(primes)
            rows[i][j] = rows[j][i] = Fraction(draw(st.integers(0, 2 * q)), q)
    if n:
        index = st.integers(0, n - 1)
        for _ in range(draw(st.integers(0, 4))):
            value = Fraction(draw(st.integers(-30, 30)), draw(primes))
            rows[draw(index)][draw(index)] = value
    return FiniteMetricSpace(tuple(range(n)), tuple(map(tuple, rows)), draw(st.booleans()))


DIAGONAL = FiniteMetricSpace((0, 1), ((Fraction(3, 7), ONE), (ONE, ZERO)))


@given(defective_spaces(), st.fractions(-2, 5, max_denominator=31))
@example(FiniteMetricSpace((), ()), Fraction(1, 3))
@example(FiniteMetricSpace(("p",), ((Fraction(-2, 7),),)), Fraction(3))
@example(DIAGONAL, Fraction(5, 11))
def test_integer_form_matches_the_fraction_code(sp, factor):
    """Diameter, spectrum, rescale and scale on the integer form equal the
    Fraction loops on any matrix, and the rescaled space carries its form."""
    assert sp.diameter() == diameter_reference(sp)
    assert sp.spectrum() == spectrum_reference(sp)
    if factor <= 0:
        with pytest.raises(PreconditionError):
            sp.scaled(factor)
        with pytest.raises(PreconditionError):
            scaled_reference(sp, factor)
    else:
        got = sp.scaled(factor)
        assert got == scaled_reference(sp, factor)
        assert (got.ints, got.scale) == to_int_matrix(got.dist)
    diam = diameter_reference(sp)
    if diam > 0:
        rescaled = sp.rescaled_to_diameter(1)
        assert rescaled == scaled_reference(sp, 1 / diam)
        assert (rescaled.ints, rescaled.scale) == to_int_matrix(rescaled.dist)


# ---- axiom checker ----


def test_axiom_checker_passes_a_metric():
    s = space("abc", {(0, 1): "1/2", (0, 2): "1/3", (1, 2): "1/4"})
    report = check_metric_axioms(s)
    assert report.ok and not report.violations


def test_axiom_checker_finds_each_violation():
    tri = FiniteMetricSpace.from_rows(
        "abc",
        [["0", "1", "1/4"], ["1", "0", "1/4"], ["1/4", "1/4", "0"]],
    )
    report = check_metric_axioms(tri)
    assert "triangle" in report.violated_axioms()
    first = [v for v in report.violations if v.axiom == "triangle"][0]
    assert first.lhs == 1 and first.rhs == Fraction(1, 2)

    asym = FiniteMetricSpace.from_rows("ab", [["0", "1"], ["2", "0"]])
    assert "symmetry" in check_metric_axioms(asym).violated_axioms()

    diag = FiniteMetricSpace.from_rows("ab", [["1", "1"], ["1", "0"]])
    assert "diagonal" in check_metric_axioms(diag).violated_axioms()

    neg = FiniteMetricSpace.from_rows("ab", [["0", "-1"], ["-1", "0"]])
    assert "nonnegativity" in check_metric_axioms(neg).violated_axioms()


def test_pseudo_flag_waives_positivity_only():
    glued = FiniteMetricSpace.from_rows("ab", [["0", "0"], ["0", "0"]])
    assert "positivity" in check_metric_axioms(glued).violated_axioms()
    assert check_metric_axioms(glued, allow_pseudo=True).ok
    flagged = FiniteMetricSpace.from_rows("ab", [["0", "0"], ["0", "0"]], pseudo=True)
    assert check_metric_axioms(flagged).ok


def test_ensure_helpers_raise_with_context():
    tri = FiniteMetricSpace.from_rows(
        "abc", [["0", "1", "1/4"], ["1", "0", "1/4"], ["1/4", "1/4", "0"]]
    )
    with pytest.raises(PreconditionError, match="triangle"):
        ensure_metric(tri, "probe")
    s = interval_points([0, 1], Fraction(3, 2))
    with pytest.raises(PreconditionError, match="rescale"):
        ensure_diameter_at_most(s, ONE, "probe")


def test_axioms_are_scanned_once_per_space(monkeypatch):
    scans = []
    scan = spaces._scan_axioms
    monkeypatch.setattr(
        spaces, "_scan_axioms", lambda space: scans.append(space) or scan(space)
    )
    metric = interval_points([0, 1, 2], Fraction(1, 4))
    reports = [check_metric_axioms(metric, allow_pseudo=mode) for mode in (None, True, False)]
    ensure_metric(metric)
    assert len(scans) == 1
    assert all(report.ok for report in reports)
    assert [report.allow_pseudo for report in reports] == [False, True, False]

    glued = FiniteMetricSpace.from_rows("ab", [["0", "0"], ["0", "0"]])
    assert check_metric_axioms(glued).violated_axioms() == ("positivity",)
    assert check_metric_axioms(glued, allow_pseudo=True).ok
    with pytest.raises(PreconditionError, match="positivity"):
        ensure_metric(glued)
    assert len(scans) == 2


def test_random_closures_are_metrics():
    rng = random.Random(101)
    for _ in range(25):
        s = random_space(rng, rng.randint(2, 8))
        assert check_metric_axioms(s).ok


def test_closure_is_largest_metric_below_weights():
    rng = random.Random(102)
    for _ in range(10):
        size = rng.randint(3, 6)
        weights = random_matrix(rng, size)
        dist = metric_closure(weights)
        for i in range(size):
            for j in range(size):
                assert dist[i][j] <= weights[i][j] or i == j


# ---- maps ----


def test_as_mapping_forms():
    src = interval_points([0, 1, 2], Fraction(1, 4))
    tgt = interval_points([0, 1, 2, 3, 4, 5], Fraction(1, 8))
    assert as_mapping([2, 0, 1], src, tgt) == {0: 2, 1: 0, 2: 1}
    assert as_mapping({1: 5, 0: 3}, src, tgt) == {0: 3, 1: 5}
    assert list(as_mapping({1: 5, 0: 3}, src, tgt)) == [0, 1]
    for bad in ([0, -1], [0, True], [(0, 1)], {0: "1"}, {-1: 0}, [0, 6], {3: 0}):
        with pytest.raises(StructuralError, match="index .* out of range"):
            as_mapping(bad, src, tgt)


def test_ensure_total_map():
    src = interval_points([0, 1, 2], Fraction(1, 4))
    tgt = interval_points([0, 1], Fraction(1, 4))
    ensure_total_map({0: 0, 1: 1, 2: 1}, src, tgt)
    with pytest.raises(PreconditionError):
        ensure_total_map({0: 0, 1: 1}, src, tgt)
    with pytest.raises(StructuralError):
        ensure_total_map({0: 0, 1: 1, 2: 9}, src, tgt)
