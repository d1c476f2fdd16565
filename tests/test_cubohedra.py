"""Dyadic cubical complexes and the lattice retraction homotopy."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubohedra import (
    Cube,
    Cubohedron,
    carrier_cube,
    cube_contains,
    distance_to_complex,
    lattice_homotopy,
    lattice_value,
    minimal_enclosing_subcomplex,
    nearest_lattice_integer,
    neighborhood_retract_check,
    squeeze_to_integer,
    subcomplex_membership,
)
from oracles import (
    cube_faces,
    distance_to_cubes_reference,
    face_closure,
    maximal_cubes_reference,
    membership_reference,
)
from sequences import SequencePoint
from unimet.errors import PreconditionError, StructuralError


def point(support, tail=0):
    return SequencePoint.from_dict(support, tail)


# ---- coordinate homotopy ----


def test_nearest_lattice_integer_breaks_ties_down():
    assert nearest_lattice_integer(Fraction(1, 4)) == 0
    assert nearest_lattice_integer(Fraction(7, 8)) == 1
    assert nearest_lattice_integer(Fraction(1, 2)) == 0
    assert nearest_lattice_integer(Fraction(3, 2)) == 1
    assert nearest_lattice_integer(Fraction(-1, 2)) == -1


def test_squeeze_fixes_lattice_and_half_lattice():
    for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        for u in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 2)):
            assert squeeze_to_integer(u, t) == u
    # t = 0 is the identity everywhere
    for u in (Fraction(1, 8), Fraction(5, 16), Fraction(-7, 8)):
        assert squeeze_to_integer(u, Fraction(0)) == u
    # t = 1 collapses the closed quarter band around each integer
    assert squeeze_to_integer(Fraction(1, 4), Fraction(1)) == 0
    assert squeeze_to_integer(Fraction(7, 8), Fraction(1)) == 1
    assert squeeze_to_integer(Fraction(5, 4), Fraction(1)) == 1
    # odd symmetry around each vertex
    assert squeeze_to_integer(Fraction(-3, 8), Fraction(1)) == -squeeze_to_integer(
        Fraction(3, 8), Fraction(1)
    )
    with pytest.raises(PreconditionError, match="time"):
        squeeze_to_integer(Fraction(1, 4), Fraction(2))


def test_lattice_value_rescales_the_squeeze():
    rng = random.Random(601)
    for _ in range(50):
        v = Fraction(rng.randint(-32, 32), 16)
        t = Fraction(rng.randint(0, 8), 8)
        n = rng.randint(0, 3)
        scale = Fraction(2) ** n
        assert lattice_value(v, t, n) == squeeze_to_integer(v * scale, t) / scale
    # multiples of 2^-n and 2^-(n+1) are fixed at every level
    for n in (0, 1, 2):
        half_edge = Fraction(1, 2 ** (n + 1))
        for k in range(-4, 5):
            assert lattice_value(k * half_edge, Fraction(1), n) == k * half_edge


def test_lattice_homotopy_moves_support_and_tail():
    x = point({0: "1/8", 3: "3/8"}, "1/2")
    moved = lattice_homotopy(x, 1, 0)
    assert moved.value(0) == 0
    assert moved.value(3) == Fraction(1, 4)
    assert moved.tail == Fraction(1, 2)
    with pytest.raises(StructuralError, match="level"):
        lattice_homotopy(x, 1, -1)


# ---- cubes ----


def test_cube_validation_and_geometry():
    cube = Cube(((1, Fraction(1, 2)),), (0, 1))
    assert cube.dimension == 2
    assert cube.base_value(1) == Fraction(1, 2)
    assert cube.base_value(7) == 0
    assert cube.indices() == (0, 1)
    edge = Fraction(1, 2)
    assert cube.interval(0, edge) == (0, Fraction(1, 2))
    assert cube.interval(1, edge) == (Fraction(1, 2), 1)
    assert cube.interval(9, edge) == (0, 0)
    with pytest.raises(StructuralError, match="sorted"):
        Cube(((2, Fraction(1, 2)), (1, Fraction(1, 2))), ())
    with pytest.raises(StructuralError, match="zero"):
        Cube(((1, Fraction(0)),), ())
    with pytest.raises(StructuralError, match="nonnegative"):
        Cube(((-1, Fraction(1, 2)),), ())


def test_faces_of_edges_and_squares():
    edge = Fraction(1, 2)
    segment = Cube((), (0,))
    faces = cube_faces(segment, edge)
    # two endpoint vertices
    assert len(faces) == 2
    assert Cube((), ()) in faces
    assert Cube(((0, Fraction(1, 2)),), ()) in faces
    square = Cube((), (0, 1))
    # four edges plus four vertices
    assert len(cube_faces(square, edge)) == 8


# ---- complexes ----


def test_cubohedron_closes_under_faces():
    square = Cube((), (0, 1))
    complex_ = Cubohedron(1, (square,))
    # a square carries 3^2 faces including itself; the complex stores one
    assert len(face_closure(complex_)) == 9
    assert complex_.cubes == (square,)
    assert complex_.edge == Fraction(1, 2)


def test_cubohedron_keeps_only_maximal_cubes():
    square = Cube((), (0, 1))
    edge, vertex, apart = Cube((), (0,)), Cube(((1, Fraction(1, 2)),), ()), Cube((), (2,))
    complex_ = Cubohedron(1, (edge, square, vertex, apart, square))
    assert complex_.cubes == (apart, square)
    assert face_closure(complex_) == face_closure(Cubohedron(1, (square, apart)))


def test_a_ten_cube_builds_without_its_faces():
    start = time.perf_counter()
    complex_ = Cubohedron(1, (Cube((), tuple(range(10))),))
    assert time.perf_counter() - start < 1
    assert complex_.cubes[0].dimension == 10
    corner = point({i: "1/2" for i in range(10)})
    assert subcomplex_membership(corner, complex_)
    assert distance_to_complex(point({10: "1/4"}), complex_) == Fraction(1, 4)


def test_cubohedron_guards():
    with pytest.raises(StructuralError, match="multiple"):
        Cubohedron(1, (Cube(((0, Fraction(1, 3)),), ()),))
    with pytest.raises(StructuralError, match="Cube"):
        Cubohedron(1, ("cube",))
    with pytest.raises(StructuralError, match="level"):
        Cubohedron(-1, ())


def test_membership_and_distance():
    complex_ = Cubohedron(1, (Cube((), (0,)),))
    inside = point({0: "1/4"})
    outside = point({0: "3/4"})
    far = point({5: 1})
    assert subcomplex_membership(inside, complex_)
    assert not subcomplex_membership(outside, complex_)
    assert cube_contains(Cube((), (0,)), Fraction(1, 2), inside)
    assert distance_to_complex(inside, complex_) == 0
    assert distance_to_complex(outside, complex_) == Fraction(1, 4)
    assert distance_to_complex(far, complex_) == 1
    tailed = SequencePoint.from_dict({}, Fraction(1, 2))
    assert not subcomplex_membership(tailed, complex_)
    with pytest.raises(PreconditionError, match="tail-0"):
        distance_to_complex(tailed, complex_)
    with pytest.raises(PreconditionError, match="no cubes"):
        distance_to_complex(inside, Cubohedron(1, ()))


@st.composite
def complexes_with_points(draw):
    """A complex at level 0..2 of 1..3 cubes of dimension at most 4 over
    the indices 0..5, and 1..4 points near it: up to four coordinates on
    the quarter-edge grid between -2 and 2."""
    level = draw(st.integers(0, 2))
    edge = Fraction(1, 2**level)
    index = st.integers(0, 5)
    vertex = st.integers(-2, 2**level).map(lambda k: k * edge)
    quarter = st.integers(-2**(level + 3), 2**(level + 3)).map(lambda k: k * edge / 4)
    cubes = [
        Cube(
            tuple(sorted(draw(st.dictionaries(index, vertex.filter(bool), max_size=3)).items())),
            tuple(draw(st.sets(index, max_size=4))),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    points = draw(st.lists(st.dictionaries(index, quarter, max_size=4), min_size=1, max_size=4))
    return Cubohedron(level, tuple(cubes)), [point(p) for p in points]


@given(complexes_with_points())
def test_maximal_cubes_answer_as_the_face_closure(case):
    """Membership, distance and the minimal enclosing complex read off the
    maximal cubes equal the same computations over every face."""
    complex_, points = case
    edge = complex_.edge
    closure = face_closure(complex_)
    assert complex_.cubes == maximal_cubes_reference(closure, edge)
    for x in points:
        assert subcomplex_membership(x, complex_) == membership_reference(x, closure, edge)
        assert distance_to_complex(x, complex_) == distance_to_cubes_reference(x, closure, edge)
    report = minimal_enclosing_subcomplex(points, complex_.level)
    closure = face_closure(report.complex)
    maximal = maximal_cubes_reference(closure, edge)
    assert report.complex.cubes == maximal
    # stored cubes are carriers and carriers are faces: one closure
    assert set(maximal) <= set(report.carriers) <= set(closure)
    assert report.covers_all == all(membership_reference(x, closure, edge) for x in points)
    assert report.minimal == all(c in report.carriers for c in maximal)


# ---- carriers ----


def test_carrier_cube_pins_lattice_coordinates():
    x = point({0: "1/4", 1: "1/2"})
    carrier = carrier_cube(x, 1)
    assert carrier.base == ((1, Fraction(1, 2)),)
    assert carrier.extent == (0,)
    assert cube_contains(carrier, Fraction(1, 2), x)
    vertex = point({2: "1/2"})
    assert carrier_cube(vertex, 1) == Cube(((2, Fraction(1, 2)),), ())
    with pytest.raises(PreconditionError, match="tail-0"):
        carrier_cube(SequencePoint.from_dict({}, Fraction(1, 2)), 1)


def test_minimal_enclosing_subcomplex_certificates():
    rng = random.Random(607)
    for _ in range(10):
        level = rng.randint(0, 2)
        pts = [
            point(
                {
                    rng.randrange(4): Fraction(rng.randint(0, 16), 16)
                    for _ in range(rng.randint(1, 3))
                }
            )
            for _ in range(rng.randint(1, 4))
        ]
        report = minimal_enclosing_subcomplex(pts, level)
        assert report.covers_all
        assert report.minimal
        assert len(report.carriers) == len(pts)
        for x in pts:
            assert subcomplex_membership(x, report.complex)
    with pytest.raises(PreconditionError, match="points"):
        minimal_enclosing_subcomplex([], 1)


# ---- neighborhood retraction ----


def test_retraction_lands_in_complex_within_the_band():
    rng = random.Random(613)
    level = 2
    band = Fraction(1, 2 ** (level + 2))
    anchors = [
        point({0: Fraction(rng.randint(0, 4), 4), 1: Fraction(rng.randint(0, 4), 4)})
        for _ in range(3)
    ]
    report_complex = minimal_enclosing_subcomplex(anchors, level).complex
    closure = face_closure(report_complex)
    samples = []
    for _ in range(40):
        cube = closure[rng.randrange(len(closure))]
        coords = {}
        for i in cube.indices():
            low, high = cube.interval(i, report_complex.edge)
            coords[i] = low + (high - low) * Fraction(rng.randint(0, 8), 8)
        # optionally push one coordinate off the complex, at most a band away
        if rng.random() < 0.7:
            j = rng.randrange(5)
            coords[j] = coords.get(j, Fraction(0)) + Fraction(
                rng.randint(-4, 4), 2 ** (level + 4)
            )
        candidate = point({i: v for i, v in coords.items() if v != 0})
        samples.append(candidate)
    report = neighborhood_retract_check(report_complex, samples, level)
    assert report.band == band
    assert report.all_guaranteed_ok
    for sample, row in zip(samples, report.samples):
        assert row.distance == distance_to_complex(sample, report_complex)
        assert row.within_band == (row.distance <= band)
        if row.within_band:
            assert row.image_in_complex


def test_retraction_level_guard():
    complex_ = Cubohedron(2, (Cube((), (0,)),))
    with pytest.raises(PreconditionError, match="level"):
        neighborhood_retract_check(complex_, [], 1)
    # a finer homotopy level still retracts the coarser complex
    inside = point({0: "1/8"})
    report = neighborhood_retract_check(complex_, [inside], 4)
    assert report.all_guaranteed_ok
