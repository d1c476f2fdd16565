"""The one-pass axiom verdict and the one-set collapse, each against the
route it replaced.

The verdict must give the report of the full scan, frozen in ``oracles``,
on metrics of dyadic and wide denominators and on each defect planted
alone in the stored form; the collapse of one set must give the quotient
that ``quotient_by_discrete_family`` builds, in its ints, scale and
classes.
"""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from helpers import metric_spaces, stored_spaces
from oracles import axiom_scan_reference
from unimet.gluing import _collapse
from unimet.quotients import quotient_by_discrete_family
from unimet.spaces import FiniteMetricSpace, _is_metric, _scan_axioms

# Each defect needs this many points to plant; "none" plants nothing.
DEFECT_SIZES = {"none": 0, "triangle": 3, "asymmetric": 2, "zero": 2,
                "negative": 2, "diagonal": 1, "pseudo": 1}


@st.composite
def defective_spaces(draw):
    """(defect, space): a ``metric_spaces`` space with one defect planted
    alone in its stored form: a triangle over by one unit at a drawn
    (i, j, k), one entry of a pair raised by one unit, a zero pair off the
    diagonal, a negated pair, a nonzero diagonal entry, or a point doubled
    at distance zero (a pseudo-metric, flagged so)."""
    defect = draw(st.sampled_from(sorted(DEFECT_SIZES)))
    sp = draw(metric_spaces(DEFECT_SIZES[defect], 6))
    m = [list(row) for row in sp.ints]
    points = list(sp.points)
    n = sp.n
    i, j, k = ([*draw(st.permutations(range(n)))] + [0, 1, 2])[:3]
    if defect == "triangle":
        m[i][k] = m[k][i] = m[i][j] + m[j][k] + 1
    elif defect == "asymmetric":
        m[i][j] += 1
    elif defect == "zero":
        m[i][j] = m[j][i] = 0
    elif defect == "negative":
        m[i][j] = m[j][i] = -m[i][j]
    elif defect == "diagonal":
        m[i][i] = draw(st.sampled_from((-1, 1, sp.scale)))
    elif defect == "pseudo":
        for row in m:
            row.append(row[i])
        m.append(list(m[i]))
        points.append(n)
    pseudo = defect == "pseudo" or draw(st.booleans())
    return defect, FiniteMetricSpace.from_int(points, m, sp.scale, pseudo)


def rows(*matrix):
    return FiniteMetricSpace.from_rows(range(len(matrix)), matrix)


@given(defective_spaces())
# The triangle (1, 0, 2) has its middle point first: only the reverse half
# of the |row_i - row_j| test sees it.
@example(("triangle", rows([0, 1, 1], [1, 0, 3], [1, 3, 0])))
# Two zeros in each row, and no triangle to break.
@example(("pseudo", rows([0, 0], [0, 0])))
def test_the_verdict_gives_the_full_scans_report(case):
    """Also without the triangle test, on a space that passes it."""
    defect, sp = case
    want = axiom_scan_reference(sp)
    assert want.ok == (defect == "none")
    assert _is_metric(sp.ints) == want.ok
    assert _scan_axioms(sp) == want
    if "triangle" not in want.violated_axioms():
        assert _scan_axioms(sp, False) == want


@given(stored_spaces())
def test_the_verdict_gives_the_full_scans_report_on_stored_spaces(sp):
    want = axiom_scan_reference(sp)
    assert _is_metric(sp.ints) == want.ok
    assert _scan_axioms(sp) == want
    if "triangle" not in want.violated_axioms():
        assert _scan_axioms(sp, False) == want


@st.composite
def one_set_collapses(draw):
    """(space, A): a ``metric_spaces`` space of 1..6 points and a nonempty
    sorted subset of it."""
    space = draw(metric_spaces(1, 6))
    subset = draw(st.sets(st.integers(0, space.n - 1), min_size=1))
    return space, tuple(sorted(subset))


@given(one_set_collapses())
@example((rows([0, Fraction(1, 3)], [Fraction(1, 3), 0]), (0, 1)))
def test_the_closed_form_collapse_is_the_one_set_quotient(case):
    space, A = case
    q, class_of = _collapse(space, A)
    quotient = quotient_by_discrete_family(space, [A])
    collapsed = FiniteMetricSpace.from_int(quotient.space.points, q, space.scale)
    assert (collapsed.ints, collapsed.scale) == (quotient.space.ints, quotient.space.scale)
    assert tuple(class_of) == quotient.class_of
