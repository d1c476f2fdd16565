"""Every index a library object takes is read by ``spaces.index_set``: a
mixed, bool, negative or past-the-end index is a StructuralError, whatever
the entry point, and never a TypeError."""

from fractions import Fraction

import pytest

from conemodels import NormedPointSet, cone_comparison_bounds
from cubohedra import Cube
from helpers import interval_points
from oracles import submetric
from unimet.covers import Cover
from unimet.errors import StructuralError
from unimet.gluing import adjunction_space, extend_metric
from unimet.invlim import InverseSequenceTruncation, inverse_sequence, ladder
from unimet.quotients import quotient_by_discrete_family
from unimet.spaces import index_set

S3 = interval_points([0, 1, 2], Fraction(1, 4))
POINT = interval_points([0])
UNIT = NormedPointSet(1, ((0,), ("1/2",)))
LINE = inverse_sequence([S3, S3], [(0, 1, 2)])
IDENTITY = (0, 1, 2)

# Each entry point with ``bad`` in its index place, and the bound that an
# index there must stay below.  Padding keeps every other entry valid, so
# the bad index is the only fault; at the bound a bool reads as index 1.
# A cube's extent holds unbounded coordinate indices: it has no bound.
INDEX_PLACES = {
    "quotient family": (3, lambda bad: quotient_by_discrete_family(S3, [bad])),
    "adjunction subset": (3, lambda bad: adjunction_space(S3, bad, POINT, {0: 0})),
    "extension subset": (3, lambda bad: extend_metric(S3, bad, [[0]])),
    "cover member": (3, lambda bad: Cover(3, (bad, (0, 1, 2)))),
    "submetric": (3, lambda bad: submetric(S3, bad)),
    "truncation bond": (
        3, lambda bad: InverseSequenceTruncation((S3, S3), ((*bad, 0, 0)[:3],))
    ),
    "ladder indices": (
        2, lambda bad: ladder(LINE, LINE, [IDENTITY, IDENTITY], indices=(*bad, 1)[:2])
    ),
    "cube extent": (None, lambda bad: Cube((), tuple(bad))),
    "cone sample i": (2, lambda bad: cone_comparison_bounds(UNIT, [(i, 0, 0, 0) for i in bad])),
    "cone sample j": (2, lambda bad: cone_comparison_bounds(UNIT, [(0, 0, j, 0) for j in bad])),
}
BAD_INDICES = {
    "mixed": lambda n: [0, "x"],
    "bool": lambda n: [True],
    "negative": lambda n: [-1],
    "past-the-end": lambda n: [n],
}


@pytest.mark.parametrize("place, case", [
    (place, case)
    for place, (bound, _) in INDEX_PLACES.items()
    for case in BAD_INDICES
    if bound is not None or case != "past-the-end"
])
def test_every_index_place_refuses_a_bad_index(place, case):
    bound, call = INDEX_PLACES[place]
    with pytest.raises(StructuralError, match="out of range|nonnegative ints"):
        call(BAD_INDICES[case](bound))


def test_index_set_sorts_after_it_checks():
    assert index_set(iter([2, 0, 2]), 3, "point") == (0, 2)
    assert index_set([], 0, "point") == ()
    with pytest.raises(StructuralError, match=r"^point 'x' out of range$"):
        index_set([2, "x", 0], 3, "point")
    with pytest.raises(StructuralError, match=r"^point True out of range$"):
        index_set([True], 3, "point")


def test_a_bool_is_not_a_count():
    with pytest.raises(StructuralError, match="positive integer"):
        Cover(True, ((0,),))
