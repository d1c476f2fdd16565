"""The one stored form of a space, and the producers that build it on ints.

A space stores ``(ints, scale)`` and reads ``dist`` as a view.  The
``Fraction`` constructor and ``from_int`` must give equal spaces with equal
hashes, the stored form must be the least one, which ``to_int_matrix`` gives
for the view, and ``reflagged`` must share it.  The adjusted metric, the
cylinder slices, the weighted-sup rows, the glued union, the product, the
interval, the join, the largest isometry gap and the adjunction's
certificates compute on ints over a common scale, and so do McShane's
extension, the metric extension off a subset and the adjunction's default
route through it; each is compared with its ``Fraction`` code, frozen in
``oracles``, on inputs whose denominators are coprime, so that a factor
dropped from a common scale shows.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    construction_inputs,
    metric_spaces,
    random_space,
    stored_spaces,
    wide_space,
)
from oracles import (
    adjunction_clearance_reference,
    adjusted_metric_reference,
    attaching_is_lipschitz_reference,
    block_distance_matrix,
    chain_limit_apsp,
    chain_power,
    cylinder_slices_reference,
    extend_metric_reference,
    glued_union_reference,
    interval_space_reference,
    join_distance_reference,
    largest_gap_reference,
    mcshane_extend_reference,
    product_metric_reference,
    weighted_sup_rows_reference,
)
from unimet.combinators import (
    interval_space,
    mcshane_rows,
    product_metric,
    weighted_sup_rows,
)
from unimet.cones import join_metric
from unimet.cylinders import adjusted_metric, cylinder_slices
from unimet.errors import PreconditionError
from unimet.gluing import adjunction_space, extend_metric
from unimet.kernel import ChainPowers, to_int_matrix
from unimet.quotients import glue_parts
from unimet.spaces import FiniteMetricSpace, largest_gap, reflagged

ZERO = Fraction(0)
ONE = Fraction(1)
# Grid values over 3, 5 and 9: coprime to the dyadic and the 7..31 spaces.
GRID_VALUES = [Fraction(k, q) for q in (3, 5, 9) for k in range(1, q)]


# ---- the stored form ----


EMPTY = FiniteMetricSpace((), ())
ZEROS = FiniteMetricSpace(("a", "b"), ((ZERO, ZERO), (ZERO, ZERO)))
THIRD = ((ZERO, Fraction(1, 3)), (Fraction(1, 3), ZERO))


@given(stored_spaces(), st.integers(1, 12))
@example(EMPTY, 5)
@example(ZEROS, 6)
@example(FiniteMetricSpace("ab", THIRD), 2)
@example(FiniteMetricSpace(["a", "b"], THIRD), 3)
def test_both_constructors_store_one_least_form(sp, k):
    """``from_int`` on an unreduced form (every entry and the scale times k)
    gives the space the Fraction constructor gives: equal, with an equal
    hash, the least form stored and the same Fractions in the view.  Both
    keep the labels as a tuple, whatever sequence they were given as."""
    ints, scale = to_int_matrix(sp.dist)
    unreduced = FiniteMetricSpace.from_int(
        sp.points, [[v * k for v in row] for row in ints], scale * k, sp.pseudo
    )
    assert unreduced == sp and hash(unreduced) == hash(sp)
    assert type(sp.points) is tuple
    assert (sp.ints, sp.scale) == (unreduced.ints, unreduced.scale) == (ints, scale)
    assert unreduced.dist == sp.dist
    assert (unreduced.ints, unreduced.scale) == to_int_matrix(unreduced.dist)


@given(stored_spaces())
@example(EMPTY)
def test_reflagged_shares_the_stored_form(sp):
    copy = reflagged(sp, not sp.pseudo)
    assert copy.ints is sp.ints and copy.scale == sp.scale
    assert copy.pseudo is not sp.pseudo and copy != sp
    assert copy.dist is sp.dist
    fresh = FiniteMetricSpace.from_int(sp.points, sp.ints, sp.scale)
    assert reflagged(fresh, True).ints is fresh.ints


@st.composite
def int_matrices(draw):
    """A space of 0..5 points over any int matrix with entries in -3..3
    and a scale 1..12: negative, asymmetric and all-zero matrices, and a
    nonzero diagonal, as well as metrics."""
    n = draw(st.integers(0, 5))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=n, max_size=n))
    return FiniteMetricSpace.from_int(range(n), rows, draw(st.integers(1, 12)))


def positive_spectrum_route(sp):
    """The least positive distance as it was read: the first entry of the
    positive spectrum, built from the Fractions above the diagonal."""
    spectrum = sorted({ZERO, *(v for i, row in enumerate(sp.dist) for v in row[i + 1:])})
    positive = [v for v in spectrum if v > 0]
    return positive[0] if positive else None


@given(st.one_of(int_matrices(), stored_spaces()))
@example(EMPTY)
@example(ZEROS)
@example(FiniteMetricSpace(("a",), ((ONE,),)))
@example(FiniteMetricSpace.from_int("ab", [[0, 2], [1, 0]], 3))
@example(FiniteMetricSpace.from_int("ab", [[0, -1], [1, 0]], 1))
def test_min_positive_distance_is_the_least_positive_above_the_diagonal(sp):
    least = sp.min_positive_distance()
    assert least == positive_spectrum_route(sp)
    assert least is None or type(least) is Fraction


# ---- producers on ints against their Fraction code ----


@st.composite
def coprime_inputs(draw):
    """(source, target, map, grid): one space over dyadic denominators and
    one over the primes 7..31, either way round, of 1..4 points each, an
    arbitrary total map, and a [0, 1] grid over the denominators 3, 5, 9."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    makers = [random_space, wide_space]
    if draw(st.booleans()):
        makers.reverse()
    source = makers[0](rng, draw(st.integers(1, 4)))
    target = makers[1](rng, draw(st.integers(1, 4)))
    image = st.integers(0, target.n - 1)
    mapping = tuple(draw(st.lists(image, min_size=source.n, max_size=source.n)))
    grid = tuple(sorted(draw(st.sets(st.sampled_from(GRID_VALUES), max_size=3)) | {ZERO, ONE}))
    return source, target, mapping, grid


@given(coprime_inputs())
def test_adjusted_metric_matches_the_fraction_code(case):
    source, target, mapping, _ = case
    got = adjusted_metric(source, target, mapping)
    assert got.points == source.points and not got.pseudo
    assert got.dist == adjusted_metric_reference(source, target, mapping)


@given(coprime_inputs())
def test_cylinder_slices_match_the_fraction_code(case):
    source, target, f, grid = case
    tops = [("y", q) for q in target.points]
    got = cylinder_slices(source, target, f, grid, adjusted_metric(source, target, f), tops)
    rows = adjusted_metric_reference(source, target, f)
    points, dist = cylinder_slices_reference(source, target, f, grid, rows, tops)
    assert (got.points, got.dist) == (points, dist)


@given(st.lists(metric_spaces(1, 3), min_size=1, max_size=4))
def test_weighted_sup_rows_match_the_fraction_code(levels):
    """Over the full product of 1..4 levels, dyadic and 7..31 mixed."""
    tuples = list(itertools.product(*(range(level.n) for level in levels)))
    rows, scale = weighted_sup_rows(levels, tuples)
    got = tuple(tuple(Fraction(v, scale) for v in row) for row in rows)
    assert got == weighted_sup_rows_reference(levels, tuples)


@st.composite
def glue_inputs(draw):
    """(parts, identifications, cross, steps): 2..3 parts of 1..3 points
    drawn by ``metric_spaces``, each point in one of up to three groups or
    in none, a cross constant over 3, 5, 9, positive or negative (or None),
    and 1..3 steps."""
    parts = draw(st.lists(metric_spaces(1, 3), min_size=2, max_size=3))
    places = [(p, i) for p, part in enumerate(parts) for i in range(part.n)]
    picks = draw(st.lists(st.integers(-1, 2), min_size=len(places), max_size=len(places)))
    groups = [[pl for pl, k in zip(places, picks) if k == g] for g in range(3)]
    cross = draw(st.none() | st.builds(lambda v, sign: sign * 2 * v,
                                       st.sampled_from(GRID_VALUES), st.sampled_from((1, -1))))
    return parts, [g for g in groups if g], cross, draw(st.integers(1, 3))


@given(glue_inputs())
def test_glued_union_matches_the_fraction_code(case):
    """``glue_parts`` equals the chain power of the Fraction union's class
    block at the capped hop count, and flags its agreement with the limit;
    a negative cross is refused before any relax pass."""
    parts, identifications, cross, steps = case
    if cross is not None and cross < 0:
        passes = []
        with (mock.patch.object(ChainPowers, "step", side_effect=lambda *args: passes.append(args)),
              pytest.raises(PreconditionError, match=f"cross distance {cross} is negative$")):
            glue_parts(parts, identifications, cross, steps)
        assert passes == []
        return
    union, class_of = glued_union_reference(parts, identifications, cross)
    block = block_distance_matrix(union, class_of)
    power = chain_power(block, max(1, min(steps, len(block) - 1)))
    limit = chain_limit_apsp(block)
    if any(v is None for row in power + limit for v in row):
        with pytest.raises(PreconditionError):
            glue_parts(parts, identifications, cross, steps)
        return
    glued = glue_parts(parts, identifications, cross, steps)
    assert [list(row) for row in glued.space.dist] == power
    assert glued.dn_equals_dinf == (power == limit)
    assert sum(glued.class_of_part, ()) == tuple(class_of)


# ---- the product, the interval, the join and the isometry gap ----


@st.composite
def coprime_construction_inputs(draw, low, required, cap):
    """``construction_inputs`` with up to two grid values over 3, 5 or 9
    added, each negated or not on a [-1, 1] grid: their denominators are
    coprime to the dyadic and the 7..31 spaces'."""
    inputs = draw(construction_inputs(low, required, cap))
    extra = draw(st.sets(st.sampled_from(GRID_VALUES), max_size=2))
    if low < 0:
        extra = {v * draw(st.sampled_from((-1, 1))) for v in extra}
    return inputs._replace(grid=tuple(sorted(set(inputs.grid) | extra)))


UNIT_INPUTS = coprime_construction_inputs(ZERO, (ZERO, ONE), ONE)
JOIN_INPUTS = coprime_construction_inputs(-ONE, (-ONE, ONE), 2)


@given(UNIT_INPUTS)
def test_product_metric_matches_the_fraction_code(inputs):
    """The product of the two drawn spaces, and of the source with its grid
    interval, as the cone and cylinder oracles take it."""
    left = inputs.source
    for right in (inputs.target, interval_space(inputs.grid)):
        got = product_metric(left, right)
        assert (got.points, got.dist) == product_metric_reference(left, right)
        assert got.pseudo == (left.pseudo or right.pseudo)


@given(JOIN_INPUTS)
def test_interval_space_matches_the_fraction_code(inputs):
    got = interval_space(inputs.grid)
    assert (got.points, got.dist) == interval_space_reference(inputs.grid)


@given(JOIN_INPUTS)
def test_join_metric_matches_the_four_case_formula(inputs):
    """Every entry of the join against the four-case formula on the class
    descriptors (x or None, y or None, t), in the join's point order."""
    left, right, grid = inputs.source, inputs.target, inputs.grid
    join = join_metric(left, right, grid)
    inner = [t for t in grid if -1 < t < 1]
    classes = (
        [(i, None, -ONE) for i in range(left.n)]
        + [(None, j, ONE) for j in range(right.n)]
        + [(i, j, t) for i in range(left.n) for j in range(right.n) for t in inner]
    )
    assert join.space.n == len(classes)
    for a, row in zip(classes, join.space.dist):
        assert list(row) == [join_distance_reference(left, right, a, b) for b in classes]


@given(UNIT_INPUTS)
def test_largest_gap_matches_the_fraction_code(inputs):
    """On the drawn map, and on the bottom slice of the l1 product with the
    target, which embeds the source: a gap of 0."""
    source, target = inputs.source, inputs.target
    got = largest_gap(source, target, inputs.mapping)
    assert got == largest_gap_reference(source, target, inputs.mapping)
    product = product_metric(source, target)
    bottom = [i * target.n for i in range(source.n)]
    assert largest_gap(source, product, bottom) == 0
    assert largest_gap(target, source, [0] * target.n) == largest_gap_reference(
        target, source, [0] * target.n
    )


@st.composite
def adjunction_inputs(draw):
    """(space, subset, target, attaching, cross): a ``coprime_inputs`` pair,
    the source its own extension, a nonempty subset with the drawn map
    restricted to it, and a cross constant over 3, 5 or 9, or None."""
    source, target, mapping, _ = draw(coprime_inputs())
    subset = sorted(draw(st.sets(st.integers(0, source.n - 1), min_size=1)))
    cross = draw(st.none() | st.sampled_from(GRID_VALUES))
    return source, subset, target, {a: mapping[a] for a in subset}, cross


@given(adjunction_inputs())
def test_adjunction_certificates_match_the_fraction_code(case):
    """The 1-Lipschitz refusal, the clearance, the positivity and the
    target's isometry verdict, with the source as the extension."""
    space, subset, target, attaching, cross = case
    if not attaching_is_lipschitz_reference(space, target, attaching):
        with pytest.raises(PreconditionError, match="1-Lipschitz"):
            adjunction_space(space, subset, target, attaching, cross, space)
        return
    result = adjunction_space(space, subset, target, attaching, cross, space)
    clearance, positivity = adjunction_clearance_reference(space, subset, result)
    assert (result.clearance, result.positivity_ok) == (clearance, positivity)
    gap = largest_gap_reference(target, result.space, result.y_class)
    assert result.y_isometric == (gap == 0)


# ---- McShane's extension, the metric extension and the adjunction's default route ----


@st.composite
def extension_inputs(draw):
    """(space, subset, partial): a ``coprime_inputs``-style pair of spaces,
    one dyadic and one over the primes 7..31, of diameter up to 2, so that
    a collapsed quotient may need rescaling; a nonempty subset, the whole
    space included; and the other space, on the subset's size, times a
    factor over 3, 5 or 9 up to 16/3, so that L often exceeds 1."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    makers = [random_space, wide_space]
    if draw(st.booleans()):
        makers.reverse()
    space = makers[0](rng, draw(st.integers(1, 5)))
    subset = sorted(draw(st.sets(st.integers(0, space.n - 1), min_size=1)))
    factor = draw(st.sampled_from(GRID_VALUES)) * draw(st.sampled_from((1, 2, 6)))
    return space, subset, makers[1](rng, len(subset)).scaled(factor)


@given(extension_inputs())
def test_extend_metric_matches_the_fraction_code(case):
    """The same space, with the partial given as a space and as "p/q" rows.
    The input shapes that decide it: L > 1, a quotient of diameter above 1,
    a coordinate that its clamp cuts and A the whole space."""
    space, subset, partial = case
    want = extend_metric_reference(space, subset, partial)
    rows = [[str(v) for v in row] for row in partial.dist]
    assert extend_metric(space, subset, partial) == want
    assert extend_metric(space, subset, rows) == want


@st.composite
def mcshane_inputs(draw):
    """(space, subset, values, L): an ``extension_inputs`` space, or a
    ``stored_spaces`` one, whose matrix may be negative or asymmetric; the
    subset in drawn order; L over 3, 5 or 9 (or 0 or 1); values that are
    L times the distance to a point plus a constant, so L-Lipschitz on a
    metric, or drawn over 3, 5 or 9, which often are not."""
    space = draw(extension_inputs())[0]
    if draw(st.booleans()):
        space = draw(stored_spaces().filter(lambda sp: sp.n > 0))
    subset = draw(st.permutations(range(space.n)))[: draw(st.integers(1, space.n))]
    L = draw(st.sampled_from([ZERO, ONE, *GRID_VALUES])) * draw(st.sampled_from((1, 4)))
    if draw(st.booleans()):
        anchor = draw(st.integers(0, space.n - 1))
        shift = draw(st.sampled_from(GRID_VALUES))
        values = [L * space.d(a, anchor) + shift for a in subset]
    else:
        values = draw(st.lists(st.sampled_from(GRID_VALUES), min_size=len(subset),
                               max_size=len(subset)))
    return space, subset, values, L


@given(mcshane_inputs())
def test_mcshane_extend_matches_the_fraction_code(case):
    """One ``mcshane_rows`` row is the Fraction extension of values that
    are L-Lipschitz on the subset; the reference refuses the others, which
    no caller passes."""
    space, subset, values, L = case
    try:
        want = mcshane_extend_reference(space, subset, values, L)
    except PreconditionError:
        return
    (row,), scale = to_int_matrix([values])
    (out,), out_scale = mcshane_rows(space, subset, [row], scale, L)
    assert [Fraction(v, out_scale) for v in out] == want


@given(adjunction_inputs())
def test_default_adjunction_matches_the_reference_route(case):
    """The default route (no extension given) against the Fraction
    extension of d_X + d_Y(f., f.), capped at 1, passed as the extension
    with the cross constant 1 unless one is given."""
    space, subset, target, attaching, cross = case
    space = space.rescaled_to_diameter(1) if space.diameter() > 1 else space
    target = target.rescaled_to_diameter(Fraction(1, 3))
    partial = [[space.d(a, b) + target.d(attaching[a], attaching[b]) for b in subset]
               for a in subset]
    raw = extend_metric_reference(space, subset, partial)
    capped = tuple(tuple(min(v, ONE) for v in row) for row in raw.dist)
    ext = FiniteMetricSpace(space.points, capped)
    want = adjunction_space(space, subset, target, attaching, cross or ONE, ext)
    got = adjunction_space(space, subset, target, attaching, cross)
    assert (got.extension, got.space, got.clearance) == (ext, want.space, want.clearance)
    assert got.all_certified() == want.all_certified()
