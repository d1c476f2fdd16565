"""Inverse sequences: threads, convergence reports, telescopes, ladders."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given

from helpers import (
    ConstructionInputs,
    LadderCase,
    construction_inputs,
    empty_top_chain,
    halving_chain,
    interval_points,
    ladders,
    retraction_tower,
    truncations,
    window_chain,
    with_examples,
)
from oracles import (
    attained_continuity_reference,
    cauchy_row_reference,
    closeness_rows_reference,
    convergence_row_reference,
    image_reference,
    injectivity_rows_reference,
    mittag_leffler_reference,
    separation_index_reference,
    threads_reference,
    uniform_continuity_witness_reference,
    uniqueness_rows_reference,
    weighted_sup_reference,
)
from unimet import invlim
from unimet.cylinders import mapping_cylinder_metric
from unimet.errors import PreconditionError, StructuralError
from unimet.invlim import (
    THREAD_CAP,
    convergence_report,
    convergence_row,
    inverse_sequence,
    ladder,
    level_anchor_verdict,
    mittag_leffler_report,
    perturbation_limit,
    separation_index,
    telescope_metric,
    thread_space,
    threads,
)

GRID = (Fraction(0), Fraction(1, 2), Fraction(1))


# ---- truncation structure ----


def test_truncation_composites_and_images():
    tower = retraction_tower(5)
    assert tower.top == 4
    # composing all bonds from the top collapses everything onto point 0
    assert tower.composite(4, 0) == (0, 0, 0, 0, 0)
    assert tower.composite(3, 1) == (0, 1, 1, 1)
    assert tower.composite(2, 2) == (0, 1, 2)
    # image 4 into level 2 is the points of level 2 with depth >= 4
    image = tuple(x for x, d in enumerate(tower._depths[2]) if d >= 4)
    assert image == image_reference(tower, 4, 2) == (0, 1, 2)


def test_truncation_bond_validation():
    level = interval_points([0, 1], Fraction(1, 2))
    with pytest.raises(StructuralError, match="bond"):
        inverse_sequence([level, level], [])
    with pytest.raises(StructuralError, match="range"):
        inverse_sequence([level, level], [(0, 7)])


# ---- threads ----


def test_threads_of_retraction_tower():
    tower = retraction_tower(5)
    ths = threads(tower)
    assert len(ths) == 5
    for thread in ths:
        assert all(tower.bonds[i][thread[i + 1]] == thread[i] for i in range(tower.top))
    # the thread through point 3 saturates at levels that lack it
    assert ths[3] == (0, 1, 2, 3, 3)


def test_thread_cap_enforced():
    big = interval_points(range(THREAD_CAP + 1), Fraction(1, 32))
    with pytest.raises(PreconditionError, match="cap"):
        threads(inverse_sequence([big], []))


def test_thread_space_weighted_metric():
    tower = retraction_tower(5)
    bundle = thread_space(tower)
    assert bundle.space.n == 5
    want = max(
        Fraction(1, 2 ** (i + 1)) * Fraction(min(4, i), 8) for i in range(5)
    )
    assert bundle.space.d(0, 4) == want
    # projections list the level entries in thread order
    assert bundle.projection(2) == tuple(t[2] for t in threads(tower))


def test_thread_space_needs_small_levels():
    wide = interval_points([0, 3], Fraction(1))
    with pytest.raises(PreconditionError, match="diameter"):
        thread_space(inverse_sequence([wide], []))


# ---- stabilization and convergence reports ----


def test_mittag_leffler_on_tower():
    tower = retraction_tower(5)
    for row in mittag_leffler_report(tower):
        assert row.stabilized and row.stabilized_at == row.level


def test_identity_tower_reports():
    level = interval_points([0, 1], Fraction(1, 2))
    ident = inverse_sequence([level, level, level], [(0, 1), (0, 1)])
    assert all(row.stabilized for row in mittag_leffler_report(ident))
    assert all(row.holds_from == row.level for rows in convergence_report(ident) for row in rows)
    sep = separation_index(ident, Fraction(0))
    assert sep.found and sep.level == 0
    assert sep.threshold == Fraction(1, 2)
    assert sep.scanned[0].threshold == Fraction(1, 2)


def test_halving_chain_never_stabilizes_below_top():
    chain = halving_chain(5, 6)
    assert chain.top == 4
    report = mittag_leffler_report(chain)
    assert not all(row.stabilized for row in report)
    assert report[chain.top].stabilized


def test_convergence_and_cauchy_rows_on_halving_chain():
    chain = halving_chain(5, 6)
    conv = convergence_row(chain, 0, Fraction(1, 64))
    assert conv.holds_from == chain.top and not conv.witnessed
    cau = convergence_row(chain, 0, Fraction(1, 8))
    assert cau.witnessed and cau.holds_from == 3


def test_two_epsilon_transfer_on_halving_chain():
    # a convergence bound at eps always yields a Cauchy bound at 2 eps
    chain = halving_chain(5, 6)
    for i in range(chain.top + 1):
        for eps in chain.levels[i].spectrum():
            cau = convergence_row(chain, i, 2 * eps)
            conv = convergence_row(chain, i, eps)
            assert cau.holds_from <= conv.holds_from


def test_window_chain_rows():
    chain = window_chain(4)
    report = mittag_leffler_report(chain)
    assert not all(row.stabilized for row in report)
    assert not report[0].stabilized
    cau = convergence_row(chain, 0, Fraction(1, 16))
    assert cau.holds_from == chain.top and not cau.witnessed
    assert convergence_row(chain, 0, Fraction(3, 8)).witnessed


def test_full_reports_on_tower():
    tower = retraction_tower(5)
    table = convergence_report(tower)
    assert all(row.holds_from == row.level for rows in table for row in rows)
    for rows in table:
        for row in rows:
            assert row.holds_from <= row.level + 1


# ---- shadow levels and Cauchy anchors ----


def test_shadow_levels():
    tower = retraction_tower(5)
    assert all(rows[0].witnessed for rows in convergence_report(tower))
    chain = convergence_report(halving_chain(5, 6))
    assert not chain[0][0].witnessed
    assert not chain[1][0].witnessed
    assert chain[-1][0].witnessed


def test_anchor_verdicts_on_tower():
    tower = retraction_tower(5)
    for i in range(tower.top + 1):
        verdict = level_anchor_verdict(tower, i)
        assert verdict.stabilized and verdict.anchored


def test_anchor_verdicts_on_halving_chain():
    chain = halving_chain(5, 6)
    for level in (0, 1):
        verdict = level_anchor_verdict(chain, level)
        assert not verdict.stabilized and not verdict.short_window
        assert verdict.anchor_scale == Fraction(3, 16)
        assert verdict.anchor_from == 2
        assert verdict.anchored
    for level in (2, 3):
        assert level_anchor_verdict(chain, level).short_window
    assert level_anchor_verdict(chain, 4).stabilized


def test_window_chain_base_level_not_anchored():
    chain = window_chain(4)
    verdict = level_anchor_verdict(chain, 0)
    assert not verdict.stabilized
    assert not verdict.short_window
    assert verdict.anchor_scale is None
    assert not verdict.anchored
    # the two levels just under the top are too close to judge
    assert level_anchor_verdict(chain, 1).short_window
    assert level_anchor_verdict(chain, 2).short_window
    assert level_anchor_verdict(chain, 3).stabilized


def test_short_chain_gives_short_windows():
    chain = halving_chain(3, 6)
    assert level_anchor_verdict(chain, 0).short_window
    assert level_anchor_verdict(chain, 1).short_window
    assert level_anchor_verdict(chain, 2).stabilized


# ---- separation indices ----


def test_separation_index_on_tower():
    tower = retraction_tower(5)
    bundle = thread_space(tower)
    fine = separation_index(tower, Fraction(1, 1000))
    assert fine.found and fine.level == 4
    coarse = separation_index(tower, bundle.space.diameter())
    assert coarse.found and coarse.level == 0

    # direct check of the certified threshold at the found level
    level = fine.level
    proj = bundle.projection(level)
    for a in range(bundle.space.n):
        for b in range(bundle.space.n):
            if tower.levels[level].d(proj[a], proj[b]) < fine.threshold:
                assert bundle.space.d(a, b) <= fine.epsilon


# ---- telescopes ----


@example(ConstructionInputs(
    interval_points([0, 1], Fraction(1, 2)), GRID, interval_points([0], Fraction(1)), (0, 0)
))
@given(construction_inputs(Fraction(0), (Fraction(0), Fraction(1)), Fraction(1)))
def test_telescope_matches_mapping_cylinder(inputs):
    """The telescope of one bond is the mapping cylinder of that bond."""
    base, target = inputs.source, inputs.target
    trunc = inverse_sequence([target, base], [inputs.mapping])
    tele = telescope_metric(trunc, 0, 1, inputs.grid)
    cyl = mapping_cylinder_metric(base, target, inputs.mapping, inputs.grid)
    assert tele.space.points == cyl.space.points
    assert tele.space.dist == cyl.space.dist
    assert tele.level_class(0) == tuple(cyl.y_index(j) for j in range(target.n))
    assert tele.level_class(1) == tuple(
        cyl.class_index(i, Fraction(0)) for i in range(base.n)
    )


def test_telescope_stacks_cylinder_lengths():
    tower = retraction_tower(4)
    tele = telescope_metric(tower, 0, 3, GRID)
    assert tele.space.n > 0
    # the deep end slice keeps the adjusted metric of the last cylinder
    deep = tele.level_class(3)
    for a in range(tower.levels[3].n):
        for b in range(tower.levels[3].n):
            want = tower.levels[3].d(a, b) + tower.levels[2].d(min(a, 2), min(b, 2))
            assert tele.space.d(deep[a], deep[b]) == want


def failing_stages(monkeypatch, **flags):
    """Make every adjunction a telescope attaches come back with ``flags``."""
    attach = invlim.adjunction_space
    monkeypatch.setattr(
        invlim, "adjunction_space", lambda *a, **k: replace(attach(*a, **k), **flags)
    )


def test_a_failed_telescope_stage_names_its_certificates(monkeypatch):
    tower = retraction_tower(4)
    failing_stages(monkeypatch, y_isometric=False)
    with pytest.raises(PreconditionError) as caught:
        telescope_metric(tower, 0, 3, GRID)
    assert str(caught.value) == "telescope stage at level 1 failed its certificates: y_isometric"
    monkeypatch.undo()
    failing_stages(monkeypatch, metric_ok=False, positivity_ok=False)
    with pytest.raises(PreconditionError, match="level 1 failed .*: metric_ok, positivity_ok$"):
        telescope_metric(tower, 0, 3, GRID)
    # the first stage is the first cylinder alone, with no adjunction to fail
    assert telescope_metric(tower, 0, 1, GRID).space.n > 0


def test_telescope_single_level_is_the_level():
    tower = retraction_tower(4)
    assert telescope_metric(tower, 2, 2).space is tower.levels[2]


def test_a_single_level_checks_its_grid():
    with pytest.raises(PreconditionError, match="outside"):
        telescope_metric(retraction_tower(4), 1, 1, ("0", "2"))


def test_a_single_level_cleans_its_grid_as_a_segment_does():
    tower = retraction_tower(4)
    for stop in (1, 2):
        assert telescope_metric(tower, 1, stop, ("1", "0", "0")).t_grid == (0, 1)


def test_telescope_range_validation():
    tower = retraction_tower(4)
    with pytest.raises(PreconditionError, match="range"):
        telescope_metric(tower, 0, 9)
    with pytest.raises(PreconditionError, match="range"):
        telescope_metric(tower, 2, 1)


# ---- ladders and perturbation limits ----


def identity_cross(truncation):
    return [tuple(range(truncation.levels[i].n)) for i in range(truncation.top + 1)]


def test_exact_ladder_has_zero_closeness():
    tower = retraction_tower(5)
    data = ladder(tower, tower, cross=identity_cross(tower))
    report = perturbation_limit(data)
    assert report.hypotheses_ok
    assert report.bounds_ok
    for row in report.limit_rows:
        assert row.measured == 0
    assert report.thread_map == tuple(range(tower.levels[tower.top].n))
    assert report.unique is True
    assert report.injective_observed
    assert report.injective_certified is True


def test_zero_budget_ladder_flags_bad_squares():
    tower = retraction_tower(5)
    cross = identity_cross(tower)
    cross[2] = (0, 2, 1)
    data = ladder(tower, tower, cross=cross, alphas=[Fraction(0)] * tower.top)
    report = perturbation_limit(data)
    assert not report.hypotheses_ok
    bad = {row.level for row in report.square_rows if not row.ok}
    assert bad and bad <= {1, 2}
    # the bounds fail only through a failing limit row
    assert any(not row.ok for row in report.limit_rows) or report.bounds_ok


def test_measured_budgets_absorb_the_swap():
    tower = retraction_tower(5)
    cross = identity_cross(tower)
    cross[2] = (0, 2, 1)
    data = ladder(tower, tower, cross=cross)
    report = perturbation_limit(data)
    assert all(row.ok for row in report.square_rows)
    assert report.bounds_ok
    # every limit row stays within its advertised two-beta bound
    for row in report.limit_rows:
        assert row.measured <= row.bound


def test_default_betas_meet_the_continuity_hypotheses():
    tower = retraction_tower(5)
    cross = identity_cross(tower)
    cross[2] = (0, 2, 1)
    data = ladder(tower, tower, cross=cross)
    assert data.alphas == (0, 0, Fraction(1, 8), 0)
    # square 2 forces beta_2 >= 1/8 and, through the bond to level 1, beta_1 >= 1/4
    assert data.betas == (1, Fraction(1, 4), Fraction(1, 8), Fraction(1, 72), Fraction(1, 72))
    assert perturbation_limit(data).hypotheses_ok


def test_zero_budgets_keep_resolution_betas():
    tower = retraction_tower(5)
    cross = identity_cross(tower)
    cross[2] = (0, 2, 1)
    data = ladder(tower, tower, cross=cross, alphas=[Fraction(0)] * tower.top)
    assert data.betas == (1,) + (Fraction(1, 72),) * tower.top


def test_a_continuity_budget_witness_is_the_lexicographically_first_pair():
    # Pairs (1, 2) at 1/4 and (0, 1) at 1/2 both map 1/2 apart, past the
    # bound 1/4: the sweep meets (1, 2) first, the witness is (0, 1).
    upper = interval_points([0, 2, 3], Fraction(1, 4))
    lower = interval_points([0, 1], Fraction(1, 2))
    tower = inverse_sequence([lower, upper, upper], [(0, 1, 0), (0, 1, 2)])
    data = ladder(
        tower, tower, cross=identity_cross(tower),
        alphas=[Fraction(0), Fraction(1, 2)], betas=[Fraction(1, 2), Fraction(1), Fraction(1)],
    )
    found = {(row.upper, row.lower): row for row in perturbation_limit(data).continuity_rows}
    row = found[1, 0]
    assert (row.bound, row.attained) == (Fraction(1, 4), Fraction(1, 2))
    assert row.witness == (0, 1, Fraction(1, 2), Fraction(1, 2))


def test_convergence_report_fails_when_a_row_fails():
    chain = halving_chain(5, 6)
    rows = [row for group in convergence_report(chain) for row in group]
    assert not all(row.holds_from == row.level for row in rows)


def test_ladder_shape_validation():
    tower = retraction_tower(4)
    cross = identity_cross(tower)
    with pytest.raises(StructuralError, match="cross"):
        ladder(tower, tower, cross=cross[:-1])
    with pytest.raises(StructuralError, match="alpha"):
        ladder(tower, tower, cross=cross, alphas=[Fraction(1)])
    with pytest.raises(StructuralError, match="beta"):
        ladder(tower, tower, cross=cross, betas=[Fraction(1, 9)])
    with pytest.raises(PreconditionError, match="positive"):
        ladder(
            tower, tower, cross=cross, betas=[Fraction(0)] * (tower.top + 1)
        )
    with pytest.raises(StructuralError, match="nondecreasing"):
        ladder(
            tower,
            tower,
            cross=cross,
            indices=[3, 2, 1, 0][: tower.top + 1],
        )


# ---- pair scans against the frozen loops ----


@given(truncations())
@with_examples([retraction_tower(5), halving_chain(5, 6), window_chain(4), empty_top_chain()])
def test_neighborhood_rows_match_the_frozen_loops(truncation):
    # Every spectrum scale, plus one between two scales, one past them all
    # and one below the least positive distance.  ``empty_top_chain`` has
    # levels whose shadow is empty.
    for i, level in enumerate(truncation.levels):
        spectrum = level.spectrum()
        scales = set(spectrum) | {spectrum[-1] / 2, spectrum[-1] + 1}
        if len(spectrum) > 1:
            scales.add(spectrum[1] / 2)
        for eps in sorted(scales):
            row = convergence_row(truncation, i, eps)
            assert row == convergence_row_reference(truncation, i, eps)
            assert row == cauchy_row_reference(truncation, i, eps)
    assert convergence_report(truncation) == tuple(
        tuple(convergence_row_reference(truncation, i, eps) for eps in level.spectrum())
        for i, level in enumerate(truncation.levels)
    )


@given(truncations())
@with_examples([empty_top_chain(), halving_chain(5, 6), window_chain(4), retraction_tower(5)])
def test_stabilization_rows_and_threads_match_the_frozen_folds(truncation):
    # Every row, the image lists of a row that does not stabilize included.
    assert mittag_leffler_report(truncation) == mittag_leffler_reference(truncation)
    assert threads(truncation) == threads_reference(truncation)


@given(truncations())
@with_examples([retraction_tower(5), halving_chain(5, 6), window_chain(4)])
def test_separation_index_matches_the_frozen_loop(truncation):
    bundle = thread_space(truncation)
    levels = [level.dist for level in truncation.levels]
    for a, ta in enumerate(bundle.threads):
        for b, tb in enumerate(bundle.threads):
            want = weighted_sup_reference(levels, ta, tb)
            assert bundle.space.d(a, b) == want
    for eps in sorted(set(bundle.space.spectrum()) | {bundle.space.diameter() / 3}):
        assert separation_index(truncation, eps) == separation_index_reference(
            truncation, bundle, eps
        )


def _collapsing_ladder():
    """Four four-point levels 1/8 apart, under bonds that glue 0 and 1,
    reverse, and glue again: from level 1 down, the first pair within 1/8
    meets its bound and a later one fails, and tight betas fail rows at
    every depth."""
    line = interval_points(range(4), Fraction(1, 8))
    chain = inverse_sequence([line] * 4, [(0, 0, 2, 3), (3, 2, 1, 0), (0, 0, 2, 3)])
    identity = [range(4)] * 4
    data = ladder(chain, chain, identity, alphas=["1/8"] * 3, betas=["1/64"] * 4)
    return LadderCase(data, False)


def _skipping_ladder():
    """Target levels fed from source levels 0, 2 and 4, the lowest on
    thirds and the others on eighths, with default betas."""
    eighths = interval_points(range(3), Fraction(1, 8))
    target = inverse_sequence(
        [interval_points(range(2), Fraction(1, 3)), eighths, eighths], [(0, 1, 1), range(3)])
    cross = [(0,), (0, 1, 2), (0, 1, 2, 2, 2)]
    data = ladder(retraction_tower(5), target, cross, indices=[0, 2, 4], alphas=["1/8"] * 2)
    return LadderCase(data, True)


def _swapped_ladder():
    """The depth-5 tower against itself with cross map 2 swapping two
    points and zero alphas: square 2 fails its budget."""
    tower = retraction_tower(5)
    cross = [range(level.n) for level in tower.levels]
    cross[2] = (0, 2, 1)
    return LadderCase(ladder(tower, tower, cross, alphas=["0"] * tower.top), True)


@given(ladders())
@with_examples([_collapsing_ladder(), _skipping_ladder(), _swapped_ladder()])
def test_ladder_pair_scans_match_the_frozen_loops(case):
    data = case.data
    target = data.target
    levels = target.levels
    if case.default_betas:
        for j, level in enumerate(levels):
            floor = level.min_positive_distance()
            want = floor / 9 if floor is not None else Fraction(1)
            for i in range(j, target.top):
                attained = attained_continuity_reference(
                    levels[i], level, target.composite(i, j), data.alphas[i]
                )
                want = max(want, Fraction(2) ** (i - j) * attained)
            assert data.betas[j] == want
    report = perturbation_limit(data)
    for row in report.continuity_rows:
        assert row.attained == attained_continuity_reference(
            levels[row.upper], levels[row.lower],
            target.composite(row.upper, row.lower), row.alpha,
        )
        assert (row.witness is None) == row.ok
        if not row.ok:
            assert row.witness == uniform_continuity_witness_reference(
                levels[row.upper], levels[row.lower],
                target.composite(row.upper, row.lower), row.alpha, row.bound,
            )
    squares, telescoping, limits = closeness_rows_reference(data)
    assert tuple((row.measured, row.witness) for row in report.square_rows) == squares
    assert report.telescoping_rows == telescoping
    assert report.limit_rows == limits
    if report.separation_note is None:
        assert report.uniqueness_rows == uniqueness_rows_reference(
            data, thread_space(target)
        )
        assert report.injectivity_rows == injectivity_rows_reference(
            data, thread_space(data.source)
        )


@given(ladders())
def test_hypotheses_imply_the_bounds_on_generated_ladders(case):
    """When every square stays within its alpha budget and every
    down-composite is continuous within its halving bound, every
    telescoping row and every limit row meets its bound."""
    report = perturbation_limit(case.data)
    assert report.bounds_ok or not report.hypotheses_ok
