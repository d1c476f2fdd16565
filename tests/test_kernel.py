"""The exact integer kernel against the frozen Fraction references."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unimet.quotients
import unimet.spaces
from helpers import (
    PRIMES_7_TO_31,
    chain_on_classes,
    interval_points,
    matrix_of,
    random_partition,
    random_space,
    retraction_tower,
    space,
    truncation_to_json,
    wide_matrix,
    wide_space,
)
from oracles import (
    axiom_report_reference,
    axiom_scan_reference,
    block_distance_matrix,
    chain_limit_apsp,
    chain_power,
    closure_reference,
    min_plus_reference,
)
from unimet.cli import main
from unimet.errors import PreconditionError
from unimet.jsonio import space_to_json
from unimet.kernel import (
    ChainPowers,
    closure,
    first_triangle_witness,
    min_plus,
    to_fractions,
    to_int_matrix,
)
from unimet.quotients import glue_parts
from unimet.spaces import (
    FiniteMetricSpace,
    _is_metric,
    _scan_axioms,
    check_metric_axioms,
    reflagged,
)

ZERO = Fraction(0)


def _assert_same_report(space):
    for allow_pseudo in (False, True):
        report = check_metric_axioms(space, allow_pseudo=allow_pseudo)
        ok, expected = axiom_report_reference(space.points, space.dist, allow_pseudo)
        got = [(v.axiom, v.witness, v.lhs, v.rhs) for v in report.violations]
        assert (report.ok, got) == (ok, expected)
        assert report.allow_pseudo == allow_pseudo


def _defective(rng, rows):
    """Apply a few seeded defects: negative entries, nonzero or negative
    diagonals, asymmetric pairs, zero off-diagonals, triangle breaks."""
    n = len(rows)
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        q = rng.choice(PRIMES_7_TO_31)
        kind = rng.randrange(5)
        if kind == 0:
            rows[i][j] = Fraction(-rng.randint(1, q), q)
        elif kind == 1:
            rows[i][i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3 * q), q)
        elif kind == 2 and i != j:
            rows[i][j] += Fraction(1, q)
        elif kind == 3 and i != j:
            rows[i][j] = rows[j][i] = ZERO
        else:
            rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 4 * q), q)
    return rows


def test_axiom_scan_matches_reference_on_defective_matrices():
    rng = random.Random(4242)
    for trial in range(300):
        size = rng.randint(1, 7)
        if trial % 2:
            rows = [list(r) for r in wide_space(rng, size).dist]
        else:
            rows = wide_matrix(rng, size)
        rows = _defective(rng, rows)
        space = FiniteMetricSpace(tuple(range(size)), tuple(map(tuple, rows)))
        _assert_same_report(space)


def test_axiom_scan_skips_a_diagonal_only_failure_of_the_vector_test():
    # d[1][1] < 0: row_0 - row_1 exceeds d[0][1] only at k = 1 = j, which is
    # no triangle witness; the scan must go on and find none.  d[2][2] above
    # twice the diameter (at most 2 here) fails the vector test at k = i = 2
    # in the same way.
    rng = random.Random(7)
    base = wide_space(rng, 5)
    for i, value in ((1, Fraction(-1, 7)), (2, Fraction(60, 11))):
        rows = [list(r) for r in base.dist]
        rows[i][i] = value
        space = FiniteMetricSpace(base.points, tuple(map(tuple, rows)))
        report = check_metric_axioms(space)
        assert report.violated_axioms()[0] == "diagonal"
        assert "triangle" not in report.violated_axioms()
        _assert_same_report(space)


def test_axiom_scan_on_metrics_agrees_with_reference():
    rng = random.Random(11)
    for _ in range(20):
        for make in (random_space, wide_space):
            space = make(rng, rng.randint(2, 9))
            assert check_metric_axioms(space).ok
            _assert_same_report(space)


# Where ``int_matrices`` plants its triangle break: k on the lowest field,
# k on the highest, (i, j) the last pair the verdict tests, or nowhere.
PLANTS = ("none", "k=0", "k=n-1", "last pair")


@st.composite
def int_matrices(draw):
    """A square int matrix of 0..40 points for the packed triangle kernel.

    Off the diagonal the entries are drawn in [B, 2B], B one of 1, 2**8,
    2**33 and 2**72 (past 2**70), so every triangle holds.  A planted break raises
    m[i][k] to m[i][j] + m[j][k] + 1 with m[i][j] = m[j][k] = B, one unit
    past the least sum any middle point can give; then up to three
    defects: a negative entry, a nonzero diagonal entry (of either sign, up
    to 3B), an asymmetric entry or a zero pair.
    """
    n = draw(st.integers(0, 40))
    low = 1 << draw(st.sampled_from((0, 8, 33, 72)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(low, 2 * low)
    plant = draw(st.sampled_from(PLANTS))
    if n >= 3 and plant != "none":
        if plant == "last pair":
            i, j, k = n - 2, n - 1, draw(st.integers(0, n - 3))
        else:
            k = 0 if plant == "k=0" else n - 1
            others = [x for x in range(n) if x != k]
            i, j = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        m[i][j] = m[j][i] = m[j][k] = m[k][j] = low
        m[i][k] = m[k][i] = 2 * low + 1
    index = st.integers(0, max(n - 1, 0))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        defect = draw(st.sampled_from(("negative", "diagonal", "asymmetric", "zero")))
        a, b = draw(index), draw(index)
        if defect == "negative":
            m[a][b] = -m[a][b] - 1
        elif defect == "diagonal":
            m[a][a] = draw(st.sampled_from((-1, 1))) * rng.randint(1, 3 * low)
        elif defect == "asymmetric":
            m[a][b] += 1
        elif a != b:
            m[a][b] = m[b][a] = 0
    return m


@given(int_matrices())
@settings(max_examples=150)
# The break (1, 0, 2) and its mirror (2, 0, 1) have their middle point
# first: only the test of row_j - row_i on a pair i < j sees them.
@example([[0, 1, 1], [1, 0, 3], [1, 3, 0]])
def test_the_packed_kernel_gives_the_references_report(m):
    n = len(m)
    sp = FiniteMetricSpace.from_int(range(n), m, 1)
    ok, expected = axiom_report_reference(sp.points, m, False)
    want = axiom_scan_reference(sp)
    assert _is_metric(m) == ok == want.ok
    assert first_triangle_witness(m) == next(
        (witness for axiom, witness, _, _ in expected if axiom == "triangle"), None)
    report = _scan_axioms(sp)
    assert report == want
    assert [(v.axiom, v.witness, v.lhs, v.rhs) for v in report.violations] == expected


def _hop_path(n, hop):
    """The directed path 0 -> 1 -> ... -> n-1, each hop ``hop``, no other
    hop: its closure holds (n - 1) * hop, one below the closure's INF, and
    each product d_t times the path reaches max(d_t) + hop at (0, t + 1),
    one below the product's INF."""
    return [[hop if j == i + 1 else None for j in range(n)] for i in range(n)]


@st.composite
def relax_inputs(draw):
    """``(block, a, b, path)`` for the packed relax kernels.

    ``block`` is square, ``a`` is n x p and ``b`` is p x q, with n, p, q in
    0..24: asymmetric, entries in {0} and [B, 2B] for B one of 1, 2**8,
    2**33 and 2**72, None at a drawn density.  With ``path``, the block is a
    directed hop path through the points in a drawn order, each hop 2B, and
    only hops back along that order besides, so the path is the one chain
    from its first point to its last.
    """
    n, p, q = draw(st.integers(0, 24)), draw(st.integers(0, 24)), draw(st.integers(0, 24))
    low = 1 << draw(st.sampled_from((0, 8, 33, 72)))
    holes = draw(st.sampled_from((0.0, 0.2, 0.6, 0.95)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entries(rows, cols):
        return [[None if rng.random() < holes else 0 if rng.random() < 0.1
                 else rng.randint(low, 2 * low) for _ in range(cols)] for _ in range(rows)]

    block, a, b = entries(n, n), entries(n, p), entries(p, q)
    path = n >= 2 and draw(st.booleans())
    if path:
        order = draw(st.permutations(range(n)))
        rank = {u: r for r, u in enumerate(order)}
        for u in range(n):
            for v in range(n):
                if rank[v] == rank[u] + 1:
                    block[u][v] = 2 * low
                elif rank[v] > rank[u]:
                    block[u][v] = None
    return block, a, b, path


@given(relax_inputs())
@settings(max_examples=150)
@example((_hop_path(9, 5), [], [], True))
@example((_hop_path(2, 1), [[0]], [[None, 3]], True))
def test_the_packed_relax_kernels_give_the_references(case):
    block, a, b, path = case
    assert closure(block) == closure_reference(block)
    assert min_plus(a, b) == min_plus_reference(a, b)
    power = block
    for _ in range(len(block) - 1 if path else 1):
        power, want = min_plus(power, block), min_plus_reference(power, block)
        assert power == want


def _turning_power_reference(block, power, pivots):
    """min(block, power[:, P] (x) block[P, :]) for P = ``pivots``, entry by
    entry: the chains one hop longer than ``power``'s that turn last at a
    pivot, or one hop of the block."""
    return [
        [min([power[i][k] + block[k][j] for k in pivots
              if power[i][k] is not None and block[k][j] is not None]
             + ([] if block[i][j] is None else [block[i][j]]), default=None)
         for j in range(len(block))]
        for i in range(len(block))
    ]


@given(relax_inputs(), st.sets(st.integers(0, 23)))
@settings(max_examples=150)
@example((_hop_path(9, 5), [], [], True), set())
def test_the_chain_power_kernel_gives_the_references(case, drawn):
    """On a block with a zero diagonal, ``ChainPowers`` over every class
    takes the min-plus powers of the block, and over drawn pivots the
    chains that turn only at them; each step says whether the power moved.
    On the hop path, d_(n-1) reaches (n - 1) * hop, one below its INF."""
    block = [[0 if i == j else v for j, v in enumerate(row)] for i, row in enumerate(case[0])]
    n = len(block)
    every, some = range(n), sorted(drawn & set(range(n)))
    for pivots, following in (
        (every, lambda power: min_plus_reference(power, block)),
        (some, lambda power: _turning_power_reference(block, power, some)),
    ):
        powers, want = ChainPowers(block, pivots), block
        for _ in range(n):
            want, last = following(want), want
            assert powers.step() == (want != last)
            assert powers.matrix() == want


def test_integer_form_round_trips():
    rng = random.Random(5)
    rows = wide_matrix(rng, 6)
    rows[0][3] = rows[3][0] = None
    ints, scale = to_int_matrix(rows)
    assert scale == lcm(*(v.denominator for row in rows for v in row if v is not None))
    assert all(isinstance(v, int) for row in ints for v in row if v is not None)
    assert [list(r) for r in to_fractions(ints, scale)] == rows
    assert to_int_matrix([[ZERO]]) == ([[0]], 1)


def test_from_int_and_reflagged_keep_the_cached_forms():
    rng = random.Random(743)
    for size in (1, 2, 5):
        rows = wide_matrix(rng, size)
        ints, scale = to_int_matrix(rows)
        k = rng.randint(2, 9)
        space = FiniteMetricSpace.from_int(
            range(size), [[v * k for v in row] for row in ints], scale * k, pseudo=True
        )
        assert [list(r) for r in space.dist] == rows and space.pseudo
        assert (space.ints, space.scale) == (ints, scale) == to_int_matrix(space.dist)
        report = check_metric_axioms(space, allow_pseudo=False)
        copy = reflagged(space, False)
        assert (copy.points, copy.dist, copy.pseudo) == (space.points, space.dist, False)
        assert copy.ints is space.ints
        assert check_metric_axioms(copy) is report
    zero = FiniteMetricSpace.from_int("ab", [[0, 0], [0, 0]], 6)
    assert (zero.ints, zero.scale) == ([[0, 0], [0, 0]], 1) == to_int_matrix(zero.dist)


def _none_block(rng, size):
    """Symmetric block over wide denominators with some hops forbidden."""
    block = wide_matrix(rng, size)
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.3:
                block[i][j] = block[j][i] = None
    return block


def test_min_plus_and_closure_match_oracles_on_none_blocks():
    rng = random.Random(99)
    for _ in range(40):
        size = rng.randint(1, 8)
        block = _none_block(rng, size)
        ints, scale = to_int_matrix(block)
        power = ints
        for hops in range(1, size + 1):
            assert [list(r) for r in to_fractions(power, scale)] == chain_power(block, hops)
            power = min_plus(power, ints)
        assert [list(r) for r in to_fractions(closure(ints), scale)] == chain_limit_apsp(block)


def test_chain_metric_matches_oracles_on_wide_denominators():
    rng = random.Random(2025)
    for _ in range(30):
        size = rng.randint(2, 8)
        classes = rng.randint(1, size)
        sp = wide_space(rng, size)
        class_of = random_partition(rng, size, classes)
        block = block_distance_matrix(matrix_of(sp), class_of)
        limit = chain_limit_apsp(block)
        for n in range(1, classes + 1):
            dn = chain_on_classes(sp, class_of, n)
            values = [list(r) for r in dn.space.dist]
            assert values == chain_power(block, n)
            assert dn.dn_equals_dinf == (values == limit)
            assert dn.is_metric() == axiom_report_reference(dn.space.points, dn.space.dist, False)[0]


def _random_glue_cases(rng, count):
    """``count`` (parts, groups, steps) over ``wide_space`` parts: one or two
    points of each later part glued to points of part 0, no point in two
    groups."""
    for _ in range(count):
        parts = [wide_space(rng, rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
        used = set()
        groups = []
        for p in range(1, len(parts)):
            for _ in range(rng.randint(1, 2)):
                free_0 = [a for a in range(parts[0].n) if (0, a) not in used]
                free_p = [b for b in range(parts[p].n) if (p, b) not in used]
                if not free_0 or not free_p:
                    break
                group = ((0, rng.choice(free_0)), (p, rng.choice(free_p)))
                used.update(group)
                groups.append(group)
        yield parts, groups, rng.randint(1, 4)


# Parts outside the hypothesis under which a chain power equals the limit
# exactly when it has no triangle violation: a negative entry, a nonzero
# diagonal.  Each is glued to one point; on the first two the block has two
# classes and no triple to break, yet its power is not its limit, and the
# third has three classes, so its two-hop power takes a product.  Each
# case ends with the class that ``glue_parts`` names when it refuses it.
DEFECTIVE_GLUE_CASES = [
    ([FiniteMetricSpace.from_rows(points, rows), FiniteMetricSpace.from_rows("z", [[0]])],
     [((0, 0), (1, 0))], 2, defect)
    for points, rows, defect in (
        ("ab", [[0, "-1/3"], ["-1/3", 0]], ((0, "a"), (1, "z"))),
        ("ab", [[0, "1/2"], ["1/2", "1/5"]], ((0, "b"),)),
        ("abc", [[0, "1/2", "1/2"], ["1/2", 0, "-1/4"], ["1/2", "-1/4", 0]], ((0, "b"),)),
    )
]


def test_glue_parts_matches_oracles_on_none_blocks():
    for parts, groups, steps in _random_glue_cases(random.Random(303), 40):
        _check_glue(parts, groups, steps)


@pytest.mark.parametrize("parts, groups, steps, defect", DEFECTIVE_GLUE_CASES)
def test_glue_parts_refuses_a_defective_part_before_any_product(parts, groups, steps, defect):
    with (mock.patch.object(ChainPowers, "step", side_effect=AssertionError),
          pytest.raises(PreconditionError) as refusal):
        glue_parts(parts, groups, None, steps)
    assert str(refusal.value) == ("glue_parts needs nonnegative distances and a zero "
                                  f"diagonal, which class {defect!r} breaks")


def _check_glue(parts, groups, steps):
    """``glue_parts`` against the chain power and the limit of the oracle
    block, with cross hops forbidden."""
    offsets = [sum(part.n for part in parts[:p]) for p in range(len(parts))]
    total = sum(part.n for part in parts)
    glued_points = {offsets[p] + i: g for g, group in enumerate(groups)
                    for p, i in group}
    class_of, count = [], len(groups)
    for g in range(total):
        if g in glued_points:
            class_of.append(glued_points[g])
        else:
            class_of.append(count)
            count += 1
    # block over classes: hops inside a part only, None across parts; a
    # glued class holds a zero hop between its parts
    block = [[ZERO if c < len(groups) and c == d else None for d in range(count)]
             for c in range(count)]
    for p, part in enumerate(parts):
        for i in range(part.n):
            for j in range(part.n):
                a, b = class_of[offsets[p] + i], class_of[offsets[p] + j]
                v = part.d(i, j)
                if block[a][b] is None or v < block[a][b]:
                    block[a][b] = v
    limit = chain_limit_apsp(block)
    hops = max(1, min(steps, count - 1))
    expected = chain_power(block, hops)
    if any(v is None for row in expected + limit for v in row):
        # Only a pair that no chain joins is disconnected; one that a chain
        # of more than ``steps`` hops joins names the steps.
        connected = all(v is not None for row in limit for v in row)
        message = f"more hops than steps = {steps}$" if connected else "disconnected"
        with pytest.raises(PreconditionError, match=message):
            glue_parts(parts, groups, None, steps)
        return
    glued = glue_parts(parts, groups, None, steps)
    assert [list(r) for r in glued.space.dist] == expected
    assert glued.dn_equals_dinf == (expected == limit)
    assert glued.is_metric() == axiom_report_reference(
        glued.space.points, glued.space.dist, False
    )[0]


S2 = space_to_json(space("pq", {(0, 1): "1/2"}))
S3 = space_to_json(space("abc", {(0, 1): "1/2", (0, 2): "1/3", (1, 2): "1/4"}))
# Three short hops 0 -> 1 ~ 4 -> 5 ~ 8 -> 9 beat every two-hop chain.
LINE = space_to_json(interval_points(range(10), Fraction(1, 8)))
CONSTRUCTIONS = [
    ("quotient", {"space": S3, "family": [[0, 1]]}, [], 0),
    ("quotient", {"space": LINE, "family": [[1, 4], [5, 8]]}, [], 1),
    ("amalgam", {"left": S2, "right": S3, "gluing": {"pairs": [[0, 0]]}}, [], 0),
    ("adjunction", {"space": S3, "subset": [0, 1], "target": S2,
                    "attaching": {"pairs": [[0, 0], [1, 1]]}}, [], 0),
    ("cylinder", {"source": S3, "target": S2, "mapping": [0, 1, 1]}, ["--oracle"], 0),
    ("cone", S3, ["--oracle"], 0),
    ("join", {"left": S2, "right": S3}, ["--oracle"], 0),
    ("telescope", truncation_to_json(retraction_tower(4)), [], 0),
]


def build_each(directory, constructions):
    """Run ``unimet build`` on each case, checking its exit code."""
    for kind, tree, flags, code in constructions:
        path = directory / f"{kind}.json"
        path.write_text(json.dumps(tree))
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO()) as err):
            assert main(["build", kind, str(path), *flags]) == code, (kind, err.getvalue())


def test_no_construction_takes_a_closure(monkeypatch, tmp_path):
    """Each chain construction certifies d_n = d_infinity from the triangle
    scan of its result, settled or not: the shortest-path closure is never
    computed on the way."""
    calls = []
    original = unimet.quotients.closure

    def counted(block):
        calls.append(len(block))
        return original(block)

    monkeypatch.setattr(unimet.quotients, "closure", counted)
    build_each(tmp_path, CONSTRUCTIONS)
    assert calls == []


def test_no_construction_locates_a_witness_on_a_valid_input(monkeypatch, tmp_path):
    """Every space that a build on a valid input scans is a metric, so the
    one-pass verdict clears it: the triangle witness locator never runs."""
    calls = []
    original = unimet.spaces.first_triangle_witness

    def counted(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(unimet.spaces, "first_triangle_witness", counted)
    build_each(tmp_path, [case for case in CONSTRUCTIONS if case[3] == 0])
    assert calls == []


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(probe):
    """Stdout of ``probe`` run by a fresh interpreter that imports from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return out.stdout


def test_cli_import_loads_only_the_standard_library():
    # Every module outside the standard library is paid at each cold start.
    # Modules loaded before the import (by the site hook) are not counted.
    probe = (
        "import sys; before = set(sys.modules); import unimet.cli; "
        "top = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(top - set(sys.stdlib_module_names) - {'unimet'}))"
    )
    assert fresh_python(probe).strip() == "[]"
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as handle:
        assert "dependencies = []" in handle.read().splitlines()


def test_check_loads_only_the_modules_it_runs(tmp_path):
    # Each construction module is imported by the command that runs it, so
    # the cold start of `unimet check` pays for none of them.
    path = tmp_path / "two.json"
    path.write_text('{"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}')
    probe = (
        "import sys; import unimet; "
        "print(sorted(m for m in sys.modules if m.startswith('unimet')))\n"
        "import io, contextlib, unimet.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = unimet.cli.main(['check', {str(path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('unimet')))"
    )
    package, check = fresh_python(probe).splitlines()
    assert package == "['unimet']"
    loaded = ["unimet"] + [f"unimet.{m}" for m in (
        "cli", "errors", "jsonio", "kernel", "reporting", "scalars", "spaces")]
    assert check == f"0 {loaded}"
