"""The command line end to end: fixtures, exit codes 0 / 1 / 2, determinism."""

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import unimet.cones
import unimet.covers
import unimet.cylinders
import unimet.invlim
import unimet.quotients
import unimet.spaces
from helpers import (
    empty_top_chain,
    fundamental_sequence_to_json,
    halving_chain,
    interval_points,
    moon_moser_sequence,
    retraction_tower,
    space,
    truncation_to_json,
    window_chain,
    wide_space,
)
from oracles import continuity_rows
from unimet.cli import INVLIM_MODES, build_parser, main
from unimet.covers import ball_fundamental_sequence
from unimet.embedding import DEPTH_CAP, POINT_CAP, aharoni_embed, sufficient_depth
from unimet.errors import PreconditionError, StructuralError
from unimet.invlim import LEVEL_CAP, THREAD_CAP, inverse_sequence, telescope_metric
from unimet.jsonio import LABEL_DEPTH_CAP, space_to_json
from unimet.reporting import canonical_bytes, jsonable
from unimet.scalars import ONE, ZERO, parameter_grid

S3 = space("abc", {(0, 1): "1/2", (0, 2): "1/3", (1, 2): "1/4"})
S2 = space("pq", {(0, 1): "1/2"})
TOWER = retraction_tower(4)
# A JSON integer literal of 5,001 digits: past int's default limit of
# 4,300 digits for conversion from text, so json.loads refuses it.
BIG_INT = "1" + "0" * 5000
BIG_INT_MARK = "@big-int@"
# A decimal exponent whose value would have 5,001 digits.
BIG_EXPONENT = "1e5000"
SCHEMA = json.loads(
    (Path(__file__).parents[1] / "docs" / "report-schema.json").read_text()
)
REPORTS = Draft202012Validator(SCHEMA)


def run(argv):
    """Exit code, stdout and stderr of one in-process run; a report on
    stdout must match the report schema."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if out.getvalue():
        REPORTS.validate(json.loads(out.getvalue()))
    return code, out.getvalue(), err.getvalue()


def write(directory, name, tree):
    """Write ``tree`` as JSON, with each ``BIG_INT_MARK`` string replaced by
    the bare ``BIG_INT`` literal, which ``json.dumps`` cannot print."""
    path = Path(directory) / name
    path.write_text(json.dumps(tree).replace(f'"{BIG_INT_MARK}"', BIG_INT))
    return path


def rows(out):
    return {r["check"]: r for r in json.loads(out)["results"]}


def all_pass(out):
    return all(r["status"] != "fail" for r in json.loads(out)["results"])


@pytest.fixture
def s3(tmp_path):
    return write(tmp_path, "s3.json", space_to_json(S3))


@pytest.fixture
def tower(tmp_path):
    return write(tmp_path, "tower.json", truncation_to_json(TOWER))


@pytest.fixture
def join_file(tmp_path):
    tree = {"left": space_to_json(S2), "right": space_to_json(S3)}
    return write(tmp_path, "join.json", tree)


@pytest.fixture
def cylinder_file(tmp_path):
    tree = {
        "source": space_to_json(S3),
        "target": space_to_json(S2),
        "mapping": [0, 1, 1],
    }
    return write(tmp_path, "cyl.json", tree)


# ---- check ----


def test_check_valid_space_passes(s3):
    code, out, err = run(["check", s3])
    assert code == 0, err
    assert json.loads(out)["exit_status"] == 0
    assert all_pass(out)


def test_check_reports_a_triangle_witness(tmp_path):
    bad = {
        "points": ["a", "b", "c"],
        "dist": [["0", "1", "1/4"], ["1", "0", "1/4"], ["1/4", "1/4", "0"]],
    }
    code, out, err = run(["check", write(tmp_path, "bad.json", bad)])
    assert code == 1, err
    triangle = rows(out)["axiom triangle"]
    assert triangle["status"] == "fail" and triangle["witnesses"]


def test_check_input_errors_exit_2(tmp_path):
    malformed = tmp_path / "mal.json"
    malformed.write_text("{oops")
    code, out, err = run(["check", malformed])
    assert code == 2 and "input error" in err
    code, out, err = run(["check", tmp_path / "missing.json"])
    assert code == 2, err


def test_check_pseudo_acceptance(tmp_path):
    zeros = {"points": ["a", "b"], "dist": [["0", "0"], ["0", "0"]]}
    flagged = dict(zeros, pseudo=True)
    code, out, err = run(["check", write(tmp_path, "pseudo.json", flagged)])
    assert code == 0, err
    plain = write(tmp_path, "nf.json", zeros)
    code, out, err = run(["check", plain])
    assert code == 1, err
    code, out, err = run(["check", plain, "--pseudo"])
    assert code == 0, err


# ---- build ----


def test_build_cone_oracle_passes(s3):
    code, out, err = run(["build", "cone", s3, "--oracle"])
    assert code == 0, err
    oracle = rows(out)["cone formula matches the collapsed-slice quotient"]
    assert oracle["status"] == "pass"


def test_build_join_oracle_passes(join_file):
    code, out, err = run(["build", "join", join_file, "--oracle"])
    assert code == 0, err
    found = rows(out)
    assert found["join equals the glued union of cone products"]["status"] == "pass"
    assert found["two chain hops settle the glued union"]["status"] == "pass"


def test_build_join_grid_errors_exit_1(join_file):
    code, out, err = run(["build", "join", join_file, "--grid", "0,abc,1"])
    assert code == 1 and "not a rational" in err
    code, out, err = run(["build", "join", join_file, "--grid", "0,1/2,1"])
    assert code == 1 and "must contain" in err


def test_build_cylinder_oracle_passes(cylinder_file):
    code, out, err = run(["build", "cylinder", cylinder_file, "--oracle"])
    assert code == 0, err
    assert all_pass(out)
    assert rows(out)["cylinder matches the attachment pipeline"]["status"] == "pass"


def test_build_adjunction_and_amalgam(tmp_path):
    adjunction = {
        "space": space_to_json(S3),
        "subset": [0, 1],
        "target": space_to_json(S2),
        "attaching": {"pairs": [[0, 0], [1, 1]]},
    }
    amalgam = {
        "left": space_to_json(S2),
        "right": space_to_json(S2),
        "gluing": {"pairs": [[0, 0]]},
    }
    for kind, tree in (("adjunction", adjunction), ("amalgam", amalgam)):
        code, out, err = run(["build", kind, write(tmp_path, "in.json", tree)])
        assert code == 0, (kind, err)


def test_adjunction_refuses_a_negative_cross_by_name(tmp_path):
    """A negative cross is refused before any product; a zero cross is the
    boundary, so it builds and its report fails the metric row."""
    tree = {
        "space": space_to_json(S3),
        "subset": [0, 1],
        "target": space_to_json(S2),
        "attaching": {"pairs": [[0, 0], [1, 1]]},
        "cross": "-1/4",
    }
    refusal = "precondition failed: glue_parts cross distance -1/4 is negative\n"
    assert run(["build", "adjunction", write(tmp_path, "in.json", tree)]) == (1, "", refusal)
    tree["cross"] = "0"
    code, out, err = run(["build", "adjunction", write(tmp_path, "in.json", tree)])
    assert (code, err) == (1, "")
    assert rows(out)["result satisfies the metric axioms"]["status"] == "fail"


def test_quotient_family_and_class_of_give_the_same_space(tmp_path):
    by_family = {"space": space_to_json(S3), "family": [[0, 1]]}
    by_class = {"space": space_to_json(S3), "class_of": [0, 0, 1]}
    spaces = []
    for tree in (by_family, by_class):
        code, out, err = run(["build", "quotient", write(tmp_path, "q.json", tree)])
        assert code == 0, err
        spaces.append(rows(out)["constructed space"]["witnesses"])
    assert spaces[0] == spaces[1]


def test_quotient_names_the_cap_when_its_powers_settle_past_it(tmp_path, monkeypatch):
    """A family whose chain powers still differ at ``QUOTIENT_CAP`` hops is
    refused by the cap's name; one that settles within two hops builds."""
    monkeypatch.setattr(unimet.quotients, "QUOTIENT_CAP", 2)
    line = interval_points(range(10), Fraction(1, 8))
    tree = {"space": space_to_json(line), "family": [[1, 4], [5, 8]]}
    refusal = ("precondition failed: two-hop quotient distance differs from the chain "
               "limit for this family (they still differ at n = QUOTIENT_CAP = 2)\n")
    assert run(["build", "quotient", write(tmp_path, "q.json", tree)]) == (1, "", refusal)
    tree = {"space": space_to_json(S3), "family": [[0, 1]]}
    assert run(["build", "quotient", write(tmp_path, "q.json", tree)])[0] == 0


def test_quotient_family_indices_are_range_checked_before_the_overlap(tmp_path):
    tree = {"space": space_to_json(S3), "family": [[99], [99]]}
    code, out, err = run(["build", "quotient", write(tmp_path, "q.json", tree)])
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "99" in err
    tree["family"] = [[0, 1], [1, 2]]
    code, out, err = run(["build", "quotient", write(tmp_path, "q.json", tree)])
    assert (code, out) == (1, "")
    assert err.startswith("precondition failed:") and "'b'" in err


EMPTY = {"points": [], "dist": []}
# Per kind and the space keys of its input made empty: the exit code
# without and with --oracle, and the refusal an exit 1 prints.  The cone's
# input is its base itself, so it has no key.  An emptied cylinder factor
# comes with the empty map, which is not total on a nonempty source.
EMPTY_FACTOR_CASES = {
    ("cone", ()): (0, 1, "the collapsed-slice comparison needs a nonempty base"),
    ("join", ("left",)): (0, 1, "the amalgam comparison needs a nonempty left factor"),
    ("join", ("right",)): (0, 1, "the amalgam comparison needs a nonempty right factor"),
    ("join", ("left", "right")): (0, 1, "the amalgam comparison needs a nonempty left factor"),
    ("cylinder", ("source",)): (0, 1, "the attachment comparison needs a nonempty source"),
    ("cylinder", ("target",)): (
        1, 1, "mapping_cylinder_metric must be total on the source points"),
}


@pytest.mark.parametrize("kind, keys", sorted(EMPTY_FACTOR_CASES),
                         ids=["-".join((kind, *keys)) for kind, keys in sorted(EMPTY_FACTOR_CASES)])
@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
def test_an_empty_factor_builds_or_is_refused_by_name(tmp_path, kind, keys, oracle):
    tree = {
        "cone": EMPTY,
        "join": {"left": space_to_json(S2), "right": space_to_json(S3)},
        "cylinder": {"source": space_to_json(S3), "target": space_to_json(S2), "mapping": []},
    }[kind]
    tree = dict(tree, **{key: EMPTY for key in keys})
    plain, with_oracle, refusal = EMPTY_FACTOR_CASES[kind, keys]
    argv = ["build", kind, write(tmp_path, "empty.json", tree)] + ["--oracle"] * oracle
    code, out, err = run(argv)
    assert "Traceback" not in err
    assert code == (with_oracle if oracle else plain), err
    if code == 1:
        assert (out, err) == ("", f"precondition failed: {refusal}\n")


@pytest.mark.parametrize("key", ["family", "class_of"])
def test_the_quotient_of_the_empty_space_is_the_empty_space(tmp_path, key):
    tree = {"space": EMPTY, key: []}
    code, out, err = run(["build", "quotient", write(tmp_path, "q.json", tree)])
    assert code == 0, err
    found = rows(out)
    assert found["constructed space"]["witnesses"] == [EMPTY]
    assert found["chain settles"]["scalars"] == {"settled_at": 1}


@pytest.mark.parametrize("depth, expected", [(None, 0), (2, 0), (0, 0), (9, 1)])
def test_build_telescope_depths(tower, depth, expected):
    extra = [] if depth is None else ["--depth", depth]
    code, out, err = run(["build", "telescope", tower, *extra])
    assert code == expected, err


def test_a_failed_telescope_stage_exits_1_naming_its_certificate(tower, monkeypatch):
    attach = unimet.invlim.adjunction_space
    monkeypatch.setattr(unimet.invlim, "adjunction_space",
                        lambda *a, **k: replace(attach(*a, **k), y_isometric=False))
    assert run(["build", "telescope", tower]) == (1, "", (
        "precondition failed: telescope stage at level 1 failed its certificates: "
        "y_isometric\n"))


def test_a_telescope_depth_past_the_top_reads_as_the_library_words_it(tower):
    code, out, err = run(["build", "telescope", tower, "--depth", 9])
    assert (code, out) == (1, "")
    assert err == f"precondition failed: segment [0, 9] out of range for top level {TOWER.top}\n"


@pytest.mark.parametrize("kind, key, bad_map", [
    ("cylinder", "mapping", {"pairs": [[0, 0], [1, 1], [2, 1], [7, 0]]}),
    ("adjunction", "attaching", {"pairs": [[0, 0], [1, 1], [7, 0]]}),
])
def test_a_map_source_index_outside_the_space_is_an_input_error(tmp_path, kind, key, bad_map):
    tree = {
        "cylinder": {"source": space_to_json(S3), "target": space_to_json(S2)},
        "adjunction": BUILD_TREES["adjunction"],
    }[kind]
    tree = dict(tree, **{key: bad_map})
    code, out, err = run(["build", kind, write(tmp_path, "map.json", tree)])
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "source index 7 out of range" in err


@pytest.mark.parametrize("command", ["check", "metrize", "embed", "invlim"])
def test_only_build_takes_oracle(command, capsys):
    argv = {"invlim": ["invlim", "threads", "t.json"]}.get(command, [command, "f.json"])
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--oracle"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --oracle" in capsys.readouterr().err


# ---- oracles run once, and only when asked ----


def count_calls(monkeypatch, name, module):
    """Count the calls of ``module.name``.  The CLI imports each construction
    inside the handler that runs it, so patching the defining module is
    enough."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_oracle_build_runs_its_oracle_and_its_construction_once(
    monkeypatch, s3, join_file, cylinder_file
):
    checks = count_calls(monkeypatch, "cylinder_adjunction_check", unimet.cylinders)
    telescope_metric(TOWER, 0, 3)
    assert len(checks) == 0
    assert run(["build", "cylinder", cylinder_file, "--oracle"])[0] == 0
    assert len(checks) == 1

    cones = count_calls(monkeypatch, "cone_metric", unimet.cones)
    assert run(["build", "cone", s3, "--oracle"])[0] == 0
    assert len(cones) == 1

    joins = count_calls(monkeypatch, "join_metric", unimet.cones)
    assert run(["build", "join", join_file, "--oracle"])[0] == 0
    assert len(joins) == 1


BUILD_TREES = {
    "quotient": {"space": space_to_json(S3), "family": [[0, 1]]},
    "amalgam": {
        "left": space_to_json(S2),
        "right": space_to_json(S3),
        "gluing": {"pairs": [[0, 0]]},
    },
    "adjunction": {
        "space": space_to_json(S3),
        "subset": [0, 1],
        "target": space_to_json(S2),
        "attaching": {"pairs": [[0, 0], [1, 1]]},
    },
    # Each telescope stage attaches a cylinder to the previous stage's
    # adjunction result, which the next stage checks again.
    "telescope": truncation_to_json(TOWER),
}


@pytest.mark.parametrize("kind", sorted(BUILD_TREES))
def test_each_built_matrix_is_scanned_once(monkeypatch, tmp_path, kind):
    """A construction that only re-flags a space it already scanned keeps
    the scan, so a later check of its result reads that scan instead of
    scanning a copy."""
    scanned = []
    original = unimet.spaces._scan_axioms

    def counted(space, *triangle):
        scanned.append(space.dist)
        return original(space, *triangle)

    monkeypatch.setattr(unimet.spaces, "_scan_axioms", counted)
    code, out, err = run(["build", kind, write(tmp_path, "in.json", BUILD_TREES[kind])])
    assert code == 0, err
    assert scanned and len(scanned) == len(set(scanned))


@pytest.mark.parametrize("argv, tree, full, chained", [
    (["build", "quotient"], BUILD_TREES["quotient"], 1, 1),
    (["build", "amalgam"], BUILD_TREES["amalgam"], 2, 1),
    (["build", "adjunction"], BUILD_TREES["adjunction"], 4, 1),
    # The join's two l1 products keep a scan without the triangle test too.
    (["build", "join", "--oracle"], {"left": space_to_json(S2), "right": space_to_json(S3)}, 5, 3),
    (["build", "telescope"], truncation_to_json(retraction_tower(5)), 9, 3),
])
def test_a_chain_limit_is_scanned_without_its_triangle_test(
    monkeypatch, tmp_path, argv, tree, full, chained
):
    """A build scans in full its inputs and the spaces it builds outside
    the chain engine, and scans each chain-engine result, whose powers
    settled, with the triangle test left out: neither the packing of the
    rows nor the witness walk runs on that result's matrix."""
    scans, triangle_tested = [], []
    original = unimet.spaces._scan_axioms

    def counted(space, triangle=True):
        scans.append((space.ints, triangle))
        return original(space, triangle)

    monkeypatch.setattr(unimet.spaces, "_scan_axioms", counted)
    for name in ("packed_rows", "first_triangle_witness"):
        def tested(m, *rest, kernel=getattr(unimet.spaces, name)):
            triangle_tested.append(m)
            return kernel(m, *rest)

        monkeypatch.setattr(unimet.spaces, name, tested)
    path = write(tmp_path, "in.json", tree)
    code, out, err = run([*argv[:2], path, *argv[2:]])
    assert code == 0, err
    assert sum(triangle for _, triangle in scans) == full
    results = [m for m, triangle in scans if not triangle]
    assert len(results) == chained
    assert not any(m is r for m in triangle_tested for r in results)


@pytest.mark.parametrize("left, right", [(S2, S3), (S3, S3)], ids=["S2-S3", "S3-S3"])
def test_the_join_oracle_scans_its_cones_in_full_and_not_its_products(
    monkeypatch, tmp_path, left, right
):
    """The full scans of ``build join --oracle``: the two factors, the join
    and the two cones of the amalgam comparison.  Each l1 product of a cone
    with a factor, and the glued union of the two, is scanned without its
    triangle test."""
    scans = []
    original = unimet.spaces._scan_axioms

    def counted(space, triangle=True):
        scans.append((space.n, triangle))
        return original(space, triangle)

    monkeypatch.setattr(unimet.spaces, "_scan_axioms", counted)
    tree = {"left": space_to_json(left), "right": space_to_json(right)}
    code, out, err = run(["build", "join", write(tmp_path, "in.json", tree), "--oracle"])
    assert code == 0, err
    # The default grid -1, -1/2, 0, 1/2, 1: each cone has three slices, the
    # apex's included, and the join three inner slices.
    cones = [2 * left.n + 1, 2 * right.n + 1]
    join = left.n + right.n + 3 * left.n * right.n
    assert sorted(n for n, triangle in scans if triangle) == sorted(
        [left.n, right.n, join, *cones])
    products = [cones[0] * right.n, left.n * cones[1]]
    glued = sum(products) - left.n * right.n
    assert sorted(n for n, triangle in scans if not triangle) == sorted([*products, glued])


# ---- metrize ----


def test_metrize_ball_sequence(tmp_path):
    seq = fundamental_sequence_to_json(ball_fundamental_sequence(S3, 3))
    code, out, err = run(["metrize", write(tmp_path, "seq.json", seq)])
    assert code == 0, err
    assert any(name.startswith("gauge within") for name in rows(out))


def test_metrize_rejects_a_sequence_without_star_refinement(tmp_path):
    bad = {
        "covers": [
            {"ground": 3, "sets": [[0, 1, 2]]},
            {"ground": 3, "sets": [[0, 1], [1, 2]]},
            {"ground": 3, "sets": [[0, 1], [1, 2]]},
        ]
    }
    code, out, err = run(["metrize", write(tmp_path, "badseq.json", bad)])
    assert code == 1, err


def test_metrize_checks_star_refinement_once(tmp_path, monkeypatch):
    """The report row and ``au_metrize`` read one witness: one
    ``star_refines`` call per level after the first."""
    seq = fundamental_sequence_to_json(ball_fundamental_sequence(S3, 4))
    calls = []
    star_refines = unimet.covers.star_refines
    monkeypatch.setattr(unimet.covers, "star_refines",
                        lambda *a: calls.append(a) or star_refines(*a))
    assert run(["metrize", write(tmp_path, "seq.json", seq)])[0] == 0
    assert len(calls) == 3


def test_metrize_refuses_a_ground_past_the_cap(tmp_path, monkeypatch):
    """The cap is named before the star-refinement row, even on a sequence
    that fails star-refinement; at the cap the sequence metrizes."""
    monkeypatch.setattr(unimet.covers, "GROUND_CAP", 2)
    bad = {"covers": [{"ground": 3, "sets": [[0, 1], [1, 2]]}] * 2}
    refusal = "precondition failed: 3 points exceed the metrization's GROUND_CAP = 2\n"
    assert run(["metrize", write(tmp_path, "bad.json", bad)]) == (1, "", refusal)
    seq = fundamental_sequence_to_json(ball_fundamental_sequence(S2, 3))
    assert run(["metrize", write(tmp_path, "seq.json", seq)])[0] == 0


def test_metrize_refuses_a_wide_ground_in_memory_linear_in_it(tmp_path):
    """A file naming 10^5 points is refused in the words it had when covers
    kept no masks, a cover missing points as not a cover and a whole one by
    the cap, tracing well under a megabyte per thousand points: no mask is
    built before the cap is asked."""
    ground = 10**5
    sparse = {"covers": [{"ground": ground, "sets": [[0]]}]}
    whole = {"covers": [{"ground": ground, "sets": [list(range(ground))]}]}
    tracemalloc.start()
    try:
        got = [run(["metrize", write(tmp_path, "sparse.json", sparse)]),
               run(["metrize", write(tmp_path, "whole.json", whole)])]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [
        (2, "", f"input error: not a cover: points {list(range(1, ground))} uncovered\n"),
        (1, "", f"precondition failed: {ground} points exceed the metrization's "
                f"GROUND_CAP = {unimet.covers.GROUND_CAP}\n"),
    ]
    assert peak < 64 * 2**20


def test_metrize_refuses_a_bool_ground(tmp_path):
    bad = {"covers": [{"ground": True, "sets": [[0]]}]}
    code, out, err = run(["metrize", write(tmp_path, "bool.json", bad)])
    assert (code, out) == (2, "") and err.startswith("input error:")


def test_metrize_stops_at_the_clique_cap(tmp_path):
    seq = fundamental_sequence_to_json(moon_moser_sequence(10))
    code, out, err = run(["metrize", write(tmp_path, "cliques.json", seq)])
    assert code == 1 and out == ""
    assert err.startswith("precondition failed:") and "CLIQUE_CAP" in err


# ---- embed ----


def test_embed_certifies_injectivity(s3):
    code, out, err = run(["embed", s3])
    assert code == 0, err
    assert "map is injective" in rows(out)


def test_embed_support_keys_sort_as_text(s3):
    """Support coordinates print as string keys in text order ("10" before
    "2"), as every report has; S3's images hold coordinates 1 to 11."""
    code, out, err = run(["embed", s3])
    assert code == 0, err
    # Every object as its key-value pairs, in the order they print.
    results = dict(json.loads(out, object_pairs_hook=list))["results"]
    [embedded] = [dict(r) for r in results if ("check", "embedded images") in r]
    keys = [
        [k for k, _ in dict(dict(witness)["image"])["support"]]
        for witness in embedded["witnesses"]
    ]
    assert any("2" in k and "11" in k for k in keys)
    assert all(k == sorted(k) for k in keys)


def test_embed_diameter_rescale_and_depth(tmp_path, s3):
    big = write(tmp_path, "big.json", space_to_json(space("xy", {(0, 1): "3/2"})))
    code, out, err = run(["embed", big])
    assert code == 1 and "diameter" in err
    code, out, err = run(["embed", big, "--rescale"])
    assert code == 0, err
    code, out, err = run(["embed", s3, "--depth", "0"])
    assert code == 1, err


def test_embed_names_the_diameter_remedy_once(tmp_path):
    wide = write(tmp_path, "wide.json", space_to_json(space("xy", {(0, 1): "3"})))
    refusal = (
        "precondition failed: aharoni_embed has diameter 3 > 1; "
        "rescale explicitly first (rescaled_to_diameter)\n"
    )
    assert run(["embed", wide]) == (1, "", refusal)


def test_embed_refuses_a_space_past_the_point_cap(tmp_path):
    """One point past ``POINT_CAP`` is refused by name, with or without
    ``--rescale``; at the cap the space embeds."""
    def flat(n):
        rows = [[int(i != j) for j in range(n)] for i in range(n)]
        return write(tmp_path, f"flat_{n}.json", {"points": list(range(n)), "dist": rows})

    n = POINT_CAP + 1
    refusal = f"precondition failed: {n} points exceed the embedding's POINT_CAP = {POINT_CAP}\n"
    assert run(["embed", flat(n)]) == (1, "", refusal)
    assert run(["embed", flat(n), "--rescale"]) == (1, "", refusal)
    assert run(["embed", flat(POINT_CAP)])[0] == 0


@pytest.mark.parametrize("rescale", [False, True], ids=["plain", "rescale"])
def test_embed_refuses_the_empty_space_by_name(tmp_path, rescale):
    """``check`` accepts the empty space; ``embed`` refuses it as a
    precondition, before any cover is built."""
    empty = write(tmp_path, "empty.json", EMPTY)
    assert run(["check", empty])[0] == 0
    refusal = "precondition failed: aharoni_embed needs a nonempty space\n"
    assert run(["embed", empty] + ["--rescale"] * rescale) == (1, "", refusal)


def test_a_huge_diameter_is_named_briefly(tmp_path):
    """A diameter of 4,001 digits is refused with a message of bounded
    length that names the bound."""
    huge = {"points": [0, 1], "dist": [["0", "1e4000"], ["1e4000", "0"]]}
    code, out, err = run(["embed", write(tmp_path, "huge.json", huge)])
    assert (code, out) == (1, "")
    assert len(err.encode()) < 300
    assert "diameter about 1.000e4000 > 1;" in err


def test_embed_refuses_a_depth_past_the_cap(tmp_path, s3):
    """A spread past 2^DEPTH_CAP, or a --depth past the cap, is refused
    before any level is built; a report value too long to print is an
    input error, not a traceback."""
    tiny = space("abc", {(0, 1): "1", (0, 2): "1", (1, 2): f"1/{2 ** 300}"})
    spread = write(tmp_path, "spread.json", space_to_json(tiny))
    code, out, err = run(["embed", spread])
    assert (code, out) == (1, "") and f"DEPTH_CAP = {DEPTH_CAP}" in err
    code, out, err = run(["embed", s3, "--depth", DEPTH_CAP + 1])
    assert (code, out) == (1, "") and f"DEPTH_CAP = {DEPTH_CAP}" in err
    assert run(["embed", s3, "--depth", DEPTH_CAP])[0] == 0
    # Rescaled, the distance 1e-4000 becomes 1e-8000: 8,001 digits.
    huge = {(0, 1): "1e4000", (0, 2): "1e4000", (1, 2): "1e-4000"}
    wide = write(tmp_path, "wide.json", space_to_json(space("abc", huge)))
    code, out, err = run(["embed", wide, "--rescale"])
    assert (code, out) == (1, "") and f"DEPTH_CAP = {DEPTH_CAP}" in err
    code, out, err = run(["embed", wide, "--rescale", "--depth", "2"])
    assert (code, out) == (2, "") and "cannot be printed" in err


def test_embed_prints_the_ints_as_their_fractions(tmp_path):
    """``embed`` prints the modulus of continuity and the images from the
    embedding's ints over ``big``: the rows are those ints as Fractions, as
    ``jsonable`` writes them."""
    sp = wide_space(random.Random(787), 9)
    path = write(tmp_path, "wide.json", space_to_json(sp))
    code, out, err = run(["embed", path, "--rescale"])
    assert code == 0, err
    unit = sp.rescaled_to_diameter(ONE)
    emb = aharoni_embed(unit, sufficient_depth(unit))
    printed = rows(out)
    assert printed["modulus of continuity"]["witnesses"] == jsonable(
        [list(pair) for pair in continuity_rows(emb.certificate)])
    assert printed["embedded images"]["witnesses"] == jsonable([
        {"point": point,
         "image": {"support": {k: Fraction(v, emb.big) for k, v in support.items()}, "tail": ZERO}}
        for point, support in zip(unit.points, emb.supports)
    ])
    assert any("/" in v for w in printed["embedded images"]["witnesses"]
               for v in w["image"]["support"].values())


# ---- invlim ----


def test_invlim_threads_and_ml(tmp_path, tower):
    halving = write(tmp_path, "halv.json", truncation_to_json(halving_chain(5, 6)))
    assert run(["invlim", "threads", tower])[0] == 0
    assert run(["invlim", "ml", tower])[0] == 0
    assert run(["invlim", "ml", halving])[0] == 1


@pytest.mark.parametrize(
    "chain, converge_code, cauchy_code",
    [
        (TOWER, 0, 0),
        (halving_chain(5, 6), 1, 0),
        (window_chain(4), 1, 1),
        (empty_top_chain(), 1, 0),
    ],
    ids=["tower", "halving", "window", "empty-top"],
)
def test_invlim_converge_and_cauchy(tmp_path, chain, converge_code, cauchy_code):
    path = write(tmp_path, "chain.json", truncation_to_json(chain))
    code, out, err = run(["invlim", "converge", path])
    assert code == converge_code, err
    code, out, err = run(["invlim", "cauchy", path])
    assert code == cauchy_code, err


def test_invlim_threads_on_a_long_truncation(tmp_path):
    """1,200 one-point levels: deeper than the recursion limit, so the
    depths and the threads must be built one bond at a time, without
    recursion."""
    level = {"points": ["p"], "dist": [["0"]]}
    long = {"levels": [level] * 1200, "bonds": [[0]] * 1199}
    code, out, err = run(["invlim", "threads", write(tmp_path, "long.json", long)])
    assert code == 0, err
    assert rows(out)["one thread per top-level point"]["scalars"] == {"threads": 1}


def test_invlim_refuses_a_truncation_past_the_level_cap(tmp_path):
    level = {"points": ["p"], "dist": [["0"]]}
    long = {"levels": [level] * (LEVEL_CAP + 1), "bonds": [[0]] * LEVEL_CAP}
    code, out, err = run(["invlim", "converge", write(tmp_path, "long.json", long)])
    assert (code, out) == (1, "")
    assert err == (
        f"precondition failed: {LEVEL_CAP + 1} levels exceed LEVEL_CAP = {LEVEL_CAP}\n"
    )


def test_an_over_cap_truncation_is_refused_before_its_levels_are_parsed(tmp_path):
    """The last of LEVEL_CAP + 1 levels holds "zz", an input error once it
    is parsed: the level count is refused first."""
    level = {"points": ["p"], "dist": [["0"]]}
    bad = {"points": ["p"], "dist": [["zz"]]}
    long = {"levels": [level] * LEVEL_CAP + [bad], "bonds": [[0]] * LEVEL_CAP}
    code, out, err = run(["invlim", "threads", write(tmp_path, "long.json", long)])
    assert (code, out) == (1, "") and "LEVEL_CAP" in err


def test_invlim_at_the_level_cap_traces_memory_linear_in_it(tmp_path):
    """Every mode but ``perturb`` reads one survival depth per point, so on
    LEVEL_CAP one-point levels nothing holds an entry per pair of levels
    (1,124,250 pairs) and the traced peak stays well under a megabyte per
    hundred levels."""
    level = {"points": ["p"], "dist": [["0"]]}
    long = {"levels": [level] * LEVEL_CAP, "bonds": [[0]] * (LEVEL_CAP - 1)}
    path = str(write(tmp_path, "cap.json", long))
    # ``main``, not ``run``: validating 3,000-row reports against the schema
    # would take most of the traced time, and the other invlim tests do it.
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["invlim", mode, path]) for mode in INVLIM_MODES if mode != "perturb"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == [0] * 5
    assert peak < 16 * 2**20


def test_invlim_separate_passes(tower):
    code, out, err = run(["invlim", "separate", tower])
    assert code == 0, err
    assert all_pass(out)


def _identity_ladder():
    doc = truncation_to_json(TOWER)
    doc["cross"] = [list(range(TOWER.levels[i].n)) for i in range(TOWER.top + 1)]
    return doc


def test_invlim_perturb_exact_self_ladder(tmp_path):
    path = write(tmp_path, "lad.json", _identity_ladder())
    code, out, err = run(["invlim", "perturb", path])
    assert code == 0, err
    limit_rows = [r for name, r in rows(out).items() if name.startswith("limit map at")]
    assert limit_rows and all(r["scalars"]["measured"] == "0" for r in limit_rows)


def test_invlim_perturb_detects_an_over_budget_cross_map(tmp_path):
    doc = _identity_ladder()
    doc["cross"][2] = [0, 2, 1]
    doc["alphas"] = ["0"] * TOWER.top
    code, out, err = run(["invlim", "perturb", write(tmp_path, "badlad.json", doc)])
    assert code == 1, err
    failing = [
        name
        for name, r in rows(out).items()
        if r["status"] == "fail" and "ladder square" in name
    ]
    assert failing


def test_invlim_perturb_names_a_continuity_budget_witness(tmp_path):
    """Budgets of alpha 1 and beta 1/1000 fail the continuity rows; each
    failing row carries the lexicographically first pair within alpha
    whose images lie past the bound."""
    doc = _identity_ladder()
    doc["alphas"] = ["1"] * TOWER.top
    doc["betas"] = ["1/1000"] * (TOWER.top + 1)
    code, out, err = run(["invlim", "perturb", write(tmp_path, "tight.json", doc)])
    assert code == 1, err
    row = rows(out)["bonds from level 1 to 1 honor the alpha budget"]
    assert row["status"] == "fail"
    assert row["witnesses"] == [[0, 1, "1/8", "1/8"]]


@pytest.mark.parametrize("level, note", [
    (
        space(range(THREAD_CAP + 1), {
            (a, b): "1/2" for a in range(THREAD_CAP + 1) for b in range(a + 1, THREAD_CAP + 1)
        }),
        f"separation readouts skipped: a level exceeds the enumeration cap {THREAD_CAP}",
    ),
    (
        space("pq", {(0, 1): 3}),
        "separation readouts skipped: thread metrics need every level of diameter <= 1",
    ),
], ids=["past-the-cap", "too-wide"])
def test_invlim_perturb_notes_why_the_thread_metric_sections_are_skipped(tmp_path, level, note):
    doc = truncation_to_json(inverse_sequence([level], []))
    doc["cross"] = [list(range(level.n))]
    code, out, err = run(["invlim", "perturb", write(tmp_path, "one.json", doc)])
    assert code == 0, err
    found = rows(out)
    assert found["thread metric sections skipped"]["witnesses"] == [note]
    assert "limit map pinned within thresholds" not in found
    assert "certified injectivity is observed" not in found


# ---- determinism and --out ----


def test_reports_are_deterministic_and_fold_in_the_seed(s3):
    first = run(["check", s3, "--seed", "7"])
    assert first[:2] == run(["check", s3, "--seed", "7"])[:2]
    assert run(["check", s3, "--seed", "8"])[1] != first[1]


def test_out_writes_the_bytes_stdout_would_carry(tmp_path, s3):
    code, printed, err = run(["check", s3])
    assert code == 0, err
    target = tmp_path / "r.json"
    code, out, err = run(["check", s3, "--out", target])
    assert code == 0 and out == ""
    data = target.read_bytes()
    assert data == printed.encode("ascii")
    report = json.loads(data)
    REPORTS.validate(report)
    assert report["exit_status"] == 0
    assert data == canonical_bytes(report)


# ---- the command echo ----


def subcommands():
    """Each subcommand's parser by name, as ``build_parser`` builds it."""
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


# A value for each flag that takes one.  Depth 0 and seed 0 are falsy and
# must still be echoed; embed refuses depth 0, so it runs at depth 1.
FLAG_VALUES = {"--seed": "0", "--depth": "0", "--grid": "0,1"}


# The flags each build kind reads besides --seed and --out; it refuses the
# others with a usage error.
BUILD_FLAGS_READ = {
    "cone": {"--grid", "--oracle"},
    "join": {"--grid", "--oracle"},
    "cylinder": {"--grid", "--oracle"},
    "adjunction": set(),
    "amalgam": set(),
    "quotient": set(),
    "telescope": {"--grid", "--depth"},
}


def test_the_command_echo_names_every_flag_but_out(tmp_path, s3, tower):
    """Every subcommand with every flag it reads; build runs twice, as a
    telescope (--grid, --depth) and as a cone (--grid, --oracle)."""
    seq = fundamental_sequence_to_json(ball_fundamental_sequence(S3, 3))
    runs = [
        ("check", [s3]),
        ("build", ["telescope", tower]),
        ("build", ["cone", s3]),
        ("metrize", [write(tmp_path, "seq.json", seq)]),
        ("embed", [s3]),
        ("invlim", ["threads", tower]),
    ]
    parsers = subcommands()
    for number, (name, positionals) in enumerate(runs):
        argv, echoed = [name, *positionals], []
        for action in parsers[name]._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag in (None, "--help", "--out"):
                continue
            if name == "build" and flag not in BUILD_FLAGS_READ[positionals[0]] | {"--seed"}:
                continue
            if action.nargs == 0:
                argv.append(flag)
                echoed.append(flag)
            else:
                value = "1" if (name, flag) == ("embed", "--depth") else FLAG_VALUES[flag]
                argv += [flag, value]
                echoed.append(f"{flag}={value}")
        report = tmp_path / f"{number}.report.json"
        code, out, err = run([*argv, "--out", report])
        assert code in (0, 1) and out == "", (name, err)
        command = json.loads(report.read_text())["command"]
        assert [c for c in command if c.startswith("--")] == sorted(echoed), name


# ---- grid errors, from the command line and from the library ----


# Per kind: the grid bounds (both ends required), a grid with a value out of
# range and a grid missing an end.
GRID_CASES = {
    "cone": (ZERO, ONE, "0,1,2", "0,1/2"),
    "join": (-ONE, ONE, "-1,1,2", "0,1"),
    "cylinder": (ZERO, ONE, "-1,0,1", "1/2,1"),
    "telescope": (ZERO, ONE, "0,3/2,1", "0"),
}


@pytest.mark.parametrize("broken", [2, 3], ids=["out-of-range", "missing-end"])
@pytest.mark.parametrize("kind", GRID_CASES)
def test_grid_errors_read_as_the_library_words_them(
    kind, broken, s3, join_file, cylinder_file, tower
):
    inputs = {"cone": s3, "join": join_file, "cylinder": cylinder_file, "telescope": tower}
    low, high = GRID_CASES[kind][:2]
    text = GRID_CASES[kind][broken]
    with pytest.raises(PreconditionError) as raised:
        parameter_grid(text.split(","), low, high, (low, high))
    code, out, err = run(["build", kind, inputs[kind], f"--grid={text}"])
    assert (code, out, err) == (1, "", f"precondition failed: {raised.value}\n")


def test_a_grid_value_out_of_range_exits_1_in_the_library_words(s3):
    code, out, err = run(["build", "cone", s3, "--grid", "0,2"])
    assert (code, out) == (1, "")
    assert err == "precondition failed: grid value 2 outside [0, 1]\n"


def test_a_grid_that_starts_below_zero_may_follow_its_flag(join_file, s3):
    """``--grid -1,1`` reads as ``--grid=-1,1``, though argparse would take
    ``-1,1`` for an option, and so does each abbreviation argparse expands
    to ``--grid``; ``--grid -1/2`` reaches the library's own range check."""
    joined = run(["build", "join", join_file, "--grid=-1,1"])
    assert joined[0] == 0
    for flag in ("--grid", "--gri", "--gr", "--g"):
        assert run(["build", "join", join_file, flag, "-1,1"])[:2] == joined[:2], flag
    code, out, err = run(["build", "cone", s3, "--grid", "-1/2"])
    assert (code, out) == (1, "")
    assert err == "precondition failed: grid value -1/2 outside [0, 1]\n"


UNREAD_BUILD_FLAGS = [
    (kind, flag)
    for kind, read in BUILD_FLAGS_READ.items()
    for flag in ("--grid", "--depth", "--oracle")
    if flag not in read
]


@pytest.mark.parametrize("kind, flag", UNREAD_BUILD_FLAGS)
def test_build_refuses_a_flag_its_kind_never_reads(kind, flag, tmp_path, monkeypatch):
    """A usage error (exit 2) naming the flag and the kind, raised before
    the input file is read: the path given does not exist."""
    value = {"--grid": ["0,1"], "--depth": ["0"], "--oracle": []}[flag]
    argv = ["build", kind, str(tmp_path / "missing.json"), flag, *value]
    stderr = BUILD_USAGE + f"unimet build: error: argument {flag}: not read by build {kind}\n"
    assert exits(argv, monkeypatch) == (2, "", stderr)


def test_usage_lists_every_build_kind_and_invlim_mode():
    found = subcommands()
    kinds = "{cone,join,cylinder,adjunction,amalgam,quotient,telescope}"
    assert kinds in found["build"].format_usage()
    assert "{threads,ml,converge,cauchy,separate,perturb}" in found["invlim"].format_usage()


# ---- the argparse surface, pinned byte for byte ----


USAGE = "usage: unimet [-h] {check,build,metrize,embed,invlim} ...\n"
CHECK_USAGE = "usage: unimet check [-h] [--pseudo] [--seed SEED] [--out OUT] path\n"
BUILD_USAGE = """\
usage: unimet build [-h] [--grid GRID] [--depth DEPTH] [--oracle]
                    [--seed SEED] [--out OUT]
                    {cone,join,cylinder,adjunction,amalgam,quotient,telescope}
                    path
"""
INVLIM_USAGE = """\
usage: unimet invlim [-h] [--seed SEED] [--out OUT]
                     {threads,ml,converge,cauchy,separate,perturb} path
"""
SEED_HELP = "  --seed SEED  unsigned 64-bit seed folded into the input digest\n"
OUT_HELP = "  --out OUT    write the report to this path instead of stdout\n"
HELP_TEXTS = {
    "": USAGE + """
exact metric constructions on finite spaces

positional arguments:
  {check,build,metrize,embed,invlim}
    check               audit the metric axioms of a space file
    build               run a construction and certify it
    metrize             metrize a fundamental sequence of covers
    embed               embed a space into weighted sequence space
    invlim              analyze an inverse sequence truncation

options:
  -h, --help            show this help message and exit
""",
    "check": CHECK_USAGE + """
positional arguments:
  path         JSON space file

options:
  -h, --help   show this help message and exit
  --pseudo     accept distance zero between distinct points
""" + SEED_HELP + OUT_HELP,
    "build": BUILD_USAGE + """
positional arguments:
  {cone,join,cylinder,adjunction,amalgam,quotient,telescope}
  path                  JSON input bundle for the chosen kind

options:
  -h, --help            show this help message and exit
  --grid GRID           comma separated rational parameter values
  --depth DEPTH         stop level for telescope builds
  --oracle              also check cone, join and cylinder builds against
                        their oracles
  --seed SEED           unsigned 64-bit seed folded into the input digest
  --out OUT             write the report to this path instead of stdout
""",
    "metrize": """\
usage: unimet metrize [-h] [--seed SEED] [--out OUT] path

positional arguments:
  path         JSON fundamental sequence file

options:
  -h, --help   show this help message and exit
""" + SEED_HELP + OUT_HELP,
    "embed": """\
usage: unimet embed [-h] [--depth DEPTH] [--rescale] [--seed SEED] [--out OUT]
                    path

positional arguments:
  path           JSON space file

options:
  -h, --help     show this help message and exit
  --depth DEPTH  number of scales (default: enough to separate points)
  --rescale      rescale the space to diameter 1 first
  --seed SEED    unsigned 64-bit seed folded into the input digest
  --out OUT      write the report to this path instead of stdout
""",
    "invlim": INVLIM_USAGE + """
positional arguments:
  {threads,ml,converge,cauchy,separate,perturb}
  path                  JSON truncation file (perturb: with cross, alphas,
                        betas)

options:
  -h, --help            show this help message and exit
  --seed SEED           unsigned 64-bit seed folded into the input digest
  --out OUT             write the report to this path instead of stdout
""",
}
USAGE_ERRORS = {
    "no command": (
        [], USAGE + "unimet: error: the following arguments are required: command\n"
    ),
    "unknown command": (
        ["bogus"],
        USAGE + "unimet: error: argument command: invalid choice: 'bogus' "
        "(choose from 'check', 'build', 'metrize', 'embed', 'invlim')\n",
    ),
    "unknown build kind": (
        ["build", "bogus", "x.json"],
        BUILD_USAGE + "unimet build: error: argument kind: invalid choice: 'bogus' "
        "(choose from 'cone', 'join', 'cylinder', 'adjunction', 'amalgam', "
        "'quotient', 'telescope')\n",
    ),
    "unknown invlim mode": (
        ["invlim", "bogus", "x.json"],
        INVLIM_USAGE + "unimet invlim: error: argument mode: invalid choice: 'bogus' "
        "(choose from 'threads', 'ml', 'converge', 'cauchy', 'separate', 'perturb')\n",
    ),
    "extra positional": (
        ["check", "a.json", "b.json"],
        USAGE + "unimet: error: unrecognized arguments: b.json\n",
    ),
    "grid without a value": (
        ["build", "cone", "x.json", "--grid", "--oracle"],
        BUILD_USAGE + "unimet build: error: argument --grid: expected one argument\n",
    ),
    "seed not an integer": (
        ["check", "a.json", "--seed", "abc"],
        CHECK_USAGE
        + "unimet check: error: argument --seed: seed must be an integer, got 'abc'\n",
    ),
    "seed out of range": (
        ["check", "a.json", "--seed", "-1"],
        CHECK_USAGE + "unimet check: error: argument --seed: seed must fit in an "
        "unsigned 64-bit integer\n",
    ),
}


def exits(argv, monkeypatch):
    """Exit code, stdout and stderr of a run that argparse ends, with help
    wrapped at 80 columns; ``argv`` None reads ``sys.argv``."""
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as raised:
            main(argv)
    return raised.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", HELP_TEXTS)
def test_help_texts_are_pinned(command, monkeypatch):
    argv = [command, "--help"] if command else ["--help"]
    assert exits(argv, monkeypatch) == (0, HELP_TEXTS[command], "")


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_errors_are_pinned(case, monkeypatch):
    argv, stderr = USAGE_ERRORS[case]
    assert exits(argv, monkeypatch) == (2, "", stderr)


@pytest.mark.parametrize("case", ["no command", "unknown command", "extra positional"])
def test_usage_errors_read_the_process_arguments(case, monkeypatch):
    argv, stderr = USAGE_ERRORS[case]
    monkeypatch.setattr(sys, "argv", ["unimet", *argv])
    assert exits(None, monkeypatch) == (2, "", stderr)


def test_a_kept_parser_leaks_nothing_between_runs(monkeypatch, join_file, s3):
    """One in-process sequence on the kept parsers gives, run by run, what
    the same run gives on parsers built afresh: the usage error of build's
    ``usage_error``, help wrapped at 40 and then at 80 columns, a build
    whose grid starts below zero, and a check."""
    def outcome(argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
        return code, out.getvalue(), err.getvalue()

    sequence = [
        (["build", "cone", str(s3), "--depth", "1"], "80"),
        (["build", "--help"], "40"),
        (["build", "--help"], "80"),
        (["build", "join", str(join_file), "--grid", "-1,1"], "80"),
        (["check", str(s3)], "80"),
    ]
    kept = [outcome(argv, columns) for argv, columns in sequence]
    fresh = []
    for argv, columns in sequence:
        build_parser.cache_clear()
        fresh.append(outcome(argv, columns))
    assert kept == fresh
    assert [code for code, _, _ in kept] == [2, 0, 0, 0, 0]
    assert kept[1] != kept[2] and kept[2] == (0, HELP_TEXTS["build"], "")


# ---- the report schema ----


def test_report_schema_ties_the_exit_status_to_failing_rows(s3):
    Draft202012Validator.check_schema(SCHEMA)
    code, out, err = run(["check", s3])
    report = json.loads(out)
    assert code == 0 and REPORTS.is_valid(report)
    report["results"][0]["status"] = "fail"
    assert not REPORTS.is_valid(report)
    report["exit_status"] = 1
    assert REPORTS.is_valid(report)
    report["results"][0]["status"] = "skipped"
    assert not REPORTS.is_valid(report)


# ---- malformed and oversized input ----


@pytest.mark.parametrize("value", [BIG_INT_MARK, BIG_EXPONENT], ids=["literal", "exponent"])
@pytest.mark.parametrize("command", [["check"], ["embed"], ["build", "cone"]], ids="-".join)
def test_oversized_numbers_exit_2(tmp_path, command, value):
    doc = space_to_json(S3)
    doc["dist"][0][1] = doc["dist"][1][0] = value
    code, out, err = run([*command, write(tmp_path, "big.json", doc)])
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("entry", ["1" * 5000, "x" * 5000], ids=["digits", "letters"])
def test_a_long_bad_scalar_is_named_briefly(tmp_path, entry):
    """A 5,000-character entry that does not parse is echoed as a prefix
    and its length; a short one is echoed whole, as it always was."""
    doc = space_to_json(S2)
    doc["dist"][0][1] = doc["dist"][1][0] = entry
    code, out, err = run(["check", write(tmp_path, "long.json", doc)])
    assert (code, out) == (2, "") and len(err) < 200
    assert err.startswith("input error: cannot parse scalar from '") and "(5000 characters)" in err
    doc["dist"][0][1] = doc["dist"][1][0] = "abc"
    code, out, err = run(["check", write(tmp_path, "short.json", doc)])
    assert (code, err) == (2, "input error: cannot parse scalar from 'abc'\n")


def test_a_long_bad_grid_entry_is_named_briefly(s3):
    code, out, err = run(["build", "cone", s3, "--grid", "0," + "9" * 5000 + "x,1"])
    assert (code, out) == (1, "") and len(err) < 200
    assert "is not a rational" in err and "(5001 characters)" in err


def test_bytes_that_are_not_utf8_exit_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"points": ["\xe9"], "dist": [["0"]]}'.encode("latin-1"))
    code, out, err = run(["check", path])
    assert (code, out) == (2, "") and err.startswith("input error:")


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(["check", path])
    assert (code, out) == (2, "") and err.startswith("input error: invalid JSON")


def nested_label(depth):
    label = "x"
    for _ in range(depth):
        label = [label]
    return label


@pytest.mark.parametrize("command", [["check"], ["build", "cone"]], ids="-".join)
def test_a_label_nested_past_the_cap_exits_2(tmp_path, command):
    doc = space_to_json(S2)
    doc["points"][0] = nested_label(LABEL_DEPTH_CAP)
    code, out, err = run([*command, write(tmp_path, "cap.json", doc)])
    assert code == 0, err
    for depth in (LABEL_DEPTH_CAP + 1, 900):
        doc["points"][0] = nested_label(depth)
        code, out, err = run([*command, write(tmp_path, "deep.json", doc)])
        assert (code, out) == (2, ""), depth
        assert err == f"input error: point label nests over {LABEL_DEPTH_CAP} arrays deep\n"


def test_a_report_refuses_a_value_json_has_no_form_for():
    with pytest.raises(StructuralError, match="cannot serialize set"):
        canonical_bytes({"results": [{0, 1}]})


TRUNCATION = truncation_to_json(TOWER)
# Each input kind: a valid document, the commands that read it, and the
# places to break it.  A place is a key path and the kind of value it holds:
# "tree" (an array or object), "index" (a point index) or "scalar".
SPACE_PLACES = [
    (("points",), "tree"),
    (("dist",), "tree"),
    (("dist", 1), "tree"),
    (("dist", 0, 1), "scalar"),
]
TRUNCATION_PLACES = [
    (("levels",), "tree"),
    (("bonds",), "tree"),
    (("levels", 1), "tree"),
    (("levels", 1, "points"), "tree"),
    (("levels", 1, "dist", 0, 1), "scalar"),
    (("bonds", 0), "tree"),
    (("bonds", 0, "pairs", 0, 1), "index"),
]


def under(key, places):
    """``places`` of a space, moved under ``key`` of the document."""
    return [((key, *path), kind) for path, kind in places]


MAP_PLACES = [((), "tree"), (("pairs",), "tree"), (("pairs", 0, 0), "index"),
              (("pairs", 0, 1), "index")]
FUZZ_INPUTS = [
    (space_to_json(S3), [["check"], ["embed"], ["embed", "--rescale"], ["build", "cone"]],
     SPACE_PLACES),
    ({"space": space_to_json(S3), "family": [[0, 1]]}, [["build", "quotient"]],
     under("space", SPACE_PLACES) + [
        (("family",), "family"),
        (("family", 0), "tree"),
        (("family", 0, 1), "index"),
    ]),
    ({"space": space_to_json(S3), "class_of": [0, 0, 1]}, [["build", "quotient"]],
     under("space", SPACE_PLACES) + [(("class_of",), "tree"), (("class_of", 1), "index")]),
    ({"left": space_to_json(S2), "right": space_to_json(S3), "gluing": {"pairs": [[0, 0]]}},
     [["build", "amalgam"]],
     under("left", SPACE_PLACES) + under("right", SPACE_PLACES)
     + under("gluing", MAP_PLACES)),
    (BUILD_TREES["adjunction"], [["build", "adjunction"]],
     under("space", SPACE_PLACES) + under("target", SPACE_PLACES)
     + under("attaching", MAP_PLACES) + [(("subset",), "tree"), (("subset", 1), "index")]),
    ({"source": space_to_json(S3), "target": space_to_json(S2), "mapping": [0, 1, 1]},
     [["build", "cylinder"]],
     under("source", SPACE_PLACES) + under("target", SPACE_PLACES)
     + [(("mapping",), "tree"), (("mapping", 2), "index")]),
    ({"left": space_to_json(S2), "right": space_to_json(S3)}, [["build", "join"]],
     under("left", SPACE_PLACES) + under("right", SPACE_PLACES)),
    (fundamental_sequence_to_json(ball_fundamental_sequence(S3, 3)), [["metrize"]], [
        (("covers",), "tree"),
        (("covers", 1, "sets"), "tree"),
        (("covers", 1, "sets", 0), "tree"),
        (("covers", 1, "sets", 0, 0), "index"),
    ]),
    (TRUNCATION, [["invlim", mode] for mode in INVLIM_MODES if mode != "perturb"]
     + [["build", "telescope"]], TRUNCATION_PLACES),
    (dict(TRUNCATION, cross=[list(range(level.n)) for level in TOWER.levels]),
     [["invlim", "perturb"]], TRUNCATION_PLACES + [
        (("cross",), "tree"),
        (("cross", 1), "tree"),
        (("cross", 1, 0), "index"),
    ]),
]
WRONG_TYPES = [None, True, 0.5, "x", {}, [None], [[0.5]], {"pairs": 3}]
BAD_VALUES = {
    "tree": WRONG_TYPES + [[]],
    "index": WRONG_TYPES + [-1, 99],
    "scalar": WRONG_TYPES + ["1/0", BIG_EXPONENT, BIG_INT_MARK],
    # an empty family is a valid quotient by nothing
    "family": WRONG_TYPES + [[[99], [99]], [[0], [0, 99]]],
}


@st.composite
def malformed_runs(draw):
    """A command and its input document with one value replaced by a value
    of the wrong JSON type, an out-of-range index or an oversized scalar."""
    doc, commands, places = draw(st.sampled_from(FUZZ_INPUTS))
    command = draw(st.sampled_from(commands))
    path, kind = draw(st.sampled_from(places))
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.sampled_from(BAD_VALUES[kind]))
    return command, doc


@settings(max_examples=300)
@given(malformed_runs())
def test_malformed_input_never_prints_a_traceback(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = run([*command, write(directory, "bad.json", doc)])
    assert code in (1, 2), (command, doc, out)
    assert "Traceback" not in err
