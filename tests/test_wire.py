"""The fast routes at the command boundary, each against the route it
replaced: the int-first parse of a distance matrix against ``as_scalar``
on every entry, the parse of each distinct entry once against the parse of
every entry, frozen in ``oracles``, a truncation or ladder file's levels
read through one shared entry table against each level read alone, the
space render from the stored form against the render of its ``Fraction``
view, also frozen there, and the one-pass report emitter, with its table
of key tuples, against ``json.dumps`` with a ``default`` hook."""

import gc
import json
import string
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import halving_chain, ladders, stored_spaces, truncation_to_json, truncations
from oracles import space_from_json_reference, space_to_json_reference
from unimet.errors import StructuralError
from unimet.invlim import inverse_sequence
from unimet.jsonio import (
    ladder_from_json,
    mapping_from_json,
    space_from_json,
    space_to_json,
    truncation_from_json,
)
from unimet.kernel import to_int_matrix
from unimet.reporting import canonical_bytes, jsonable
from unimet.scalars import as_scalar
from unimet.spaces import FiniteMetricSpace

# ---- the int-first parse ----

BIG_DIGITS = "7" * 5000
# Entries next to the wire format ``-?[0-9]+(/[0-9]+)?``: each parses, or
# fails, through ``as_scalar`` alone.
NEAR_MISSES = [
    "2/4", "-0", "007", "0/5", "-6/4", "+1", " 1", "1 ", "1\n", "1_000", "1e3",
    "1/0", "1/00", "١", "١/٢", "²", "0.5", "-.5", "1/-2", "1/+2", "1 /2", "1/ 2",
    "1/2/3", "/2", "1/", "-", "", "x", BIG_DIGITS, f"1/{BIG_DIGITS}",
    True, False, None, 0.5, [], {},
]
entries = st.one_of(
    st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30).map(str),
    st.builds(
        lambda p, q, zeros: f"{p}/{'0' * zeros}{q}",
        st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(0, 2),
    ),
    st.sampled_from(NEAR_MISSES),
)


def space_via_as_scalar(doc) -> FiniteMetricSpace:
    """The reference parse: every entry through ``as_scalar``, its errors
    read as input errors."""
    try:
        rows = [tuple(as_scalar(v) for v in row) for row in doc["dist"]]
    except (ValueError, TypeError) as exc:
        raise StructuralError(str(exc)) from exc
    return FiniteMetricSpace(tuple(doc["points"]), tuple(rows))


def outcome(parse, doc):
    try:
        return parse(doc)
    except StructuralError as exc:
        return f"StructuralError: {exc}"


@st.composite
def documents(draw):
    """A space document of up to four points over ``entries``; one row in
    eight has a wrong length."""
    n = draw(st.integers(0, 4))
    rows = [
        draw(st.lists(entries, min_size=n, max_size=n + (draw(st.integers(0, 7)) == 0)))
        for _ in range(n)
    ]
    return {"points": list(range(n)), "dist": rows}


@settings(max_examples=300)
@given(documents())
@example({"points": [0, 1], "dist": [["0", "2/4"], ["6/12", "0"]]})
@example({"points": [0, 1], "dist": [[0, 3], ["6/2", "-0"]]})
@example({"points": [0], "dist": [[f"0/{BIG_DIGITS[:40]}"]]})
def test_int_first_parse_equals_the_as_scalar_route(doc):
    got = outcome(space_from_json, doc)
    want = outcome(space_via_as_scalar, doc)
    assert got == want
    if isinstance(got, FiniteMetricSpace):
        assert got.dist == want.dist
        assert (got.ints, got.scale) == to_int_matrix(want.dist)


@pytest.mark.parametrize("entry", NEAR_MISSES, ids=repr)
def test_each_near_miss_parses_or_fails_as_as_scalar_does(entry):
    doc = {"points": ["p", "q"], "dist": [["0", entry], ["1/3", "0"]]}
    got = outcome(space_from_json, doc)
    assert got == outcome(space_via_as_scalar, doc)
    if isinstance(got, FiniteMetricSpace):
        assert (got.ints, got.scale) == to_int_matrix(got.dist)


@settings(max_examples=300)
@given(documents())
# A bool after the int it equals: True == 1, yet only the int is a scalar.
@example({"points": [0, 1], "dist": [[0, 1], [True, 0]]})
@example({"points": [0, 1], "dist": [[BIG_DIGITS, "1"], [1, BIG_DIGITS]]})
def test_the_parse_of_each_distinct_entry_equals_the_entry_by_entry_parse(doc):
    got = outcome(space_from_json, doc)
    assert got == outcome(space_from_json_reference, doc)


@pytest.mark.parametrize("entry", NEAR_MISSES, ids=repr)
def test_each_entry_form_read_once_parses_or_fails_as_each_time(entry):
    """Each form twice, after the ints 1 and 0 that a bool equals."""
    doc = {"points": ["p", "q", "r"],
           "dist": [["0", 1, 0], [entry, "0", entry], ["1/3", "1/3", "0"]]}
    assert outcome(space_from_json, doc) == outcome(space_from_json_reference, doc)


PAST_THE_LIMIT = [
    FiniteMetricSpace.from_int("ab", [[0, 10**5000], [10**5000, 0]], 3),
    FiniteMetricSpace.from_int("ab", [[0, 1], [1, 0]], 10**5000),
]


@given(stored_spaces())
@example(PAST_THE_LIMIT[0])
@example(PAST_THE_LIMIT[1])
def test_the_render_from_the_stored_form_equals_the_render_of_the_view(sp):
    fresh = FiniteMetricSpace.from_int(sp.points, sp.ints, sp.scale, sp.pseudo)
    assert outcome(space_to_json, fresh) == outcome(space_to_json_reference, sp)
    assert "dist" not in fresh.__dict__


@pytest.mark.parametrize("sp", PAST_THE_LIMIT, ids=["numerator", "denominator"])
def test_a_value_past_the_digit_limit_is_refused_as_format_scalar_refuses_it(sp):
    with pytest.raises(StructuralError, match="cannot be printed"):
        space_to_json(sp)


# ---- the one-pass emitter ----

texts = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé \U0001f600'),
              st.characters()),
    max_size=8,
)
leaves = st.one_of(
    texts,
    st.integers(-10**40, 10**40),
    st.sampled_from([10**4000, -(10**4000)]),
    st.booleans(),
    st.none(),
    st.fractions(),
)
keys = st.one_of(texts, st.text(string.ascii_lowercase + string.digits, max_size=3))
trees = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=24,
)


def dumps_reference(tree) -> bytes:
    text = json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=True, default=jsonable)
    return (text + "\n").encode("ascii")


@settings(max_examples=300)
@given(trees)
@example({"b": [], "a": {}, "10": (), "2": [Fraction(-3, 4), Fraction(5)]})
def test_the_emitter_equals_json_dumps(tree):
    assert canonical_bytes(tree) == dumps_reference(tree)


@given(trees, st.sampled_from([{0, 1}, frozenset(), 0.5, float("nan"), b"x"]),
       st.integers(0, 2))
def test_the_emitter_refuses_what_no_report_holds(tree, bad, where):
    wrapped = [{"k": [tree, bad]}, (bad,), {"k": bad, "j": tree}][where]
    with pytest.raises(StructuralError, match="cannot serialize"):
        canonical_bytes(wrapped)


@pytest.mark.parametrize("key", [0, None, True, Fraction(1, 2)], ids=repr)
def test_the_emitter_refuses_a_key_that_is_not_a_string(key):
    with pytest.raises(StructuralError, match="key into a report"):
        canonical_bytes({"a": 1, key: 2})


def test_the_emitter_leaves_nothing_for_the_cycle_collector():
    """A report's chunks are freed when the call returns or raises, not
    held by a reference cycle until the collector runs."""
    tree = {"results": [{"a": [1, {"b": Fraction(1, 2)}]}] * 3}
    gc.collect()
    gc.disable()
    try:
        canonical_bytes(tree)
        try:
            canonical_bytes([tree, 0.5])
        except StructuralError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# Key tuples that many report dicts share, and non-str keys to put in one.
SHAPES = [
    ("level", "epsilon", "holds_from", "witnessed"),
    ("check", "status", "witnesses", "scalars"),
    ("b", "10", "2"),
    ("a",),
]
BAD_KEYS = [0, None, True, Fraction(1, 2)]


@st.composite
def shaped_dicts(draw, inner):
    """A dict over one of ``SHAPES`` in a drawn insertion order; one in
    eight has one key replaced by a ``BAD_KEYS`` key."""
    keys = list(draw(st.sampled_from(SHAPES)))
    if draw(st.integers(0, 7)) == 0:
        keys[draw(st.integers(0, len(keys) - 1))] = draw(st.sampled_from(BAD_KEYS))
    return {key: draw(inner) for key in draw(st.permutations(keys))}


shaped_trees = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=6), shaped_dicts(inner)),
    max_leaves=40,
)


def first_bad_key(tree):
    """The keys that are not a ``str`` of the first dict, in the order a
    canonical walk meets the dicts, that has one, in insertion order; None
    when no dict has one.  A list, since None is a key too."""
    if type(tree) in (list, tuple):
        children = tree
    elif type(tree) is dict:
        bad = [key for key in tree if type(key) is not str]
        if bad:
            return bad
        children = [tree[key] for key in sorted(tree)]
    else:
        return None
    for child in children:
        found = first_bad_key(child)
        if found:
            return found
    return None


@settings(max_examples=300)
@given(shaped_trees)
@example([{"b": 1, "a": 2}, {"a": 3, "b": 4}, [{"a": [], "b": {}}]])
@example([{"a": 1, "b": 2}, {"a": 3, 0: 4}, {"a": 5, "b": 6}])
def test_the_emitter_reads_each_key_tuple_as_json_dumps_sorts_it(tree):
    """Dicts that share a key tuple, in one insertion order or several,
    render as ``json.dumps`` renders them; a tree with a key that is not a
    string is refused, naming the first such key's type."""
    bad = first_bad_key(tree)
    if bad is None:
        assert canonical_bytes(tree) == dumps_reference(tree)
    else:
        with pytest.raises(StructuralError) as refusal:
            canonical_bytes(tree)
        assert str(refusal.value) == (
            f"cannot serialize a {type(bad[0]).__name__} key into a report")


# ---- truncation and ladder files through one entry table ----


def stored(sp):
    return sp.points, sp.ints, sp.scale, sp.pseudo


def ladder_document(data):
    return {
        **truncation_to_json(data.source),
        "target": truncation_to_json(data.target),
        "cross": [list(images) for images in data.cross],
        "indices": list(data.indices),
    }


@given(truncations(max_levels=5), st.none() | ladders())
@example(halving_chain(5, 6), None)
def test_each_level_read_through_the_file_table_is_the_level_read_alone(truncation, case):
    """Level by level, a truncation or a ladder file read through one table
    of parsed entries gives the stored form of its level read alone."""
    doc = truncation_to_json(truncation)
    read = truncation_from_json(doc)
    assert [stored(sp) for sp in read.levels] == [
        stored(space_from_json(level)) for level in doc["levels"]]
    if case is None:
        return
    doc = ladder_document(case.data)
    data = ladder_from_json(doc)
    for got, levels in ((data.source, doc["levels"]), (data.target, doc["target"]["levels"])):
        assert [stored(sp) for sp in got.levels] == [
            stored(space_from_json(level)) for level in levels]


def truncation_via_lone_levels(doc):
    """The reference read: each level through its own ``space_from_json``."""
    levels = [space_from_json(level) for level in doc["levels"]]
    return inverse_sequence(levels, [mapping_from_json(bond) for bond in doc["bonds"]])


@given(truncations(max_levels=4), st.data())
def test_a_malformed_entry_in_a_later_level_is_refused_as_when_read_alone(truncation, data):
    """One entry of a level past the first, replaced by a ``NEAR_MISSES``
    form, by a string that no earlier level holds, or by an int, parses or
    fails as the levels read one by one do."""
    if truncation.top == 0:
        return
    doc = truncation_to_json(truncation)
    level = doc["levels"][data.draw(st.integers(1, truncation.top))]
    row = data.draw(st.sampled_from(level["dist"]))
    col = data.draw(st.integers(0, len(row) - 1))
    row[col] = data.draw(st.sampled_from([*NEAR_MISSES, "13/17", "-2", 3]))
    got = outcome(truncation_from_json, doc)
    want = outcome(truncation_via_lone_levels, doc)
    if isinstance(want, str):
        assert got == want
    else:
        assert [stored(sp) for sp in got.levels] == [stored(sp) for sp in want.levels]


def test_a_bool_after_the_int_it_equals_in_an_earlier_level_is_refused():
    doc = {
        "levels": [{"points": [0, 1], "dist": [[0, 1], [1, 0]]},
                   {"points": [0, 1], "dist": [[0, True], [1, 0]]}],
        "bonds": [[0, 1]],
    }
    assert outcome(truncation_from_json, doc) == outcome(truncation_via_lone_levels, doc)
    assert "booleans are not scalars" in outcome(truncation_from_json, doc)
