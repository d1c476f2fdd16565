"""The two fast routes at the command boundary, each against the route it
replaced: the int-first parse of a distance matrix against ``as_scalar``
on every entry, and the one-pass report emitter against ``json.dumps``
with a ``default`` hook."""

import json
import string
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimet.errors import StructuralError
from unimet.jsonio import space_from_json
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
