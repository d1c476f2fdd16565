"""JSON wire formats: readers for every shape the command line takes in,
and the space writer, ``space_to_json``, which prints each distinct int of
the stored form once, through the table of ``scalars.ratio_texts`` over the
scale.

Scalars travel as exact strings ("p/q", or "p" for integers; decimal
strings parse too); ``scalars.as_scalar`` owns their rules and refuses
floats and booleans, so rounding error never enters the exact layer.
A distance matrix takes a fast path for the wire format every writer
emits: a JSON int, or a string matching ``-?[0-9]+(/[0-9]+)?`` with a
nonzero denominator, is read with ``int``, and the space is built from
the entries over their common denominator with
``FiniteMetricSpace.from_int``, whose gcd step leaves the least integer
form, the one form a space stores.  Each distinct string or int entry of
a matrix is parsed once, and each row is then mapped through one table
from entry to int over the common denominator.  Every other entry (a sign,
whitespace, an underscore, a decimal, an exponent, a zero denominator, a
non-ASCII digit, a bool, null, or digits past
``sys.get_int_max_str_digits()``) goes through ``as_scalar``, so it
parses, or fails, exactly as it would alone.  Truncation levels are
spaces, so they take the same path, once their count is checked.  The
levels of one file, a ladder's target levels included, share one table of
parsed entries: each distinct entry of the file is parsed once, and each
level is still built over its own entries' least common denominator.

Point labels map JSON arrays to tuples, at most ``LABEL_DEPTH_CAP`` deep;
rational labels serialize to their scalar strings and come back as
strings, which is fine because labels are opaque identifiers.

Shapes:
  FiniteMetricSpace   {"points": [label], "dist": [[scalar]], "pseudo"?: bool}
  map                 {"pairs": [[srcIdx, tgtIdx]]} (or a bare image array)
  Cover               {"ground": n, "sets": [[indices]]}
  FundamentalSequence {"covers": [Cover]}
  classes             {"class_of": [classIdx per point]}
  truncation          {"levels": [FiniteMetricSpace], "bonds": [map]}
  ladder              truncation plus {"cross": [map], "alphas": [scalar],
                      "betas": [scalar]} and optional {"target": truncation,
                      "indices": [n_i]}

``load_document`` returns a file's bytes, which the report digest hashes,
and their JSON tree.  All malformed input raises StructuralError, never a
bare JSON, key, decoding or recursion error.
"""
from __future__ import annotations

import json
import re
from math import lcm
from typing import Optional

from .errors import StructuralError
from .reporting import jsonable
from .scalars import Scalar, as_scalar, ratio_texts
from .spaces import FiniteMetricSpace, index_set

# Array nesting a point label may reach; deeper labels are refused before
# reading them, or writing them into a report, could exhaust the stack.
LABEL_DEPTH_CAP = 64


# The wire format of an exact scalar, ASCII digits only: ``int`` alone would
# also take a sign, whitespace, underscores and other scripts' digits.
_WIRE_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch
# The JSON types of a distance entry that can be read: strings and ints.
_WIRE_TYPES = {str, int}


# ---- primitives ----


def scalar_from_json(value) -> Scalar:
    try:
        return as_scalar(value)
    except (ValueError, TypeError) as exc:
        raise StructuralError(str(exc)) from exc


def _ratio_from_json(value) -> tuple:
    """A distance entry as (numerator, denominator > 0), not necessarily
    reduced: the wire format is read with ``int``, anything else through
    ``scalar_from_json`` with its errors."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        found = _WIRE_SCALAR(value)
        if found is not None:
            num, den = found.groups()
            try:
                if den is None:
                    return int(num), 1
                q = int(den)
                if q:
                    return int(num), q
            except ValueError:  # digits past sys.get_int_max_str_digits()
                pass
    x = scalar_from_json(value)
    return x.numerator, x.denominator


def label_from_json(value, depth: int = 0):
    if isinstance(value, list):
        if depth == LABEL_DEPTH_CAP:
            raise StructuralError(f"point label nests over {LABEL_DEPTH_CAP} arrays deep")
        return tuple(label_from_json(v, depth + 1) for v in value)
    if isinstance(value, float):
        raise StructuralError(f"float label {value!r}; use a scalar string")
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise StructuralError(f"unsupported label {value!r}")


def expect_key(obj, key: str, what: str):
    if not isinstance(obj, dict):
        raise StructuralError(f"{what} must be a JSON object")
    if key not in obj:
        raise StructuralError(f"{what} is missing the {key!r} key")
    return obj[key]


def _index_list(value, what: str) -> list:
    # One set of entry types: a bool's type is bool, not int, so it is
    # refused with every other non-int.
    if not isinstance(value, list) or not {*map(type, value)} <= {int}:
        raise StructuralError(f"{what} must be an array of integers")
    return list(value)


# ---- spaces and maps ----


def space_from_json(obj) -> FiniteMetricSpace:
    return _space_from_json(obj, {})


def _space_from_json(obj, read: dict) -> FiniteMetricSpace:
    """The space of ``obj``, its distance entries read through ``read``, a
    table from each entry to (numerator, denominator) that every space of
    one file shares: an entry already in it is not parsed again.  The space
    is built over the least common denominator of its own entries."""
    points = expect_key(obj, "points", "a metric space")
    dist = expect_key(obj, "dist", "a metric space")
    if not isinstance(points, list) or not isinstance(dist, list):
        raise StructuralError("space points and dist must be arrays")
    labels = tuple(label_from_json(p) for p in points)
    # Each distinct entry is read once, row by row, so the first entry that
    # fails is the first in row order.  A row of str and int entries only
    # is read through the table; any other row is read entry by entry, so
    # that a bool, which equals an int (True == 1), is still refused.
    fresh = not read
    for row in dist:
        if not isinstance(row, list):
            raise StructuralError("dist must be an array of arrays")
        if {*map(type, row)} <= _WIRE_TYPES:
            for v in row:
                if v not in read:
                    read[v] = _ratio_from_json(v)
        else:
            for v in row:
                read.setdefault(v, _ratio_from_json(v))
    pseudo = obj.get("pseudo", False)
    if not isinstance(pseudo, bool):
        raise StructuralError("pseudo must be a boolean")
    # A table that held nothing before this space holds its entries alone.
    own = read if fresh else {v: read[v] for v in set().union(*dist)}
    scale = lcm(*{q for _, q in own.values()})
    table = {v: p * (scale // q) for v, (p, q) in own.items()}
    m = [list(map(table.__getitem__, row)) for row in dist]
    return FiniteMetricSpace.from_int(labels, m, scale, pseudo)


def space_to_json(space: FiniteMetricSpace) -> dict:
    text = ratio_texts(set().union(*space.ints), space.scale)
    out = {
        "points": jsonable(space.points),
        "dist": [list(map(text.__getitem__, row)) for row in space.ints],
    }
    if space.pseudo:
        out["pseudo"] = True
    return out


def mapping_from_json(obj) -> dict:
    """A map as {"pairs": [[src, tgt]]} or a bare array of images."""
    if isinstance(obj, list):
        images = _index_list(obj, "a map image array")
        return {i: t for i, t in enumerate(images)}
    pairs = expect_key(obj, "pairs", "a map")
    if not isinstance(pairs, list):
        raise StructuralError("map pairs must be an array")
    out: dict = {}
    for pair in pairs:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise StructuralError(f"map pair {pair!r} must be [srcIdx, tgtIdx]")
        if pair[0] in out:
            raise StructuralError(f"map defines source index {pair[0]} twice")
        out[pair[0]] = pair[1]
    return out


def subset_from_json(obj) -> tuple:
    return tuple(sorted(set(_index_list(obj, "a subset"))))


# ---- covers ----


def cover_from_json(obj) -> Cover:
    from .covers import Cover

    ground = expect_key(obj, "ground", "a cover")
    sets = expect_key(obj, "sets", "a cover")
    if not isinstance(sets, list):
        raise StructuralError("cover sets must be an array")
    members = tuple(tuple(_index_list(member, "a cover member")) for member in sets)
    return Cover(ground, members)


def fundamental_sequence_from_json(obj) -> FundamentalSequence:
    from .covers import FundamentalSequence, check_ground_size

    covers = expect_key(obj, "covers", "a fundamental sequence")
    if not isinstance(covers, list) or not covers:
        raise StructuralError("a fundamental sequence needs a nonempty covers array")
    first = cover_from_json(covers[0])
    check_ground_size(first.ground)
    levels = (first, *map(cover_from_json, covers[1:]))
    return FundamentalSequence(first.ground, levels)


def classes_from_json(obj, space: FiniteMetricSpace) -> list:
    """The member indices of each class that ``obj["class_of"]`` assigns
    the points of ``space`` to.  The classes are 0 up to the largest index,
    and each must be hit; only the empty space has none."""
    from .quotients import class_members

    class_of = _index_list(expect_key(obj, "class_of", "a quotient file"), "class_of")
    if len(class_of) != space.n:
        raise StructuralError("class_of must assign every point")
    count = max(class_of, default=-1) + 1
    index_set(class_of, count, "class index")
    classes = class_members(class_of, count)
    missing = [c for c, members in enumerate(classes) if not members]
    if missing:
        raise StructuralError(f"classes {missing} are empty")
    return classes


# ---- truncations and ladders ----


def truncation_from_json(obj) -> InverseSequenceTruncation:
    return _truncation_from_json(obj, {})


def _truncation_from_json(obj, read: dict) -> InverseSequenceTruncation:
    """The truncation of ``obj``, its levels read through the shared entry
    table ``read`` (see ``_space_from_json``)."""
    from .invlim import check_level_count, inverse_sequence

    levels = expect_key(obj, "levels", "a truncation")
    bonds = expect_key(obj, "bonds", "a truncation")
    if not isinstance(levels, list) or not isinstance(bonds, list):
        raise StructuralError("truncation levels and bonds must be arrays")
    check_level_count(len(levels))
    spaces = [_space_from_json(level, read) for level in levels]
    maps = [mapping_from_json(bond) for bond in bonds]
    return inverse_sequence(spaces, maps)


def ladder_from_json(obj) -> LadderData:
    """Ladder file: the truncation keys plus cross maps and budgets.

    Without a "target" key the ladder runs against the file's own
    truncation (cross maps perturb the levels in place); "alphas" omitted
    means measured defects, so the closeness hypotheses hold.  "betas"
    omitted means each beta_j is the larger of one ninth of level j's
    smallest positive distance and the least scale at which every bond
    composite into level j meets its continuity bound at its alpha, so the
    continuity hypotheses hold too (see ``invlim.ladder``).
    """
    from .invlim import ladder

    read: dict = {}
    source = _truncation_from_json(obj, read)
    target = _truncation_from_json(obj["target"], read) if "target" in obj else source
    cross_raw = expect_key(obj, "cross", "a ladder")
    if not isinstance(cross_raw, list):
        raise StructuralError("ladder cross maps must be an array")
    cross = [mapping_from_json(m) for m in cross_raw]
    indices: Optional[tuple] = None
    if "indices" in obj:
        indices = tuple(_index_list(obj["indices"], "ladder indices"))
    alphas = None
    if "alphas" in obj:
        if not isinstance(obj["alphas"], list):
            raise StructuralError("ladder alphas must be an array")
        alphas = [scalar_from_json(a) for a in obj["alphas"]]
    betas = None
    if "betas" in obj:
        if not isinstance(obj["betas"], list):
            raise StructuralError("ladder betas must be an array")
        betas = [scalar_from_json(b) for b in obj["betas"]]
    return ladder(source, target, cross, indices=indices, alphas=alphas, betas=betas)


# ---- file plumbing ----


def load_document(path: str) -> tuple:
    """The bytes of the file at ``path`` and their JSON tree.  Bytes that
    are not UTF-8, malformed JSON, nesting past the recursion limit and an
    integer literal over ``sys.get_int_max_str_digits()`` are input errors."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    try:
        return data, json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise StructuralError(f"invalid JSON: {exc}") from exc
