"""Deterministic report assembly for the command line.

A report is a schema-versioned JSON document: the echoed command, a digest
of the input file, an ordered list of named check results, and the exit
status.  Rendering is canonical (sorted keys, two-space indent, trailing
newline, ASCII only) and takes one walk with no ``default`` hook: the
emitter prints strings, ints, bools, None, lists, tuples and dicts with
``str`` keys exactly as ``json.dumps(tree, sort_keys=True, indent=2,
ensure_ascii=True)`` would, and each Fraction through ``format_scalar`` as
a "p/q" string.  Any other type, a float, a set or a subclass of the
above, is refused: no report holds a float, so identical inputs always
produce byte-identical bytes.

The walk appends to one list of chunks and joins it once.  Report rows
repeat a few key tuples many times, so each distinct tuple is checked,
sorted and quoted once per call, in a table the call owns: a later dict
whose keys equal a checked tuple is written through it unchecked.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .errors import StructuralError
from .scalars import format_scalar

SCHEMA_VERSION = 1


def jsonable(value):
    """Normalize a value tree into deterministic JSON-ready form, as a
    space file writes its labels."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, int):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise StructuralError(f"cannot serialize {type(value).__name__} into a report")


def _fraction_text(value: Fraction) -> str:
    return '"' + format_scalar(value) + '"'


# The text of each leaf, by its exact type: a subclass is no leaf.
_LEAVES = {
    str: _quote,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    Fraction: _fraction_text,
}


def canonical_bytes(tree) -> bytes:
    """``tree`` as canonical JSON bytes, in one walk that appends to one
    list of chunks.  A dict's keys are checked, sorted and quoted once per
    distinct key tuple at each depth of the call: a dict that repeats one
    reads them from the call's table.  A leaf inside a container is
    written in place, not by a call of the walk."""
    chunks = []
    put = chunks.append
    shapes = {}
    leaf_text = _LEAVES.get

    def emit(value, indent):
        kind = type(value)
        if kind is list or kind is tuple:
            if not value:
                put("[]")
                return
            inner = indent + "  "
            sep, head = ",\n" + inner, "[\n" + inner
            for v in value:
                put(head)
                head = sep
                text = leaf_text(type(v))
                if text is None:
                    emit(v, inner)
                else:
                    put(text(v))
            put("\n" + indent + "]")
        elif kind is dict:
            if not value:
                put("{}")
                return
            inner = indent + "  "
            shape = (inner, *value)
            heads = shapes.get(shape)
            if heads is None:
                for key in value:
                    if type(key) is not str:
                        raise StructuralError(
                            f"cannot serialize a {type(key).__name__} key into a report"
                        )
                # Each key after the first opens its line with a comma.
                heads = shapes[shape] = [
                    (key, (",\n" if pos else "{\n") + inner + _quote(key) + ": ")
                    for pos, key in enumerate(sorted(value))
                ]
            for key, head in heads:
                put(head)
                v = value[key]
                text = leaf_text(type(v))
                if text is None:
                    emit(v, inner)
                else:
                    put(text(v))
            put("\n" + indent + "}")
        else:
            text = leaf_text(kind)
            if text is None:
                raise StructuralError(f"cannot serialize {kind.__name__} into a report")
            put(text(value))

    # ``emit`` refers to itself: clearing it breaks that cycle, so the
    # chunks are freed on return, not by the cycle collector.
    try:
        emit(tree, "")
    finally:
        del emit
    put("\n")
    return "".join(chunks).encode("ascii")


def digest_inputs(data: bytes, seed: Optional[int] = None) -> str:
    """SHA-256 over the raw input bytes, their length first, and the seed."""
    h = hashlib.sha256()
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)
    h.update(str(seed).encode("ascii"))
    return h.hexdigest()


@dataclass
class ReportBuilder:
    """Collects check rows; ``finish`` freezes the document tree."""

    command: list
    inputs_digest: str
    results: list = field(default_factory=list)

    def add(self, name: str, status: str, witnesses=(), scalars=None) -> None:
        if status not in ("pass", "fail", "info"):
            raise StructuralError(f"unknown report status {status!r}")
        self.results.append(
            {
                "check": name,
                "status": status,
                "witnesses": list(witnesses),
                "scalars": dict(scalars) if scalars else {},
            }
        )

    def check(self, name: str, ok: bool, witnesses=(), scalars=None) -> bool:
        self.add(name, "pass" if ok else "fail", witnesses, scalars)
        return ok

    def info(self, name: str, witnesses=(), scalars=None) -> None:
        self.add(name, "info", witnesses, scalars)

    @property
    def all_passed(self) -> bool:
        return all(row["status"] != "fail" for row in self.results)

    def finish(self, exit_status: int) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": list(self.command),
            "inputs_digest": self.inputs_digest,
            "results": list(self.results),
            "exit_status": exit_status,
        }
