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


def _render(value, indent: str) -> str:
    """``value`` as canonical JSON text, its nested lines at ``indent``.
    Strings inside a container are quoted in place, not by a call."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is Fraction:
        return '"' + format_scalar(value) + '"'
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        body = (",\n" + inner).join(
            [_quote(v) if type(v) is str else _render(v, inner) for v in value]
        )
        return "[\n" + inner + body + "\n" + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        for key in value:
            if type(key) is not str:
                raise StructuralError(
                    f"cannot serialize a {type(key).__name__} key into a report"
                )
        body = (",\n" + inner).join([
            _quote(k) + ": " + (_quote(v) if type(v) is str else _render(v, inner))
            for k, v in sorted(value.items())
        ])
        return "{\n" + inner + body + "\n" + indent + "}"
    raise StructuralError(f"cannot serialize {kind.__name__} into a report")


def canonical_bytes(tree) -> bytes:
    return (_render(tree, "") + "\n").encode("ascii")


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
