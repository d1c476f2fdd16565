"""Deterministic report assembly for the command line.

A report is a schema-versioned JSON document: the echoed command, a digest
of the input file, an ordered list of named check results, and the exit
status.  Rendering is canonical (sorted keys, two-space indent, trailing
newline) and takes one walk: the encoder prints what JSON has, and hands
only Fractions to ``jsonable``, which prints them as "p/q" strings.  No
report holds a float, so identical inputs always produce byte-identical
bytes.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import StructuralError
from .scalars import format_scalar

SCHEMA_VERSION = 1


def jsonable(value):
    """Normalize a value tree into deterministic JSON-ready form; the
    report encoder calls it only for the values it cannot print."""
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


def canonical_bytes(tree) -> bytes:
    return (
        json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=True, default=jsonable)
        + "\n"
    ).encode("ascii")


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
