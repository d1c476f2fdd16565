"""Points of sequence space with finite support over an explicit constant tail.

A ``SequencePoint`` models an element of the bounded sequence space whose
coordinates are eventually constant: finitely many explicit coordinates plus a
``tail`` value taken by every other index.  The sup-norm distance between two
such points is exact (beyond the union of supports both sequences sit at their
tails), so embeddings and retractions can be certified in rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import PreconditionError, StructuralError
from .scalars import ZERO, Scalar, ScalarLike, as_scalar


@dataclass(frozen=True)
class SequencePoint:
    """Finitely supported sequence over a constant tail.

    ``support`` holds (index, value) pairs, sorted by index, none equal to the
    tail (the constructor canonicalizes), so equality of dataclasses is
    equality of sequences.
    """

    support: tuple = ()
    tail: Scalar = ZERO

    def __post_init__(self) -> None:
        if not isinstance(self.tail, Fraction):
            raise StructuralError("tail must be an exact scalar")
        seen = set()
        cleaned = []
        for entry in self.support:
            if len(entry) != 2:
                raise StructuralError("support entries must be (index, value)")
            idx, val = entry
            if not isinstance(idx, int) or idx < 0:
                raise StructuralError("support indices must be nonnegative integers")
            if not isinstance(val, Fraction):
                raise StructuralError("support values must be exact scalars")
            if idx in seen:
                raise StructuralError(f"duplicate support index {idx}")
            seen.add(idx)
            if val != self.tail:
                cleaned.append((idx, val))
        cleaned.sort()
        object.__setattr__(self, "support", tuple(cleaned))

    @staticmethod
    def from_dict(support: Mapping[int, ScalarLike], tail: ScalarLike = 0) -> "SequencePoint":
        t = as_scalar(tail)
        entries = tuple((int(i), as_scalar(v)) for i, v in support.items())
        return SequencePoint(entries, t)

    def value(self, index: int) -> Scalar:
        for i, v in self.support:
            if i == index:
                return v
        return self.tail

    def support_indices(self) -> tuple:
        return tuple(i for i, _ in self.support)

    def as_dict(self) -> dict:
        return {i: v for i, v in self.support}

    def map_values(self, fn) -> "SequencePoint":
        """Apply fn to every coordinate (support values and the tail)."""
        return SequencePoint(tuple((i, fn(v)) for i, v in self.support), fn(self.tail))


def sup_distance(a: SequencePoint, b: SequencePoint) -> Scalar:
    """Exact sup-norm distance: beyond both supports the gap is |tail-tail|."""
    best = abs(a.tail - b.tail)
    indices = set(a.support_indices()) | set(b.support_indices())
    for i in indices:
        gap = abs(a.value(i) - b.value(i))
        if gap > best:
            best = gap
    return best


def _ensure_unit_interval(x: SequencePoint, what: str) -> None:
    if not (0 <= x.tail <= 1):
        raise PreconditionError(f"{what}: tail {x.tail} outside [0, 1]")
    for i, v in x.support:
        if not (0 <= v <= 1):
            raise PreconditionError(f"{what}: coordinate {i} value {v} outside [0, 1]")


def distance_to_vanishing_tail(x: SequencePoint) -> Scalar:
    """Sup-distance from x to the set of sequences with tail 0.

    The tail value is that distance: any tail-0 sequence differs from x by at
    least |tail| on all but finitely many coordinates, and the retraction
    below achieves it.
    """
    _ensure_unit_interval(x, "q0 distance")
    return x.tail


def q0_retract(x: SequencePoint) -> SequencePoint:
    """Retract onto the tail-0 subspace: subtract the tail, clamping at 0.

    Coordinatewise r(x)_n = 0 if x_n < t else x_n - t, where t is x's tail.
    Idempotent, identity on tail-0 points, and d(x, r(x)) = t exactly.
    """
    _ensure_unit_interval(x, "q0_retract")
    t = x.tail
    entries = []
    for i, v in x.support:
        entries.append((i, ZERO if v < t else v - t))
    return SequencePoint(tuple(entries), ZERO)


def tail_ramp(v: Scalar, t: Scalar) -> Scalar:
    """The contraction profile: v -> max(0, 1 - (1 - v)(1 + t)) on [0, 1].

    t = 0 is the identity; t = 1 collapses [0, 1/2] to 0 and stretches the
    rest linearly onto [0, 1]; 1 is fixed throughout.
    """
    candidate = 1 - (1 - v) * (1 + t)
    return candidate if candidate > 0 else ZERO


def tail_contraction(x: SequencePoint, t: ScalarLike) -> SequencePoint:
    """Apply the contraction profile to every coordinate (tail included)."""
    tt = as_scalar(t)
    if not (0 <= tt <= 1):
        raise PreconditionError(f"homotopy parameter {tt} outside [0, 1]")
    _ensure_unit_interval(x, "tail_contraction")
    return x.map_values(lambda v: tail_ramp(v, tt))
