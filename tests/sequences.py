"""Points of sequence space with finite support over an explicit constant tail.

A ``SequencePoint`` models an element of the bounded sequence space whose
coordinates are eventually constant: finitely many explicit coordinates plus a
``tail`` value taken by every other index.  The sup-norm distance between two
such points is exact (beyond the union of supports both sequences sit at their
tails), so images in sequence space can be certified in rational arithmetic.
The test suite's reference models (the cone models, the cubohedra) and its
embedding oracles build their sequence-space images from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from unimet.errors import StructuralError
from unimet.scalars import ZERO, Scalar, ScalarLike, as_scalar


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

