"""Nonexpansive embedding of a finite metric space into sequence space.

Each scale n contributes one block of coordinates: a point-finite cover by
small sets, with the coordinate for member V measuring clamped distance to
the complement of V.  Small image distance at the scale's clamp forces the
two points into one member, whose diameter is controlled, which is the
quantitative separation certificate; injectivity follows once the scales
outrun the smallest positive distance.
"""
from __future__ import annotations

from dataclasses import dataclass

from .covers import (
    Cover,
    RefinementResult,
    ball_containment_number,
    ball_cover,
    point_finite_refinement,
)
from .errors import PreconditionError
from .moduli import ModulusTable, continuity_modulus
from .scalars import ONE, ZERO, Scalar, pow2
from .sequences import SequencePoint, sup_distance
from .spaces import FiniteMetricSpace, ensure_diameter_at_most, ensure_metric


@dataclass(frozen=True)
class LevelData:
    """One scale of the embedding.

    ``refinement`` is the point-finite cover construction for the closed
    r-ball cover at r = 2^-(n+2); ``clamp`` is the scale's coordinate cap:
    a containment number of the refined cover, at most 2^-n; the level's
    coordinates occupy global indices offset .. offset+members-1.
    """

    level: int
    refinement: RefinementResult
    clamp: Scalar
    offset: int

    @property
    def cover(self) -> Cover:
        return self.refinement.cover


@dataclass(frozen=True)
class SeparationRow:
    """One checked implication: close images force close points."""

    level: int
    image_threshold: Scalar
    point_bound: Scalar
    holds: bool


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Quantitative properties of the embedding, all checked exhaustively."""

    continuity: ModulusTable
    separation: tuple
    injective: bool
    nonexpansive_ok: bool
    coordinate_bounds_ok: bool

    def all_separation_rows_hold(self) -> bool:
        return all(row.holds for row in self.separation)


@dataclass(frozen=True)
class AharoniEmbedding:
    """The embedding map with its levels and certificate."""

    space: FiniteMetricSpace
    depth: int
    levels: tuple
    images: tuple
    certificate: EmbeddingCertificate

    def image_of(self, i: int) -> SequencePoint:
        return self.images[i]


def sufficient_depth(space: FiniteMetricSpace) -> int:
    """Smallest depth whose deepest separation bound certifies injectivity.

    The level-n bound is 2^(1-n); once it drops below the smallest positive
    distance, separated images force equal points.
    """
    floor = space.min_positive_distance()
    if floor is None:
        return 1
    n = 1
    while pow2(1 - n) >= floor:
        n += 1
    return n


def aharoni_embed(space: FiniteMetricSpace, depth: int) -> AharoniEmbedding:
    """Embed a space of diameter <= 1 into sequence space, scales 1..depth.

    Per scale n: cover by closed 2^-(n+2)-balls, refine point-finitely with
    the 1/5-radius ball helper (star-refinement holds with slack), clamp
    coordinates at a containment number <= 2^-n of the refined cover.  The
    coordinate for member V is min(d(x, complement of V), clamp), zero when
    V is the whole space.  The certificate checks: the map is nonexpansive,
    level-n coordinates lie in [0, 2^-n], and image distance <= clamp/2 at
    level n forces point distance <= 2^(1-n); injectivity is checked
    directly.
    """
    ensure_metric(space, "aharoni_embed")
    ensure_diameter_at_most(
        space, ONE, "aharoni_embed (rescale with rescaled_to_diameter)"
    )
    if not isinstance(depth, int) or depth < 1:
        raise PreconditionError("depth must be a positive integer")

    levels = []
    offset = 0
    for n in range(1, depth + 1):
        radius = pow2(-n - 2)
        target = ball_cover(space, radius)
        helper = ball_cover(space, radius / 5)
        try:
            refinement = point_finite_refinement(target, helper)
        except PreconditionError as exc:
            raise PreconditionError(f"refinement failed at level {n}: {exc}")
        clamp = ball_containment_number(space, refinement.cover, cap=pow2(-n))
        if clamp is None or clamp <= 0:
            raise PreconditionError(f"no positive containment number at level {n}")
        levels.append(LevelData(n, refinement, clamp, offset))
        offset += len(refinement.cover.members)

    everything = set(range(space.n))
    images = []
    for x in range(space.n):
        pairs = []
        for data in levels:
            for i, member in enumerate(data.cover.members):
                complement = everything - set(member)
                if complement:
                    value = min(space.d(x, c) for c in complement)
                    if value > data.clamp:
                        value = data.clamp
                else:
                    value = ZERO
                if value != 0:
                    pairs.append((data.offset + i, value))
        images.append(SequencePoint(tuple(pairs)))
    images = tuple(images)

    image_gaps = [
        [sup_distance(images[a], images[b]) for b in range(space.n)]
        for a in range(space.n)
    ]
    nonexpansive = all(
        image_gaps[a][b] <= space.d(a, b)
        for a in range(space.n)
        for b in range(space.n)
    )
    bounds_ok = True
    for data in levels:
        hi = pow2(-data.level)
        members = len(data.cover.members)
        for img in images:
            for idx, value in img.support:
                if data.offset <= idx < data.offset + members:
                    if not 0 <= value <= hi:
                        bounds_ok = False
    rows = []
    for data in levels:
        threshold = data.clamp / 2
        bound = pow2(1 - data.level)
        holds = all(
            image_gaps[a][b] > threshold or space.d(a, b) <= bound
            for a in range(space.n)
            for b in range(space.n)
        )
        rows.append(SeparationRow(data.level, threshold, bound, holds))
    injective = all(
        image_gaps[a][b] > 0
        for a in range(space.n)
        for b in range(a + 1, space.n)
    )
    image_space = FiniteMetricSpace(
        tuple(range(space.n)),
        tuple(tuple(row) for row in image_gaps),
        pseudo=not injective,
    )
    table = continuity_modulus(space, image_space, tuple(range(space.n)))
    certificate = EmbeddingCertificate(
        table, tuple(rows), injective, nonexpansive, bounds_ok
    )
    return AharoniEmbedding(space, depth, tuple(levels), images, certificate)
