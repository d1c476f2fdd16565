"""Reproduce the ROADMAP baseline table: library calls, not CLI commands.

    python3 perfbench/baseline.py

Each case is timed around one call of the library function and printed
next to the wall time ROADMAP.md recorded for it.  This is a report, not a
gated workload: nothing here is checked against a bound.
"""
from __future__ import annotations

import os
import random
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import dyadic_weight, random_metric, retraction_tower  # noqa: E402


def roadmap_weight(rng):
    # The ROADMAP cases used denominator 8 with numerators up to 16.
    return Fraction(rng.randint(1, 16), 8)


def cases():
    """(name, ROADMAP seconds, zero-argument call) for every table row."""
    from unimet.cylinders import mapping_cylinder_metric
    from unimet.embedding import aharoni_embed, sufficient_depth
    from unimet.invlim import inverse_sequence, telescope_metric
    from unimet.quotients import quotient_by_discrete_family
    from unimet.spaces import FiniteMetricSpace, check_metric_axioms

    rng = random.Random("baseline:0")

    def space(n, weight):
        dist = random_metric(rng, n, weight)
        return FiniteMetricSpace(tuple(range(n)), tuple(tuple(r) for r in dist))

    out = []
    for n, wall in ((40, 0.23), (80, 1.47)):
        s = space(n, roadmap_weight)
        out.append((f"check_metric_axioms n={n}", wall,
                    lambda s=s: check_metric_axioms(s)))
    for n, wall in ((40, 1.76), (80, 9.97)):
        s = space(n, roadmap_weight)
        out.append((f"quotient_by_discrete_family n={n}, one 3-point class", wall,
                    lambda s=s: quotient_by_discrete_family(s, [[0, 1, 2]])))
    grid = (Fraction(0), Fraction(1, 2), Fraction(1))
    for n, wall in ((10, 0.30), (20, 2.55)):
        source, target = space(n, dyadic_weight), space(4, dyadic_weight)
        mapping = [rng.randrange(4) for _ in range(n)]
        out.append((f"mapping_cylinder_metric source {n} pts", wall,
                    lambda a=source, b=target, m=mapping:
                    mapping_cylinder_metric(a, b, m, grid)))
    for depth, wall in ((4, 0.15), (6, 1.56), (8, 9.8)):
        levels, bonds = retraction_tower(depth, Fraction(1, 8))
        tower = inverse_sequence(
            [FiniteMetricSpace(tuple(p), tuple(tuple(r) for r in d)) for p, d in levels],
            bonds)
        out.append((f"telescope_metric retraction_tower depth {depth}", wall,
                    lambda t=tower: telescope_metric(t, 0, t.top)))
    s = space(32, dyadic_weight)
    out.append(("aharoni_embed n=32, sufficient depth", 0.33,
                lambda: aharoni_embed(s, sufficient_depth(s))))
    return out


def main() -> int:
    print(f"{'case':58s} {'ROADMAP':>9s} {'now':>9s}")
    for name, roadmap, call in cases():
        start = time.perf_counter()
        call()
        print(f"{name:58s} {roadmap:8.2f}s {time.perf_counter() - start:8.2f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
