"""Seeded input files and operation lists for the benchmark workloads.

Everything here is built from ``random.Random(seed)`` and exact
``Fraction`` arithmetic, without importing ``unimet``: the program under
test only ever sees the JSON files written by ``write_fixtures``.  The same
seed always yields byte-identical files.

Each workload is a list of ``Op``: one ``unimet`` command line over one
fixture file, with the exit code it must return.  The expected codes follow
the contract asserted in ``smoke_cli.py`` (valid inputs exit 0, violated
preconditions and failing check rows exit 1); where a code depends on the
seeded input (the multi-class quotient), it is decided here by the
brute-force oracles of ``tests/oracles.py`` on the class blocks.

Run as a script to generate one workload's fixtures and time the set-up:

    python3 perfbench/workloads.py --workload chain --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("chain", "tower", "audit")

ZERO = Fraction(0)
# Pairwise coprime denominators for the wide-spectrum audit spaces.
WIDE_DENOMINATORS = (7, 11, 13, 17, 19, 23, 29, 31)
# File the cold-start probe checks: the smallest useful space.
COLD_START_FILE = "two_points.json"
# The op list, written next to the fixtures for the process that runs it.
OPS_FILE = "ops.json"
# Runs in a row of each ``invlim`` command: one takes a few milliseconds,
# too short to time against the speed kernel of ``speed.py``.
QUICK_REPEAT = 10


@dataclass(frozen=True)
class Op:
    """One CLI command: ``unimet <command...> <fixture> <flags...>``,
    run ``repeat`` times in a row so that a command of a few milliseconds
    is timed over tens of them."""

    name: str
    command: tuple
    fixture: str
    flags: tuple = ()
    expect: int = 0
    repeat: int = 1

    def argv(self, fixture_dir: str) -> list:
        return [*self.command, os.path.join(fixture_dir, self.fixture), *self.flags]


# ---- exact matrices ----


def closure(matrix):
    """Shortest-path closure: the largest metric below the given weights."""
    size = len(matrix)
    dist = [row[:] for row in matrix]
    for k in range(size):
        row_k = dist[k]
        for i in range(size):
            row_i = dist[i]
            d_ik = row_i[k]
            for j in range(size):
                via = d_ik + row_k[j]
                if via < row_i[j]:
                    row_i[j] = via
    return dist


def random_metric(rng, size, weight):
    """Closure of symmetric random weights drawn by ``weight(rng)``."""
    m = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            m[i][j] = m[j][i] = weight(rng)
    return closure(m)


def dyadic_weight(rng):
    # Denominator 8, values in (0, 1], so every closure has diameter <= 1.
    return Fraction(rng.randint(1, 8), 8)


def wide_weight(rng):
    den = rng.choice(WIDE_DENOMINATORS)
    return Fraction(rng.randint(1, den), den)


def submatrix(dist, idx):
    return [[dist[i][j] for j in idx] for i in idx]


def line_metric(values):
    return [[abs(a - b) for b in values] for a in values]


def plant_late_violation(dist):
    """Copy of a metric whose last pair breaks the triangle inequality.

    d(n-2, n-1) is raised above twice the diameter, so every triangle with
    that side as its long edge fails, and the lexicographic scan meets the
    first failure only at i = n - 2.
    """
    bad = [row[:] for row in dist]
    n = len(bad)
    top = max(max(row) for row in dist)
    bad[n - 2][n - 1] = bad[n - 1][n - 2] = 2 * top + Fraction(1, 31)
    return bad


# ---- JSON trees in the documented input schema ----


def space_json(dist, labels=None):
    n = len(dist)
    return {
        "points": list(range(n)) if labels is None else list(labels),
        "dist": [[str(v) for v in row] for row in dist],
    }


def truncation_json(levels, bonds):
    """levels: list of (labels, dist); bonds: image tuples level i+1 -> i."""
    return {
        "levels": [space_json(dist, labels) for labels, dist in levels],
        "bonds": [{"pairs": [[s, t] for s, t in enumerate(b)]} for b in bonds],
    }


def retraction_tower(depth, scale):
    """Levels {0..i} of a scaled line for i < depth; bonds clamp down."""
    levels = []
    for i in range(1, depth + 1):
        pts = list(range(i))
        levels.append((pts, line_metric([Fraction(p) * scale for p in pts])))
    bonds = [tuple(min(x, i - 1) for x in range(i + 1)) for i in range(1, depth)]
    return levels, bonds


def halving_chain(depth, floor):
    """Level i holds {2^-k : k = i..floor}; bonds are the inclusions."""
    levels = []
    for i in range(depth):
        pts = [Fraction(1, 2**k) for k in range(floor, i - 1, -1)]
        levels.append(([str(p) for p in pts], line_metric(pts)))
    bonds = [tuple(range(floor - i)) for i in range(depth - 1)]
    return levels, bonds


def window_chain(depth, width=3):
    """Sliding windows {k/8 .. (k+width)/8} with shift-and-clamp bonds."""
    levels = []
    for k in range(depth):
        pts = [Fraction(k + j, 8) for j in range(width + 1)]
        levels.append(([str(p) for p in pts], line_metric(pts)))
    bonds = [tuple(min(x + 1, width) for x in range(width + 1))] * (depth - 1)
    return levels, bonds


def ball_covers(dist, depth):
    """Closed-ball covers at radii 3^-k, k = 1..depth, one ball per point
    (duplicates kept), as ``ball_fundamental_sequence`` builds them."""
    n = len(dist)
    covers = []
    radius = Fraction(1, 3)
    for _ in range(depth):
        sets = [[y for y in range(n) if dist[x][y] <= radius] for x in range(n)]
        covers.append({"ground": n, "sets": sets})
        radius /= 3
    return {"covers": covers}


# ---- independent verdict for the multi-class quotient ----


def class_labels(size, classes):
    """Class index of each of ``size`` points: the listed classes first,
    then one singleton class for every point they leave out."""
    class_of = [None] * size
    for c, members in enumerate(classes):
        for i in members:
            class_of[i] = c
    count = len(classes)
    for i in range(size):
        if class_of[i] is None:
            class_of[i] = count
            count += 1
    return class_of


def load_oracles():
    """The brute-force references of the test suite, ``tests/oracles.py``."""
    tests = os.path.join(ROOT, "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return oracles


def two_hops_settle(block):
    """True when d_2 equals d_infinity on a block distance matrix."""
    oracles = load_oracles()
    return oracles.chain_power(block, 2) == oracles.chain_limit_apsp(block)


# ---- workloads ----


def chain_workload(rng):
    """Chain quotients, amalgams and adjunctions on dyadic random spaces."""
    files, ops = {}, []
    for n in (24, 32):
        dist = random_metric(rng, n, dyadic_weight)
        order = list(range(n))
        rng.shuffle(order)
        files[f"chain_space_{n}.json"] = space_json(dist)
        ops.append(Op(f"check_{n}", ("check",), f"chain_space_{n}.json"))

        files[f"chain_q1_{n}.json"] = {
            "space": space_json(dist),
            "family": [sorted(order[:3])],
        }
        ops.append(Op(f"quotient_one_class_{n}", ("build", "quotient"),
                      f"chain_q1_{n}.json"))

        if n == 32:
            family = [sorted(order[3 + 3 * c: 6 + 3 * c]) for c in range(n // 6)]
            block = load_oracles().block_distance_matrix(dist, class_labels(n, family))
            files[f"chain_qf_{n}.json"] = {"space": space_json(dist), "family": family}
            # d_2 != d_infinity is a legitimate exit 1 (precondition failed).
            ops.append(Op(f"quotient_family_{n}", ("build", "quotient"),
                          f"chain_qf_{n}.json",
                          expect=0 if two_hops_settle(block) else 1))

        half, shared = n // 2, 3
        left = order[:half]
        right = order[half - shared: 2 * half - shared]
        files[f"chain_amalgam_{n}.json"] = {
            "left": space_json(submatrix(dist, left)),
            "right": space_json(submatrix(dist, right)),
            "gluing": {"pairs": [[half - shared + k, k] for k in range(shared)]},
        }
        ops.append(Op(f"amalgam_{n}", ("build", "amalgam"),
                      f"chain_amalgam_{n}.json"))

    # A line with random gaps k/8 and the family {1, m}, {m + 1, n - 2}.
    # Three short hops 0 -> 1 ~ m -> m + 1 ~ n - 2 -> n - 1 beat every chain
    # of at most two hops, so d_2 != d_infinity for every seed and the
    # quotient exits 1.
    n, m = 30, 15
    positions = [ZERO]
    for _ in range(n - 1):
        positions.append(positions[-1] + dyadic_weight(rng))
    files[f"chain_qf_line_{n}.json"] = {
        "space": space_json(line_metric(positions)),
        "family": [[1, m], [m + 1, n - 2]],
    }
    ops.append(Op(f"quotient_family_unsettled_{n}", ("build", "quotient"),
                  f"chain_qf_line_{n}.json", expect=1))

    n = 20
    dist = random_metric(rng, n, dyadic_weight)
    target = random_metric(rng, 8, dyadic_weight)
    subset = sorted(rng.sample(range(n), 4))
    files[f"chain_adjunction_{n}.json"] = {
        "space": space_json(dist),
        "subset": subset,
        "target": space_json(target),
        "attaching": {"pairs": [[a, rng.randrange(8)] for a in subset]},
    }
    ops.append(Op(f"adjunction_{n}", ("build", "adjunction"),
                  f"chain_adjunction_{n}.json"))
    return files, ops


def tower_workload(rng):
    """Telescopes, cylinders, cone, join and every invlim mode."""
    files, ops = {}, []
    # The towers keep the scale of tests/helpers.py on every seed: the
    # telescope's cost moves by up to 40% with the scale, and the seed
    # varies the random spaces below instead.
    scale = Fraction(1, 8)
    for depth in (5, 6):
        files[f"tower_{depth}.json"] = truncation_json(*retraction_tower(depth, scale))
    ops.append(Op("telescope_5", ("build", "telescope"), "tower_5.json"))
    ops.append(Op("telescope_6_depth_4", ("build", "telescope"), "tower_6.json",
                  ("--depth", "4")))

    for size in (10, 12):
        name = f"tower_cylinder_{size}.json"
        files[name] = {
            "source": space_json(random_metric(rng, size, dyadic_weight)),
            "target": space_json(random_metric(rng, 4, dyadic_weight)),
            "mapping": [rng.randrange(4) for _ in range(size)],
        }
        ops.append(Op(f"cylinder_{size}", ("build", "cylinder"), name))
    # --oracle runs the adjunction rebuild a second time, on user request.
    ops.append(Op("cylinder_10_oracle", ("build", "cylinder"),
                  "tower_cylinder_10.json", ("--oracle",)))

    files["tower_cone.json"] = space_json(random_metric(rng, 8, dyadic_weight))
    ops.append(Op("cone_oracle", ("build", "cone"), "tower_cone.json", ("--oracle",)))
    files["tower_join.json"] = {
        "left": space_json(random_metric(rng, 3, dyadic_weight)),
        "right": space_json(random_metric(rng, 3, dyadic_weight)),
    }
    ops.append(Op("join_oracle", ("build", "join"), "tower_join.json", ("--oracle",)))

    # Exit codes below are the ones smoke_cli.py asserts for these families.
    files["tower_halving.json"] = truncation_json(*halving_chain(5, 6))
    files["tower_window.json"] = truncation_json(*window_chain(4))
    deep = "tower_6.json"
    ops.append(Op("invlim_threads", ("invlim", "threads"), deep))
    ops.append(Op("invlim_separate", ("invlim", "separate"), deep))
    ops.append(Op("invlim_ml_tower", ("invlim", "ml"), deep))
    ops.append(Op("invlim_ml_halving", ("invlim", "ml"), "tower_halving.json",
                  expect=1))
    for fixture, tag, converge, cauchy in (
        (deep, "tower", 0, 0),
        ("tower_halving.json", "halving", 1, 0),
        ("tower_window.json", "window", 1, 1),
    ):
        ops.append(Op(f"invlim_converge_{tag}", ("invlim", "converge"), fixture,
                      expect=converge))
        ops.append(Op(f"invlim_cauchy_{tag}", ("invlim", "cauchy"), fixture,
                      expect=cauchy))

    # Ladders of the depth-5 tower against itself.  The measured-budget
    # swapped ladder (no "alphas") is left out: its report is known wrong
    # until ROADMAP item 0 lands.
    levels, bonds = retraction_tower(5, scale)
    identity = truncation_json(levels, bonds)
    identity["cross"] = [list(range(len(pts))) for pts, _ in levels]
    files["tower_ladder_identity.json"] = identity
    ops.append(Op("perturb_identity", ("invlim", "perturb"),
                  "tower_ladder_identity.json"))
    swapped = truncation_json(levels, bonds)
    swapped["cross"] = [list(range(len(pts))) for pts, _ in levels]
    swapped["cross"][2] = [0, 2, 1]
    swapped["alphas"] = ["0"] * (len(levels) - 1)
    files["tower_ladder_swapped.json"] = swapped
    ops.append(Op("perturb_swapped_over_budget", ("invlim", "perturb"),
                  "tower_ladder_swapped.json", expect=1))
    return files, [replace(op, repeat=QUICK_REPEAT) if op.command[0] == "invlim" else op
                   for op in ops]


def audit_workload(rng):
    """Wide-spectrum user data: audits, embeddings and cover metrization."""
    files, ops = {}, []
    for n in (32, 40):
        dist = random_metric(rng, n, wide_weight)
        for tag, matrix, code in (("valid", dist, 0),
                                  ("defect", plant_late_violation(dist), 1)):
            name = f"audit_{tag}_{n}.json"
            files[name] = space_json(matrix)
            ops.append(Op(f"check_{tag}_{n}", ("check",), name, expect=code))
            ops.append(Op(f"embed_{tag}_{n}", ("embed",), name, ("--rescale",),
                          expect=code))
    for n in (48, 56):
        dist = random_metric(rng, n, wide_weight)
        files[f"audit_covers_{n}.json"] = ball_covers(dist, 4)
        ops.append(Op(f"metrize_{n}", ("metrize",), f"audit_covers_{n}.json"))
    return files, ops


_BUILDERS = {
    "chain": chain_workload,
    "tower": tower_workload,
    "audit": audit_workload,
}


def generate(workload: str, seed: int):
    """(files, ops) for one workload: file name -> JSON tree, and the ops."""
    rng = random.Random(f"{workload}:{seed}")
    files, ops = _BUILDERS[workload](rng)
    files[COLD_START_FILE] = space_json([[ZERO, Fraction(1, 2)], [Fraction(1, 2), ZERO]])
    return files, ops


def encode(tree) -> bytes:
    return (json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_fixtures(files: dict, out_dir: str) -> str:
    """Write every file and return one SHA-256 over all names and bytes."""
    os.makedirs(out_dir, exist_ok=True)
    h = hashlib.sha256()
    for name in sorted(files):
        data = encode(files[name])
        with open(os.path.join(out_dir, name), "wb") as handle:
            handle.write(data)
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="fixture directory")
    args = parser.parse_args(argv)
    # Set-up as a user of the benchmark pays it: import the program,
    # generate and write the inputs, load the golden record.
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import unimet.cli  # noqa: F401  (import time is part of set-up)

    files, ops = generate(args.workload, args.seed)
    files[OPS_FILE] = [asdict(op) for op in ops]
    digest = write_fixtures(files, args.out)
    from golden import load_golden

    load_golden()
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "fixtures_sha256": digest, "ops": len(ops)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
