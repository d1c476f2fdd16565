"""Golden record of the CLI reports: exit code and stdout SHA-256 per op.

``golden.json`` maps workload -> seed -> op name -> {"exit", "sha256"}.
It was recorded from this repository's reports and must only change when a
report is meant to change.  Recording cross-checks what it stores:

- every exit code equals the op's expected code (``workloads.Op.expect``,
  which follows the exit codes that ``smoke_cli.py`` asserts);
- every ``chain`` quotient and amalgam report carries the distance matrix
  that the brute-force oracles in ``tests/oracles.py`` compute
  (``block_distance_matrix``, ``chain_power``, ``chain_limit_apsp``), and
  a multi-class quotient exits 1 exactly when d_2 differs from d_infinity.

Record (from the repository root, on a commit whose reports are trusted):

    python3 perfbench/golden.py --seeds 0-10
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction

from workloads import (WORKLOADS, class_labels, generate, load_oracles, two_hops_settle,
                       write_fixtures)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_PATH = os.path.join(HERE, "golden.json")


def load_golden(path: str = GOLDEN_PATH) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("ascii")).hexdigest()


def mismatch(op, code: int, sha: str, record) -> str | None:
    """Why one op's result is wrong, or None when it is right.

    With a golden record for the seed, exit code and stdout digest must both
    match it; without one, the exit code must be the op's expected code.
    """
    if record is None:
        if code != op.expect:
            return f"{op.name}: exit {code}, expected {op.expect}"
        return None
    want = record.get(op.name)
    if want is None:
        return f"{op.name}: no golden entry"
    if code != want["exit"]:
        return f"{op.name}: exit {code}, golden {want['exit']}"
    if sha != want["sha256"]:
        return f"{op.name}: stdout sha256 {sha[:12]}, golden {want['sha256'][:12]}"
    return None


# ---- recording ----


def _constructed(stdout: str):
    report = json.loads(stdout)
    rows = [r for r in report["results"] if r["check"] == "constructed space"]
    return [[Fraction(v) for v in row] for row in rows[0]["witnesses"][0]["dist"]]


def _quotient_block(doc):
    dist = [[Fraction(v) for v in row] for row in doc["space"]["dist"]]
    return load_oracles().block_distance_matrix(dist, class_labels(len(dist), doc["family"]))


def _amalgam_block(doc):
    left = [[Fraction(v) for v in row] for row in doc["left"]["dist"]]
    right = [[Fraction(v) for v in row] for row in doc["right"]["dist"]]
    size = len(left) + len(right)
    union = [[Fraction(1)] * size for _ in range(size)]
    for i, row in enumerate(left):
        union[i][: len(left)] = row
    for j, row in enumerate(right):
        union[len(left) + j][len(left):] = row
    glued = [[a, len(left) + b] for a, b in sorted(doc["gluing"]["pairs"])]
    return load_oracles().block_distance_matrix(union, class_labels(size, glued))


def cross_check(op, fixture_dir: str, code: int, stdout: str) -> None:
    """Raise AssertionError when a report disagrees with the oracles."""
    if code != op.expect:
        raise AssertionError(f"{op.name}: exit {code}, expected {op.expect}")
    kind = op.command[-1]
    if kind not in ("quotient", "amalgam"):
        return
    with open(os.path.join(fixture_dir, op.fixture)) as handle:
        doc = json.load(handle)
    block = (_quotient_block if kind == "quotient" else _amalgam_block)(doc)
    settles = two_hops_settle(block)
    if code == 1:
        if settles or stdout:
            raise AssertionError(f"{op.name}: exit 1 although d_2 = d_infinity")
        return
    if not settles:
        raise AssertionError(f"{op.name}: exit 0 although d_2 != d_infinity")
    if _constructed(stdout) != load_oracles().chain_power(block, 2):
        raise AssertionError(f"{op.name}: constructed space differs from the oracle")


def record(seeds) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from unimet import cli

    from run import WORK, run_op

    golden = load_golden()
    for workload in WORKLOADS:
        for seed in seeds:
            files, ops = generate(workload, seed)
            os.makedirs(WORK, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=WORK, prefix="golden-") as tmp:
                write_fixtures(files, tmp)
                entries = {}
                for op in ops:
                    code, stdout, _, _ = run_op(cli, op, tmp)
                    cross_check(op, tmp, code, stdout)
                    entries[op.name] = {"exit": code, "sha256": digest(stdout)}
            golden.setdefault(workload, {})[str(seed)] = entries
            print(f"recorded {workload} seed {seed}: {len(entries)} ops", flush=True)
    return golden


def _seed_range(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the golden CLI digests")
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-10"),
                        help="inclusive range such as 0-10")
    args = parser.parse_args(argv)
    golden = record(args.seeds)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
