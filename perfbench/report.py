"""Print every metric of every workload: one untraced and one traced run each.

    python3 perfbench/report.py

Each run is ``run.py`` in its own process, on seed 1, for the
``run_seconds`` of ``BENCHMARK.json``.  The untraced run gives the
end-to-end metrics plus ``failed_ratio`` (ops whose exit code or stdout
differ from the golden record, over ops attempted); the traced run gives
the per-layer metrics and ``trace.overhead_s``.  Exits 1 if any run is not
correct.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SEED = 1


def run(workload: str, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, seconds, trace)
            all_correct = all_correct and result["correct"]
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"{workload} seed {SEED}, {kind}: correct={result['correct']}")
            if not trace:
                ratio = result["failed"] / result["attempted"]
                print(f"  {'failed_ratio':28s} {ratio:14.6g} ratio "
                      f"({result['failed']}/{result['attempted']})")
            for name, metric in result["metrics"].items():
                print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
