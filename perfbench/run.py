"""Benchmark of the ``unimet`` CLI: one closed-loop client, one thread.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout; nothing is installed.  One run:

1. sets up once in a fresh interpreter (import ``unimet``, generate and
   write the seeded fixtures, load the golden record);
2. runs the workload's fixed operation list a fixed number of passes,
   ``round(--seconds / PASS_SECONDS[workload])`` (at least
   ``MIN_PASSES``), each op one in-process call of ``unimet.cli.main``.
   The count does not depend on how fast the code is; the run only stops
   early once it has overrun ``--seconds`` by ``OVERRUN``.  With
   ``--trace 1`` untraced and traced passes alternate;
3. after each untraced pass, times ``COLD_STARTS_PER_PASS`` fresh
   ``python -m unimet.cli check <2-point file>`` processes, and, until it
   has ``SETUP_RUNS`` set-ups, sets up once more into a second directory,
   so the probes are spread over the whole run like the passes;
4. checks every op's exit code and stdout SHA-256 against the golden
   record (``golden.json``) for the seed, or, for a seed without one,
   the op's expected exit code and the first pass's digests, and writes
   the digests to ``.perfbench_work/digests/`` so two commits can be
   compared byte for byte;
5. prints the metrics by name and unit, then one JSON line.

Every timing is scaled to reference seconds by the kernel of
``speed.py``, timed between the ops: each pass by its own factor, the
cold starts and set-ups by the run's median factor.  Each is reported as
a median: of the passes, of each op's latencies, of the cold starts and
of the set-ups.

The JSON line has ``correct``, ``attempted`` (ops run), ``failed`` (ops
whose exit code or stdout differ; ``failed / attempted`` is the failure
ratio) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from ``tracer.py`` with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from golden import digest, load_golden, mismatch  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import COLD_START_FILE, OPS_FILE, WORKLOADS, Op  # noqa: E402

SETUP_RUNS = 5
COLD_STARTS_PER_PASS = 2
# Seconds one pass takes, with its probes, on the reference machine at
# full speed; they fix each workload's pass count.
PASS_SECONDS = {"chain": 2.9, "tower": 4.2, "audit": 3.7}
MIN_PASSES = 3
OVERRUN = 1.4
SUBPROCESS_TIMEOUT_S = 150


def run_op(cli, op: Op, fixture_dir: str):
    """Run one op in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv(fixture_dir))
        except SystemExit as exc:  # argparse rejecting the argv, for one
            code = exc.code if isinstance(exc.code, int) else -1
        except Exception:  # a traceback is a failed op, never a crash
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@dataclass
class Pass:
    traced: bool
    factor: float = 1.0  # reference seconds per measured second
    runs: int = 0  # ops run, repeats included
    latencies: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_pass(cli, ops, fixture_dir, golden, reference, tracer=None) -> Pass:
    """Run every op ``op.repeat`` times in a row; its latency is the mean.
    Compare each run with the golden record or ``reference``."""
    result = Pass(traced=tracer is not None)
    gc.collect()
    meter = SpeedMeter()
    for op in ops:
        total = 0.0
        for _ in range(op.repeat):
            if tracer is not None:
                tracer.begin_op(op.name)
            code, stdout, stderr, seconds = run_op(cli, op, fixture_dir)
            total += seconds
            result.runs += 1
            sha = digest(stdout) if code != -1 else ""
            result.digests[op.name] = {"exit": code, "sha256": sha}
            problem = mismatch(op, code, sha, golden)
            if problem is None and reference is not None and reference[op.name] != result.digests[op.name]:
                problem = f"{op.name}: output differs from the first pass"
            if problem is not None:
                result.failures.append(problem)
                print(f"MISMATCH {problem}\n{stderr}", file=sys.stderr)
        result.latencies.append(total / op.repeat)
        meter.after(total)
    result.factor = meter.factor()
    return result


def set_up(workload: str, seed: int, fixture_dir: str):
    """One set-up in a fresh interpreter: (seconds, fixtures SHA-256)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", fixture_dir],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    return line["setup_s"], line["fixtures_sha256"]


def cold_start(fixture_dir: str):
    """Wall milliseconds of one fresh ``unimet check`` process, and whether
    it printed a passing report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "unimet.cli", "check",
            os.path.join(fixture_dir, COLD_START_FILE)]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)
    elapsed = (time.perf_counter() - start) * 1000.0
    return elapsed, proc.returncode == 0 and json.loads(proc.stdout)["exit_status"] == 0


def load_ops(fixture_dir: str) -> list:
    with open(os.path.join(fixture_dir, OPS_FILE)) as handle:
        return [Op(**{**o, "command": tuple(o["command"]), "flags": tuple(o["flags"])})
                for o in json.load(handle)]


@dataclass
class Probes:
    """Set-up and cold-start samples taken between passes."""

    setup_s: list
    fixtures: set
    cold_ms: list = field(default_factory=list)
    cold_ok: bool = True


def measure(cli, ops, fixture_dir, golden, args, probes):
    """The run's passes, with the probes between them; see the docstring."""
    count = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    again_dir = fixture_dir + "-again"
    passes, tracers = [], []
    begin = time.perf_counter()
    for k in range(count):
        reference = None if golden is not None or not passes else passes[0].digests
        if args.trace and k % 2 == 1:
            tracer = Tracer()
            with tracer.installed():
                done = run_pass(cli, ops, fixture_dir, golden, reference, tracer)
            done.layers = tracer.layer_metrics()
            tracers.append(tracer)
        else:
            done = run_pass(cli, ops, fixture_dir, golden, reference)
            if not args.trace:
                for _ in range(COLD_STARTS_PER_PASS):
                    ms, ok = cold_start(fixture_dir)
                    probes.cold_ms.append(ms)
                    probes.cold_ok = probes.cold_ok and ok
                if len(probes.setup_s) < SETUP_RUNS:
                    seconds, sha = set_up(args.workload, args.seed, again_dir)
                    probes.setup_s.append(seconds)
                    probes.fixtures.add(sha)
        passes.append(done)
        if k + 1 >= MIN_PASSES and time.perf_counter() - begin > OVERRUN * args.seconds:
            print(f"stopped after {k + 1} of {count} passes: over time", file=sys.stderr)
            break
    return passes, tracers


def op_latencies(passes) -> list:
    """Each op's median scaled latency over the given passes."""
    scaled = ([t * p.factor for t in p.latencies] for p in passes)
    return [statistics.median(column) for column in zip(*scaled)]


def pass_wall(passes) -> float:
    """Median scaled time of one pass over the op list."""
    return statistics.median(sum(p.latencies) * p.factor for p in passes)


def end_to_end(passes, probes) -> dict:
    typical = op_latencies(passes)
    # A probe is too short to time the kernel around it without adding
    # noise: it is scaled by the run's median factor instead.
    factor = statistics.median(p.factor for p in passes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(probes.setup_s) * factor, "s"),
        "wall_s": (pass_wall(passes), "s"),
        "op_p50_ms": (statistics.median(typical) * 1000.0, "ms"),
        "slowest_op_s": (max(typical), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "cold_start_ms": (statistics.median(probes.cold_ms) * factor, "ms"),
    }


LAYER_UNITS = {"self_s": "s", "oracle_s": "s", "au_metrize_s": "s",
               "overhead_s": "s", "bytes_in": "bytes", "bytes_out": "bytes"}


def per_layer(passes) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {}
    for name in traced[0].layers:
        unit = LAYER_UNITS.get(name.split(".", 1)[1], "count")
        value = statistics.median(p.layers[name] * (p.factor if unit == "s" else 1)
                                  for p in traced)
        out[name] = (value, unit)
    out["trace.overhead_s"] = (pass_wall(traced) - pass_wall(plain), "s")
    return out


def write_json(path: str, tree) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(tree, handle, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of the unimet CLI")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "unimet", "cli.py")):
        print(f"no unimet sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    # One vCPU for the run and the processes it starts, so that the speed
    # kernel and the work it scales run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    fixture_dir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    seconds, sha = set_up(args.workload, args.seed, fixture_dir)
    probes = Probes(setup_s=[seconds], fixtures={sha})
    sys.path.insert(0, SRC)
    from unimet import cli

    ops = load_ops(fixture_dir)
    golden = load_golden().get(args.workload, {}).get(str(args.seed))
    passes, tracers = measure(cli, ops, fixture_dir, golden, args, probes)

    write_json(os.path.join(WORK, "digests", f"{args.workload}-{args.seed}.json"),
               passes[0].digests)
    for k, tracer in enumerate(tracers):
        tracer.write_spans(os.path.join(WORK, "trace", f"{args.workload}-{args.seed}-{k}.jsonl"))

    attempted = sum(p.runs for p in passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = per_layer(passes) if args.trace else end_to_end(passes, probes)
    for op, seconds in zip(ops, op_latencies(passes)):
        print(f"  {op.name:32s} {seconds:9.3f} s", file=sys.stderr)
    print("  measured pass seconds " + " ".join(f"{sum(p.latencies):.3f}" for p in passes)
          + "\n  speed factors " + " ".join(f"{p.factor:.3f}" for p in passes),
          file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} ops, golden record {'used' if golden else 'absent'}, "
          f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    deterministic = len(probes.fixtures) == 1
    if not deterministic:
        print("fixtures differ between set-ups", file=sys.stderr)
    if not probes.cold_ok:
        print("a cold-start check did not pass", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and deterministic and probes.cold_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
