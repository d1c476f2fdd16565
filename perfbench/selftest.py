"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import os
import sys
import types
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from golden import digest  # noqa: E402
from run import run_pass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, encode, generate, write_fixtures  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fixtures_are_byte_identical_across_generations(workload, tmp_path):
    first_files, first_ops = generate(workload, 7)
    second_files, second_ops = generate(workload, 7)
    assert first_ops == second_ops
    assert sorted(first_files) == sorted(second_files)
    for name in first_files:
        assert encode(first_files[name]) == encode(second_files[name]), name
    a = write_fixtures(first_files, str(tmp_path / "a"))
    b = write_fixtures(second_files, str(tmp_path / "b"))
    assert a == b
    assert (tmp_path / "a" / "two_points.json").read_bytes() == (
        tmp_path / "b" / "two_points.json").read_bytes()
    other, _ = generate(workload, 8)
    assert any(encode(other[n]) != encode(first_files[n]) for n in first_files)


def test_tampered_golden_digest_raises_failed_ratio(tmp_path):
    from unimet import cli

    files, ops = generate("tower", 3)
    cheap = [op for op in ops if op.command[0] == "invlim"]
    write_fixtures(files, str(tmp_path))
    clean = run_pass(cli, cheap, str(tmp_path), None, None)
    assert clean.failures == []
    golden = {name: dict(entry) for name, entry in clean.digests.items()}
    assert run_pass(cli, cheap, str(tmp_path), golden, None).failures == []

    victim = cheap[2]
    golden[victim.name]["sha256"] = digest("tampered")
    tampered = run_pass(cli, cheap, str(tmp_path), golden, None)
    # Every repeated run of the victim fails, and nothing else does.
    assert len(tampered.failures) == victim.repeat > 1
    assert all(f.startswith(victim.name) for f in tampered.failures)
    assert len(tampered.failures) / tampered.runs > 0

    golden[victim.name] = dict(clean.digests[victim.name], exit=7)
    failures = run_pass(cli, cheap, str(tmp_path), golden, None).failures
    assert len(failures) == victim.repeat


def test_rejected_argv_is_a_failed_op_not_a_crash(tmp_path):
    from unimet import cli

    files, ops = generate("tower", 3)
    write_fixtures(files, str(tmp_path))
    op = next(op for op in ops if op.command[0] == "invlim")
    renamed = replace(op, flags=("--no-such-flag",), repeat=1)
    result = run_pass(cli, [renamed], str(tmp_path), None, None)
    assert result.digests[renamed.name]["exit"] == 2
    assert len(result.failures) == 1


class FakeClock:
    """Advances one tick per reading, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_self_times_add_up_on_nested_calls():
    tracer = Tracer(clock=FakeClock())
    layer = types.ModuleType("unimet.fakelayer")
    user = types.ModuleType("unimet.fakeuser")

    def leaf(x):
        return x + 1

    def middle(x):
        return user.leaf(x) + layer.leaf(x)

    def root(x):
        return user.middle(x) * 2

    layer.leaf = leaf
    user.middle = middle  # imported by name into another namespace
    user.leaf = leaf
    user.root = root
    sys.modules[layer.__name__] = layer
    sys.modules[user.__name__] = user
    try:
        with tracer.installed({"fakelayer": ("leaf",), "fakeuser": ("middle", "root")}):
            assert user.leaf is not leaf and user.middle is not middle
            tracer.begin_op("synthetic")
            assert user.root(1) == 8
        assert user.leaf is leaf and layer.leaf is leaf and user.middle is middle
    finally:
        del sys.modules[layer.__name__], sys.modules[user.__name__]

    spans = tracer.spans
    assert [s.name for s in spans] == ["root", "middle", "leaf", "leaf"]
    top = spans[0]
    assert top.parent is None and spans[1].parent == 0
    assert spans[2].parent == spans[3].parent == 1
    assert all(s.op == "synthetic" for s in spans)
    assert sum(s.self_time for s in spans) == top.duration
    assert spans[1].self_time == spans[1].duration - spans[2].duration - spans[3].duration
    assert tracer.self_s["fakelayer"] + tracer.self_s["fakeuser"] == top.duration
    assert tracer.calls["fakelayer.leaf"] == 2
    assert tracer.inclusive_s["fakeuser.root"] == top.duration
