"""Self-tests of the benchmark harness (not part of the package's test suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

They use the smallest rung of each ladder, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from workloads import WORKLOADS, Oracle  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _smallest(workload, seed=bench.DEFAULT_SEED):
    run = bench.Run(workload, seed, max_rungs=1)
    run.setup(repeats=1)
    return run


@pytest.fixture
def scratch(request):
    """An empty directory under perfbench/work, removed afterwards."""
    d = bench.BENCH / "work" / f"test-{request.node.name}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.fixture
def rack_run():
    run = _smallest("rack_ybe")
    yield run
    shutil.rmtree(run.workdir, ignore_errors=True)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(workload, scratch):
    def files(seed, name):
        d = scratch / name
        d.mkdir()
        WORKLOADS[workload](seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert files(1, "a") == files(1, "b")
    assert files(1, "a2") != files(2, "c")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smallest_rung_prints_every_metric_with_its_unit(workload, trace, capsys):
    result = bench.run_benchmark(workload, bench.DEFAULT_SEED, 0.1, trace, max_rungs=1)
    line = bench.report(result)
    printed = capsys.readouterr().out
    assert json.loads(printed.strip().splitlines()[-1]) == line
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, result["failures"]
    want = _units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in line["metrics"].items()} == want
    for name, unit in want.items():
        assert f"{name} " in printed and f" {unit}" in printed
    if trace:
        m = {name: v["value"] for name, v in line["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in bench.LAYERS)
        assert layers + m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"], abs=1e-6)
        assert m["trace.wall_s"] > 0
    else:
        assert "failed_frac" in printed


def test_gate_fires_on_a_wrong_exit_code(rack_run):
    inv = rack_run.plan.invocations[1]
    inv.code = 1
    rack_run.process_pass("test")
    assert [(k, r) for _, k, r in rack_run.failures] == [(inv.key, "exit code 0, expected 1")]


def test_gate_fires_on_a_wrong_verdict(rack_run):
    inv = rack_run.plan.invocations[1]
    inv.verdict = {"ok": False}
    rack_run.process_pass("test")
    assert [k for _, k, _ in rack_run.failures] == [inv.key]


def test_gate_fires_on_a_wrong_digest(rack_run):
    assert rack_run.digests, "the default seed must carry recorded digests"
    key = rack_run.plan.invocations[0].key
    rack_run.digests = {**rack_run.digests, key: "0" * 64}
    rack_run.process_pass("test")
    assert [(k, r) for _, k, r in rack_run.failures] == [
        (key, "stdout differs from the recorded digest")]


def test_gate_fires_on_an_oracle_mismatch(rack_run):
    keys = [inv.key for inv in rack_run.plan.invocations]
    rack_run.plan.oracles.append(Oracle(keys[0], keys[3], [("yd_ok", "tensor_size")]))
    rack_run.process_pass("test")
    assert [k for _, k, _ in rack_run.failures] == [keys[3]]
    assert "oracle" in rack_run.failures[0][2]


def test_timings_are_scaled_by_the_reference_loop(rack_run):
    timings, _ = rack_run.process_pass("test")
    refs = rack_run.reference[-len(timings) - 1:]
    for (wall, _, _, scaled), before, after in zip(timings.values(), refs, refs[1:]):
        assert scaled == pytest.approx(wall * bench.REF_SECONDS / ((before + after) / 2))
    assert bench.at_reference_speed(3.0, 2 * bench.REF_SECONDS) == 1.5


def test_top_repeats_are_timed_and_gated(rack_run):
    top = rack_run.plan.top()
    timings, top_walls = rack_run.process_pass("test", top_repeats=3)
    assert len(top_walls) == 3 and top_walls[0] == timings[top.key][3]
    assert rack_run.attempted == len(rack_run.plan.invocations) + 2
    top.verdict = {"ok": False}
    rack_run.process_pass("test", top_repeats=3)
    assert [k for _, k, _ in rack_run.failures] == [
        f"{top.key} (run 2)", f"{top.key} (run 3)", top.key]


def test_memory_guard_records_a_failure(rack_run, monkeypatch):
    monkeypatch.setattr(bench, "MEM_LIMIT", 8 << 20)
    rack_run.process_pass("test")
    assert len(rack_run.failures) == len(rack_run.plan.invocations)


def test_timeout_records_a_failure(rack_run, monkeypatch):
    monkeypatch.setattr(bench, "CHILD_TIMEOUT", 0.01)
    rack_run.process_pass("test")
    assert {r for _, _, r in rack_run.failures} == {"exit code timeout, expected 0"}


def test_refuses_to_run_without_the_sources(scratch):
    shutil.copy(bench.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(bench.BENCH, scratch / bench.BENCH.name,
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "rack_ybe", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
