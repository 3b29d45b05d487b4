"""Tests of the benchmark's own helpers and oracles.

Run from the root of the repository::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
for entry in (HERE, CHECKOUT / "scripts", CHECKOUT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import harness  # noqa: E402
import run  # noqa: E402
import trace_report  # noqa: E402
from repro.obs.trace import read_trace  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
NAME = r"[A-Za-z0-9_.-]+"


def _modules():
    return [run.workload_module(name) for name in run.WORKLOADS]


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = [float(value) for value in range(1, 201)]
    assert harness.tail_percentile(samples, 95) == 190.0
    with pytest.raises(harness.TooFewSamples):
        harness.tail_percentile(samples[:-1], 95)
    with pytest.raises(harness.TooFewSamples):
        harness.tail_percentile(samples * 4, 99.5)
    assert harness.tail_percentile(list(range(1000)), 99) == 989


def test_metric_names_are_plain():
    names = [
        entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert harness.METRIC_NAME.fullmatch(name), name
        assert re.fullmatch(NAME, name), name
    outcome = harness.Outcome()
    with pytest.raises(ValueError):
        outcome.metric("p99 latency", 1.0, "ms")
    outcome.metric("latency_p90_ms", 1.0, "ms")
    with pytest.raises(ValueError):
        outcome.metric("latency_p90_ms", 2.0, "ms")


def test_spec_matches_the_workloads():
    """BENCHMARK.json lists exactly the workloads and the metrics of the
    harness's tables, and every per-layer metric names what it moves."""
    assert [entry["name"] for entry in SPEC["workloads"]] == list(
        run.WORKLOADS
    )
    for entry, module in zip(SPEC["workloads"], _modules()):
        assert entry["why"] == module.WHY
        assert len(entry["why"]) <= 200
    assert {
        entry["name"]: (entry["unit"], entry["better"])
        for entry in SPEC["end_to_end"]
    } == harness.END_TO_END
    assert {
        entry["name"]: (entry["unit"], entry["better"])
        for entry in SPEC["per_layer"]
    } == {name: spec[:2] for name, spec in harness.PER_LAYER.items()}
    for name, (_, _, moves) in harness.PER_LAYER.items():
        assert set(moves) <= set(run.WORKLOADS), name
        for targets in moves.values():
            assert set(targets) <= set(harness.END_TO_END), name
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smallest_size_passes_the_oracle(workload, tmp_path):
    module = run.workload_module(workload)
    paths = harness.RunPaths(
        checkout=CHECKOUT,
        work=tmp_path / "work",
        trace_file=tmp_path / "trace.jsonl",
    )
    paths.work.mkdir()
    outcome = module.run(
        seed=3, seconds=0.0, paths=paths, trace=True, size=module.SMALLEST
    )
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.mismatches
    assert set(outcome.metrics) == set(harness.PER_LAYER)
    report = trace_report.build_report(read_trace(paths.trace_file))
    assert report["spans"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
