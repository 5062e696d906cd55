"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench -q

Each workload must emit every metric ``BENCHMARK.json`` names, with its
unit, in both modes; a repetition whose output check fails must be
counted as failed, not dropped; and a checkout without the simulator's
source must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _run(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == run.PER_LAYER


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, section):
    proc = _run(run.ROOT, "--workload", name, "--seed", "3",
                "--seconds", "0", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    emitted = {key: metric["unit"]
               for key, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())


def test_wrong_expected_count_is_reported_as_failed(monkeypatch):
    honest = workloads.expected_counts

    def off_by_one(config):
        expected = honest(config)
        expected["node_ops"] = [ops + 1 for ops in expected["node_ops"]]
        return expected

    monkeypatch.setattr(workloads, "expected_counts", off_by_one)
    result = run.measure("redis-fig11", seed=3, seconds=0, trace=False,
                         toy=True)
    assert result["attempted"] == run.MIN_REPS
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert set(result["metrics"]) == dict(run.END_TO_END).keys()


def test_checkout_without_source_fails_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "redis-fig11", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
