"""Smoke test for the benchmark itself, at tiny sizes.

Run from the repository root (it is outside the tier-1 ``tests/`` path):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The per-phase breakdown printed (not gated) for the workloads that have each phase.
PHASE_METRICS = {
    "train": ["train_windows_per_s", "train_step_ms.p50", "train_step_ms.tail", "train_loss"],
    "eval": ["eval_windows_per_s", "eval_batch_ms.p50", "eval_batch_ms.tail", "test_mse"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def sections(stdout):
    """Split the all-workloads output into (table lines, result) per workload."""
    out, table = [], []
    for line in stdout.splitlines():
        if line.startswith("{"):
            out.append((table, json.loads(line)))
            table = []
        else:
            table.append(line)
    return out


def printed(table, metric, unit):
    pattern = rf"^\s*{re.escape(metric)}\s+\S+\s+{re.escape(unit)}(\s|$)"
    return any(re.match(pattern, line) for line in table)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_runs_every_workload_and_prints_every_metric(trace, key):
    proc = bench("--tiny", "--seconds", "1", "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    runs = sections(proc.stdout)
    assert len(runs) == len(WORKLOADS) + 1          # one result per workload, then the summary
    for name, (table, result) in zip(WORKLOADS, runs):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, name
        for metric, unit in expected.items():
            assert printed(table, metric, unit), (name, metric)
        assert printed(table, "failed_frac", "frac")
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name
            phases = ("train", "eval") if name != "backbone-eval" else ("eval",)
            for phase in phases:
                for metric in PHASE_METRICS[phase]:
                    assert any(line.split()[:1] == [metric] for line in table), (name, metric)
        env = json.loads(next(line for line in table if line.startswith("env "))[4:])
        assert env["blas_threads"] == 1 and env["seed"] == 3 and env["samples"]


def test_graph_census_repeats_exactly_across_seeds():
    census = []
    for seed in (1, 2):
        proc = bench("--workload", "backbone-train", "--tiny", "--seconds", "1",
                     "--seed", str(seed), "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        census.append([metrics[k]["value"] for k in ("tensor.graph_nodes",
                                                     "tensor.graph_f64_frac")])
    assert census[0] == census[1] and census[0][0] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
