"""Tiny-size smoke of every workload, traced and untraced, and the manifest."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def bench(root: Path, workload: str, trace: int, seed: int = 3):
    process = subprocess.run(
        [sys.executable, str(RUN.relative_to(ROOT)), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return process


def result_of(process):
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    result = result_of(bench(ROOT, workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name][0]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_matches_untraced_outputs_and_attributes_layers(workload):
    # The run alternates untraced and traced repetitions and fails unless
    # every repetition wrote byte-identical outputs.
    result = result_of(bench(ROOT, workload, trace=1))
    assert result["correct"] is True
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert set(values) == set(PER_LAYER)
    for layer in ("fl.session.step", "baselines.local_update", "core.local_loss"):
        assert values[f"{layer}.self_s"] <= values[f"{layer}.total_s"] + 1e-9
    assert values["fl.execution.serial_fallbacks"] == 0
    if WORKLOADS[workload].kind == "table1":
        assert values["baselines.cohort_update.calls"] == 0
        assert values["core.local_loss.calls"] > 0
        assert values["cluster.kmeans.calls"] > 0
        assert values["runs.cell.calls"] == 4
        assert values["bench.step_attributed_share"] >= 0.9
    else:
        assert values["baselines.cohort_update.calls"] > 0
        assert values["core.local_loss.calls"] == 0
        assert values["nn.trace.replay.calls"] > 0
        assert values["baselines.batched_client_share"] == 1.0
        assert values["data.shm.bytes"] > 0
    if WORKLOADS[workload].pool_tasks:
        assert values["fl.execution.tasks"] > 0
        assert values["fl.execution.worker_busy_s"] > 0
        assert 0.0 <= values["fl.execution.idle_share"] <= 1.0
    else:
        assert values["fl.execution.tasks"] == 0


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = bench(tmp_path, "table1-serial", trace=0)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


def test_manifest_matches_the_benchmark():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert manifest["paths"] == ["perfbench"]
    listed = [name for name, workload in WORKLOADS.items() if workload.listed]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (name, WORKLOADS[name].why) for name in listed]
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
