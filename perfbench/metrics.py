"""Metric definitions and their computation from repetitions.

End-to-end metrics come from untraced repetitions; per-layer metrics from
traced ones.  ``BENCHMARK.json`` lists the same names, units and
directions; the benchmark's tests check that the two agree.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from perfbench.workloads import Rep

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer", "merge"]

# name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "artifact_s": ("s", "lower"),
    "rounds_per_s": ("1/s", "higher"),
    "round_ms.p50": ("ms", "lower"),
    "round_ms.p90": ("ms", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

_CALLS_TOTAL = ("data.augment", "ssl.compute", "nn.backward", "nn.optim_step",
                "nn.trace.replay", "baselines.cohort_update", "core.aggregate",
                "cluster.kmeans", "fl.linear_probe", "runs.cell")
_CALLS_TOTAL_SELF = ("fl.session.step", "baselines.local_update", "core.local_loss")
_TOTAL = ("data.make_dataset", "data.shm.share", "eval.build_method",
          "fl.build_federation", "fl.personalize", "fl.extract_features",
          "runs.store.write_record", "runs.store.write_telemetry",
          "runs.store.load_records", "runs.save_outcome")

# name -> (unit, better); work done, time, bytes and waste are "lower"
PER_LAYER: Dict[str, Tuple[str, str]] = {"cli.import_s": ("s", "lower")}
for _layer in _CALLS_TOTAL + _CALLS_TOTAL_SELF:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.total_s"] = ("s", "lower")
for _layer in _CALLS_TOTAL_SELF:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
for _layer in _TOTAL:
    PER_LAYER[f"{_layer}.total_s"] = ("s", "lower")
PER_LAYER.update({
    "data.shm.bytes": ("bytes", "lower"),
    "fl.execution.tasks": ("count", "lower"),
    "fl.execution.wait_s": ("s", "lower"),
    "fl.execution.worker_busy_s": ("s", "lower"),
    "fl.execution.idle_share": ("ratio", "lower"),
    "fl.execution.ipc_bytes": ("bytes_computed", "lower"),
    "fl.execution.serial_fallbacks": ("count", "lower"),
    "baselines.batched_client_share": ("ratio", "higher"),
    "baselines.cohort_fallback_clients": ("count", "lower"),
    "nn.trace.record.calls": ("count", "lower"),
    "cluster.kmeans.iterations": ("count", "lower"),
    "runs.cell_s.max": ("s", "lower"),
    "runs.store.write_record.bytes": ("bytes", "lower"),
    "runs.store.write_telemetry.bytes": ("bytes", "lower"),
    "bench.step_attributed_share": ("ratio", "higher"),
    "bench.client_update_attributed_share": ("ratio", "higher"),
    "bench.trace_overhead_share": ("ratio", "lower"),
})


def _median(values: List[float]) -> float:
    values = [value for value in values if value == value]  # drop NaN
    return statistics.median(values) if values else float("nan")


def end_to_end(reps: List[Rep], ok_frac: float) -> Dict[str, float]:
    """Medians over untraced repetitions; round percentiles over all their rounds."""
    rounds_ms = sorted(1000.0 * value for rep in reps for value in rep.round_s)
    p50 = statistics.median(rounds_ms) if rounds_ms else float("nan")
    p90 = (statistics.quantiles(rounds_ms, n=10, method="inclusive")[-1]
           if len(rounds_ms) > 1 else float("nan"))
    return {
        "setup_s": _median([rep.setup_s for rep in reps]),
        "artifact_s": _median([rep.artifact_s for rep in reps]),
        "rounds_per_s": _median([rep.rounds_per_s for rep in reps]),
        "round_ms.p50": p50,
        "round_ms.p90": p90,
        "cpu_s": _median([rep.cpu_s for rep in reps]),
        "peak_rss_mb": _median([rep.peak_rss_mb for rep in reps]),
        "ok_frac": ok_frac,
    }


def merge(rep: Rep) -> Tuple[Dict[str, List[float]], Dict[str, float], Dict[str, float]]:
    """Sum the spans and counters of every process of ``rep``; max the maxima."""
    stats: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    for proc in rep.procs:
        for payload in proc.all_files():
            for layer, values in payload["stats"].items():
                total = stats.setdefault(layer, [0, 0.0, 0.0])
                for index, value in enumerate(values):
                    total[index] += value
            for name, value in payload["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in payload["maxima"].items():
                maxima[name] = max(maxima.get(name, value), value)
    return stats, counters, maxima


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def per_layer(rep: Rep) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (``bench.trace_overhead_share``
    is filled in by the caller, which has the untraced repetitions)."""
    stats, counters, maxima = merge(rep)

    def stat(layer: str, index: int) -> float:
        return stats.get(layer, (0, 0.0, 0.0))[index]

    values: Dict[str, float] = {"cli.import_s": rep.procs[0].main.get("cli_import_s",
                                                                         float("nan"))}
    for layer in _CALLS_TOTAL + _CALLS_TOTAL_SELF:
        values[f"{layer}.calls"] = stat(layer, 0)
        values[f"{layer}.total_s"] = stat(layer, 1)
    for layer in _CALLS_TOTAL_SELF:
        values[f"{layer}.self_s"] = stat(layer, 2)
    for layer in _TOTAL:
        values[f"{layer}.total_s"] = stat(layer, 1)
    busy = stat("fl.execution.worker_task", 1)
    capacity = counters.get("fl.execution.capacity_s", 0.0)
    fallback_clients = counters.get("baselines.cohort_fallback_clients", 0)
    batched = counters.get("baselines.cohort_clients", 0) - fallback_clients
    client_updates = batched + stat("baselines.local_update", 0)
    update_total = stat("baselines.local_update", 1) + stat("baselines.cohort_update", 1)
    update_self = stat("baselines.local_update", 2) + stat("baselines.cohort_update", 2)
    values.update({
        "data.shm.bytes": counters.get("data.shm.bytes", 0),
        "fl.execution.tasks": stat("fl.execution.worker_task", 0),
        "fl.execution.wait_s": stat("fl.execution.dispatch", 1),
        "fl.execution.worker_busy_s": busy,
        "fl.execution.idle_share": 1.0 - _share(busy, capacity) if capacity > 0 else 0.0,
        "fl.execution.ipc_bytes": counters.get("fl.execution.ipc_bytes", 0),
        "fl.execution.serial_fallbacks": counters.get("fl.execution.serial_fallbacks", 0),
        "baselines.batched_client_share": _share(batched, client_updates),
        "baselines.cohort_fallback_clients": fallback_clients,
        "nn.trace.record.calls": stat("nn.trace.record", 0),
        "cluster.kmeans.iterations": counters.get("cluster.kmeans.iterations", 0),
        "runs.cell_s.max": maxima.get("runs.cell_s.max", 0.0),
        "runs.store.write_record.bytes": counters.get("runs.store.write_record.bytes", 0),
        "runs.store.write_telemetry.bytes":
            counters.get("runs.store.write_telemetry.bytes", 0),
        "bench.step_attributed_share":
            1.0 - _share(stat("fl.session.step", 2), stat("fl.session.step", 1)),
        "bench.client_update_attributed_share":
            1.0 - _share(update_self, update_total) if update_total > 0 else 0.0,
    })
    return values
