"""Tests for the sweep scheduler: resume, budgets, and determinism."""

import pytest

from repro.eval import NonIIDSetting, format_comparison_table, run_experiment
from repro.fl import FederatedConfig
from repro.runs import (
    RunStore,
    SweepSpec,
    outcome_from_records,
    run_sweep,
)

TINY_CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1,
                              local_epochs=1, batch_size=16,
                              personalization_epochs=2, seed=0)
TINY_DATASET = dict(image_size=8, train_per_class=16, test_per_class=4)


def tiny_sweep(methods=("script-fair", "fedavg"), seeds=(0,)):
    return SweepSpec(
        name="tiny",
        methods=list(methods),
        settings=[NonIIDSetting("dirichlet", 0.5, 20)],
        seeds=list(seeds),
        config=TINY_CONFIG,
        dataset_kwargs={"cifar10": dict(TINY_DATASET)},
    )


class TestRunSweep:
    def test_ephemeral_pass_returns_all_records(self):
        summary = run_sweep(tiny_sweep())
        assert summary.complete
        assert len(summary.executed) == 2 and not summary.skipped
        assert [r["key"]["method"] for r in summary.records] == [
            "script-fair", "fedavg"]
        for key, record in zip(summary.cells, summary.records):
            assert record["fingerprint"] == key.fingerprint
            assert 0.0 <= record["report"]["mean"] <= 1.0

    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        sweep = tiny_sweep()
        first = run_sweep(sweep, store=tmp_path, max_cells=1)
        assert len(first.executed) == 1 and len(first.deferred) == 1
        assert not first.complete

        second = run_sweep(sweep, store=tmp_path)
        # exactly the deferred cell recomputes; the finished one is skipped
        assert len(second.executed) == 1
        assert second.skipped == first.executed
        assert second.complete

        third = run_sweep(sweep, store=tmp_path)
        assert not third.executed and len(third.skipped) == 2
        assert third.complete

    def test_results_identical_across_schedulers(self, tmp_path):
        sweep = tiny_sweep()
        serial_dir, process_dir = tmp_path / "serial", tmp_path / "process"
        run_sweep(sweep, store=serial_dir, backend="serial")
        run_sweep(sweep, store=process_dir, backend="process", workers=2)
        for key in sweep.cells():
            serial_bytes = RunStore(serial_dir).path_for(key).read_bytes()
            process_bytes = RunStore(process_dir).path_for(key).read_bytes()
            assert serial_bytes == process_bytes

    def test_outcome_from_records_matches_live_run(self):
        sweep = tiny_sweep()
        summary = run_sweep(sweep)
        rebuilt = outcome_from_records(sweep.to_experiment_spec(), summary.records)
        live = run_experiment(sweep.to_experiment_spec())
        assert format_comparison_table(rebuilt) == format_comparison_table(live)
        for method in sweep.methods:
            assert rebuilt.results[method].accuracies == live.results[method].accuracies

    def test_outcome_from_records_rejects_duplicate_methods(self):
        # records spanning seeds/variants must be sliced by the caller, not
        # silently last-win merged into one outcome
        sweep = tiny_sweep(methods=["script-fair"])
        record = {"key": {"method": "script-fair"},
                  "result": {"algorithm": "script-fair", "accuracies": {"0": 0.5}}}
        with pytest.raises(ValueError):
            outcome_from_records(sweep.to_experiment_spec(), [record, dict(record)])

    def test_duplicate_cells_execute_once(self, tmp_path):
        summary = run_sweep(tiny_sweep(methods=["script-fair", "script-fair"]),
                            store=tmp_path)
        assert len(summary.executed) == 1
        assert len(summary.records) == 2
        assert summary.records[0] is summary.records[1]

    def test_max_cells_zero_executes_nothing(self, tmp_path):
        summary = run_sweep(tiny_sweep(), store=tmp_path, max_cells=0)
        assert not summary.executed and len(summary.deferred) == 2
        with pytest.raises(ValueError):
            run_sweep(tiny_sweep(), max_cells=-1)

    def test_store_holds_sweep_provenance(self, tmp_path):
        sweep = tiny_sweep()
        run_sweep(sweep, store=tmp_path, max_cells=0)
        store = RunStore(tmp_path)
        assert (store.sweeps_dir / "tiny.json").is_file()
