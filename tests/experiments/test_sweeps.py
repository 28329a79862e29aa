"""Tests for the per-figure sweep definitions and store-backed reporting."""

import hashlib

import pytest

from repro.eval import NonIIDSetting, format_ablation_table
from repro.experiments import (
    TABLE1_TOGGLES,
    TABLE1_VARIANTS,
    embeddings_sweep,
    fig3_sweep,
    fig4_sweep,
    run_table1,
    table1_rows_from_records,
    table1_sweep,
)
from repro.fl import FederatedConfig
from repro.runs import RunStore, run_sweep

TINY_CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1,
                              local_epochs=1, batch_size=16,
                              personalization_epochs=2, seed=0)
TINY_DATASET = dict(image_size=8, train_per_class=16, test_per_class=4)
TINY_SETTING = NonIIDSetting("quantity", 2, 20)

# (grid, cell count, sha256[:16] of its space-joined cell fingerprints) for
# every paper artifact's default grid.  A fingerprint is the store address
# of a cell, so any drift here orphans every stored cell of that artifact.
GRID_FINGERPRINTS = [
    ("table1", 12, "8dc11940e3259c2d"),
    ("fig3-panel0", 20, "a855e2e457c33d3c"),
    ("fig3-panel1", 20, "aebb489b2dc2d143"),
    ("fig3-panel2", 20, "23e3cd4844ef47ec"),
    ("fig3-panel3", 20, "c736d9ac80ebc9a3"),
    ("fig4-panel0", 12, "20b06cc451fb5b74"),
    ("fig4-panel1", 12, "180c6ac6aacd3201"),
    ("fig1", 2, "2aca5315eeeb3f2e"),
    ("fig2", 2, "2aca5315eeeb3f2e"),
    ("fig5", 4, "d5693755c2c6d0f4"),
    ("fig6", 2, "ba01a2ace19ee0e9"),
    ("fig7", 6, "78af86a7d6bc3ea3"),
    ("fig8", 6, "91ae8613e19e3b5e"),
]


def artifact_sweep(grid):
    if grid == "table1":
        return table1_sweep()
    if grid.startswith(("fig3-", "fig4-")):
        build = fig3_sweep if grid.startswith("fig3") else fig4_sweep
        return build(int(grid[-1]))
    return embeddings_sweep(grid)


class TestSweepDefinitions:
    def test_table1_grid_is_twelve_cells(self):
        sweep = table1_sweep()
        assert sweep.num_cells == len(TABLE1_VARIANTS) * len(TABLE1_TOGGLES) == 12
        labels = [v.label for v in sweep.variants]
        assert labels == ["ln0-lp0", "ln1-lp0", "ln0-lp1", "ln1-lp1"]
        for key in sweep.cells():
            assert key.overrides["num_prototypes"] == 5
            assert isinstance(key.overrides["use_ln"], bool)

    def test_fig3_grid_one_cell_per_method(self):
        sweep = fig3_sweep(0, methods=["script-fair", "fedavg"], seeds=(0, 1))
        assert sweep.num_cells == 4
        assert sweep.datasets == ["cifar10"]

    def test_samples_per_client_scales_the_setting(self):
        sweep = fig3_sweep(0, methods=["script-fair"], samples_per_client=20)
        assert sweep.settings[0].samples_per_client == 20
        default = fig3_sweep(0, methods=["script-fair"])
        assert sweep.cells()[0].fingerprint != default.cells()[0].fingerprint

    def test_fig3_calibre_overrides_injected(self):
        sweep = fig3_sweep(0, methods=["calibre-simclr"])
        assert sweep.cells()[0].overrides == {"num_prototypes": 5}

    def test_fig4_config_carries_novel_clients(self):
        sweep = fig4_sweep(1, methods=["fedavg-ft"], num_novel_clients=3)
        assert sweep.config.num_novel_clients == 3
        assert sweep.datasets == ["cifar100"]

    def test_bad_panel_rejected(self):
        with pytest.raises(IndexError):
            fig3_sweep(9)
        with pytest.raises(IndexError):
            fig4_sweep(5)


@pytest.mark.parametrize("grid,cells,digest", GRID_FINGERPRINTS,
                         ids=[grid for grid, _, _ in GRID_FINGERPRINTS])
def test_artifact_grid_fingerprints_are_pinned(grid, cells, digest):
    fingerprints = [key.fingerprint for key in artifact_sweep(grid).cells()]
    assert len(fingerprints) == cells
    assert hashlib.sha256(" ".join(fingerprints).encode()).hexdigest()[:16] \
        == digest


class TestTable1RowOrdering:
    def run_tiny(self, **kwargs):
        return table1_sweep(variants=["calibre-simclr"], config=TINY_CONFIG,
                            setting=TINY_SETTING, dataset_kwargs=TINY_DATASET,
                            **kwargs)

    def test_rows_follow_paper_toggle_order(self, tmp_path):
        sweep = self.run_tiny()
        summary = run_sweep(sweep, store=tmp_path)
        rows = table1_rows_from_records(summary.cells, summary.records,
                                        variants=["calibre-simclr"])
        assert [(r["ln"], r["lp"]) for r in rows] == TABLE1_TOGGLES

    def test_rows_independent_of_completion_order(self, tmp_path):
        # rows are keyed by grid coordinates, never by store/file order, so
        # loading records back from disk reproduces the exact same table.
        sweep = self.run_tiny()
        summary = run_sweep(sweep, store=tmp_path)
        live_rows = table1_rows_from_records(summary.cells, summary.records,
                                             variants=["calibre-simclr"])
        cells = sweep.cells()
        reloaded = RunStore(tmp_path).load_records(cells)
        stored_rows = table1_rows_from_records(cells, reloaded,
                                               variants=["calibre-simclr"])
        assert format_ablation_table(stored_rows) == format_ablation_table(live_rows)

    def test_missing_cell_raises(self, tmp_path):
        sweep = self.run_tiny()
        cells = sweep.cells()
        with pytest.raises(KeyError):
            table1_rows_from_records(cells, [None] * len(cells),
                                     variants=["calibre-simclr"])


class TestRunTable1StoreBacked:
    def test_store_backed_rerun_skips_training(self, tmp_path):
        kwargs = dict(variants=["calibre-simclr"], config=TINY_CONFIG,
                      setting=TINY_SETTING, dataset_kwargs=TINY_DATASET,
                      store=tmp_path)
        first = run_table1(**kwargs)
        assert len(RunStore(tmp_path)) == len(TABLE1_TOGGLES)
        second = run_table1(**kwargs)  # replays from the store
        assert format_ablation_table(second) == format_ablation_table(first)
