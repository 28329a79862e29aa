"""Tests for sweep grids and content-hashed run keys."""

import pytest

from repro.eval import NonIIDSetting
from repro.fl import FederatedConfig
from repro.runs import FINGERPRINT_LENGTH, RunKey, SweepSpec, SweepVariant

CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1,
                         local_epochs=1, batch_size=16,
                         personalization_epochs=2, seed=0)
SETTING = NonIIDSetting("quantity", 2, 20)


def make_key(**overrides):
    fields = dict(dataset="cifar10", setting=SETTING, method="script-fair",
                  seed=0, config=CONFIG)
    fields.update(overrides)
    return RunKey(**fields)


class TestRunKeyFingerprint:
    def test_stable_and_hex(self):
        key = make_key()
        assert key.fingerprint == make_key().fingerprint
        assert len(key.fingerprint) == FINGERPRINT_LENGTH
        int(key.fingerprint, 16)  # valid hex

    def test_execution_knobs_do_not_change_the_hash(self):
        # backend/workers/shared_memory are bitwise result-neutral, so a
        # sweep resumed under a different scheduler must recognize its cells.
        base = make_key()
        parallel = make_key(config=CONFIG.with_overrides(
            backend="process", workers=4, shared_memory=True))
        assert base.fingerprint == parallel.fingerprint

    def test_variant_label_is_cosmetic(self):
        assert make_key(variant="a").fingerprint == make_key(variant="b").fingerprint

    def test_semantic_fields_change_the_hash(self):
        base = make_key().fingerprint
        assert make_key(seed=1).fingerprint != base
        assert make_key(method="fedavg").fingerprint != base
        assert make_key(setting=NonIIDSetting("dirichlet", 0.3, 20)).fingerprint != base
        assert make_key(overrides={"use_ln": True}).fingerprint != base
        assert make_key(config=CONFIG.with_overrides(rounds=2)).fingerprint != base
        assert make_key(dataset_kwargs={"image_size": 8}).fingerprint != base

    def test_parameter_int_float_equivalence(self):
        quantity_int = make_key(setting=NonIIDSetting("quantity", 2, 20))
        quantity_float = make_key(setting=NonIIDSetting("quantity", 2.0, 20))
        assert quantity_int.fingerprint == quantity_float.fingerprint


class TestRunKeyConversions:
    def test_jsonable_round_trip(self):
        key = make_key(variant="ln1-lp0", overrides={"use_ln": True},
                       dataset_kwargs={"image_size": 8})
        clone = RunKey.from_jsonable(key.to_jsonable())
        assert clone.fingerprint == key.fingerprint
        assert clone.variant == key.variant
        assert clone.method == key.method
        assert clone.setting == key.setting

    @pytest.mark.parametrize("retired", [
        {"aggregation": "buffered"},
        {"aggregation_buffer": 4},
        {"staleness_decay": 0.75},
        {"availability": {"availability": 0.5, "churn": 1.0, "dropout": 0.0,
                          "speed_spread": 0.0}},
        {"availability": {"availability": 0.5, "churn": 1.0, "dropout": 0.0,
                          "speed_spread": 0.0},
         "staleness_decay": 0.75},
    ])
    def test_retired_population_fields_are_refused(self, retired):
        payload = make_key().to_jsonable()
        payload["config"].update(retired)
        with pytest.raises(ValueError) as error:
            RunKey.from_jsonable(payload)
        message = str(error.value)
        assert len(message.splitlines()) == 1
        assert f"retired or unknown field(s) {', '.join(sorted(retired))}" in message

    def test_to_spec_is_single_method(self):
        key = make_key(overrides={"num_prototypes": 5})
        spec = key.to_spec()
        assert spec.methods == ["script-fair"]
        assert spec.method_overrides == {"script-fair": {"num_prototypes": 5}}
        assert spec.config == CONFIG
        assert spec.seed == 0

    def test_label_mentions_coordinates(self):
        label = make_key(variant="ln1-lp0").label()
        assert "script-fair" in label and "seed=0" in label and "ln1-lp0" in label


class TestSweepSpec:
    def make_sweep(self, **overrides):
        fields = dict(name="grid", methods=["script-fair", "fedavg"],
                      settings=[SETTING], seeds=[0, 1], config=CONFIG,
                      variants=[SweepVariant("a"), SweepVariant("b", {"lr": 0.1})])
        fields.update(overrides)
        return SweepSpec(**fields)

    def test_grid_expansion_count_and_order(self):
        sweep = self.make_sweep()
        cells = sweep.cells()
        assert len(cells) == sweep.num_cells == 2 * 1 * 2 * 2
        # canonical nesting: seed, dataset, setting, variant, method
        coords = [(k.seed, k.variant, k.method) for k in cells]
        assert coords == [
            (0, "a", "script-fair"), (0, "a", "fedavg"),
            (0, "b", "script-fair"), (0, "b", "fedavg"),
            (1, "a", "script-fair"), (1, "a", "fedavg"),
            (1, "b", "script-fair"), (1, "b", "fedavg"),
        ]

    def test_cells_reseed_config_per_seed(self):
        for key in self.make_sweep().cells():
            assert key.config.seed == key.seed

    def test_variant_overrides_merge_over_base(self):
        sweep = self.make_sweep(
            method_overrides={"script-fair": {"lr": 0.5, "epochs": 3}})
        by = {(k.variant, k.method): k for k in sweep.cells()}
        assert by[("b", "script-fair")].overrides == {"lr": 0.1, "epochs": 3}
        assert by[("a", "script-fair")].overrides == {"lr": 0.5, "epochs": 3}
        assert by[("a", "fedavg")].overrides == {}

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            self.make_sweep(methods=["bogus"])

    def test_duplicate_variant_labels_rejected(self):
        with pytest.raises(ValueError):
            self.make_sweep(variants=[SweepVariant("x"), SweepVariant("x")])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            self.make_sweep(seeds=[])

    def test_to_experiment_spec_single_panel(self):
        sweep = self.make_sweep(seeds=[3], variants=[SweepVariant()])
        spec = sweep.to_experiment_spec()
        assert spec.methods == ["script-fair", "fedavg"]
        assert spec.seed == 3
        assert spec.config.seed == 3

    def test_to_experiment_spec_rejects_multi_variant(self):
        with pytest.raises(ValueError):
            self.make_sweep().to_experiment_spec(seed=0)

    def test_jsonable_includes_fingerprints(self):
        sweep = self.make_sweep()
        payload = sweep.to_jsonable()
        assert payload["fingerprints"] == [k.fingerprint for k in sweep.cells()]
        assert payload["name"] == "grid"
        for field in ("backend", "workers", "shared_memory"):
            assert field not in payload["config"]
