"""Round-loop mechanics of ``TrainingSession`` and failure injection."""

import numpy as np
import pytest

from repro.data import make_cifar10_like, partition_iid
from repro.fl import (
    ClientData,
    ClientUpdate,
    FederatedAlgorithm,
    FederatedConfig,
    RoundRobinSampler,
    TrainingSession,
    build_federation,
)
from repro.fl.personalization import PersonalizationResult
from repro.nn import Linear


class CountingAlgorithm(FederatedAlgorithm):
    """Instrumented algorithm recording every call the session makes."""

    name = "counting"

    def __init__(self, config, num_classes=10):
        super().__init__(config, num_classes)
        self.local_updates = []
        self.aggregations = 0
        self.personalizations = []

    def build_global_state(self):
        return {"w": np.zeros(3)}

    def local_update(self, client, global_state, round_index):
        self.local_updates.append((round_index, client.client_id))
        return ClientUpdate(
            client_id=client.client_id,
            state={"w": global_state["w"] + 1.0},
            weight=float(client.num_train_samples),
            metrics={"loss": 1.0},
        )

    def aggregate(self, updates, global_state, round_index):
        self.aggregations += 1
        return super().aggregate(updates, global_state, round_index)

    def extract_features(self, client, global_state, images):
        return images.reshape(images.shape[0], -1)

    def personalize(self, client, global_state):
        self.personalizations.append(client.client_id)
        return PersonalizationResult(accuracy=0.5, train_accuracy=0.5,
                                     head=Linear(2, 2), losses=[])


def make_clients(n=4):
    dataset = make_cifar10_like(image_size=8, train_per_class=10, test_per_class=2,
                                seed=0)
    parts = partition_iid(dataset.train.labels, n, np.random.default_rng(0))
    return build_federation(dataset, parts, seed=0)


class TestServerLoop:
    def test_round_and_personalization_counts(self):
        config = FederatedConfig(num_clients=4, clients_per_round=2, rounds=3,
                                 personalization_epochs=1, seed=0)
        algorithm = CountingAlgorithm(config)
        session = TrainingSession(algorithm, make_clients(4), config)
        result = session.execute()
        assert algorithm.aggregations == 3
        assert len(algorithm.local_updates) == 3 * 2
        assert sorted(algorithm.personalizations) == [0, 1, 2, 3]
        assert len(result.rounds) == 3
        assert result.rounds[0].mean_loss == pytest.approx(1.0)

    def test_global_state_advances_each_round(self):
        config = FederatedConfig(num_clients=4, clients_per_round=4, rounds=2, seed=0)
        algorithm = CountingAlgorithm(config)
        session = TrainingSession(algorithm, make_clients(4), config)
        final = session.run()
        np.testing.assert_allclose(final["w"], np.full(3, 2.0))

    def test_personalize_before_train_raises(self):
        config = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1, seed=0)
        session = TrainingSession(CountingAlgorithm(config), make_clients(4), config)
        with pytest.raises(RuntimeError):
            session.personalize()

    def test_zero_rounds_still_personalizes(self):
        config = FederatedConfig(num_clients=4, clients_per_round=2, rounds=0, seed=0)
        algorithm = CountingAlgorithm(config)
        session = TrainingSession(algorithm, make_clients(4), config)
        result = session.execute()
        assert algorithm.aggregations == 0
        assert len(result.accuracies) == 4

    def test_requires_clients(self):
        config = FederatedConfig(num_clients=1, clients_per_round=1, rounds=1, seed=0)
        with pytest.raises(ValueError):
            TrainingSession(CountingAlgorithm(config), [], config)

    def test_round_robin_sampler_injected(self):
        config = FederatedConfig(num_clients=4, clients_per_round=2, rounds=2, seed=0)
        algorithm = CountingAlgorithm(config)
        session = TrainingSession(algorithm, make_clients(4), config,
                                 sampler=RoundRobinSampler(2))
        session.run()
        assert [cid for _, cid in algorithm.local_updates] == [0, 1, 2, 3]

    def test_non_finite_losses_surfaced_not_swallowed(self):
        import warnings

        class DivergingAlgorithm(CountingAlgorithm):
            def local_update(self, client, global_state, round_index):
                update = super().local_update(client, global_state, round_index)
                if client.client_id == 0:
                    update.metrics["loss"] = float("nan")
                return update

        config = FederatedConfig(num_clients=4, clients_per_round=4, rounds=2, seed=0)
        session = TrainingSession(DivergingAlgorithm(config), make_clients(4), config)
        with pytest.warns(RuntimeWarning, match="non-finite"):
            session.run()
        for record in session.round_records:
            assert record.metrics["non_finite_losses"] == 1
            assert record.mean_loss == pytest.approx(1.0)  # finite clients only
        # The warning fires once per run, not once per round.
        session2 = TrainingSession(DivergingAlgorithm(config), make_clients(4), config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session2.run()
        assert sum("non-finite" in str(w.message) for w in caught) == 1

    def test_all_finite_losses_leave_no_warning(self):
        import warnings

        config = FederatedConfig(num_clients=4, clients_per_round=2, rounds=2, seed=0)
        session = TrainingSession(CountingAlgorithm(config), make_clients(4), config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            session.run()
        assert all(r.metrics["non_finite_losses"] == 0 for r in session.round_records)

    def test_novel_clients_not_trained(self):
        config = FederatedConfig(num_clients=4, clients_per_round=4, rounds=2, seed=0)
        algorithm = CountingAlgorithm(config)
        clients = make_clients(4)
        novel = [ClientData(client_id=99, train=clients[0].train,
                            test=clients[0].test, is_novel=True)]
        session = TrainingSession(algorithm, clients, config, novel_clients=novel)
        result = session.execute()
        trained_ids = {cid for _, cid in algorithm.local_updates}
        assert 99 not in trained_ids
        assert 99 in result.novel_accuracies


class TestDefaultAggregation:
    def test_identical_updates_are_fixed_point(self):
        config = FederatedConfig(num_clients=2, clients_per_round=2, rounds=1, seed=0)
        algorithm = CountingAlgorithm(config)
        state = {"w": np.array([1.0, 2.0])}
        updates = [
            ClientUpdate(client_id=0, state={"w": np.array([1.0, 2.0])}, weight=3.0),
            ClientUpdate(client_id=1, state={"w": np.array([1.0, 2.0])}, weight=7.0),
        ]
        merged = algorithm.aggregate(updates, state, 0)
        np.testing.assert_allclose(merged["w"], [1.0, 2.0])

    def test_empty_round_keeps_global_state(self):
        config = FederatedConfig(num_clients=2, clients_per_round=2, rounds=1, seed=0)
        algorithm = CountingAlgorithm(config)
        state = {"w": np.array([5.0])}
        assert algorithm.aggregate([], state, 0) is state

    def test_weighting_by_samples(self):
        config = FederatedConfig(num_clients=2, clients_per_round=2, rounds=1, seed=0)
        algorithm = CountingAlgorithm(config)
        updates = [
            ClientUpdate(client_id=0, state={"w": np.array([0.0])}, weight=1.0),
            ClientUpdate(client_id=1, state={"w": np.array([10.0])}, weight=3.0),
        ]
        merged = algorithm.aggregate(updates, {"w": np.array([0.0])}, 0)
        np.testing.assert_allclose(merged["w"], [7.5])
