"""Integration tests: TrainingSession over a VirtualPopulation.

Covers the population-plane session contracts from docs/population.md:
bitwise backend equivalence under churn, O(active) realization, resume
purity of the availability cursor, default-omitted config fingerprints,
population-wide personalization under the residency budget, and the
empty-round EarlyStopping guard.
"""

import json

import numpy as np
import pytest

from repro.data.synthetic import SyntheticImageDataset
from repro.eval.harness import make_encoder_factory
from repro.eval.registry import build_method
from repro.fl import (
    AvailabilitySpec,
    EarlyStopping,
    FederatedConfig,
    RoundRecord,
    TrainingSession,
    VirtualPopulation,
    read_checkpoint,
)
from repro.fl.session.events import RoundEnd
from repro.runs.serialize import DEFAULT_OMITTED_FIELDS, config_to_jsonable
from repro.telemetry import Tracer

CHURN = AvailabilitySpec(availability=0.6, churn=0.4, dropout=0.15,
                         speed_spread=0.3)


@pytest.fixture(scope="module")
def dataset():
    return SyntheticImageDataset(num_classes=4, train_per_class=80,
                                 test_per_class=10, seed=3)


def build_session(dataset, *, num_clients=60, backend="serial",
                  availability=CHURN, aggregation="sync", rounds=3,
                  clients_per_round=5, max_resident=8, seed=5,
                  tracer=None, **config_overrides):
    config = FederatedConfig(
        num_clients=num_clients, clients_per_round=clients_per_round,
        rounds=rounds, local_epochs=1, batch_size=8, backend=backend,
        availability=availability, aggregation=aggregation,
        personalization_epochs=1, seed=seed, **config_overrides)
    factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8),
                                   seed=7)
    algorithm = build_method("fedavg", config, dataset.num_classes, factory)
    population = VirtualPopulation(dataset, num_clients=num_clients,
                                   samples_per_client=12, seed=seed,
                                   max_resident=max_resident)
    session = TrainingSession(algorithm, population, config, tracer=tracer)
    return session, population


def state_snapshot(session):
    return {name: np.asarray(value).copy()
            for name, value in session.global_state.items()}


def records_json(session):
    return json.dumps([record.to_json()
                       for record in session.round_records],
                      sort_keys=True)


def test_churned_run_bitwise_across_backends(dataset):
    results = {}
    for backend in ("serial", "process"):
        session, population = build_session(dataset, backend=backend)
        try:
            session.run()
            results[backend] = (state_snapshot(session),
                                records_json(session))
        finally:
            session.close()
            population.close()
    serial_state, serial_records = results["serial"]
    state, records = results["process"]
    for name in serial_state:
        np.testing.assert_array_equal(
            serial_state[name], state[name],
            err_msg=f"{name} differs serial vs process")
    assert records == serial_records, "round records differ serial vs process"
    # Churn actually engaged: some round lost a sampled client to dropout.
    parsed = json.loads(serial_records)
    assert any(record["metrics"].get("dropouts") for record in parsed)


def test_only_sampled_clients_realized(dataset):
    tracer = Tracer()
    with tracer.activate():
        session, population = build_session(
            dataset, tracer=tracer, max_resident=32,
            availability=AvailabilitySpec(availability=0.6, churn=0.4))
        session.run()
    sampled = {pid for record in session.round_records
               for pid in record.participant_ids}
    # Every realization was for a sampled participant — never the whole
    # population — and the LRU kept residency at the budget.
    assert population.realized_total == len(sampled)
    assert population.realized_total < len(population)
    assert population.resident_count <= 32
    assert tracer.counters["population.realized"] == len(sampled)
    population.close()


def test_population_counters_and_staleness(dataset):
    tracer = Tracer()
    with tracer.activate():
        session, population = build_session(
            dataset, tracer=tracer, aggregation="staleness",
            availability=AvailabilitySpec(availability=0.8, churn=0.3,
                                          dropout=0.4, speed_spread=0.5))
        session.run()
    assert tracer.counters.get("round.dropouts", 0) >= 1
    assert "aggregate.staleness" in tracer.counters
    assert tracer.counters["population.realized"] >= 1
    population.close()


def test_resume_bitwise_under_churn(dataset, tmp_path):
    checkpoint = tmp_path / "mid.ckpt.json"

    reference, ref_population = build_session(dataset)
    reference.run()
    expected_state = state_snapshot(reference)
    expected_records = records_json(reference)
    ref_population.close()

    first, first_population = build_session(dataset)
    first.run_until(1)
    first.save_checkpoint(checkpoint)
    first_population.close()

    # The availability model's cursor (the last round whose membership
    # was drawn) rides in the checkpoint: resuming replays the chain
    # from round 0 and lands on the same draws.
    assert read_checkpoint(checkpoint).availability_state == \
        {"round_cursor": 0}

    resumed, resumed_population = build_session(dataset)
    resumed.load_checkpoint(checkpoint)
    resumed.run()
    for name in expected_state:
        np.testing.assert_array_equal(expected_state[name],
                                      resumed.global_state[name])
    assert records_json(resumed) == expected_records
    resumed_population.close()


def test_default_config_omits_population_knobs():
    plain = config_to_jsonable(FederatedConfig(num_clients=8, rounds=2))
    for name in DEFAULT_OMITTED_FIELDS:
        assert name not in plain, \
            f"default-valued {name} must not enter fingerprints"
    churned = config_to_jsonable(FederatedConfig(
        num_clients=8, rounds=2, availability=CHURN,
        aggregation="buffered", aggregation_buffer=4))
    assert churned["aggregation"] == "buffered"
    assert churned["aggregation_buffer"] == 4
    assert churned["availability"]["dropout"] == CHURN.dropout
    assert json.dumps(plain, sort_keys=True) != \
        json.dumps(churned, sort_keys=True)


def test_execute_personalizes_whole_population_bounded(dataset):
    session, population = build_session(
        dataset, num_clients=20, rounds=1, clients_per_round=4,
        max_resident=6)
    result = session.execute()
    # The personalization stage is population-wide (every client gets a
    # personalized accuracy) but realizes in max_resident-sized chunks.
    assert sorted(result.accuracies) == list(range(20))
    assert population.resident_count <= 6
    population.close()


def test_early_stopping_skips_empty_rounds():
    class StopProbe:
        stopped = False

        def request_stop(self):
            self.stopped = True

    def round_end(index, participants, loss):
        record = RoundRecord(round_index=index, participant_ids=participants,
                             mean_loss=loss)
        return RoundEnd(round_index=index, record=record)

    probe = StopProbe()
    stopper = EarlyStopping(patience=1)
    stopper.on_round_end(probe, round_end(0, [1, 2], 1.0))
    # A churned-empty round neither improves nor consumes patience.
    stopper.on_round_end(probe, round_end(1, [], 0.0))
    assert not probe.stopped
    stopper.on_round_end(probe, round_end(2, [1, 2], 1.0))
    assert probe.stopped
    assert stopper.stopped_round == 2
