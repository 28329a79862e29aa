"""Profile aggregation: phases, straggler spread, workers, rendering."""

import json

from repro.telemetry import (
    load_store_telemetry,
    parse_sidecar,
    profile_cell,
    render_profile,
)


def span_line(span_id, name, start, dur, parent=None, tid=0, pid=99,
              **attrs):
    payload = {"kind": "span", "id": span_id, "name": name, "cat": "phase",
               "start_s": start, "dur_s": dur, "pid": pid, "tid": tid}
    if parent is not None:
        payload["parent"] = parent
    if attrs:
        payload["attrs"] = attrs
    return json.dumps(payload)


def two_round_sidecar():
    """cell > 2 rounds; client_update durations 1,2,5 then 2,2,2.

    Every client span is its own merged fragment (a fresh tid); client 0
    ran in worker process 98, clients 1 and 2 in process 99.
    """
    lines = [
        json.dumps({"kind": "meta", "schema": 1, "fingerprint": "f" * 16,
                    "label": "cifar10 fedavg seed=0"}),
        span_line(1, "cell", 0.0, 20.0, fingerprint="f" * 16),
        span_line(2, "round", 0.0, 9.0, parent=1, round=0),
        span_line(3, "dispatch", 1.0, 8.0, parent=2, participants=3),
        # round attr is inherited from the ancestor chain, not repeated.
        span_line(4, "client_update", 1.0, 1.0, parent=3, tid=1, pid=98,
                  client_id=0),
        span_line(5, "client_update", 1.0, 2.0, parent=3, tid=2, client_id=1),
        span_line(6, "client_update", 1.0, 5.0, parent=3, tid=3, client_id=2),
        span_line(7, "round", 9.0, 7.0, parent=1, round=1),
        span_line(8, "dispatch", 10.0, 6.0, parent=7, participants=3),
        span_line(9, "client_update", 10.0, 2.0, parent=8, tid=1, pid=98,
                  client_id=0),
        span_line(10, "client_update", 10.0, 2.0, parent=8, tid=2,
                  client_id=1),
        span_line(11, "client_update", 10.0, 2.0, parent=8, tid=3,
                  client_id=2),
        json.dumps({"kind": "counter", "name": "trace.replays", "value": 2}),
    ]
    return "".join(line + "\n" for line in lines)


class TestCellProfile:
    def profile(self):
        return profile_cell("f" * 16, parse_sidecar(two_round_sidecar()))

    def test_cell_duration_and_round_count(self):
        profile = self.profile()
        assert profile.cell_duration_s == 20.0
        assert profile.rounds == 2

    def test_phase_totals(self):
        dispatch = self.profile().phases["dispatch"]
        assert (dispatch.count, dispatch.total_s) == (2, 14.0)
        assert dispatch.mean_s == 7.0
        assert dispatch.max_s == 8.0

    def test_client_stats_distribution(self):
        clients = self.profile().clients["client_update"]
        assert clients.count == 6
        assert clients.total_s == 14.0
        assert clients.median_s == 2.0
        assert clients.max_s == 5.0

    def test_straggler_spread_is_the_mean_round_tail(self):
        # Round 0: max 5 - median 2 = 3.  Round 1: all equal, spread 0.
        clients = self.profile().clients["client_update"]
        assert clients.straggler_spread_s == 1.5

    def test_round_attr_resolves_through_the_ancestor_chain(self):
        clients = self.profile().clients["client_update"]
        assert sorted(clients.durations_by_round) == [0, 1]
        assert sorted(clients.durations_by_round[0]) == [1.0, 2.0, 5.0]
        assert clients.unrounded == []

    def test_worker_busy_time_is_keyed_by_process(self):
        # Six fragments (tids) ran in two processes: two workers, not six.
        busy = self.profile().worker_busy_s
        assert busy == {98: 3.0, 99: 11.0}


class TestRenderProfile:
    def test_report_contains_every_section(self):
        report = render_profile(
            [("f" * 16, parse_sidecar(two_round_sidecar()))])
        assert "cell ffffffffffff" in report
        assert "[cifar10 fedavg seed=0]" in report
        assert "rounds=2" in report
        assert "dispatch" in report
        assert "straggler_spread=" in report
        assert "worker pid=98 " in report
        assert "worker pid=99 " in report
        assert "tid=" not in report
        assert "counter trace.replays" in report
        assert "counter totals across cells" in report

    def test_top_limits_the_worker_rows(self):
        report = render_profile(
            [("f" * 16, parse_sidecar(two_round_sidecar()))], top=1)
        assert report.count("worker pid=") == 1
        assert "worker pid=99 " in report  # the busiest one

    def test_empty_store_renders_a_hint(self):
        assert "no telemetry sidecars" in render_profile([])


class TestLoadStoreTelemetry:
    def test_loads_sorted_sidecars(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        telemetry_dir.mkdir()
        (telemetry_dir / "bbb.jsonl").write_text(two_round_sidecar())
        (telemetry_dir / "aaa.jsonl").write_text(two_round_sidecar())
        (telemetry_dir / "notes.txt").write_text("ignored")
        cells = load_store_telemetry(str(tmp_path))
        assert [fingerprint for fingerprint, _ in cells] == ["aaa", "bbb"]
        assert cells[0][1].counters == {"trace.replays": 2.0}

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_store_telemetry(str(tmp_path)) == []


class TestWorkerViewOfRealSweeps:
    """A worker is a process: per-fragment tids must not multiply it."""

    @staticmethod
    def sweep_worker_pids(tmp_path, **backend):
        from repro.eval import NonIIDSetting
        from repro.fl import FederatedConfig
        from repro.runs import SweepSpec, run_sweep

        config = FederatedConfig(num_clients=4, clients_per_round=2, rounds=2,
                                 local_epochs=1, batch_size=16,
                                 personalization_epochs=2, seed=0)
        sweep = SweepSpec(
            name="workers", methods=["fedavg", "ditto"],
            settings=[NonIIDSetting("dirichlet", 0.5, 20)], seeds=[0],
            config=config,
            dataset_kwargs={"cifar10": dict(image_size=8, train_per_class=16,
                                            test_per_class=4)})
        run_sweep(sweep, store=tmp_path, **backend)
        cells = load_store_telemetry(str(tmp_path))
        assert len(cells) == 2
        per_cell = [set(profile_cell(fp, cell).worker_busy_s)
                    for fp, cell in cells]
        # Each cell merged several client fragments (one tid apiece).
        for _, cell in cells:
            assert len({s.tid for s in cell.spans
                        if s.name == "client_update"}) > 1
        return per_cell

    def test_serial_sweep_shows_one_worker(self, tmp_path):
        per_cell = self.sweep_worker_pids(tmp_path, backend="serial")
        assert all(len(pids) == 1 for pids in per_cell)
        assert len(set().union(*per_cell)) == 1

    def test_process_sweep_shows_at_most_two_workers(self, tmp_path):
        per_cell = self.sweep_worker_pids(tmp_path, backend="process",
                                          workers=2)
        assert all(len(pids) == 1 for pids in per_cell)
        assert len(set().union(*per_cell)) <= 2
