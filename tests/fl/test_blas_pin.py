"""The one-thread BLAS pin: CLI entry, library entry points, every pool
worker, and the stamp."""

import ctypes
import os

import pytest

from repro.cli import main
from repro.fl import ProcessBackend
from repro.fl.execution import BLAS_THREAD_VARS, _blas_function, numeric_environment


def blas_threads():
    return numeric_environment()["blas_threads"]


pytestmark = pytest.mark.skipif(blas_threads() is None,
                                reason="numpy is not on its bundled OpenBLAS")


def _worker_blas_threads(_item):
    return blas_threads()


@pytest.fixture
def two_threads(monkeypatch):
    """Put this process on 2 BLAS threads, as an unpinned caller would be."""
    set_threads = _blas_function("set_num_threads", None, (ctypes.c_int,))
    for name in BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "2")
    set_threads(2)
    assert blas_threads() == 2
    yield
    set_threads(1)


@pytest.mark.parametrize("mp_context", ["fork", "spawn"])
def test_process_workers_run_on_one_blas_thread(two_threads, mp_context):
    with ProcessBackend(workers=2, fallback=False, mp_context=mp_context) as backend:
        assert backend.map_clients(_worker_blas_threads, range(4)) == [1, 1, 1, 1]


def test_cli_main_pins_the_process(two_threads, capsys):
    assert main(["list"]) == 0
    capsys.readouterr()
    assert blas_threads() == 1
    assert {os.environ[name] for name in BLAS_THREAD_VARS} == {"1"}


def test_training_session_pins_the_process(two_threads):
    import numpy as np

    from repro.data import make_cifar10_like, partition_iid
    from repro.eval import build_method
    from repro.eval.harness import EncoderSpec
    from repro.fl import FederatedConfig, TrainingSession, build_federation

    config = FederatedConfig(num_clients=2, clients_per_round=1, rounds=1)
    dataset = make_cifar10_like(image_size=8, train_per_class=4,
                                test_per_class=1, seed=0)
    parts = partition_iid(dataset.train.labels, 2, np.random.default_rng(0))
    algorithm = build_method("fedavg", config, 10,
                             EncoderSpec(kind="mlp", channels=3, image_size=8,
                                         hidden_dims=(8,), seed=0))
    TrainingSession(algorithm, build_federation(dataset, parts, seed=0), config)
    assert blas_threads() == 1


def test_run_experiment_pins_before_building_the_dataset(two_threads,
                                                         monkeypatch):
    from repro.eval import NonIIDSetting, harness
    from repro.fl import FederatedConfig

    seen = []

    def record_threads(*args, **kwargs):
        seen.append(blas_threads())
        raise RuntimeError("stop after the dataset would be built")

    monkeypatch.setattr(harness, "make_dataset", record_threads)
    spec = harness.ExperimentSpec(
        dataset="cifar10", setting=NonIIDSetting("iid", 0, 8),
        config=FederatedConfig(num_clients=2, clients_per_round=1),
        methods=["fedavg"])
    with pytest.raises(RuntimeError, match="stop after"):
        harness.run_experiment(spec)
    assert seen == [1]


def test_numeric_environment_stamp():
    stamp = numeric_environment()
    assert set(stamp) == {"numpy", "blas", "blas_threads", "cpu", "nproc",
                          "python"}
    assert stamp["blas"].startswith("OpenBLAS")
    assert stamp["blas_threads"] == 1
    assert stamp["nproc"] >= 1
