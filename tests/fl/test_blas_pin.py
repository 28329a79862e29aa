"""The one-thread BLAS pin: CLI entry, every pool worker, and the stamp."""

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


def test_numeric_environment_stamp():
    stamp = numeric_environment()
    assert set(stamp) == {"numpy", "blas", "blas_threads", "cpu", "nproc",
                          "python"}
    assert stamp["blas"].startswith("OpenBLAS")
    assert stamp["blas_threads"] == 1
    assert stamp["nproc"] >= 1
