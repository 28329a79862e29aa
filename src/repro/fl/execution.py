"""Pluggable client-execution backends for the federated round loop.

Every client's local SSL + personalization step is embarrassingly parallel,
so the server dispatches per-client work through an
:class:`ExecutionBackend` instead of a bare ``for`` loop.  Two backends
ship with the repo:

* :class:`SerialBackend` — the reference implementation: run tasks inline,
  one after another, on the calling thread;
* :class:`ProcessBackend` — a process pool for true CPU parallelism.

Determinism contract
--------------------
Parallel and serial runs must produce bitwise-identical results.  The
pieces that make this hold:

1. **Per-client seeded RNG.**  All client-side randomness is derived from
   ``derive_client_rng(seed, round_index, client_id)`` — a pure function of
   the run seed and the task's coordinates, never of execution order.
2. **Pure tasks.**  A task submitted to ``map_clients`` may execute on a
   *copy* of itself (``ProcessBackend`` copies by pickling).  Anything the
   caller needs back — client stores, updated state — must flow through
   the task's return value, which the server writes back on the
   coordinating process.
3. **Order-preserving dispatch.**  ``map_clients`` always returns results
   in input order, regardless of completion order.

Fallback contract
-----------------
Backends constructed with ``fallback=True`` (the default) degrade to
serial execution — with a one-time warning — when the parallel machinery
is unavailable (no ``_multiprocessing``, sandboxed ``fork``, unpicklable
task, broken pool).  Because tasks are pure, re-running a failed chunk
serially is always safe.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from concurrent.futures import as_completed

try:
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # stripped-down builds without _multiprocessing
    class BrokenProcessPool(RuntimeError):
        """Placeholder when concurrent.futures.process cannot import."""
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from .client import derive_rng

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "ExecutionError",
    "BACKENDS",
    "available_backends",
    "resolve_backend",
    "resolve_workers",
    "chunk_items",
    "derive_client_rng",
]


class ExecutionError(RuntimeError):
    """A backend could not execute a task batch and fallback was disabled."""


def derive_client_rng(seed: int, round_index: int, client_id: int) -> np.random.Generator:
    """The canonical per-(seed, round, client) generator.

    Execution backends rely on this being a pure function of its arguments:
    it makes client tasks independent of dispatch order, which is what lets
    parallel runs reproduce serial runs bit for bit.
    """
    return derive_rng(seed, round_index, client_id)


def resolve_workers(workers: Optional[int]) -> int:
    """Turn a ``workers`` knob into a concrete positive count.

    ``None`` means "use every available core"; explicit values must be
    positive integers.
    """
    if workers is None:
        return max(os.cpu_count() or 1, 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be a positive integer or None, got {workers!r}")
    return workers


def chunk_items(items: Sequence, workers: int, chunk_size: Optional[int] = None
                ) -> List[List]:
    """Split ``items`` into contiguous chunks for dispatch.

    With the default automatic sizing, items spread evenly over the worker
    count (one chunk per worker) so per-task IPC overhead is paid once per
    worker, not once per client.  An explicit ``chunk_size`` trades load
    balance against dispatch overhead.
    """
    items = list(items)
    if not items:
        return []
    if chunk_size is None:
        chunk_size = math.ceil(len(items) / max(workers, 1))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [items[start:start + chunk_size] for start in range(0, len(items), chunk_size)]


def _run_chunk(task: Callable, chunk: Sequence) -> List:
    """Apply ``task`` to every item of one chunk (module-level: picklable)."""
    return [task(item) for item in chunk]


def _chunk_starts(chunks: Sequence[Sequence]) -> List[int]:
    """Global input index of each contiguous chunk's first item."""
    starts: List[int] = []
    position = 0
    for chunk in chunks:
        starts.append(position)
        position += len(chunk)
    return starts


class ExecutionBackend:
    """Common interface: map a pure task over client payloads, in order."""

    name = "base"

    uses_data_plane = False
    """Whether payloads cross a process boundary and therefore benefit from
    the shared-memory data plane.  Class-level so callers that manage their
    own segments (a :class:`~repro.fl.population.VirtualPopulation` sharing
    clients at realization time) can decide *before* any client exists —
    ``register_clients`` only answers for clients already materialized."""

    def __init__(self, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None, fallback: bool = True):
        self.workers = resolve_workers(workers)
        if chunk_size is not None and (not isinstance(chunk_size, int) or chunk_size < 1):
            raise ValueError(f"chunk_size must be a positive integer or None, got {chunk_size!r}")
        self.chunk_size = chunk_size
        self.fallback = fallback
        self._warned_fallback = False

    # ------------------------------------------------------------------
    def map_clients(self, task: Callable, items: Sequence) -> List:
        """Apply ``task`` to each item, returning results in input order."""
        raise NotImplementedError

    def imap_clients(self, task: Callable, items: Sequence
                     ) -> Iterator[Tuple[int, object]]:
        """Apply ``task`` to each item, yielding ``(input_index, result)``
        pairs as results complete.

        This is the streaming counterpart of :meth:`map_clients`: the
        caller (the session's round loop) can begin consuming updates —
        writing client stores back, feeding the aggregator — before the
        whole batch finishes.  Completion order is *not* input order under
        parallel backends; callers needing determinism must reorder by the
        yielded index before any order-sensitive reduction (see
        :class:`~repro.fl.algorithm.UpdateAccumulator`).

        The base implementation evaluates lazily in input order, which is
        exactly right for :class:`SerialBackend`: item ``i``'s result is
        consumed before item ``i + 1`` even starts.
        """
        for index, item in enumerate(items):
            yield index, task(item)

    def map_cohorts(self, task: Callable, cohorts: Sequence[Sequence]) -> List:
        """Apply a cohort-level task to each group of clients, in order.

        The batched dispatch path of the cohort execution API: each item is
        a *list* of clients handled by one task invocation (one vectorized
        local update).  Backends are item-agnostic, so dispatch, chunking,
        shared-memory registration, and fallback behaviour are exactly
        those of :meth:`map_clients` — a cohort is just a bigger item.
        """
        return self.map_clients(task, cohorts)

    def imap_cohorts(self, task: Callable, cohorts: Sequence[Sequence]
                     ) -> Iterator[Tuple[int, object]]:
        """Streaming counterpart of :meth:`map_cohorts`.

        Yields ``(cohort_index, results)`` pairs as cohorts complete, with
        the same completion-order caveats as :meth:`imap_clients`.
        """
        return self.imap_clients(task, cohorts)

    def register_clients(self, clients: Sequence) -> bool:
        """Opt the clients into this backend's data plane; True when active.

        The base implementation is a no-op: the serial backend shares the
        coordinator's address space already, so there is nothing to gain
        from a shared-memory store.  Only :class:`ProcessBackend`
        overrides this.
        """
        return False

    def close(self) -> None:
        """Release pools; the backend may be reused (pools are lazily rebuilt)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"

    # ------------------------------------------------------------------
    def _fallback_guard(self, cause: BaseException, stacklevel: int = 3) -> None:
        """Raise if fallback is disabled; otherwise warn once per backend."""
        if not self.fallback:
            raise ExecutionError(
                f"{self.name} backend failed and fallback is disabled: {cause}"
            ) from cause
        if not self._warned_fallback:
            self._warned_fallback = True
            warnings.warn(
                f"{self.name} backend unavailable ({type(cause).__name__}: {cause}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=stacklevel + 1,
            )

    def _serial_fallback(self, task: Callable, items: Sequence,
                         cause: BaseException) -> List:
        self._fallback_guard(cause)
        return _run_chunk(task, items)


class SerialBackend(ExecutionBackend):
    """Reference backend: inline execution on the calling thread."""

    name = "serial"

    def map_clients(self, task: Callable, items: Sequence) -> List:
        return _run_chunk(task, list(items))


class ProcessBackend(ExecutionBackend):
    """Process-pool backend: true CPU parallelism across client updates.

    Tasks and payloads cross the process boundary by pickle, so everything
    reachable from them (algorithm, encoder factory, client data, stores)
    must be picklable; ``eval.harness.EncoderSpec`` exists for exactly
    this reason.  The pool is created lazily and kept alive across rounds
    to amortize worker start-up.

    ``register_clients`` activates the shared-memory data plane
    (:mod:`repro.data.shm`): client datasets move into a
    :class:`~repro.data.shm.SharedArrayStore` this backend owns, so each
    per-round pickle ships lightweight handles instead of image arrays.
    The store is released on :meth:`close` (and, as a backstop, at process
    exit by the shm module's atexit hook).
    """

    name = "process"

    uses_data_plane = True

    def __init__(self, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None, fallback: bool = True,
                 mp_context: Optional[str] = None):
        super().__init__(workers=workers, chunk_size=chunk_size, fallback=fallback)
        self.mp_context = mp_context
        self._pool = None
        self._broken = False
        self._broken_cause: Optional[BaseException] = None
        self._stores: List = []

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            import multiprocessing

            context = (multiprocessing.get_context(self.mp_context)
                       if self.mp_context else None)
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=context)
        return self._pool

    def register_clients(self, clients: Sequence) -> bool:
        """Move client datasets into a shared-memory store owned by this
        backend.  Returns True when the plane is active; False (with the
        clients untouched) when shared memory is unavailable here, which
        leaves the classic inline-pickle path in effect.  ``close``
        restores the clients' plain splits before unlinking, so the same
        clients can be registered again with a future backend."""
        from ..data.shm import share_client_splits

        store = share_client_splits(clients)
        if store is None:
            return False
        self._stores.append((store, list(clients)))
        return True

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._stores:
            from ..data.shm import unshare_client_splits

            while self._stores:
                store, clients = self._stores.pop()
                unshare_client_splits(store, clients)
                store.close()

    def _mark_broken(self, cause: BaseException) -> None:
        self._broken = True
        self._broken_cause = cause
        self.close()

    def map_clients(self, task: Callable, items: Sequence) -> List:
        items = list(items)
        if not items:
            return []
        if self._broken:
            return self._serial_fallback(task, items, self._broken_cause)
        chunks = chunk_items(items, self.workers, self.chunk_size)
        try:
            # Probe picklability up front: a cheap dumps() here turns an
            # opaque mid-flight pool crash into a clean serial fallback.
            pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
            pool = self._ensure_pool()
            futures = [pool.submit(_run_chunk, task, chunk) for chunk in chunks]
        except (pickle.PicklingError, AttributeError, TypeError, ImportError,
                OSError, PermissionError, RuntimeError, EOFError) as error:
            # Unpicklable tasks, sandboxes that forbid fork/spawn, pool
            # creation failures.  Tasks are pure, so running the batch
            # serially instead is safe.
            self._mark_broken(error)
            return self._serial_fallback(task, items, error)
        try:
            results: List = []
            for future in futures:  # input order, not completion order
                results.extend(future.result())
            return results
        except BrokenProcessPool as error:
            # A worker died (crash, OOM, sandbox kill) — infra failure, so
            # fall back.  Any other exception came from the task itself and
            # must propagate, exactly as it would under SerialBackend.
            self._mark_broken(error)
            return self._serial_fallback(task, items, error)

    def imap_clients(self, task: Callable, items: Sequence
                     ) -> Iterator[Tuple[int, object]]:
        items = list(items)
        if not items:
            return
        if self._broken:
            for index, result in enumerate(
                    self._serial_fallback(task, items, self._broken_cause)):
                yield index, result
            return
        chunks = chunk_items(items, self.workers, self.chunk_size)
        starts = _chunk_starts(chunks)
        try:
            pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
            pool = self._ensure_pool()
            pending = {
                pool.submit(_run_chunk, task, chunk): (start, chunk)
                for chunk, start in zip(chunks, starts)
            }
        except (pickle.PicklingError, AttributeError, TypeError, ImportError,
                OSError, PermissionError, RuntimeError, EOFError) as error:
            self._mark_broken(error)
            for index, result in enumerate(self._serial_fallback(task, items, error)):
                yield index, result
            return
        try:
            for future in as_completed(list(pending)):
                start, _chunk = pending[future]
                results = future.result()  # may raise BrokenProcessPool
                del pending[future]
                for offset, result in enumerate(results):
                    yield start + offset, result
        except BrokenProcessPool as error:
            # Some chunks already streamed out; rerun only the unfinished
            # ones serially (tasks are pure, so re-execution is safe).
            self._mark_broken(error)
            self._fallback_guard(error, stacklevel=2)
            for start, chunk in pending.values():
                for offset, result in enumerate(_run_chunk(task, chunk)):
                    yield start + offset, result


BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def available_backends() -> List[str]:
    return sorted(BACKENDS)


def resolve_backend(spec, workers: Optional[int] = None,
                    chunk_size: Optional[int] = None,
                    fallback: bool = True) -> ExecutionBackend:
    """Build an :class:`ExecutionBackend` from a name or pass one through.

    ``spec`` may be an existing backend instance (returned unchanged), a
    registered name (``"serial"``, ``"process"``), or ``None``
    (serial).  Unknown names raise ``ValueError`` listing the registry.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = SerialBackend.name
    if not isinstance(spec, str):
        raise ValueError(
            f"backend must be a name or ExecutionBackend instance, got {type(spec).__name__}"
        )
    key = spec.lower()
    if key not in BACKENDS:
        raise ValueError(
            f"unknown execution backend '{spec}'; available: {available_backends()}"
        )
    if key == SerialBackend.name:
        # Serial ignores worker counts but still validates them, so a bad
        # ``--workers`` value fails loudly under every backend.
        resolve_workers(workers)
        return SerialBackend(workers=1, chunk_size=chunk_size, fallback=fallback)
    return BACKENDS[key](workers=workers, chunk_size=chunk_size, fallback=fallback)
