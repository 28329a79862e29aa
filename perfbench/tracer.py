"""Per-layer accounting by wrapping ``repro`` functions from outside.

:data:`TARGETS` names, for each layer, the functions whose calls are the
layer's work.  :func:`install` replaces each one (on its class, or in every
loaded ``repro`` module that imported it) with a wrapper that charges the
call to a :class:`Recorder`: call count, total seconds, and self seconds —
the total minus the part spent inside other wrapped calls nested in it.
A call nested inside a call of the same layer is charged to the outer one
only.  :func:`uninstall` puts every original back.

Forked pool workers inherit the wrappers.  A worker starts with empty
counts and writes them to ``proc-<pid>.json`` in the recorder's directory
after every pool task, so nothing is lost when the pool shuts down; the
coordinating process writes its own file when the program returns.

Wrapped names are resolved strictly: a renamed or moved function raises
:class:`LookupError` instead of silently reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "TARGETS", "Recorder", "install", "uninstall",
           "resolve_target"]


@dataclass(frozen=True)
class Target:
    """One wrapped function: the layer it is charged to and its location."""

    layer: str
    path: str  # "package.module:Qualified.name"
    untraced: bool = False  # also wrapped in untraced (end-to-end) runs
    hook: str = ""  # extra accounting: ``_FACTORIES`` or ``_POST_HOOKS`` key


TARGETS: Tuple[Target, ...] = (
    Target("fl.session.step", "repro.fl.session.session:TrainingSession.step",
           untraced=True, hook="step"),
    Target("fl.execution.worker_task", "repro.fl.execution:_run_chunk",
           untraced=True, hook="worker_task"),
    Target("fl.execution.serial_fallbacks",
           "repro.fl.execution:ExecutionBackend._fallback_guard",
           untraced=True, hook="count_only"),
    Target("fl.execution.dispatch", "repro.fl.execution:ProcessBackend.map_clients",
           hook="dispatch"),
    Target("fl.execution.dispatch", "repro.fl.execution:ProcessBackend.imap_clients",
           hook="dispatch"),
    Target("data.make_dataset", "repro.eval.harness:make_dataset"),
    Target("data.augment", "repro.data.augment:TwoViewAugment.__call__"),
    Target("data.shm.share", "repro.data.shm:share_client_splits", hook="shm"),
    Target("eval.build_method", "repro.eval.registry:build_method"),
    Target("fl.build_federation", "repro.fl.client:build_federation"),
    Target("baselines.local_update", "repro.baselines.pfl_ssl:PFLSSL.local_update",
           hook="local_update"),
    Target("baselines.cohort_update", "repro.baselines.pfl_ssl:PFLSSL.cohort_update",
           hook="cohort_update"),
    Target("ssl.compute", "repro.ssl.simclr:SimCLR.compute"),
    Target("ssl.compute", "repro.ssl.simsiam:SimSiam.compute"),
    Target("ssl.compute", "repro.ssl.swav:SwAV.compute"),
    Target("ssl.compute", "repro.ssl.smog:SMoG.compute"),
    Target("ssl.compute", "repro.ssl.byol:BYOL.compute"),
    Target("ssl.compute", "repro.ssl.mocov2:MoCoV2.compute"),
    Target("nn.backward", "repro.nn.tensor:Tensor.backward"),
    Target("nn.optim_step", "repro.nn.optim:SGD.step"),
    Target("nn.optim_step", "repro.nn.optim:Adam.step"),
    Target("nn.trace.replay", "repro.nn.trace:BatchedReplay.run"),
    Target("nn.trace.record", "repro.nn.trace:Trace.seal"),
    Target("core.local_loss", "repro.core.calibre:Calibre.local_loss"),
    Target("core.aggregate", "repro.core.calibre:Calibre.aggregate"),
    Target("cluster.kmeans", "repro.cluster.kmeans:kmeans", hook="kmeans"),
    Target("fl.personalize", "repro.fl.algorithm:FederatedAlgorithm.personalize"),
    Target("fl.linear_probe", "repro.fl.personalization:train_linear_probe"),
    Target("fl.extract_features", "repro.baselines.pfl_ssl:PFLSSL.extract_features"),
    Target("runs.cell", "repro.runs.scheduler:execute_cell", hook="cell"),
    Target("runs.store.write_record", "repro.runs.store:RunStore.write_record",
           hook="file_bytes"),
    Target("runs.store.write_telemetry", "repro.runs.store:RunStore.write_telemetry",
           hook="file_bytes"),
    Target("runs.store.load_records", "repro.runs.store:RunStore.load_records"),
    Target("runs.save_outcome", "repro.runs.serialize:save_outcome"),
)


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child = 0.0


class Recorder:
    """Counts, times and counters of one process; see the module docstring.

    ``stats[layer]`` is ``[calls, total_s, self_s]``; ``counters`` hold
    sums (bytes, iterations, clients) and ``maxima`` hold largest values;
    ``steps`` holds ``(start, end)`` of every round in ``perf_counter``
    seconds, which on Linux is the system-wide monotonic clock, so stamps
    from different processes compare.
    """

    def __init__(self, out_dir: Optional[str] = None, traced: bool = True):
        self.out_dir = out_dir
        self.traced = traced
        self._lock = threading.Lock()
        self._reset(worker=False)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, worker: bool) -> None:
        self.pid = os.getpid()
        self.worker = worker
        self._local = threading.local()
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.steps: List[Tuple[float, float]] = []

    def _after_fork(self) -> None:
        self._reset(worker=True)

    # -- span accounting ------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, layer: str) -> bool:
        return any(frame.layer == layer for frame in self._stack())

    def enter(self, layer: str) -> Optional[_Frame]:
        """Open a span, or return None when ``layer`` is already open."""
        stack = self._stack()
        for frame in stack:
            if frame.layer == layer:
                return None
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        return frame

    def leave(self, frame: _Frame, calls: int = 1) -> float:
        """Close ``frame``; charge its time; return its duration."""
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += duration
        with self._lock:
            stat = self.stats.get(frame.layer)
            if stat is None:
                stat = self.stats[frame.layer] = [0, 0.0, 0.0]
            stat[0] += calls
            stat[1] += duration
            stat[2] += duration - frame.child
        return duration

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    # -- output ---------------------------------------------------------
    def snapshot(self) -> Dict:
        with self._lock:
            return {"pid": self.pid, "worker": self.worker,
                    "stats": {k: list(v) for k, v in self.stats.items()},
                    "counters": dict(self.counters),
                    "maxima": dict(self.maxima),
                    "steps": list(self.steps)}

    def flush(self, extra: Optional[Dict] = None) -> None:
        """Write this process's numbers to ``proc-<pid>.json`` atomically."""
        if self.out_dir is None:
            return
        payload = self.snapshot()
        payload.update(extra or {})
        path = Path(self.out_dir) / f"proc-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Hooks: extra accounting around particular targets
# ----------------------------------------------------------------------
def _post_step(recorder: Recorder, frame: _Frame, args, result) -> None:
    recorder.steps.append((frame.start, time.perf_counter()))


def _post_kmeans(recorder: Recorder, frame: _Frame, args, result) -> None:
    recorder.add("cluster.kmeans.iterations", result.iterations)


def _post_shm(recorder: Recorder, frame: _Frame, args, result) -> None:
    if result is not None:
        recorder.add("data.shm.bytes", result.nbytes)


def _post_cell(recorder: Recorder, frame: _Frame, args, result) -> None:
    recorder.maximum("runs.cell_s.max", time.perf_counter() - frame.start)


def _post_local_update(recorder: Recorder, frame: _Frame, args, result) -> None:
    if recorder.active("baselines.cohort_update"):
        recorder.add("baselines.cohort_fallback_clients", 1)


def _post_cohort_update(recorder: Recorder, frame: _Frame, args, result) -> None:
    recorder.add("baselines.cohort_clients", len(args[1]))


def _pre_dispatch(recorder: Recorder, args, kwargs):
    """Materialize the payload list; in traced runs, pickle what is sent.

    ``ipc_bytes`` is computed, not observed: each chunk the backend will
    submit is pickled here exactly as ``ProcessPoolExecutor`` would.
    """
    from repro.fl.execution import _run_chunk, chunk_items

    backend, task, items = args[0], args[1], list(args[2])
    if recorder.traced:
        total = 0
        for chunk in chunk_items(items, backend.workers, backend.chunk_size):
            total += len(pickle.dumps((_run_chunk, task, chunk),
                                      protocol=pickle.HIGHEST_PROTOCOL))
        recorder.add("fl.execution.ipc_bytes", total)
    return (backend, task, items) + tuple(args[3:]), kwargs


def _post_dispatch(recorder: Recorder, spent: float, args) -> None:
    recorder.add("fl.execution.capacity_s", args[0].workers * spent)


_POST_HOOKS: Dict[str, Callable] = {
    "step": _post_step,
    "kmeans": _post_kmeans,
    "shm": _post_shm,
    "cell": _post_cell,
    "local_update": _post_local_update,
    "cohort_update": _post_cohort_update,
}


def _file_bytes_hook(layer: str) -> Callable:
    def hook(recorder: Recorder, frame: _Frame, args, result) -> None:
        recorder.add(f"{layer}.bytes", os.path.getsize(result))
    return hook


# ----------------------------------------------------------------------
# Wrapper factories
# ----------------------------------------------------------------------
def _wrap_call(recorder: Recorder, target: Target, original: Callable) -> Callable:
    layer = target.layer
    post = (_file_bytes_hook(layer) if target.hook == "file_bytes"
            else _POST_HOOKS.get(target.hook))

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = recorder.enter(layer)
        if frame is None:
            return original(*args, **kwargs)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.leave(frame)
        if post is not None:
            post(recorder, frame, args, result)
        return result

    return wrapper


def _wrap_count_only(recorder: Recorder, target: Target, original: Callable) -> Callable:
    counter = target.layer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.add(counter, 1)
        return original(*args, **kwargs)

    return wrapper


def _wrap_worker_task(recorder: Recorder, target: Target, original: Callable) -> Callable:
    """Charge pool tasks in worker processes only, then flush the worker."""
    layer = target.layer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.worker:
            return original(*args, **kwargs)
        frame = recorder.enter(layer)
        try:
            return original(*args, **kwargs)
        finally:
            if frame is not None:
                recorder.leave(frame)
            recorder.flush()

    return wrapper


def _wrap_dispatch(recorder: Recorder, target: Target, original: Callable) -> Callable:
    """Time the coordinator inside a pool dispatch (it is blocked on results).

    ``imap_clients`` is a generator: only the time spent inside its
    ``next()`` calls is charged, not the caller's work between results.
    """
    layer = target.layer
    if not inspect.isgeneratorfunction(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            args, kwargs = _pre_dispatch(recorder, args, kwargs)
            frame = recorder.enter(layer)
            if frame is None:
                return original(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            finally:
                _post_dispatch(recorder, recorder.leave(frame), args)
        return wrapper

    @functools.wraps(original)
    def generator_wrapper(*args, **kwargs):
        args, kwargs = _pre_dispatch(recorder, args, kwargs)
        generator = original(*args, **kwargs)
        spent, calls = 0.0, 1
        try:
            while True:
                frame = recorder.enter(layer)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        spent += recorder.leave(frame, calls=calls)
                        calls = 0
                yield item
        finally:
            generator.close()
            _post_dispatch(recorder, spent, args)

    return generator_wrapper


_FACTORIES: Dict[str, Callable] = {
    "count_only": _wrap_count_only,
    "worker_task": _wrap_worker_task,
    "dispatch": _wrap_dispatch,
}


# ----------------------------------------------------------------------
# Install / uninstall
# ----------------------------------------------------------------------
def resolve_target(target: Target) -> Tuple[object, str, Callable]:
    """``(owner, attribute, original)`` for ``target``; LookupError if gone.

    A method must be defined on the named class itself, not inherited, so
    a method moved to another class fails here rather than being charged
    twice or never.
    """
    module_name, _, qualname = target.path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"{target.path}: cannot import {module_name}") from error
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if not isinstance(owner, type):
            raise LookupError(f"{target.path}: no class {name!r}")
    namespace = vars(owner)
    if attr not in namespace:
        raise LookupError(f"{target.path}: {attr!r} is not defined there")
    original = namespace[attr]
    if not callable(original):
        raise LookupError(f"{target.path}: {attr!r} is not a function")
    return owner, attr, original


def install(recorder: Recorder, traced: bool = True,
            targets: Tuple[Target, ...] = TARGETS) -> List[Tuple[object, str, object]]:
    """Wrap every target (only ``untraced`` ones unless ``traced``).

    Returns the patch list for :func:`uninstall`.  Module-level functions
    are replaced in every loaded ``repro`` module that holds the same
    object, so ``from x import f`` call sites see the wrapper too.
    """
    resolved = [(target, *resolve_target(target)) for target in targets
                if traced or target.untraced]
    patches: List[Tuple[object, str, object]] = []
    for target, owner, attr, original in resolved:
        factory = _FACTORIES.get(target.hook, _wrap_call)
        wrapper = factory(recorder, target, original)
        if isinstance(owner, type):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, alias, original))
                    setattr(module, alias, wrapper)
    return patches


def uninstall(patches: List[Tuple[object, str, object]]) -> None:
    """Put back every original replaced by :func:`install`."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
