"""Exact JSON codec for checkpoint state.

Session checkpoints must restore *bitwise* — a run resumed at round k has
to reproduce the uninterrupted run exactly — so this codec, unlike the
lossy ``repro.runs.serialize.to_jsonable``, preserves everything that can
change downstream arithmetic:

* numpy arrays keep their dtype (including byte order) and shape via a
  ``__nd__`` tag; element values round-trip exactly because Python's
  ``json`` serializes floats through ``repr`` (shortest form that parses
  back to the same double) and float32/float16 values are exactly
  representable as doubles;
* numpy scalars keep their dtype via a ``__np__`` tag;
* tuples stay tuples (``__tu__``) — client stores hold ``(state_dict,
  extra_state)`` pairs that algorithms unpack positionally;
* dicts with non-string keys (or keys colliding with a tag) are encoded
  as ordered pairs (``__map__``); all other dicts pass through with their
  insertion order intact (JSON objects preserve order).

Anything else — arbitrary objects, object-dtype arrays — raises
``TypeError`` eagerly, which is the same contract the process execution
backend enforces via pickling: per-client state must be plain data.

Two encodings share the walker:

* :func:`encode_value` / :func:`decode_value` — the legacy schema-1
  format: arrays inline as ``__nd__`` JSON float lists.  Kept exactly
  byte-stable as the compatibility read path (and for tiny states where
  a sidecar is not worth a second file).
* :func:`encode_with_columns` / :func:`decode_with_columns` — the
  schema-2 split: every ndarray leaf is extracted into a
  :class:`ColumnSink` and replaced by a ``__col__`` reference, leaving a
  small JSON skeleton whose arrays live in a binary ``.npcol`` container
  (:mod:`repro.arrays`).  Both encodings decode to *identical* values —
  the differential checkpoint tests pin that bitwise.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

__all__ = [
    "encode_value",
    "decode_value",
    "ColumnSink",
    "encode_with_columns",
    "decode_with_columns",
]

_ND = "__nd__"
_NP = "__np__"
_TU = "__tu__"
_MAP = "__map__"
_COL = "__col__"
_TAGS = frozenset({_ND, _NP, _TU, _MAP, _COL})


class ColumnSink:
    """Accumulates ndarray leaves during a split encode.

    Column names are sequential in encounter order (``a00000``, …), so
    encoding is deterministic: equal states yield equal skeletons and
    equal column sets.
    """

    def __init__(self) -> None:
        self.columns: Dict[str, np.ndarray] = {}

    def add(self, array: np.ndarray) -> str:
        name = f"a{len(self.columns):05d}"
        self.columns[name] = array
        return name


def _encode(value: Any, sink: Optional[ColumnSink]) -> Any:
    # bool is an int subclass: test it (via the exact-type tuple) first.
    if value is None or type(value) in (bool, int, float, str):
        return value
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise TypeError("cannot checkpoint object-dtype arrays")
        if sink is not None:
            return {_COL: sink.add(value)}
        # repro: allow[ARR001] -- the legacy schema-1 inline encoding, kept byte-stable as the compatibility read/write path
        data = np.ascontiguousarray(value).ravel().tolist()
        return {_ND: [value.dtype.str, list(value.shape), data]}
    if isinstance(value, np.generic):
        return {_NP: [value.dtype.str, value.item()]}
    if isinstance(value, tuple):
        return {_TU: [_encode(item, sink) for item in value]}
    if isinstance(value, list):
        return [_encode(item, sink) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and not (_TAGS & value.keys()):
            return {key: _encode(item, sink) for key, item in value.items()}
        return {_MAP: [[_encode(key, sink), _encode(item, sink)]
                       for key, item in value.items()]}
    # Plain-int/float subclasses (e.g. enum.IntEnum) would decode as their
    # base type; refuse rather than silently change type on resume.
    if isinstance(value, (bool, int, float, str)):
        raise TypeError(
            f"cannot checkpoint {type(value).__name__} (subclass of a scalar "
            "type); convert to the plain type first")
    raise TypeError(f"cannot checkpoint value of type {type(value).__name__}")


def _decode(value: Any, columns: Optional[Dict[str, np.ndarray]]) -> Any:
    if isinstance(value, list):
        return [_decode(item, columns) for item in value]
    if isinstance(value, dict):
        if len(value) == 1:
            if _ND in value:
                dtype, shape, data = value[_ND]
                return np.array(data, dtype=np.dtype(dtype)).reshape(
                    [int(dim) for dim in shape])
            if _COL in value:
                name = value[_COL]
                if columns is None or name not in columns:
                    raise KeyError(
                        f"encoded value references array column {name!r} but "
                        "no such column was provided (missing or mismatched "
                        ".npcol sidecar)")
                return columns[name]
            if _NP in value:
                dtype, item = value[_NP]
                return np.dtype(dtype).type(item)
            if _TU in value:
                return tuple(_decode(item, columns) for item in value[_TU])
            if _MAP in value:
                return {_decode(key, columns): _decode(item, columns)
                        for key, item in value[_MAP]}
        return {key: _decode(item, columns) for key, item in value.items()}
    return value


def encode_value(value: Any) -> Any:
    """Recursively encode ``value`` into JSON-safe data, losslessly."""
    return _encode(value, None)


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` exactly."""
    return _decode(value, None)


def encode_with_columns(value: Any, sink: ColumnSink) -> Any:
    """Encode like :func:`encode_value`, but move every ndarray leaf into
    ``sink`` and emit a ``__col__`` reference in its place."""
    return _encode(value, sink)


def decode_with_columns(value: Any, columns: Dict[str, np.ndarray]) -> Any:
    """Invert :func:`encode_with_columns` given the sink's columns."""
    return _decode(value, columns)

