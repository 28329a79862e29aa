"""Persistent, resumable run store: one JSON record per experiment cell.

Directory layout (everything human-readable except ``arrays/``)::

    <runs-dir>/
        cells/<fingerprint>.json       # authoritative: one record per finished cell
        index.jsonl                    # append-only log: one line per write
        sweeps/<name>.json             # provenance: the sweep grids that ran here
        telemetry/<fingerprint>.jsonl  # diagnostic sidecar: spans + counters
        arrays/<fingerprint>.npcol     # binary sidecar: the cell's array columns

The ``cells/`` files are the source of truth — a cell is complete iff its
file exists.  Records are written with write-then-``os.replace`` so a
killed sweep never leaves a torn file, and the filename *is* the content
hash of the cell's parameters, so resume is a directory scan, identical
cells across sweeps share storage, and two schedulers racing on the same
cell converge on identical bytes.  ``index.jsonl`` is a convenience log
(its line order reflects completion order and may interleave under
parallel scheduling); :meth:`RunStore.rebuild_index` regenerates it from
the cell files in canonical fingerprint order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

import numpy as np

from ..arrays import read_columns, write_columns
from ..ioutil import safe_filename
from .serialize import atomic_write_text, encode_record
from .spec import RunKey, SweepSpec

__all__ = ["RunStore", "CorruptRecord", "ARRAYS_KEY", "TIMING_FIELDS",
           "RESUMED_FIELD", "NUMERICS_FIELD"]

ARRAYS_KEY = "__arrays__"
"""Reserved record key carrying in-memory array columns.

An executor that produces bulky numeric payloads (e.g. embedding point
clouds) attaches them under this key as a ``{name: ndarray}`` dict.  The
scheduler pops the key before the record is hashed or persisted and
routes the columns to the store's binary ``arrays/`` sidecar — so cell
records stay small, human-readable JSON and fingerprints never cover
container bytes.  In ephemeral runs (no store) the columns simply stay
attached in memory."""


def _fingerprint_of(key: Union[str, RunKey]) -> str:
    return key.fingerprint if isinstance(key, RunKey) else str(key)


TIMING_FIELDS = ("wall_clock_s", "mean_round_s")
"""Per-cell timing keys carried in ``index.jsonl`` entries.

Timings are *diagnostics*, not results: cell records stay byte-identical
across schedulers and hosts, so wall-clock lives only in the index.
``wall_clock_s`` is the cell's end-to-end execution time (training +
personalization); ``mean_round_s`` is that total divided by the round
count.

A cell finished from a mid-cell checkpoint carries ``"resumed": true``
instead of numbers — its wall clock covers only the resumed tail, which
would poison timing comparisons — so ``repro report --timings`` can tell
"resumed" apart from "never measured"."""

RESUMED_FIELD = "resumed"


NUMERICS_FIELD = "numerics"
"""The numeric-environment stamp of the process that computed the cell
(:func:`repro.fl.execution.numeric_environment`), carried in
``index.jsonl`` entries and never in the record itself.  Cells computed
before stamping existed have none, and ``repro report`` flags them."""


def _index_entry(record: Dict, timing: Optional[Dict] = None,
                 numerics: Optional[Dict] = None) -> Dict:
    """The one-line ``index.jsonl`` shape (shared by append and rebuild)."""
    key = record.get("key", {})
    entry = {
        "fingerprint": record["fingerprint"],
        "dataset": key.get("dataset"),
        "method": key.get("method"),
        "seed": key.get("seed"),
        "variant": key.get("variant", ""),
        "setting": key.get("setting"),
    }
    if timing:
        entry.update({name: timing[name] for name in TIMING_FIELDS
                      if timing.get(name) is not None})
        if timing.get(RESUMED_FIELD):
            entry[RESUMED_FIELD] = True
    if numerics:
        entry[NUMERICS_FIELD] = numerics
    return entry


class CorruptRecord(ValueError):
    """A cell record that exists but does not parse (a torn or truncated
    file); the message names the file."""


class RunStore:
    """Filesystem-backed store of completed experiment cells."""

    def __init__(self, root: Union[str, Path], create: bool = True):
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.sweeps_dir = self.root / "sweeps"
        self.index_path = self.root / "index.jsonl"
        if create:
            self.cells_dir.mkdir(parents=True, exist_ok=True)
            self.sweeps_dir.mkdir(parents=True, exist_ok=True)
        elif not self.cells_dir.is_dir():
            raise FileNotFoundError(f"no run store at {self.root}")

    # ------------------------------------------------------------------
    def path_for(self, key: Union[str, RunKey]) -> Path:
        return self.cells_dir / f"{_fingerprint_of(key)}.json"

    def has(self, key: Union[str, RunKey]) -> bool:
        return self.path_for(key).is_file()

    def completed_fingerprints(self) -> Set[str]:
        """Scan ``cells/`` — the authoritative completion set.

        In-flight temp files are dot-prefixed with a ``.tmp`` suffix, so
        the ``*.json`` glob can never pick up a partial write.
        """
        return {path.stem for path in self.cells_dir.glob("*.json")}

    def __len__(self) -> int:
        return len(self.completed_fingerprints())

    def __repr__(self) -> str:
        return f"RunStore({str(self.root)!r}, cells={len(self)})"

    # ------------------------------------------------------------------
    def write_record(self, record: Dict, timing: Optional[Dict] = None,
                     numerics: Optional[Dict] = None) -> Path:
        """Atomically persist one cell record and append its index line.

        ``timing`` (optional ``{"wall_clock_s": ..., "mean_round_s": ...}``)
        and ``numerics`` (the computing process's numeric-environment
        stamp) are recorded in the index entry only — never in the cell
        record, which must stay byte-identical across schedulers and hosts.
        """
        fingerprint = record.get("fingerprint")
        if not fingerprint:
            raise ValueError("record is missing its 'fingerprint' field")
        path = atomic_write_text(self.path_for(fingerprint), encode_record(record))
        self._append_index(record, timing, numerics)
        return path

    def _append_index(self, record: Dict, timing: Optional[Dict] = None,
                      numerics: Optional[Dict] = None) -> None:
        # One small single-line write in append mode: safe enough under
        # concurrent writers, and the index is a rebuildable cache anyway.
        # repro: allow[ATM001] -- append-only journal of a rebuildable cache; rebuild_index() is atomic
        with open(self.index_path, "a") as stream:
            stream.write(json.dumps(_index_entry(record, timing, numerics),
                                    sort_keys=True) + "\n")

    def read_record(self, key: Union[str, RunKey]) -> Dict:
        path = self.path_for(key)
        if not path.is_file():
            raise KeyError(f"no record for cell {_fingerprint_of(key)} in {self.root}")
        try:
            with open(path) as stream:
                return json.load(stream)
        except ValueError as error:
            raise CorruptRecord(f"corrupt cell record {path}: {error}") from error

    # ------------------------------------------------------------------
    def missing(self, cells: Sequence[RunKey]) -> List[RunKey]:
        """The subset of ``cells`` with no stored record, in input order."""
        done = self.completed_fingerprints()
        return [key for key in cells if key.fingerprint not in done]

    def load_records(self, cells: Sequence[Union[str, RunKey]],
                     strict: bool = True) -> List[Optional[Dict]]:
        """Records for ``cells`` in input order (canonical grid order).

        ``strict=True`` raises on any missing cell, naming them all;
        ``strict=False`` returns ``None`` placeholders instead.
        """
        records: List[Optional[Dict]] = []
        absent: List[str] = []
        for key in cells:
            if self.has(key):
                records.append(self.read_record(key))
            else:
                records.append(None)
                label = key.label() if isinstance(key, RunKey) else str(key)
                absent.append(label)
        if strict and absent:
            raise KeyError(
                f"{len(absent)} of {len(list(cells))} cells missing from {self.root}: "
                + "; ".join(absent[:5]) + ("; ..." if len(absent) > 5 else ""))
        return records

    def timings(self) -> Dict[str, Dict]:
        """Per-cell wall-clock from ``index.jsonl``: fingerprint → timing.

        Last write wins (a cell re-executed after store surgery keeps its
        most recent timing).  Cells indexed before timing existed — or
        re-indexed by :meth:`rebuild_index` without a prior timing — are
        absent from the result.  A resumed cell's timing is the marker
        ``{"resumed": True}`` (no comparable numbers exist for it).
        """
        timings: Dict[str, Dict[str, float]] = {}
        for entry in self._index_entries():
            timing = {name: float(entry[name]) for name in TIMING_FIELDS
                      if entry.get(name) is not None}
            if entry.get(RESUMED_FIELD):
                timing[RESUMED_FIELD] = True
            if timing:
                timings[entry["fingerprint"]] = timing
        return timings

    def numerics(self) -> Dict[str, Dict]:
        """Per-cell numeric-environment stamp from ``index.jsonl``.

        Last write wins, like :meth:`timings`.  Cells computed before
        stamping existed are absent from the result.
        """
        return {entry["fingerprint"]: entry[NUMERICS_FIELD]
                for entry in self._index_entries()
                if entry.get(NUMERICS_FIELD)}

    def _index_entries(self) -> Iterator[Dict]:
        """Parsed ``index.jsonl`` lines in file order; torn lines skipped."""
        if not self.index_path.is_file():
            return
        with open(self.index_path) as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue  # torn concurrent append; the index is a cache

    def rebuild_index(self) -> int:
        """Rewrite ``index.jsonl`` from the cell files, sorted by fingerprint.

        Returns the number of indexed cells.  Use after crashes or manual
        surgery on ``cells/`` — the cell files stay authoritative either
        way.  Timings and numeric stamps recorded in the old index are
        preserved (they exist nowhere else); cells whose records vanished
        drop out along with them.
        """
        old_timings = self.timings()
        old_numerics = self.numerics()
        fingerprints = sorted(self.completed_fingerprints())
        lines = [json.dumps(_index_entry(self.read_record(fingerprint),
                                         old_timings.get(fingerprint),
                                         old_numerics.get(fingerprint)),
                            sort_keys=True)
                 for fingerprint in fingerprints]
        atomic_write_text(self.index_path, "".join(line + "\n" for line in lines))
        return len(fingerprints)

    # ------------------------------------------------------------------
    @property
    def telemetry_dir(self) -> Path:
        return self.root / "telemetry"

    def telemetry_path_for(self, key: Union[str, RunKey]) -> Path:
        return self.telemetry_dir / f"{_fingerprint_of(key)}.jsonl"

    def write_telemetry(self, key: Union[str, RunKey], text: str) -> Path:
        """Atomically persist one cell's ``telemetry.jsonl`` sidecar.

        Sidecars are pure diagnostics: they live beside — never inside —
        the hashed cell records (the TEL001 invariant), so writing one
        cannot perturb fingerprints, resume decisions, or report output.
        """
        self.telemetry_dir.mkdir(parents=True, exist_ok=True)
        return atomic_write_text(self.telemetry_path_for(key), text)

    # ------------------------------------------------------------------
    @property
    def arrays_dir(self) -> Path:
        return self.root / "arrays"

    def arrays_path_for(self, key: Union[str, RunKey]) -> Path:
        return self.arrays_dir / f"{_fingerprint_of(key)}.npcol"

    def has_arrays(self, key: Union[str, RunKey]) -> bool:
        return self.arrays_path_for(key).is_file()

    def write_arrays(self, key: Union[str, RunKey],
                     columns: Dict[str, np.ndarray]) -> Path:
        """Atomically persist one cell's binary ``.npcol`` array sidecar.

        Like telemetry, array sidecars live beside — never inside — the
        hashed cell records: the record stores only the column *names*,
        so fingerprints are computed over logical values and survive any
        change to the container format.
        """
        self.arrays_dir.mkdir(parents=True, exist_ok=True)
        return write_columns(self.arrays_path_for(key), columns)

    def read_arrays(self, key: Union[str, RunKey],
                    mmap: bool = False) -> Dict[str, np.ndarray]:
        """Read a cell's array sidecar; raises ``KeyError`` if absent."""
        path = self.arrays_path_for(key)
        if not path.is_file():
            raise KeyError(
                f"no array sidecar for cell {_fingerprint_of(key)} in {self.root}")
        return read_columns(path, mmap=mmap)

    # ------------------------------------------------------------------
    def write_sweep(self, sweep: SweepSpec) -> Path:
        """Persist the sweep grid itself (provenance for ``repro report``)."""
        path = self.sweeps_dir / f"{safe_filename(sweep.name)}.json"
        return atomic_write_text(path, encode_record(sweep.to_jsonable()))
