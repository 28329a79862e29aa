"""The serializable server state a :class:`TrainingSession` advances.

``ServerState`` is an explicit snapshot of everything the round loop
mutates: the global model, the round cursor, per-round history, the
algorithm's server-side state (SCAFFOLD control variates, …), every
client's persistent store (SSL/Calibre local state dicts, APFL/Ditto
personal models, …), and any sampler RNG state.  It round-trips through
JSON *exactly* (see :mod:`repro.fl.session.codec`), which is what makes
round-level checkpoints safe: a run restored at round k and continued is
bitwise identical to the uninterrupted run.

Checkpoint files are written with the same write-then-``os.replace``
discipline as the run store, so a killed run never leaves a torn
checkpoint behind.

Two on-disk formats exist (docs/checkpoint-format.md has the full
layout).  Schema 1 is the legacy single-file indented JSON with arrays
inline; it remains fully readable (and writable via
``write_checkpoint(..., arrays="json")``) forever.  Schema 2 — the
default written format — splits every checkpoint into a small JSON
*manifest* (same field structure, arrays replaced by ``__col__``
references) plus a content-addressed binary ``.npcol`` *sidecar*
(:mod:`repro.arrays`) named ``<sha256[:12]>.npcol`` holding all array
leaves.  The write order (sidecar first, then the atomic manifest
replace, then a sweep of unreferenced sidecars) means a SIGKILL at any
instant leaves the *previous* checkpoint — manifest and sidecar —
completely readable; content addressing means identical states share one
sidecar and checkpoint bytes stay deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ...arrays import CorruptArrayFile, pack_columns, unpack_columns
from ...ioutil import atomic_write_bytes, atomic_write_text
from ...nn.serialize import StateDict
from ..history import RoundRecord
from .codec import ColumnSink, decode_value, decode_with_columns, encode_value, \
    encode_with_columns

__all__ = [
    "CHECKPOINT_SCHEMA",
    "COLUMNAR_SCHEMA",
    "ServerState",
    "write_checkpoint",
    "read_checkpoint",
    "remove_checkpoint",
    "checkpoint_total_bytes",
    "checkpoint_sidecar",
    "sweep_checkpoint_sidecars",
]

CHECKPOINT_SCHEMA = 1
"""The legacy single-file JSON format (arrays inline; read + legacy write)."""

COLUMNAR_SCHEMA = 2
"""The manifest + ``.npcol``-sidecar format (the default written format)."""

_SIDECAR_SUFFIX = ".npcol"
_SIDECAR_PATTERN = "????????????" + _SIDECAR_SUFFIX  # sha256[:12] hex names


def _sidecar_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:12]


def _refuse_availability_state(payload: Dict) -> None:
    """Refuse a checkpoint taken under availability churn, which this build
    no longer models: resuming it would silently drop the churn."""
    if payload.get("availability_state"):
        raise ValueError(
            "checkpoint carries a non-empty availability_state: it was taken "
            "under availability churn, which this build no longer models; "
            "delete the checkpoint to start over")


@dataclass
class ServerState:
    """One complete snapshot of a federated run in flight.

    ``round_index`` is the *next* round to execute: a state captured after
    round k-1 finished carries ``round_index == k`` and ``k`` round
    records.  ``client_stores`` maps client id to that client's persistent
    algorithm store; clients with empty stores are omitted.
    ``sampler_state`` is empty for the built-in samplers (their draws are
    pure functions of ``(seed, round_index)``) and carries whatever a
    stateful sampler's ``state_dict()`` returns otherwise.
    Both formats still carry an ``"availability_state": {}`` slot, kept
    so checkpoints written before availability churn was retired
    re-encode byte for byte; a non-empty slot is refused on read.

    ``context`` is a fingerprint of the run the checkpoint belongs to
    (config minus execution knobs, federation shape — or the experiment
    spec when the harness supplies one): a session refuses to restore a
    state whose context differs from its own, so ``--resume`` against a
    checkpoint taken under different settings fails loudly instead of
    silently reporting the old run's model on the new workload.
    """

    algorithm: str
    context: str = ""
    round_index: int = 0
    global_state: Optional[StateDict] = None
    algorithm_state: Dict = field(default_factory=dict)
    client_stores: Dict[int, Dict] = field(default_factory=dict)
    round_records: List[RoundRecord] = field(default_factory=list)
    sampler_state: Dict = field(default_factory=dict)
    warned_non_finite: bool = False

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        """A JSON-ready dict that :meth:`from_json` inverts exactly."""
        return {
            "schema": CHECKPOINT_SCHEMA,
            "algorithm": self.algorithm,
            "context": self.context,
            "round_index": int(self.round_index),
            "global_state": (None if self.global_state is None
                             else encode_value(dict(self.global_state))),
            "algorithm_state": encode_value(self.algorithm_state),
            "client_stores": {str(client_id): encode_value(store)
                              for client_id, store in self.client_stores.items()},
            "round_records": [record.to_json() for record in self.round_records],
            "sampler_state": encode_value(self.sampler_state),
            "availability_state": {},
            "warned_non_finite": bool(self.warned_non_finite),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "ServerState":
        schema = payload.get("schema", CHECKPOINT_SCHEMA)
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"unsupported checkpoint schema {schema!r} "
                f"(this build reads schema {CHECKPOINT_SCHEMA})")
        _refuse_availability_state(payload)
        global_state = payload.get("global_state")
        return cls(
            algorithm=payload["algorithm"],
            context=str(payload.get("context", "")),
            round_index=int(payload["round_index"]),
            global_state=(None if global_state is None
                          else decode_value(global_state)),
            algorithm_state=decode_value(payload.get("algorithm_state", {})),
            client_stores={int(client_id): decode_value(store)
                           for client_id, store in
                           payload.get("client_stores", {}).items()},
            round_records=[RoundRecord.from_json(record)
                           for record in payload.get("round_records", [])],
            sampler_state=decode_value(payload.get("sampler_state", {})),
            warned_non_finite=bool(payload.get("warned_non_finite", False)),
        )

    # ------------------------------------------------------------------
    def to_manifest(self) -> Tuple[Dict, Dict]:
        """The schema-2 split: ``(manifest, columns)``.

        The manifest mirrors :meth:`to_json` field for field (so
        ``round_index`` stays a plain top-level int that pollers can read
        with ``json.loads``), but every ndarray leaf is extracted into
        ``columns`` and replaced by a ``__col__`` reference.  The
        ``arrays`` slot is filled in by :func:`write_checkpoint` once the
        sidecar's content digest is known.
        """
        sink = ColumnSink()
        manifest = {
            "schema": COLUMNAR_SCHEMA,
            "arrays": None,
            "algorithm": self.algorithm,
            "context": self.context,
            "round_index": int(self.round_index),
            "global_state": (None if self.global_state is None
                             else encode_with_columns(dict(self.global_state),
                                                      sink)),
            "algorithm_state": encode_with_columns(self.algorithm_state, sink),
            "client_stores": {str(client_id): encode_with_columns(store, sink)
                              for client_id, store
                              in self.client_stores.items()},
            "round_records": [record.to_json()
                              for record in self.round_records],
            "sampler_state": encode_with_columns(self.sampler_state, sink),
            "availability_state": {},
            "warned_non_finite": bool(self.warned_non_finite),
        }
        return manifest, sink.columns

    @classmethod
    def from_manifest(cls, payload: Dict, columns: Dict) -> "ServerState":
        schema = payload.get("schema")
        if schema != COLUMNAR_SCHEMA:
            raise ValueError(
                f"unsupported checkpoint manifest schema {schema!r} "
                f"(this build reads schema {COLUMNAR_SCHEMA})")
        _refuse_availability_state(payload)
        global_state = payload.get("global_state")
        return cls(
            algorithm=payload["algorithm"],
            context=str(payload.get("context", "")),
            round_index=int(payload["round_index"]),
            global_state=(None if global_state is None
                          else decode_with_columns(global_state, columns)),
            algorithm_state=decode_with_columns(
                payload.get("algorithm_state", {}), columns),
            client_stores={int(client_id): decode_with_columns(store, columns)
                           for client_id, store in
                           payload.get("client_stores", {}).items()},
            round_records=[RoundRecord.from_json(record)
                           for record in payload.get("round_records", [])],
            sampler_state=decode_with_columns(
                payload.get("sampler_state", {}), columns),
            warned_non_finite=bool(payload.get("warned_non_finite", False)),
        )


def write_checkpoint(state: ServerState, path: Union[str, Path],
                     arrays: str = "columnar") -> Path:
    """Atomically persist ``state`` at ``path``; returns the manifest path.

    ``arrays="columnar"`` (default) writes the schema-2 pair: the array
    leaves go into a content-addressed ``<sha256[:12]>.npcol`` sidecar
    beside ``path`` (written first, atomically, and skipped entirely when
    a sidecar with that digest already exists), then the JSON manifest
    referencing it replaces ``path`` atomically, then sidecars no
    surviving manifest in the directory references are swept.  A crash
    between any two steps leaves the previous checkpoint fully readable.
    ``arrays="json"`` writes the legacy schema-1 single file byte-for-byte
    as before.

    Keys are deliberately *not* sorted in either format: insertion order
    inside state dicts is semantic (state-dict arithmetic iterates keys
    in model order, and ``_check_same_keys`` compares ordered key lists),
    and the encoder emits it deterministically — so checkpoint bytes are
    stable without sorting, and sorting would corrupt the order on
    restore.
    """
    path = Path(path)
    if arrays == "json":
        text = json.dumps(state.to_json(), indent=2) + "\n"
        written = atomic_write_text(path, text)
        sweep_checkpoint_sidecars(path.parent)
        return written
    if arrays != "columnar":
        raise ValueError(f"arrays must be 'columnar' or 'json', got {arrays!r}")
    manifest, columns = state.to_manifest()
    if columns:
        payload = pack_columns(columns)
        digest = _sidecar_digest(payload)
        sidecar = path.parent / f"{digest}{_SIDECAR_SUFFIX}"
        manifest["arrays"] = {"file": sidecar.name, "sha256": digest,
                              "nbytes": len(payload), "columns": len(columns)}
        if not sidecar.is_file():
            atomic_write_bytes(sidecar, payload)
    written = atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    sweep_checkpoint_sidecars(path.parent)
    return written


def read_checkpoint(path: Union[str, Path]) -> ServerState:
    """Load a checkpoint written in either format.

    Schema-1 files decode through the legacy inline codec; schema-2
    manifests load their ``.npcol`` sidecar, verifying both the
    container's own checksum and the manifest's recorded content digest —
    a missing, torn, or mismatched sidecar raises
    :class:`~repro.arrays.CorruptArrayFile` instead of yielding wrong
    arrays.
    """
    path = Path(path)
    with open(path) as stream:
        payload = json.load(stream)
    if payload.get("schema", CHECKPOINT_SCHEMA) != COLUMNAR_SCHEMA:
        return ServerState.from_json(payload)
    info = payload.get("arrays")
    columns: Dict = {}
    if info:
        sidecar = path.parent / str(info["file"])
        if not sidecar.is_file():
            raise CorruptArrayFile(
                f"checkpoint {path} references array sidecar {info['file']} "
                "which does not exist (deleted, or the two files were "
                "separated)")
        raw = sidecar.read_bytes()
        if _sidecar_digest(raw) != info.get("sha256"):
            raise CorruptArrayFile(
                f"array sidecar {sidecar} does not match the digest recorded "
                f"in {path.name} (stale or swapped sidecar)")
        columns = unpack_columns(raw, writable=True)
    return ServerState.from_manifest(payload, columns)


def checkpoint_sidecar(path: Union[str, Path]) -> Optional[Path]:
    """The ``.npcol`` sidecar a manifest references, or ``None`` (legacy
    schema-1 files, array-free states, unreadable manifests)."""
    path = Path(path)
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except (OSError, ValueError):
        return None
    info = payload.get("arrays") if isinstance(payload, dict) else None
    if not isinstance(info, dict) or "file" not in info:
        return None
    return path.parent / str(info["file"])


def checkpoint_total_bytes(path: Union[str, Path]) -> int:
    """On-disk footprint of one checkpoint: manifest + referenced sidecar."""
    path = Path(path)
    total = path.stat().st_size
    sidecar = checkpoint_sidecar(path)
    if sidecar is not None and sidecar.is_file():
        total += sidecar.stat().st_size
    return total


def sweep_checkpoint_sidecars(directory: Union[str, Path]) -> List[Path]:
    """Delete ``.npcol`` sidecars no manifest in ``directory`` references.

    Sidecars are content-addressed and may be shared by several manifests
    (the base checkpoint and its retained numbered copies, or several
    methods checkpointing into one directory), so cleanup is
    reference-driven: scan every ``*.json`` manifest for its ``arrays``
    pointer and remove the rest.  Returns the removed paths.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    referenced = set()
    for manifest in directory.glob("*.json"):
        sidecar = checkpoint_sidecar(manifest)
        if sidecar is not None:
            referenced.add(sidecar.name)
    removed = []
    for orphan in directory.glob(_SIDECAR_PATTERN):
        if orphan.name not in referenced:
            try:
                orphan.unlink()
            except OSError:
                continue  # a concurrent sweep got there first
            removed.append(orphan)
    return removed


def remove_checkpoint(path: Union[str, Path]) -> None:
    """Delete one checkpoint — manifest plus any sidecar it alone used.

    The retention pruner's primitive: unlinking just the manifest would
    strand its sidecar forever (content-addressed names never repeat for
    different states), so removal always ends with a reference sweep of
    the directory.  Sidecars still referenced by surviving manifests are
    kept.
    """
    path = Path(path)
    try:
        path.unlink()
    except FileNotFoundError:
        pass
    sweep_checkpoint_sidecars(path.parent)
