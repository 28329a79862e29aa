"""Checkpoint exactness: the acceptance contract of the session API.

Three properties, for every registered method:

1. ``ServerState`` → JSON → ``ServerState`` is *exact* (dtypes, shapes,
   key order, tuples, NaNs);
2. a run checkpointed at an arbitrary round and resumed in a fresh
   session produces a ``RunResult`` bitwise identical to the
   uninterrupted run — including across the serial and process
   execution backends;
3. the legacy schema-1 (inline JSON) and schema-2 (manifest + ``.npcol``
   sidecar) checkpoint formats are *differentially* identical: the same
   state written both ways reads back bitwise equal, and both resume to
   the same run result.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arrays import CorruptArrayFile
from repro.data import make_cifar10_like, partition_dirichlet
from repro.eval import available_methods, build_method
from repro.eval.harness import EncoderSpec
from repro.fl import FederatedConfig, TrainingSession, build_federation
from repro.fl.session import (
    ServerState,
    decode_value,
    encode_value,
    read_checkpoint,
    write_checkpoint,
)
from repro.fl.session.codec import (
    ColumnSink,
    decode_with_columns,
    encode_with_columns,
)
from repro.fl.session.state import (
    checkpoint_sidecar,
    sweep_checkpoint_sidecars,
)

NUM_CLASSES = 10
IMAGE_SIZE = 8

# Picklable (EncoderSpec) so the process-backend resume test works too.
ENCODER = EncoderSpec(kind="mlp", channels=3, image_size=IMAGE_SIZE,
                      hidden_dims=(24, 12), seed=42)


def tiny_config(**overrides):
    defaults = dict(num_clients=4, clients_per_round=2, rounds=3, local_epochs=1,
                    batch_size=16, personalization_epochs=2, seed=0)
    defaults.update(overrides)
    return FederatedConfig(**defaults)


def tiny_federation(config, seed=0):
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=24,
                                test_per_class=4, seed=seed)
    parts = partition_dirichlet(dataset.train.labels, config.num_clients, 0.5,
                                samples_per_client=40,
                                rng=np.random.default_rng(seed))
    return build_federation(dataset, parts, seed=seed)


def make_session(method, config, backend=None):
    algorithm = build_method(method, config, NUM_CLASSES, ENCODER)
    return TrainingSession(algorithm, tiny_federation(config), config,
                           backend=backend)


def state_through_json(state: ServerState) -> ServerState:
    """The full wire trip: to_json → dumps → loads → from_json."""
    return ServerState.from_json(json.loads(json.dumps(state.to_json())))


def state_through_files(state: ServerState, directory: Path):
    """Write ``state`` in both on-disk formats, read both back."""
    legacy = write_checkpoint(state, directory / "legacy.json", arrays="json")
    columnar = write_checkpoint(state, directory / "columnar.json")
    return read_checkpoint(legacy), read_checkpoint(columnar)


def assert_exact(left, right, path="$"):
    """Recursive exact equality: types, dtypes, shapes, order, bits."""
    assert type(left) is type(right), f"{path}: {type(left)} != {type(right)}"
    if isinstance(left, dict):
        assert list(left.keys()) == list(right.keys()), f"{path}: key order"
        for key in left:
            assert_exact(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), f"{path}: length"
        for index, (a, b) in enumerate(zip(left, right)):
            assert_exact(a, b, f"{path}[{index}]")
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype, f"{path}: dtype"
        assert left.shape == right.shape, f"{path}: shape"
        np.testing.assert_array_equal(left, right, err_msg=path)
    elif isinstance(left, float) and np.isnan(left):
        assert np.isnan(right), path
    else:
        assert left == right, path


# ----------------------------------------------------------------------
# Codec property tests
# ----------------------------------------------------------------------
_dtypes = st.sampled_from(["<f8", "<f4", "<i8", "<i4", "|b1"])
_arrays = _dtypes.flatmap(
    lambda dtype: hnp.arrays(
        dtype=np.dtype(dtype),
        shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
        elements=(st.floats(width=32 if dtype == "<f4" else 64,
                            allow_nan=True, allow_infinity=True)
                  if dtype in ("<f8", "<f4") else None),
    )
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
)
_store_values = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
        st.dictionaries(st.integers(-10, 10), children, max_size=3),
    ),
    max_leaves=12,
)


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(value=_store_values)
    def test_encode_decode_round_trip_is_exact(self, value):
        wire = json.loads(json.dumps(encode_value(value)))
        assert_exact(decode_value(wire), value)

    @settings(max_examples=30, deadline=None)
    @given(value=_store_values)
    def test_encoding_is_deterministic(self, value):
        assert json.dumps(encode_value(value)) == json.dumps(encode_value(value))

    def test_tag_collision_keys_survive(self):
        tricky = {"__nd__": [1, 2], "__tu__": (3,), 4: "int key"}
        assert_exact(decode_value(json.loads(json.dumps(encode_value(tricky)))),
                     tricky)

    def test_unencodable_objects_raise(self):
        with pytest.raises(TypeError):
            encode_value(object())
        with pytest.raises(TypeError):
            encode_value(np.array([object()]))


# ----------------------------------------------------------------------
# Whole-run exactness, every registered method
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", available_methods())
class TestEveryMethodCheckpoints:
    def test_state_round_trip_and_resume_bitwise(self, method):
        config = tiny_config()
        # Uninterrupted reference.
        reference = json.dumps(make_session(method, config).execute().to_json())

        # Interrupt at round 2: capture, push through JSON, restore into a
        # *fresh* session (new algorithm instance, freshly built clients).
        partial = make_session(method, config)
        partial.run_until(2)
        state = partial.capture_state()
        revived = state_through_json(state)
        assert_exact(revived.to_json(), state.to_json())
        assert revived.round_index == 2

        resumed = make_session(method, config)
        resumed.restore_state(revived)
        assert json.dumps(resumed.execute().to_json()) == reference

    def test_json_and_columnar_files_differentially_identical(
            self, method, tmp_path):
        """The same state written in both on-disk formats reads back
        bitwise equal — ServerState, round records and all — and the
        columnar read resumes to the uninterrupted run's exact result."""
        config = tiny_config()
        reference = json.dumps(make_session(method, config).execute().to_json())

        partial = make_session(method, config)
        partial.run_until(2)
        state = partial.capture_state()
        from_legacy, from_columnar = state_through_files(state, tmp_path)
        assert_exact(from_columnar.to_json(), from_legacy.to_json())
        assert_exact(from_columnar.to_json(), state.to_json())
        assert [record.to_json() for record in from_columnar.round_records] \
            == [record.to_json() for record in from_legacy.round_records]

        resumed = make_session(method, config)
        resumed.restore_state(from_columnar)
        assert json.dumps(resumed.execute().to_json()) == reference


@pytest.mark.parametrize("method", ["scaffold", "calibre-simclr"])
@pytest.mark.parametrize("backend", ["process"])
class TestResumeAcrossBackends:
    def test_resume_matches_serial_uninterrupted(self, method, backend):
        """A checkpoint taken under serial resumes bitwise under every
        backend (and vice versa: state is backend-independent)."""
        config = tiny_config(clients_per_round=4)
        reference = json.dumps(make_session(method, config).execute().to_json())

        partial = make_session(method, config, backend=backend)
        partial.run_until(1)
        state = state_through_json(partial.capture_state())
        partial.close()

        resumed = make_session(method, config, backend=backend)
        resumed.restore_state(state)
        assert json.dumps(resumed.execute().to_json()) == reference

    def test_columnar_and_json_files_resume_identically(self, method,
                                                        backend, tmp_path):
        """Both on-disk formats, written under one backend, restore and
        resume to the same bitwise result under that backend, with the
        restored stores shipped to workers by plain pickle."""
        config = tiny_config(clients_per_round=4)
        reference = json.dumps(make_session(method, config).execute().to_json())

        partial = make_session(method, config, backend=backend)
        partial.run_until(1)
        from_legacy, from_columnar = state_through_files(
            partial.capture_state(), tmp_path)
        partial.close()
        assert_exact(from_columnar.to_json(), from_legacy.to_json())

        resumed = make_session(method, config, backend=backend)
        resumed.restore_state(from_columnar)
        result = json.dumps(resumed.execute().to_json())
        resumed.close()
        assert result == reference


class TestStoreWireFormat:
    """Client stores travel to process workers and back as plain pickle;
    what comes back must equal what was sent, bit for bit, and stay
    mutable so the next round can train on it in place."""

    @settings(max_examples=30, deadline=None)
    @given(value=_store_values)
    def test_pickle_round_trip_is_exact(self, value):
        import pickle

        assert_exact(pickle.loads(pickle.dumps(value)), value)

    @settings(max_examples=30, deadline=None)
    @given(value=_store_values)
    def test_unpickled_arrays_are_writable(self, value):
        import pickle

        def all_writable(item):
            if isinstance(item, np.ndarray):
                return item.flags.writeable
            if isinstance(item, dict):
                return all(all_writable(v) for v in item.values())
            if isinstance(item, (list, tuple)):
                return all(all_writable(v) for v in item)
            return True

        assert all_writable(pickle.loads(pickle.dumps(value)))

    @settings(max_examples=60, deadline=None)
    @given(value=_store_values)
    def test_column_split_round_trip_is_exact(self, value):
        sink = ColumnSink()
        skeleton = encode_with_columns(value, sink)
        json.dumps(skeleton)  # the skeleton alone is plain JSON
        assert_exact(decode_with_columns(skeleton, sink.columns), value)


@pytest.mark.parametrize("method", ["scaffold", "calibre-simclr"])
def test_process_stores_match_serial_stores(method):
    """After every round, the stores the coordinator holds under the
    process backend equal the serial backend's, bitwise: the pickled
    round trip neither drops, reorders nor perturbs client state."""
    config = tiny_config(clients_per_round=4)
    serial = make_session(method, config)
    parallel = make_session(method, config, backend="process")
    try:
        for _ in range(config.rounds):
            serial.step()
            with warnings.catch_warnings():
                # A silent serial fallback would make the comparison vacuous.
                warnings.simplefilter("error", RuntimeWarning)
                parallel.step()
            assert_exact(parallel.capture_state().client_stores,
                         serial.capture_state().client_stores)
    finally:
        parallel.close()
        serial.close()


class TestCheckpointFiles:
    def test_save_load_file_round_trip(self, tmp_path):
        config = tiny_config()
        session = make_session("scaffold", config)
        session.run_until(2)
        path = session.save_checkpoint(tmp_path / "ckpt.json")
        fresh = make_session("scaffold", config)
        state = fresh.load_checkpoint(path)
        assert state.round_index == 2
        assert fresh.round_index == 2
        assert json.dumps(fresh.capture_state().to_json()) == \
            json.dumps(session.capture_state().to_json())

    def test_checkpoint_bytes_are_deterministic(self, tmp_path):
        config = tiny_config()
        session = make_session("calibre-simclr", config)
        session.run_until(1)
        first = session.save_checkpoint(tmp_path / "a.json").read_bytes()
        second = session.save_checkpoint(tmp_path / "b.json").read_bytes()
        assert first == second

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError, match="schema"):
            ServerState.from_json({"schema": 999, "algorithm": "x",
                                   "round_index": 0})

    def test_manifest_round_index_is_plain_json(self, tmp_path):
        # Progress pollers (mid_cell_resume_smoke) read the cursor with a
        # bare json.loads — no codec, no sidecar.
        session = make_session("scaffold", tiny_config())
        session.run_until(2)
        path = session.save_checkpoint(tmp_path / "ckpt.json")
        assert json.loads(path.read_text())["round_index"] == 2

    def test_columnar_is_much_smaller_than_json(self, tmp_path):
        from repro.fl.session import checkpoint_total_bytes

        session = make_session("calibre-simclr", tiny_config())
        session.run_until(2)
        state = session.capture_state()
        legacy = write_checkpoint(state, tmp_path / "l.json", arrays="json")
        columnar = write_checkpoint(state, tmp_path / "c.json")
        # The all-f8 state bounds the ratio: 8 raw bytes per element vs
        # ~38 chars of indented legacy JSON, ~4.6x on this workload.  The
        # CI bench smoke (bench_substrate_throughput --smoke) gates the
        # ratios on the bench workload; this pins the floor.
        assert checkpoint_total_bytes(columnar) * 4 <= \
            checkpoint_total_bytes(legacy)


class TestSidecarLifecycle:
    def capture(self, rounds=1):
        session = make_session("scaffold", tiny_config())
        session.run_until(rounds)
        return session.capture_state()

    def test_sidecar_is_content_addressed_and_shared(self, tmp_path):
        state = self.capture()
        a = write_checkpoint(state, tmp_path / "a.json")
        b = write_checkpoint(state, tmp_path / "b.json")
        assert checkpoint_sidecar(a) == checkpoint_sidecar(b)
        assert len(list(tmp_path.glob("*.npcol"))) == 1

    def test_rewrite_sweeps_the_stale_sidecar(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.capture(rounds=1), path)
        first = checkpoint_sidecar(path)
        write_checkpoint(self.capture(rounds=2), path)
        second = checkpoint_sidecar(path)
        assert first != second
        assert not first.is_file()  # swept: nothing references it anymore
        assert second.is_file()

    def test_sweep_never_touches_referenced_sidecars(self, tmp_path):
        write_checkpoint(self.capture(), tmp_path / "live.json")
        orphan = tmp_path / "0123456789ab.npcol"
        orphan.write_bytes(b"stale")
        removed = sweep_checkpoint_sidecars(tmp_path)
        assert [p.name for p in removed] == [orphan.name]
        assert checkpoint_sidecar(tmp_path / "live.json").is_file()

    def test_missing_sidecar_fails_loudly(self, tmp_path):
        path = write_checkpoint(self.capture(), tmp_path / "ckpt.json")
        checkpoint_sidecar(path).unlink()
        with pytest.raises(CorruptArrayFile, match="does not exist"):
            read_checkpoint(path)

    def test_swapped_sidecar_fails_the_digest_check(self, tmp_path):
        state = self.capture()
        path = write_checkpoint(state, tmp_path / "ckpt.json")
        sidecar = checkpoint_sidecar(path)
        other = write_checkpoint(self.capture(rounds=2), tmp_path / "o.json")
        sidecar.write_bytes(checkpoint_sidecar(other).read_bytes())
        with pytest.raises(CorruptArrayFile, match="digest"):
            read_checkpoint(path)

    def test_torn_sidecar_fails_the_container_checksum(self, tmp_path):
        path = write_checkpoint(self.capture(), tmp_path / "ckpt.json")
        sidecar = checkpoint_sidecar(path)
        raw = sidecar.read_bytes()
        sidecar.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptArrayFile):
            read_checkpoint(path)


GOLDEN_CHECKPOINT = Path(__file__).parent / "data" / \
    "golden_checkpoint_schema1.json"

# A deliberately small workload so the committed fixture stays compact.
GOLDEN_ENCODER = EncoderSpec(kind="mlp", channels=3, image_size=IMAGE_SIZE,
                             hidden_dims=(8,), seed=42)


def golden_session():
    config = tiny_config(num_clients=3)
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=12,
                                test_per_class=2, seed=0)
    parts = partition_dirichlet(dataset.train.labels, config.num_clients, 0.5,
                                samples_per_client=24,
                                rng=np.random.default_rng(0))
    clients = build_federation(dataset, parts, seed=0)
    algorithm = build_method("scaffold", config, NUM_CLASSES, GOLDEN_ENCODER)
    return TrainingSession(algorithm, clients, config)


class TestGoldenLegacyCheckpoint:
    """A pre-columnar schema-1 checkpoint committed as a fixture must keep
    resuming bitwise forever (regenerate with
    ``tests/fl/data/make_golden_checkpoint.py`` only when the *training*
    math legitimately changes — never for format work)."""

    def test_fixture_exists(self):
        assert GOLDEN_CHECKPOINT.is_file()
        assert json.loads(GOLDEN_CHECKPOINT.read_text())["schema"] == 1

    def test_golden_matches_live_state_bitwise(self):
        state = read_checkpoint(GOLDEN_CHECKPOINT)
        live = golden_session()
        live.run_until(2)
        assert_exact(state.to_json(), live.capture_state().to_json())

    def test_golden_resumes_to_the_reference_result(self):
        reference = json.dumps(golden_session().execute().to_json())
        resumed = golden_session()
        resumed.restore_state(read_checkpoint(GOLDEN_CHECKPOINT))
        assert json.dumps(resumed.execute().to_json()) == reference
