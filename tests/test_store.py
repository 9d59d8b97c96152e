"""Tests for the persistent measurement store (repro.store).

Covers the record codec (bitwise round-trip of float64 values and every
designspace parameter kind, property-tested), the segment log (atomic
appends, refresh, compaction), corruption recovery (truncated tails from
killed writers, foreign fingerprints → typed errors), and concurrent
multi-process appends (no records lost).
"""

import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.designspace.spec import build_table1_space
from repro.store import (
    MeasurementStore,
    StoreMismatchError,
    decode_record,
    encode_record,
    fingerprint_digest,
    measurement_fingerprint,
)

ROW = np.array([1.25, 3.7e-7, 12.5, 2.5, 0.148], dtype=np.float64)


def fingerprint(**overrides):
    from repro.sim.technology import DEFAULT_TECHNOLOGY

    payload = dict(
        space=build_table1_space(),
        simpoint_phases=3,
        phase_seed=12345,
        technology=DEFAULT_TECHNOLOGY,
    )
    payload.update(overrides)
    return measurement_fingerprint(**payload)


def open_store(path, **overrides):
    return MeasurementStore(path, fingerprint(**overrides))


# -- codec -------------------------------------------------------------------
class TestRecordCodec:
    @given(
        workload=st.text(min_size=1, max_size=40),
        key=st.tuples(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=20),
            st.booleans(),
        ),
        row=st.lists(
            st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bitwise(self, workload, key, row):
        row = np.array(row, dtype=np.float64)
        payload = encode_record(workload, key, row)
        got_workload, got_key, got_row = decode_record(payload)
        assert got_workload == workload
        # Compare raw bits, not values: NaN payloads and signed zeros must
        # survive, which `==` cannot check.
        assert got_row.tobytes() == row.tobytes()
        assert len(got_key) == len(key)
        for got, want in zip(got_key, key):
            assert type(got) is type(want)
            if isinstance(want, float):
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            else:
                assert got == want

    def test_every_table1_parameter_kind_round_trips(self):
        # A key holding every candidate value of every Table I parameter:
        # ints, floats and the categorical branch-predictor strings.
        space = build_table1_space()
        for parameter in space.parameters:
            key = tuple(parameter.values)
            _, got_key, _ = decode_record(encode_record("w", key, ROW))
            assert got_key == key
            assert [type(v) for v in got_key] == [type(v) for v in key]

    def test_bool_and_int_do_not_alias(self):
        _, key, _ = decode_record(encode_record("w", (True, 1, False, 0), ROW))
        assert key == (True, 1, False, 0)
        assert [type(v) for v in key] == [bool, int, bool, int]

    def test_unsupported_key_type_raises(self):
        with pytest.raises(TypeError, match="unsupported key value type"):
            encode_record("w", ((1, 2),), ROW)


# -- basic store operations --------------------------------------------------
class TestMeasurementStore:
    def test_put_get_and_reopen_persist_bitwise(self, tmp_path):
        store = open_store(tmp_path / "m.store")
        key = (2.5, 192, "TournamentBP")
        assert store.put_batch([("605.mcf_s", key, ROW)]) == 1
        np.testing.assert_array_equal(store.get("605.mcf_s", key), ROW)
        assert store.get("605.mcf_s", (1.0,)) is None
        assert store.get("625.x264_s", key) is None

        reopened = open_store(tmp_path / "m.store")
        assert len(reopened) == 1
        assert reopened.get("605.mcf_s", key).tobytes() == ROW.tobytes()

    def test_each_flush_is_one_new_segment(self, tmp_path):
        store = open_store(tmp_path / "m.store")
        for i in range(3):
            store.put_batch([("w", (i,), ROW)])
        assert store.stats().num_segments == 3
        assert len(store) == 3

    def test_refresh_sees_concurrent_writers(self, tmp_path):
        first = open_store(tmp_path / "m.store")
        second = open_store(tmp_path / "m.store")
        second.put_batch([("w", (1,), ROW)])
        assert first.get("w", (1,)) is None
        assert first.refresh() == 1
        np.testing.assert_array_equal(first.get("w", (1,)), ROW)

    def test_compact_merges_and_dedupes(self, tmp_path):
        store = open_store(tmp_path / "m.store")
        for i in range(4):
            store.put_batch([("w", (i % 2,), ROW * (i + 1))])
        assert store.stats().num_segments == 4
        before, after = store.compact()
        assert (before, after) == (4, 1)
        assert store.stats().num_segments == 1
        assert store.verify() == []
        # Last write per key wins, bitwise.
        reopened = open_store(tmp_path / "m.store")
        assert len(reopened) == 2
        assert reopened.get("w", (0,)).tobytes() == (ROW * 3).tobytes()
        assert reopened.get("w", (1,)).tobytes() == (ROW * 4).tobytes()

    def test_empty_store_stats_and_compact(self, tmp_path):
        store = open_store(tmp_path / "m.store")
        stats = store.stats()
        assert stats.num_records == 0 and stats.num_segments == 0
        assert store.compact() == (0, 0)
        assert store.verify() == []

    def test_read_only_handle_rejects_writes(self, tmp_path):
        open_store(tmp_path / "m.store").put_batch([("w", (1,), ROW)])
        reader = MeasurementStore(
            tmp_path / "m.store", fingerprint(), read_only=True
        )
        assert len(reader) == 1
        with pytest.raises(RuntimeError, match="read-only"):
            reader.put_batch([("w", (2,), ROW)])
        with pytest.raises(RuntimeError, match="read-only"):
            reader.compact()

    def test_read_only_missing_store_is_empty(self, tmp_path):
        reader = MeasurementStore(
            tmp_path / "absent.store", fingerprint(), read_only=True
        )
        assert len(reader) == 0
        assert not (tmp_path / "absent.store").exists()

    def test_pickle_reopens_read_only(self, tmp_path):
        store = open_store(tmp_path / "m.store")
        store.put_batch([("w", (1,), ROW)])
        clone = pickle.loads(pickle.dumps(store))
        assert clone.read_only
        assert clone.get("w", (1,)).tobytes() == ROW.tobytes()

    def test_stored_rows_are_immutable(self, tmp_path):
        store = open_store(tmp_path / "m.store")
        store.put_batch([("w", (1,), ROW)])
        row = store.get("w", (1,))
        with pytest.raises(ValueError):
            row[0] = 99.0


# -- fingerprints and corruption --------------------------------------------
class TestMismatchAndCorruption:
    def test_require_fingerprint_accepts_only_its_own(self, tmp_path):
        store = open_store(tmp_path / "m.store")
        store.require_fingerprint(fingerprint())
        with pytest.raises(StoreMismatchError, match="different fingerprint"):
            store.require_fingerprint(fingerprint(phase_seed=7))

    def test_foreign_fingerprint_raises_typed_error(self, tmp_path):
        open_store(tmp_path / "m.store")
        with pytest.raises(StoreMismatchError, match="different"):
            open_store(tmp_path / "m.store", simpoint_phases=7)

    def test_not_a_store_raises_typed_error(self, tmp_path):
        with pytest.raises(StoreMismatchError, match="not a measurement store"):
            MeasurementStore.open_existing(tmp_path)

    def test_corrupt_manifest_raises_typed_error_not_traceback(self, tmp_path):
        store_dir = tmp_path / "m.store"
        open_store(store_dir)
        (store_dir / "manifest.json").write_text("{not json")
        with pytest.raises(StoreMismatchError, match="unreadable store manifest"):
            open_store(store_dir)

    def test_foreign_segment_raises_typed_error(self, tmp_path):
        # A segment copied in from a store with a different fingerprint must
        # not be silently served as this store's data.
        donor = open_store(tmp_path / "donor.store", simpoint_phases=9)
        donor.put_batch([("w", (1,), ROW)])
        target = open_store(tmp_path / "m.store")
        target.put_batch([("w", (2,), ROW)])
        donor_segment = sorted((tmp_path / "donor.store").glob("seg-*.seg"))[0]
        (tmp_path / "m.store" / "seg-00000009.seg").write_bytes(
            donor_segment.read_bytes()
        )
        with pytest.raises(StoreMismatchError, match="foreign fingerprint"):
            open_store(tmp_path / "m.store")
        # verify() reports it instead of raising.
        issues = target.verify()
        assert any("foreign fingerprint" in issue for issue in issues)

    def test_truncated_final_segment_recovers_prefix_with_warning(self, tmp_path):
        store_dir = tmp_path / "m.store"
        store = open_store(store_dir)
        store.put_batch([("w", (i,), ROW * (i + 1)) for i in range(5)])
        segment = sorted(store_dir.glob("seg-*.seg"))[0]
        # Kill the writer mid-record: chop the last 7 bytes.
        segment.write_bytes(segment.read_bytes()[:-7])

        with pytest.warns(RuntimeWarning, match="recovered 4 records"):
            recovered = open_store(store_dir)
        assert len(recovered) == 4
        for i in range(4):
            assert recovered.get("w", (i,)).tobytes() == (ROW * (i + 1)).tobytes()
        assert recovered.get("w", (4,)) is None
        issues = recovered.verify()
        assert any("recovered 4 records" in issue for issue in issues)

    def test_bitflipped_record_detected_by_crc(self, tmp_path):
        store_dir = tmp_path / "m.store"
        store = open_store(store_dir)
        store.put_batch([("w", (1,), ROW)])
        segment = sorted(store_dir.glob("seg-*.seg"))[0]
        blob = bytearray(segment.read_bytes())
        blob[-3] ^= 0xFF
        segment.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="corrupt record"):
            recovered = open_store(store_dir)
        assert len(recovered) == 0

    def test_garbage_segment_is_skipped_with_warning(self, tmp_path):
        store_dir = tmp_path / "m.store"
        store = open_store(store_dir)
        store.put_batch([("w", (1,), ROW)])
        (store_dir / "seg-00000099.seg").write_bytes(b"not a segment at all")
        with pytest.warns(RuntimeWarning, match="bad header"):
            recovered = open_store(store_dir)
        assert len(recovered) == 1

    def test_digest_is_canonical(self):
        a = fingerprint()
        b = fingerprint()
        assert fingerprint_digest(a) == fingerprint_digest(b)
        assert fingerprint_digest(a) != fingerprint_digest(
            fingerprint(phase_seed=999)
        )


# -- concurrent appends ------------------------------------------------------
def _append_worker(path, fingerprint, writer, n_records, barrier):
    store = MeasurementStore(path, fingerprint)
    barrier.wait()
    for i in range(n_records):
        row = np.array([writer, i, 0.0, 0.0, 0.0], dtype=np.float64)
        store.put_batch([("w", (writer, i), row)])


@pytest.mark.slow
def test_concurrent_multiprocess_appends_lose_no_records(tmp_path):
    """Spawned writers appending concurrently: every record survives."""
    path = str(tmp_path / "m.store")
    fp = fingerprint()
    writers, per_writer = 4, 6
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(writers)
    processes = [
        ctx.Process(
            target=_append_worker, args=(path, fp, writer, per_writer, barrier)
        )
        for writer in range(writers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0

    store = open_store(path)
    assert len(store) == writers * per_writer
    assert store.verify() == []
    for writer in range(writers):
        for i in range(per_writer):
            row = store.get("w", (writer, i))
            assert row is not None and row[0] == writer and row[1] == i
