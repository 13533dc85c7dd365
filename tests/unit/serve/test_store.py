"""Unit tests for the content-addressed result store."""

import json

import pytest

from repro.errors import CorruptResultError
from repro.serve.store import CHECKSUM_FIELD, ResultStore, doc_checksum
from repro.trace.recorder import TraceRecorder

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


def sample_trace():
    rec = TraceRecorder()
    rec.record_fault(10, page=5, vablock=0, stream=1, duplicate=False)
    rec.record_eviction(30, vablock=0, n_pages=3, n_dirty=1)
    return rec.finalize()


class TestDocuments:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        doc = {"total_time_ns": 123, "counters": {"faults.read": 7}}
        store.store(KEY_A, doc)
        assert store.contains(KEY_A)
        assert store.load(KEY_A) == doc

    def test_missing_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.contains(KEY_A)
        assert store.load(KEY_A) is None

    def test_prefix_fanout(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {})
        assert (tmp_path / "aa" / f"{KEY_A}.json").is_file()

    def test_keys_enumerates(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {})
        store.store(KEY_B, {})
        assert sorted(store.keys()) == sorted([KEY_A, KEY_B])
        assert len(store) == 2

    def test_overwrite_is_atomic_replace(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"v": 1})
        store.store(KEY_A, {"v": 2})
        assert store.load(KEY_A) == {"v": 2}

    def test_no_tmp_litter(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"v": 1}, trace=sample_trace())
        leftovers = [p for p in tmp_path.rglob("*") if "tmp" in p.name]
        assert leftovers == []

    def test_torn_document_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.doc_path(KEY_A)
        path.parent.mkdir(parents=True)
        path.write_text('{"total_time_ns": 12')  # truncated write
        assert store.load(KEY_A) is None


class TestTracePayloads:
    def test_trace_round_trips(self, tmp_path):
        store = ResultStore(tmp_path)
        trace = sample_trace()
        store.store(KEY_A, {"v": 1}, trace=trace, trace_metadata={"job_id": "j"})
        loaded = store.load_result_trace(KEY_A)
        assert loaded is not None
        assert loaded.fault_page.tolist() == trace.fault_page.tolist()
        assert loaded.evict_pages.tolist() == trace.evict_pages.tolist()

    def test_absent_trace_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"v": 1})
        assert store.load_result_trace(KEY_A) is None

    def test_discard_removes_both(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"v": 1}, trace=sample_trace())
        store.discard(KEY_A)
        assert not store.contains(KEY_A)
        assert store.load_result_trace(KEY_A) is None


class TestChecksums:
    def test_stored_document_carries_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"v": 1})
        raw = json.loads(store.doc_path(KEY_A).read_text())
        assert raw[CHECKSUM_FIELD] == doc_checksum({"v": 1})

    def test_checksum_excludes_itself(self):
        doc = {"v": 1}
        assert doc_checksum(doc) == doc_checksum({**doc, CHECKSUM_FIELD: "anything"})

    def test_caller_dict_not_mutated(self, tmp_path):
        store = ResultStore(tmp_path)
        doc = {"v": 1}
        store.store(KEY_A, doc)
        assert doc == {"v": 1}

    def test_get_strips_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"v": 1})
        assert store.get(KEY_A) == {"v": 1}

    def test_get_missing_raises_keyerror(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(KeyError):
            store.get(KEY_A)

    def test_document_without_checksum_is_quarantined(self, tmp_path):
        # every writer stamps a checksum, so an unstamped document is a
        # damaged one: here the field was renamed and the payload edited.
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"total_time_ns": 123})
        path = store.doc_path(KEY_A)
        raw = json.loads(path.read_text())
        raw["checksun"] = raw.pop(CHECKSUM_FIELD)
        raw["total_time_ns"] = 999
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptResultError):
            store.get(KEY_A)
        assert store.quarantined == 1
        assert (store.quarantine_dir / f"{KEY_A}.json").is_file()
        assert store.load(KEY_A) is None


class TestQuarantine:
    def _corrupt(self, store, key):
        store.store(key, {"v": 1})
        path = store.doc_path(key)
        raw = json.loads(path.read_text())
        raw["v"] = 2  # bit-flip the payload; checksum now stale
        path.write_text(json.dumps(raw))

    def test_checksum_mismatch_raises_and_quarantines(self, tmp_path):
        store = ResultStore(tmp_path)
        self._corrupt(store, KEY_A)
        with pytest.raises(CorruptResultError):
            store.get(KEY_A)
        assert store.quarantined == 1
        assert not store.doc_path(KEY_A).exists()
        assert (store.quarantine_dir / f"{KEY_A}.json").is_file()
        # afterwards the key is a plain miss, so a writer can repopulate
        with pytest.raises(KeyError):
            store.get(KEY_A)

    def test_lenient_load_self_heals(self, tmp_path):
        store = ResultStore(tmp_path)
        self._corrupt(store, KEY_A)
        assert store.load(KEY_A) is None
        assert not store.contains(KEY_A)
        assert store.quarantined == 1

    def test_torn_document_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.doc_path(KEY_A)
        path.parent.mkdir(parents=True)
        path.write_text('{"total_time_ns": 12')
        with pytest.raises(CorruptResultError):
            store.get(KEY_A)
        assert (store.quarantine_dir / f"{KEY_A}.json").is_file()

    def test_truncated_trace_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"v": 1}, trace=sample_trace())
        npz = store.trace_path(KEY_A)
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        with pytest.raises(CorruptResultError):
            store.load_result_trace(KEY_A)
        assert (store.quarantine_dir / f"{KEY_A}.npz").is_file()

    def test_quarantine_dir_not_enumerated(self, tmp_path):
        store = ResultStore(tmp_path)
        self._corrupt(store, KEY_A)
        store.load(KEY_A)
        store.store(KEY_B, {"v": 3})
        assert list(store.keys()) == [KEY_B]


class TestTmpSweep:
    def test_startup_sweeps_stale_tmp(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"v": 1})
        debris = tmp_path / "aa" / "tmpabc123.tmp"
        debris.write_text("partial")
        dot_debris = tmp_path / "aa" / f".{KEY_A}.999.tmp.npz"
        dot_debris.write_bytes(b"\x00")
        reopened = ResultStore(tmp_path)
        assert reopened.tmp_swept == 2
        assert not debris.exists() and not dot_debris.exists()
        assert reopened.load(KEY_A) == {"v": 1}  # real entries untouched

    def test_worker_mode_does_not_sweep(self, tmp_path):
        store = ResultStore(tmp_path)
        debris = tmp_path / "aa"
        debris.mkdir()
        (debris / "tmpabc123.tmp").write_text("in flight")
        worker_store = ResultStore(tmp_path, sweep_tmp=False)
        assert worker_store.tmp_swept == 0
        assert (debris / "tmpabc123.tmp").exists()


class TestMigrationTransfer:
    def test_export_import_round_trip_with_trace(self, tmp_path):
        src = ResultStore(tmp_path / "src")
        dst = ResultStore(tmp_path / "dst")
        src.store(KEY_A, {"total_time_ns": 123}, trace=sample_trace())

        wire = src.export_entry(KEY_A)
        assert wire["key"] == KEY_A
        assert wire["doc"][CHECKSUM_FIELD] == doc_checksum(wire["doc"])
        assert wire["trace_b64"] is not None

        assert dst.import_entry(KEY_A, wire["doc"], wire["trace_b64"]) is True
        assert dst.get(KEY_A) == src.get(KEY_A)
        # the npz payload survived the base64 hop bit-for-bit
        assert dst.trace_path(KEY_A).read_bytes() == src.trace_path(
            KEY_A
        ).read_bytes()

    def test_export_import_without_trace(self, tmp_path):
        src = ResultStore(tmp_path / "src")
        dst = ResultStore(tmp_path / "dst")
        src.store(KEY_A, {"total_time_ns": 7})
        wire = src.export_entry(KEY_A)
        assert wire["trace_b64"] is None
        assert dst.import_entry(KEY_A, wire["doc"]) is True
        assert not dst.trace_path(KEY_A).exists()

    def test_export_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError):
            ResultStore(tmp_path).export_entry(KEY_A)

    def test_export_corrupt_entry_quarantines_never_ships(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(KEY_A, {"total_time_ns": 1})
        path = store.doc_path(KEY_A)
        tampered = json.loads(path.read_text())
        tampered["total_time_ns"] = 999  # checksum now stale
        path.write_text(json.dumps(tampered))
        with pytest.raises(CorruptResultError):
            store.export_entry(KEY_A)
        assert not store.contains(KEY_A)  # quarantined, not served

    def test_import_rejects_corrupted_transfer_before_disk(self, tmp_path):
        src = ResultStore(tmp_path / "src")
        dst = ResultStore(tmp_path / "dst")
        src.store(KEY_A, {"total_time_ns": 1})
        wire = src.export_entry(KEY_A)
        wire["doc"]["total_time_ns"] = 2  # corrupt in transit
        with pytest.raises(ValueError, match="checksum"):
            dst.import_entry(KEY_A, wire["doc"])
        assert not dst.contains(KEY_A)
        assert list(dst.keys()) == []

    def test_import_without_checksum_rejected(self, tmp_path):
        dst = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="no checksum"):
            dst.import_entry(KEY_A, {"total_time_ns": 1})

    def test_reimport_is_idempotent_noop(self, tmp_path):
        src = ResultStore(tmp_path / "src")
        dst = ResultStore(tmp_path / "dst")
        src.store(KEY_A, {"total_time_ns": 1})
        wire = src.export_entry(KEY_A)
        assert dst.import_entry(KEY_A, wire["doc"]) is True
        # a resumed migration cursor replays the copy: no-op, not error
        assert dst.import_entry(KEY_A, wire["doc"]) is False
        assert dst.get(KEY_A) == src.get(KEY_A)
