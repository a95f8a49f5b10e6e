"""Log-structured store tests: WAL, memtable, SSTables, the engine."""

import contextlib
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.base import VersionedValue
from repro.kvstore.lsm import (
    BloomFilter,
    LSMKVStore,
    Memtable,
    MemtableEntry,
    SSTable,
    SSTableCorruptionError,
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
)
from repro.recovery.crashpoints import CrashError, CrashInjector, use_crash_injector

_KEYS = st.sampled_from("abcdef")
_VALUES = st.text(min_size=1, max_size=4)
_MODES = st.sampled_from(["current", "stale", "absent"])
_ENGINE_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, _VALUES),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(
        st.just("put_batch"), st.lists(st.tuples(_KEYS, _VALUES), min_size=1, max_size=4)
    ),
    st.tuples(st.just("put_if_version"), _KEYS, _VALUES, _MODES),
    st.tuples(st.just("delete_if_version"), _KEYS, _MODES),
    st.tuples(st.just("compact")),
    st.tuples(st.just("reopen")),
)


@contextlib.contextmanager
def _no_record_reads():
    """Make any read of a segment record fail inside the block."""

    def refuse(self, offset):
        raise AssertionError(f"read a record of {self.path.name} at offset {offset}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SSTable, "_read_at", refuse)
        yield


class TestWal:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(WalRecord(1, "put", "a", {"f": "1"}))
        wal.append(WalRecord(2, "delete", "a"))
        wal.close()
        records = list(WriteAheadLog(tmp_path / "wal.log").replay())
        assert records == [
            WalRecord(1, "put", "a", {"f": "1"}),
            WalRecord(2, "delete", "a", None),
        ]

    def test_truncate(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(WalRecord(1, "put", "a", {}))
        wal.truncate()
        wal.append(WalRecord(2, "put", "b", {}))
        assert [record.key for record in wal.replay()] == ["b"]

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WalRecord(1, "put", "a", {"f": "1"}))
        wal.close()
        with open(path, "a") as handle:
            handle.write('{"seq": 2, "op": "put", "key"')  # crash mid-write
        records = list(WriteAheadLog(path).replay())
        assert [record.sequence for record in records] == [1]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text('garbage\n{"seq": 1, "op": "put", "key": "a", "value": {}}\n')
        with pytest.raises(WalCorruptionError):
            list(WriteAheadLog(path).replay())

    def test_missing_file_replays_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        (tmp_path / "wal.log").unlink()
        assert list(wal.replay()) == []


class TestMemtable:
    def test_upsert_lookup(self):
        table = Memtable()
        table.upsert("k", 1, {"f": "v"})
        entry = table.lookup("k")
        assert entry.value == {"f": "v"}
        assert not entry.is_tombstone

    def test_tombstone(self):
        table = Memtable()
        table.upsert("k", 1, {"f": "v"})
        table.upsert("k", 2, None)
        assert table.lookup("k").is_tombstone
        assert len(table) == 1

    def test_entries_ordered(self):
        table = Memtable()
        for key in ("c", "a", "b"):
            table.upsert(key, 1, {})
        assert [entry.key for entry in table.entries()] == ["a", "b", "c"]

    def test_range_from(self):
        table = Memtable()
        for key in ("a", "b", "c"):
            table.upsert(key, 1, {})
        assert [entry.key for entry in table.range_from("b")] == ["b", "c"]

    def test_size_accounting(self):
        table = Memtable()
        assert table.approximate_bytes == 0
        table.upsert("key", 1, {"field": "value"})
        first = table.approximate_bytes
        assert first > 0
        table.upsert("key", 2, {"field": "longer-value-here"})
        assert table.approximate_bytes > first
        table.clear()
        assert table.approximate_bytes == 0


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1000)
        keys = [f"key{i}" for i in range(1000)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(1000, bits_per_item=10)
        for i in range(1000):
            bloom.add(f"key{i}")
        false_positives = sum(
            1 for i in range(10000) if bloom.may_contain(f"other{i}")
        )
        assert false_positives / 10000 < 0.05  # theory: ~1%

    def test_empty_filter_rejects(self):
        bloom = BloomFilter(10)
        assert not bloom.may_contain("anything")


class TestSSTable:
    def _entries(self):
        return [
            MemtableEntry("a", 1, {"f": "1"}),
            MemtableEntry("b", 2, None),
            MemtableEntry("c", 3, {"f": "3"}),
        ]

    def test_write_and_lookup(self, tmp_path):
        table = SSTable.write(tmp_path / "s.sst", self._entries())
        assert len(table) == 3
        assert table.lookup("a").value == {"f": "1"}
        assert table.lookup("b").is_tombstone
        assert table.lookup("zz") is None

    def test_reopen(self, tmp_path):
        SSTable.write(tmp_path / "s.sst", self._entries())
        table = SSTable(tmp_path / "s.sst")
        assert table.lookup("c").value == {"f": "3"}
        assert table.min_sequence == 1
        assert table.max_sequence == 3

    def test_range_from(self, tmp_path):
        table = SSTable.write(tmp_path / "s.sst", self._entries())
        assert [entry.key for entry in table.range_from("b")] == ["b", "c"]

    def test_rejects_unsorted_entries(self, tmp_path):
        entries = [MemtableEntry("b", 1, {}), MemtableEntry("a", 2, {})]
        with pytest.raises(ValueError):
            SSTable.write(tmp_path / "s.sst", entries)

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.sst"
        path.write_text("not json\n")
        with pytest.raises(SSTableCorruptionError):
            SSTable(path)

    def test_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.sst"
        header = json.dumps({"format": 1, "count": 5, "min_seq": 1, "max_seq": 1})
        record = json.dumps({"key": "a", "seq": 1, "value": {}})
        path.write_text(header + "\n" + record + "\n")
        with pytest.raises(SSTableCorruptionError):
            SSTable(path)

    def test_written_index_equals_recovered_index(self, tmp_path):
        """The index a flush keeps is the one recovery would rebuild."""
        entries = [
            MemtableEntry("a", 4, {"f": "café € \U0001f600"}),
            MemtableEntry("b", 9, None),
            MemtableEntry("c\u00fc", 2, {"g": "x", "h": ""}),
            MemtableEntry("d", 7, None),
            MemtableEntry("e", 5, {}),
        ]
        written = SSTable.write(tmp_path / "s.sst", entries)
        loaded = SSTable(tmp_path / "s.sst")
        assert written.keys() == loaded.keys() == ["a", "b", "c\u00fc", "d", "e"]
        assert written._offsets == loaded._offsets
        assert written.tombstones == loaded.tombstones == {"b", "d"}
        assert (written.min_sequence, written.max_sequence) == (2, 9)
        assert (loaded.min_sequence, loaded.max_sequence) == (2, 9)
        for key in ["", "a", "b", "c", "c\u00fc", "d", "e", "zz"]:
            assert written.lookup(key) == loaded.lookup(key)
        assert [entry.key for entry in written.entries()] == written.keys()
        assert list(written.entries()) == entries

    def test_delete_file(self, tmp_path):
        table = SSTable.write(tmp_path / "s.sst", self._entries())
        table.delete_file()
        assert not (tmp_path / "s.sst").exists()


class TestLSMStore:
    def test_basic_roundtrip(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            store.put("k", {"f": "v"})
            assert store.get("k") == {"f": "v"}
            store.delete("k")
            assert store.get("k") is None

    def test_versions_monotonic_per_key(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            v1 = store.put("k", {"f": "1"})
            v2 = store.put("k", {"f": "2"})
            assert v2 > v1
            assert store.get_with_meta("k").version == v2

    def test_flush_and_read_from_segment(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            store.put("k", {"f": "v"})
            store.flush()
            assert store.segment_count == 1
            assert store.get("k") == {"f": "v"}

    def test_automatic_flush_on_threshold(self, tmp_path):
        with LSMKVStore(tmp_path, memtable_bytes=256) as store:
            for i in range(50):
                store.put(f"key{i:03d}", {"f": "x" * 20})
            assert store.segment_count >= 1
            assert store.size() == 50

    def test_newest_version_wins_across_segments(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            store.put("k", {"f": "old"})
            store.flush()
            store.put("k", {"f": "new"})
            store.flush()
            assert store.get("k") == {"f": "new"}

    def test_tombstone_shadows_older_segments(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            store.put("k", {"f": "v"})
            store.flush()
            store.delete("k")
            store.flush()
            assert store.get("k") is None
            assert store.size() == 0

    def test_scan_merges_memtable_and_segments(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            store.put("a", {"v": "seg"})
            store.put("c", {"v": "seg"})
            store.flush()
            store.put("b", {"v": "mem"})
            store.put("c", {"v": "mem"})  # newer version in memtable
            result = store.scan("a", 10)
            assert result == [
                ("a", {"v": "seg"}),
                ("b", {"v": "mem"}),
                ("c", {"v": "mem"}),
            ]

    def test_recovery_from_wal(self, tmp_path):
        store = LSMKVStore(tmp_path)
        store.put("k", {"f": "v"})
        store.put("gone", {"f": "x"})
        store.delete("gone")
        # Simulate crash: abandon without close()/flush().
        store._wal.close()
        recovered = LSMKVStore(tmp_path)
        assert recovered.get("k") == {"f": "v"}
        assert recovered.get("gone") is None
        recovered.close()

    def test_recovery_from_segments_and_wal(self, tmp_path):
        store = LSMKVStore(tmp_path)
        store.put("a", {"f": "1"})
        store.flush()
        store.put("b", {"f": "2"})  # only in WAL
        store._wal.close()
        recovered = LSMKVStore(tmp_path)
        assert recovered.get("a") == {"f": "1"}
        assert recovered.get("b") == {"f": "2"}
        # Sequence numbers continue past recovered history.
        v = recovered.put("c", {"f": "3"})
        assert v > recovered.get_with_meta("a").version
        recovered.close()

    def test_compaction_drops_garbage(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            for i in range(20):
                store.put("hot", {"n": str(i)})
                store.flush()
            store.put("dead", {})
            store.flush()
            store.delete("dead")
            store.flush()
            discarded = store.compact()
            assert discarded > 0
            assert store.segment_count == 1
            assert store.get("hot") == {"n": "19"}
            assert store.get("dead") is None

    def test_compaction_keeps_sequence_high_water_across_reopen(self, tmp_path):
        """Dropping the newest writes must not let a reopened store reissue
        their versions, or a stale conditional write could match."""
        with LSMKVStore(tmp_path) as store:
            store.put("a", {"f": "1"})
            stale = store.put("b", {"f": "1"})
            store.delete("b")
            store.compact()
        with LSMKVStore(tmp_path) as store:
            assert store.put_if_version("b", {"f": "2"}, None) > stale + 1
            assert store.put_if_version("b", {"f": "3"}, stale) is None

    def test_conditional_operations(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            assert store.put_if_version("k", {"f": "a"}, None) is not None
            assert store.put_if_version("k", {"f": "b"}, None) is None
            version = store.get_with_meta("k").version
            assert store.put_if_version("k", {"f": "c"}, version) is not None
            assert store.delete_if_version("k", version) is None  # stale
            fresh = store.get_with_meta("k").version
            assert store.delete_if_version("k", fresh) is True

    def test_keys_and_size(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            for key in ("b", "a", "c"):
                store.put(key, {})
            store.delete("b")
            assert list(store.keys()) == ["a", "c"]
            assert store.size() == 2

    def test_reopen_after_close_round_trips(self, tmp_path):
        with LSMKVStore(tmp_path) as store:
            store.put("k", {"f": "v"})
        with LSMKVStore(tmp_path) as store:
            assert store.get("k") == {"f": "v"}

    def test_put_batch_crash_tears_the_batch(self, tmp_path):
        """A crash mid group-commit leaves a whole-record prefix of the batch."""
        store = LSMKVStore(tmp_path)
        store.put("before", {"f": "kept"})
        batch = [(f"k{i}", {"f": str(i)}) for i in range(10)]
        with use_crash_injector(CrashInjector({"wal.mid_append": 1})):
            with pytest.raises(CrashError):
                store.put_batch(batch)
        store._wal.close()  # the process is dead: no flush, no close
        assert not (tmp_path / "wal.log").read_text().endswith("\n")
        with LSMKVStore(tmp_path) as reopened:
            present = [key for key, _ in batch if reopened.get(key) is not None]
            assert 0 < len(present) < len(batch)
            assert present == [key for key, _ in batch[: len(present)]]
            for key, value in batch[: len(present)]:
                assert reopened.get(key) == value
            assert reopened.get("before") == {"f": "kept"}
            assert reopened.size() == 1 + len(present)

    def test_lookup_hashes_the_key_once(self, tmp_path, monkeypatch):
        """One digest per lookup, however many segments it probes."""
        with LSMKVStore(tmp_path) as store:
            for i in range(4):
                store.put(f"k{i}", {"f": str(i)})
                store.flush()
            assert store.segment_count == 4
            digests = []
            real = hashlib.blake2b

            def counting(*args, **kwargs):
                digests.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(hashlib, "blake2b", counting)
            assert store.get("k0") == {"f": "0"}  # oldest segment: probes all four
            assert len(digests) == 1
            assert store.get("absent") is None
            assert len(digests) == 2

    def test_files_match_golden_bytes(self, tmp_path):
        """WAL and segment bytes are pinned: the on-disk format is unchanged."""
        store = LSMKVStore(tmp_path)
        store.put("user2", {"field0": "ascii", "field1": "café € \U0001f600"})
        store.put("user1", {"f": "x"})
        store.put_batch([("user3", {"f": "3"}), ("user0", {"f": "0"})])
        store.delete("user1")
        assert store.put_if_version("user2", {"f": "new"}, 1) == 6
        assert store.delete_if_version("user3", 3) is True
        assert (tmp_path / "wal.log").read_bytes() == _GOLDEN_WAL
        store.flush()
        assert (tmp_path / "segment-000000.sst").read_bytes() == _GOLDEN_FLUSHED
        store.put("user4", {"f": "4"})
        store.flush()
        store.compact()
        store.close()
        assert [path.name for path in tmp_path.glob("segment-*.sst")] == ["segment-000002.sst"]
        assert (tmp_path / "segment-000002.sst").read_bytes() == _GOLDEN_COMPACTED

    def test_opens_golden_segment(self, tmp_path):
        (tmp_path / "segment-000000.sst").write_bytes(_GOLDEN_FLUSHED)
        with LSMKVStore(tmp_path) as store:
            assert store.size() == 2
            assert store.get_with_meta("user2") == VersionedValue({"f": "new"}, 6)
            assert store.get("user3") is None
            assert store.put("user5", {}) == 8

    @given(operations=st.lists(_ENGINE_OPS, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_model_based_with_flushes(self, tmp_path_factory, operations):
        """With a tiny memtable (frequent flushes) the store still matches
        a plain dict of (value, version) across every write kind, compaction
        and close/reopen; ``size()`` and the compaction pre-check never read
        a record from disk."""
        directory = tmp_path_factory.mktemp("lsm")
        model: dict[str, tuple[dict[str, str], int]] = {}
        last_version = 0
        store = LSMKVStore(directory, memtable_bytes=64)

        def expected_version(key, mode):
            if mode == "current" and key in model:
                return model[key][1]
            if mode == "stale":
                return model[key][1] - 1 if key in model else 1
            return None

        def versioned(version):
            nonlocal last_version
            assert version > last_version  # one store-wide sequence
            last_version = version
            return version

        try:
            for op, *args in operations:
                if op == "put":
                    key, value = args
                    model[key] = ({"v": value}, versioned(store.put(key, {"v": value})))
                elif op == "delete":
                    (key,) = args
                    assert store.delete(key) == (key in model)
                    model.pop(key, None)
                elif op == "put_batch":
                    (items,) = args
                    versions = store.put_batch([(key, {"v": value}) for key, value in items])
                    for (key, value), version in zip(items, versions, strict=True):
                        model[key] = ({"v": value}, versioned(version))
                elif op == "put_if_version":
                    key, value, mode = args
                    expected = expected_version(key, mode)
                    allowed = key not in model if expected is None else (
                        key in model and model[key][1] == expected
                    )
                    version = store.put_if_version(key, {"v": value}, expected)
                    if allowed:
                        model[key] = ({"v": value}, versioned(version))
                    else:
                        assert version is None
                elif op == "delete_if_version":
                    key, mode = args
                    expected = expected_version(key, mode) or 0
                    if key not in model:
                        assert store.delete_if_version(key, expected) is False
                    elif model[key][1] != expected:
                        assert store.delete_if_version(key, expected) is None
                    else:
                        assert store.delete_if_version(key, expected) is True
                        del model[key]
                elif op == "compact":
                    store.compact()
                    with _no_record_reads():
                        assert store.compact() == 0  # one segment, no tombstones
                else:
                    store.close()
                    store = LSMKVStore(directory, memtable_bytes=64)
            with _no_record_reads():
                assert store.size() == len(model)
            for key in "abcdef":
                found = store.get_with_meta(key)
                if key in model:
                    assert (found.value, found.version) == model[key]
                else:
                    assert found is None
            assert store.scan("", 10) == [(key, model[key][0]) for key in sorted(model)]
        finally:
            store.close()


# The files written by the operations in test_files_match_golden_bytes; any
# change to these bytes is a change to the on-disk format.
_GOLDEN_WAL = (
    b'{"seq":1,"op":"put","key":"user2","value":{"field0":"ascii",'
    b'"field1":"caf\\u00e9 \\u20ac \\ud83d\\ude00"}}\n'
    b'{"seq":2,"op":"put","key":"user1","value":{"f":"x"}}\n'
    b'{"seq":3,"op":"put","key":"user3","value":{"f":"3"}}\n'
    b'{"seq":4,"op":"put","key":"user0","value":{"f":"0"}}\n'
    b'{"seq":5,"op":"delete","key":"user1"}\n'
    b'{"seq":6,"op":"put","key":"user2","value":{"f":"new"}}\n'
    b'{"seq":7,"op":"delete","key":"user3"}\n'
)
_GOLDEN_FLUSHED = (
    b'{"format":1,"count":4,"min_seq":4,"max_seq":7}\n'
    b'{"key":"user0","seq":4,"value":{"f":"0"}}\n'
    b'{"key":"user1","seq":5,"value":null}\n'
    b'{"key":"user2","seq":6,"value":{"f":"new"}}\n'
    b'{"key":"user3","seq":7,"value":null}\n'
)
_GOLDEN_COMPACTED = (
    b'{"format":1,"count":3,"min_seq":4,"max_seq":8}\n'
    b'{"key":"user0","seq":4,"value":{"f":"0"}}\n'
    b'{"key":"user2","seq":6,"value":{"f":"new"}}\n'
    b'{"key":"user4","seq":8,"value":{"f":"4"}}\n'
)
