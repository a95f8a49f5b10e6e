"""The log-structured key-value store (WiredTiger stand-in).

Write path: WAL append → memtable upsert; when the memtable exceeds its
threshold it is flushed to a new SSTable and the WAL is truncated.  Read
path: memtable, then segments newest-first, bloom filters pruning misses.
Deletes write tombstones that full compaction finally drops.  Restarting
the store on the same directory replays the WAL, so the engine survives a
crash anywhere outside the (atomic) segment publish.

Versioning: a single store-wide sequence number stamps every mutation;
a key's version is the sequence of its latest write, which is per-key
monotonic as the :class:`~repro.kvstore.base.KeyValueStore` contract
requires.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import threading
from collections.abc import Iterator, Mapping
from pathlib import Path

from ...recovery.crashpoints import crashpoint
from ..base import Fields, KeyValueStore, StoreClosed, VersionedValue
from .memtable import Memtable, MemtableEntry
from .sstable import SSTable, bloom_hash
from .wal import WalRecord, WriteAheadLog

__all__ = ["LSMKVStore"]

_SEGMENT_GLOB = "segment-*.sst"


class LSMKVStore(KeyValueStore):
    """Durable log-structured store rooted at a directory.

    Args:
        directory: where the WAL and segment files live.
        memtable_bytes: flush threshold for the write buffer.
        sync_writes: fsync the WAL on every append (durability over latency).
    """

    def __init__(
        self,
        directory: str | Path,
        memtable_bytes: int = 1 << 20,
        sync_writes: bool = False,
    ):
        if memtable_bytes < 1:
            raise ValueError(f"memtable_bytes must be >= 1, got {memtable_bytes}")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._memtable_bytes = memtable_bytes
        self._lock = threading.RLock()
        self._closed = False
        self._memtable = Memtable()
        self._segments: list[SSTable] = []  # oldest first
        self._wal = WriteAheadLog(self._directory / "wal.log", sync_writes=sync_writes)
        self._sequence = 0
        self._recover()

    # -- recovery --------------------------------------------------------------

    def _recover(self) -> None:
        for path in sorted(self._directory.glob(_SEGMENT_GLOB)):
            segment = SSTable(path)
            self._segments.append(segment)
            self._sequence = max(self._sequence, segment.max_sequence)
        for record in self._wal.replay():
            self._memtable.upsert(record.key, record.sequence, record.value)
            self._sequence = max(self._sequence, record.sequence)

    # -- internal lookups --------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosed("store is closed")

    def _lookup_entry(self, key: str) -> MemtableEntry | None:
        """Newest entry for ``key`` across memtable and segments."""
        entry = self._memtable.lookup(key)
        if entry is not None or not self._segments:
            return entry
        hashed = bloom_hash(key)  # once, for every segment's bloom probe
        for segment in reversed(self._segments):
            entry = segment.lookup(key, hashed)
            if entry is not None:
                return entry
        return None

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def _apply(self, key: str, value: Fields | None) -> int:
        """Log and buffer one mutation; returns its sequence number."""
        sequence = self._next_sequence()
        op = "delete" if value is None else "put"
        self._wal.append(WalRecord(sequence, op, key, value))
        self._memtable.upsert(key, sequence, value)
        if self._memtable.approximate_bytes >= self._memtable_bytes:
            self._flush_locked()
        return sequence

    # -- flush & compaction --------------------------------------------------------

    def _segment_path(self) -> Path:
        existing = sorted(self._directory.glob(_SEGMENT_GLOB))
        next_id = 0
        if existing:
            last = existing[-1].stem  # "segment-000042"
            next_id = int(last.split("-")[1]) + 1
        return self._directory / f"segment-{next_id:06d}.sst"

    def _flush_locked(self) -> None:
        if len(self._memtable) == 0:
            return
        segment = SSTable.write(self._segment_path(), self._memtable.entries())
        self._segments.append(segment)
        # Crash window: the segment is published but the WAL still holds the
        # flushed records.  Recovery replays them over the segment — upserts
        # are idempotent by sequence, so no acknowledged write is lost.
        crashpoint("lsm.mid_checkpoint")
        self._memtable.clear()
        self._wal.truncate()

    def flush(self) -> None:
        """Force the memtable to disk."""
        with self._lock:
            self._check_open()
            self._flush_locked()

    def compact(self) -> int:
        """Merge all segments into one, dropping shadowed versions and
        tombstones.  Returns the number of records discarded."""
        with self._lock:
            self._check_open()
            self._flush_locked()
            if len(self._segments) <= 1 and not any(
                segment.tombstones for segment in self._segments
            ):
                return 0
            # Newest version of each key wins; count everything else.
            latest: dict[str, MemtableEntry] = {}
            total = 0
            for segment in self._segments:
                for entry in segment.entries():
                    total += 1
                    current = latest.get(entry.key)
                    if current is None or entry.sequence > current.sequence:
                        latest[entry.key] = entry
            live = [latest[key] for key in sorted(latest) if not latest[key].is_tombstone]
            discarded = total - len(live)
            new_segment = SSTable.write(self._segment_path(), live, max_sequence=self._sequence)
            for old in self._segments:
                old.delete_file()
            self._segments = [new_segment]
            return discarded

    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    # -- KeyValueStore: reads ----------------------------------------------------

    def get_with_meta(self, key: str) -> VersionedValue | None:
        with self._lock:
            self._check_open()
            entry = self._lookup_entry(key)
            if entry is None or entry.is_tombstone:
                return None
            return VersionedValue(dict(entry.value or {}), entry.sequence)

    def scan(self, start_key: str, record_count: int) -> list[tuple[str, Fields]]:
        if record_count <= 0:
            return []
        with self._lock:
            self._check_open()
            streams = [self._memtable.range_from(start_key)]
            streams.extend(segment.range_from(start_key) for segment in self._segments)
            merged = heapq.merge(*streams, key=lambda entry: (entry.key, -entry.sequence))
            results: list[tuple[str, Fields]] = []
            for key, group in itertools.groupby(merged, key=lambda entry: entry.key):
                newest = next(group)
                if newest.is_tombstone:
                    continue
                results.append((key, dict(newest.value or {})))
                if len(results) >= record_count:
                    break
            return results

    def keys(self) -> Iterator[str]:
        with self._lock:
            self._check_open()
            collected = [key for key, _ in self.scan("", self.size() or 0)]
        return iter(collected)

    def size(self) -> int:
        """Live keys, counted from the memtable and the segment indexes
        without reading any record from disk."""
        with self._lock:
            self._check_open()
            buffered = list(self._memtable.entries())
            # Every source lists its keys sorted and once, so sorting their
            # concatenation merges runs, and a key held by several sources
            # shows up as equal neighbours.  A list costs 8 bytes a key; a
            # set would cost several times that.
            merged = sorted(
                itertools.chain(
                    (entry.key for entry in buffered),
                    *(segment.keys() for segment in self._segments),
                )
            )
            repeats = sum(map(operator.eq, merged, itertools.islice(merged, 1, None)))
            distinct = len(merged) - repeats
            deleted = {entry.key for entry in buffered if entry.is_tombstone}.union(
                *(segment.tombstones for segment in self._segments)
            )
            return distinct - sum(self._deleted_last(key) for key in deleted)

    def _deleted_last(self, key: str) -> bool:
        """Whether the newest entry for a key known to the store is a
        tombstone, from the indexes alone."""
        entry = self._memtable.lookup(key)
        if entry is not None:
            return entry.is_tombstone
        newest = next(segment for segment in reversed(self._segments) if key in segment)
        return key in newest.tombstones

    # -- KeyValueStore: writes ----------------------------------------------------

    def put(self, key: str, value: Mapping[str, str]) -> int:
        with self._lock:
            self._check_open()
            return self._apply(key, dict(value))

    def put_batch(self, items: list[tuple[str, Mapping[str, str]]]) -> list[int]:
        """Write many records under one lock acquisition and one WAL flush.

        Group commit: the whole batch is appended to the WAL with a single
        flush (and, with ``sync_writes``, a single fsync), amortising the
        per-write durability cost — the point of the bulk-load extension.
        """
        with self._lock:
            self._check_open()
            versions = []
            wal_records = []
            for key, value in items:
                sequence = self._next_sequence()
                wal_records.append(WalRecord(sequence, "put", key, dict(value)))
                versions.append(sequence)
            self._wal.append_batch(wal_records)
            for record in wal_records:
                self._memtable.upsert(record.key, record.sequence, record.value)
            if self._memtable.approximate_bytes >= self._memtable_bytes:
                self._flush_locked()
            return versions

    def put_if_version(
        self, key: str, value: Mapping[str, str], expected_version: int | None
    ) -> int | None:
        with self._lock:
            self._check_open()
            entry = self._lookup_entry(key)
            exists = entry is not None and not entry.is_tombstone
            if expected_version is None:
                if exists:
                    return None
            else:
                if not exists or entry is None or entry.sequence != expected_version:
                    return None
            return self._apply(key, dict(value))

    def delete(self, key: str) -> bool:
        with self._lock:
            self._check_open()
            entry = self._lookup_entry(key)
            if entry is None or entry.is_tombstone:
                return False
            self._apply(key, None)
            return True

    def delete_if_version(self, key: str, expected_version: int) -> bool | None:
        with self._lock:
            self._check_open()
            entry = self._lookup_entry(key)
            if entry is None or entry.is_tombstone:
                return False
            if entry.sequence != expected_version:
                return None
            self._apply(key, None)
            return True

    # -- lifecycle ------------------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._check_open()
            for key in list(self.keys()):
                self._apply(key, None)
            self.compact()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            self._wal.close()
            self._closed = True
