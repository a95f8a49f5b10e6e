"""Immutable sorted segment files (SSTables) with bloom filters.

A segment holds key-ordered JSON records, each carrying a sequence number
and either a value or a tombstone marker.  Readers keep a full in-memory
key index — the sorted keys, an ``array('Q')`` of their byte offsets and
the set of tombstoned keys (segments here are small; a sparse index would
be the next step at scale) — plus a bloom filter so that point lookups for
absent keys skip the file entirely: the read-amplification countermeasure
every log-structured engine uses.  A freshly written segment builds that
index from the lines it just encoded; opening an existing file rebuilds it
from the file.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from array import array
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..base import StoreError
from .memtable import MemtableEntry
from .wal import encode_json

__all__ = ["BloomFilter", "SSTable", "SSTableCorruptionError", "bloom_hash"]


class SSTableCorruptionError(StoreError):
    """An SSTable file failed to parse."""


def bloom_hash(key: str) -> tuple[int, int]:
    """The two base hashes of ``key`` for :class:`BloomFilter` probes.

    One 128-bit BLAKE2b digest split in halves; ``h2`` is odd, so the
    probe stride has full period.  A lookup computes this once and hands
    it to every segment's filter.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
    both = int.from_bytes(digest, "little")
    return both & 0xFFFF_FFFF_FFFF_FFFF, (both >> 64) | 1


class BloomFilter:
    """Plain k-hash bloom filter over a bit array.

    Double hashing (Kirsch–Mitzenmacher) derives the k probe positions
    from the two halves of one digest (:func:`bloom_hash`), which is
    standard practice and avoids k full hash computations.  The filter
    lives in memory only; nothing about it is written to disk.
    """

    def __init__(self, expected_items: int, bits_per_item: int = 10):
        if expected_items < 0:
            raise ValueError("expected_items must be >= 0")
        self._size = max(8, expected_items * bits_per_item)
        self._hash_count = max(1, int(round(bits_per_item * 0.693)))  # k = m/n * ln2
        self._bits = bytearray((self._size + 7) // 8)

    @property
    def size_bits(self) -> int:
        return self._size

    @property
    def hash_count(self) -> int:
        return self._hash_count

    def add(self, key: str) -> None:
        h1, h2 = bloom_hash(key)
        bits, size = self._bits, self._size
        position, stride = h1 % size, h2 % size  # (h1 + i*h2) % size, in small ints
        for _ in range(self._hash_count):
            bits[position >> 3] |= 1 << (position & 7)
            position = (position + stride) % size

    def may_contain(self, key: str, hashed: tuple[int, int] | None = None) -> bool:
        """False means definitely absent; True means probably present.

        ``hashed`` is ``bloom_hash(key)`` when the caller already has it.
        """
        h1, h2 = bloom_hash(key) if hashed is None else hashed
        bits, size = self._bits, self._size
        position, stride = h1 % size, h2 % size
        for _ in range(self._hash_count):
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
            position = (position + stride) % size
        return True


class SSTable:
    """A read-only sorted segment on disk.

    File format — line 1 is a JSON header ``{"format": 1, "count": n,
    "min_seq": a, "max_seq": b}``; each following line is one record
    ``{"key": k, "seq": s, "value": {...}}`` (``"value": null`` is a
    tombstone), in strictly ascending key order.  Lines are ASCII (JSON
    escapes everything else), so a line's length is its byte length.
    """

    FORMAT_VERSION = 1

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._load_index()

    @property
    def path(self) -> Path:
        return self._path

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def tombstones(self) -> frozenset[str]:
        """Keys whose entry in this segment is a tombstone."""
        return self._tombstones

    # -- construction ----------------------------------------------------------

    @classmethod
    def write(
        cls, path: str | Path, entries: Iterable[MemtableEntry], max_sequence: int = 0
    ) -> "SSTable":
        """Persist ``entries`` (already key-ordered) as a new segment.

        The header's ``max_seq`` is at least ``max_sequence``: a compaction
        that drops the newest writes still records their sequence numbers,
        so that recovery never issues them again.  The returned table's
        index comes from the lines just encoded; the file is not read back.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        materialised = list(entries)
        for earlier, later in zip(materialised, materialised[1:]):
            if earlier.key >= later.key:
                raise ValueError(
                    f"entries not in strictly ascending key order: "
                    f"{earlier.key!r} before {later.key!r}"
                )
        sequences = [entry.sequence for entry in materialised]
        header = {
            "format": cls.FORMAT_VERSION,
            "count": len(materialised),
            "min_seq": min(sequences) if sequences else 0,
            "max_seq": max(sequences + [max_sequence]),
        }
        lines = [encode_json(header) + "\n"]
        offsets = array("Q")
        offset = len(lines[0])
        for entry in materialised:
            record = {"key": entry.key, "seq": entry.sequence, "value": entry.value}
            line = encode_json(record) + "\n"
            lines.append(line)
            offsets.append(offset)
            offset += len(line)
        tmp_path = path.with_suffix(path.suffix + ".tmp")
        with open(tmp_path, "wb") as handle:
            handle.write("".join(lines).encode("ascii"))
        tmp_path.replace(path)  # atomic publish
        table = cls.__new__(cls)
        table._path = path
        table._set_index(
            [entry.key for entry in materialised],
            offsets,
            frozenset(entry.key for entry in materialised if entry.value is None),
            header["min_seq"],
            header["max_seq"],
        )
        return table

    def _set_index(
        self,
        keys: list[str],
        offsets: array,
        tombstones: frozenset[str],
        min_sequence: int,
        max_sequence: int,
    ) -> None:
        bloom = BloomFilter(len(keys))
        for key in keys:
            bloom.add(key)
        self._keys = keys  # ascending
        self._offsets = offsets  # byte offset of each key's line
        self._tombstones = tombstones
        self._bloom = bloom
        self.min_sequence = min_sequence
        self.max_sequence = max_sequence

    def _load_index(self) -> None:
        """Rebuild the index from the file (the recovery path)."""
        try:
            with open(self._path, "rb") as handle:
                header = json.loads(handle.readline())
                if header.get("format") != self.FORMAT_VERSION:
                    raise SSTableCorruptionError(
                        f"{self._path}: unsupported format {header.get('format')!r}"
                    )
                expected = int(header.get("count", 0))
                keys: list[str] = []
                offsets = array("Q")
                tombstones: set[str] = set()
                offset = handle.tell()
                for raw in handle:
                    record = json.loads(raw)
                    key = str(record["key"])
                    keys.append(key)
                    offsets.append(offset)
                    if record["value"] is None:
                        tombstones.add(key)
                    offset += len(raw)
                if len(keys) != expected:
                    raise SSTableCorruptionError(
                        f"{self._path}: header promises {expected} records, "
                        f"found {len(keys)}"
                    )
                self._set_index(
                    keys,
                    offsets,
                    frozenset(tombstones),
                    int(header.get("min_seq", 0)),
                    int(header.get("max_seq", 0)),
                )
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise SSTableCorruptionError(f"{self._path}: unreadable segment") from exc

    # -- reads -----------------------------------------------------------------

    def _read_at(self, offset: int) -> MemtableEntry:
        with open(self._path, "rb") as handle:
            handle.seek(offset)
            record = json.loads(handle.readline())
        return MemtableEntry(
            key=str(record["key"]), sequence=int(record["seq"]), value=record["value"]
        )

    def lookup(self, key: str, hashed: tuple[int, int] | None = None) -> MemtableEntry | None:
        """The segment's entry for ``key`` (may be a tombstone), or None.

        ``hashed`` is ``bloom_hash(key)``, for callers probing many segments.
        """
        if not self._bloom.may_contain(key, hashed):
            return None
        index = self._position(key)
        return None if index is None else self._read_at(self._offsets[index])

    def __contains__(self, key: str) -> bool:
        """Whether the segment holds an entry (maybe a tombstone) for ``key``."""
        return self._position(key) is not None

    def _position(self, key: str) -> int | None:
        index = bisect.bisect_left(self._keys, key)
        if index == len(self._keys) or self._keys[index] != key:
            return None
        return index

    def range_from(self, start_key: str) -> Iterator[MemtableEntry]:
        """Entries with key >= ``start_key`` in key order (incl. tombstones)."""
        index = bisect.bisect_left(self._keys, start_key)
        for offset in self._offsets[index:]:
            yield self._read_at(offset)

    def entries(self) -> Iterator[MemtableEntry]:
        """All entries in key order."""
        return self.range_from("")

    def keys(self) -> list[str]:
        return list(self._keys)

    def delete_file(self) -> None:
        """Remove the backing file (after compaction superseded it)."""
        self._path.unlink(missing_ok=True)
