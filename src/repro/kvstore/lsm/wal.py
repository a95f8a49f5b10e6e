"""Write-ahead log for the log-structured store.

Each record is one JSON line carrying a sequence number, operation, key
and (for puts) the value.  The *latency versus durability* trade-off of
§II-A is explicit here: with ``sync_writes=True`` every append is
``fsync``-ed (durable, slow); with the default ``False`` the OS page cache
absorbs writes (fast, loses the tail on a crash) — exactly the dial the
paper describes NoSQL systems turning.

Torn final records (a crash mid-append) are tolerated on replay: a
truncated or corrupt last line is skipped, anything after it is not.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from ...recovery.crashpoints import CrashError, get_crash_injector
from ..base import Fields, StoreError

__all__ = ["WalRecord", "WriteAheadLog", "WalCorruptionError", "encode_json"]

#: Compact JSON for WAL and segment lines.  One shared encoder: ``json.dumps``
#: with non-default separators builds a new ``JSONEncoder`` on every call.
encode_json = json.JSONEncoder(separators=(",", ":")).encode


class WalCorruptionError(StoreError):
    """A WAL record other than the final one failed to parse."""


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One logged mutation."""

    sequence: int
    op: str  # "put" | "delete"
    key: str
    value: Fields | None = None

    def to_json(self) -> str:
        document: dict[str, object] = {"seq": self.sequence, "op": self.op, "key": self.key}
        if self.value is not None:
            document["value"] = self.value
        return encode_json(document)

    @classmethod
    def from_json(cls, line: str) -> "WalRecord":
        document = json.loads(line)
        return cls(
            sequence=int(document["seq"]),
            op=str(document["op"]),
            key=str(document["key"]),
            value=document.get("value"),
        )


class WriteAheadLog:
    """Append-only log file with replay."""

    def __init__(self, path: str | Path, sync_writes: bool = False):
        self._path = Path(path)
        self._sync_writes = sync_writes
        self._lock = threading.Lock()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self._path, "a", encoding="utf-8")

    @property
    def path(self) -> Path:
        return self._path

    def append(self, record: WalRecord) -> None:
        """Durably (or lazily, per ``sync_writes``) append ``record``."""
        self._write(record.to_json() + "\n")

    def append_batch(self, records: list[WalRecord]) -> None:
        """Append many records with a single flush (and single fsync).

        This is where bulk loading earns its speedup: the group commit
        amortises the per-write durability cost over the whole batch.  A
        crash mid-append leaves a whole-record prefix of the batch plus a
        torn tail that replay drops, which a re-runnable load phase accepts.
        """
        if not records:
            return
        self._write("".join(record.to_json() + "\n" for record in records))

    def _write(self, payload: str) -> None:
        injector = get_crash_injector()
        if injector is not None:
            try:
                injector.hit("wal.mid_append")
            except CrashError:
                # Die with the payload half on disk: a torn tail with no
                # trailing newline, exactly what an interrupted write +
                # partial page flush leaves behind.  Replay must drop it.
                with self._lock:
                    self._file.write(payload[: max(1, len(payload) // 2)])
                    self._file.flush()
                    if self._sync_writes:
                        os.fsync(self._file.fileno())
                raise
        with self._lock:
            self._file.write(payload)
            self._file.flush()
            if self._sync_writes:
                os.fsync(self._file.fileno())

    def replay(self) -> Iterator[WalRecord]:
        """Yield every intact record in append order.

        A malformed *final* line is treated as a torn write and skipped;
        a malformed line followed by good data indicates real corruption
        and raises :class:`WalCorruptionError`.
        """
        if not self._path.exists():
            return
        with open(self._path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                yield WalRecord.from_json(stripped)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                if index == len(lines) - 1:
                    return  # torn tail record from a crash mid-append
                raise WalCorruptionError(
                    f"{self._path}: corrupt WAL record at line {index + 1}"
                ) from exc

    def truncate(self) -> None:
        """Discard the log contents (called after a successful flush)."""
        with self._lock:
            self._file.close()
            self._file = open(self._path, "w", encoding="utf-8")
            self._file.flush()
            if self._sync_writes:
                os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()
