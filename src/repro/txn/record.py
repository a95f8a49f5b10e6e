"""Multi-version record codec.

The client-coordinated transaction layer stores everything it needs inside
ordinary key-value records, so that *any* :class:`~repro.kvstore.base.
KeyValueStore` can host transactional data with no server-side support —
the core idea of the authors' library [28].

A transactional record value is a single KV field ``_tx`` holding JSON:

.. code-block:: json

    {
      "versions": [
        {"ts": 17023, "fields": {"field0": "..."}, "deleted": false},
        {"ts": 16011, "fields": {"field0": "..."}, "deleted": false}
      ],
      "lock": {"txid": "c1-42", "primary": "store0:user55", "lease": 1234567}
    }

``versions`` is newest-first and trimmed to ``max_versions``.  ``lock`` is
present only while a transaction is committing the record; it names the
transaction, its *primary* key (where the commit decision lives) and a
lease expiry in oracle-free wall time, which is how crashed clients are
detected and recovered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..kvstore.base import Fields

__all__ = ["Version", "LockInfo", "TxRecord", "TX_FIELD"]

#: The KV field under which the transactional record body is stored.
TX_FIELD = "_tx"


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a record.

    ``txid`` attributes the version to the transaction that wrote it;
    the Percolator-style coordinator uses it to discover a crashed
    transaction's commit timestamp from its primary record, and the
    serialization-graph validator uses it to reconstruct who-wrote-what.
    """

    timestamp: int
    fields: Fields
    deleted: bool = False
    txid: str | None = None

    def to_dict(self) -> dict:
        document: dict = {"ts": self.timestamp, "fields": self.fields, "deleted": self.deleted}
        if self.txid is not None:
            document["txid"] = self.txid
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "Version":
        return cls(
            timestamp=int(document["ts"]),
            fields=dict(document.get("fields") or {}),
            deleted=bool(document.get("deleted", False)),
            txid=document.get("txid"),
        )


@dataclass(frozen=True, slots=True)
class LockInfo:
    """A write lock installed by a committing transaction.

    The lock carries the *staged* write intent so that any other client
    that finds a committed transaction-status record can roll this key
    forward without contacting the (possibly crashed) writer:
    ``staged`` holds the new field values, or None when the intent is a
    delete (``is_delete``).
    """

    txid: str
    primary: str
    lease_expiry_us: int
    staged: Fields | None = None
    is_delete: bool = False

    def to_dict(self) -> dict:
        return {
            "txid": self.txid,
            "primary": self.primary,
            "lease": self.lease_expiry_us,
            "staged": self.staged,
            "delete": self.is_delete,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "LockInfo":
        staged = document.get("staged")
        return cls(
            txid=str(document["txid"]),
            primary=str(document["primary"]),
            lease_expiry_us=int(document["lease"]),
            staged=dict(staged) if staged is not None else None,
            is_delete=bool(document.get("delete", False)),
        )


@dataclass
class TxRecord:
    """The decoded transactional state of one key.

    ``truncated_before`` is the commit timestamp of the newest version
    that has been trimmed away by version GC.  A snapshot older than this
    watermark cannot distinguish "key did not exist yet" from "its
    version was garbage-collected", so readers must fail such reads with
    a *snapshot too old* conflict instead of returning nothing.
    """

    versions: list[Version] = field(default_factory=list)  # newest first
    lock: LockInfo | None = None
    truncated_before: int = 0

    #: committed versions retained per record; older ones are trimmed.
    MAX_VERSIONS = 8

    # -- queries ---------------------------------------------------------------

    def latest(self) -> Version | None:
        """Newest committed version (possibly a delete marker)."""
        return self.versions[0] if self.versions else None

    def visible_at(self, timestamp: int) -> Version | None:
        """Newest version with commit timestamp <= ``timestamp``.

        This is the snapshot-read rule: a transaction started at ``ts``
        never sees versions committed after it.
        """
        for version in self.versions:
            if version.timestamp <= timestamp:
                return version
        return None

    def snapshot_too_old(self, timestamp: int) -> bool:
        """True when a read at ``timestamp`` is unanswerable because the
        version it would have seen may have been garbage-collected.

        Once any trimming has happened, every retained version is newer
        than every trimmed one — so if no retained version is visible at
        ``timestamp``, a trimmed version might have been, and the read
        must fail rather than report the key absent.
        """
        return self.truncated_before > 0 and self.visible_at(timestamp) is None

    def newest_commit_timestamp(self) -> int:
        """Commit timestamp of the newest version (0 when empty)."""
        latest = self.latest()
        return latest.timestamp if latest is not None else 0

    def is_locked(self) -> bool:
        return self.lock is not None

    def copy(self) -> "TxRecord":
        """A copy whose version list and lock can be changed independently;
        the (frozen) versions and lock themselves are shared."""
        return TxRecord(list(self.versions), self.lock, self.truncated_before)

    # -- mutation --------------------------------------------------------------

    def apply_commit(self, timestamp: int, fields: Fields | None, txid: str | None = None) -> None:
        """Install a committed version (``fields=None`` is a delete) and
        release the lock.  Versions stay newest-first and trimmed."""
        version = Version(timestamp, dict(fields or {}), deleted=fields is None, txid=txid)
        self.versions.insert(0, version)
        self.versions.sort(key=lambda v: -v.timestamp)
        trimmed = self.versions[self.MAX_VERSIONS :]
        if trimmed:
            self.truncated_before = max(self.truncated_before, trimmed[0].timestamp)
        del self.versions[self.MAX_VERSIONS :]
        self.lock = None

    # -- codec -------------------------------------------------------------------

    def encode(self) -> Fields:
        document: dict = {"versions": [version.to_dict() for version in self.versions]}
        if self.lock is not None:
            document["lock"] = self.lock.to_dict()
        if self.truncated_before:
            document["trunc"] = self.truncated_before
        return {TX_FIELD: json.dumps(document, separators=(",", ":"))}

    @classmethod
    def decode(cls, value: Fields | None) -> "TxRecord":
        """Decode a KV value; a missing value decodes to an empty record.

        Raises:
            ValueError: when the value exists but is not a transactional
                record — mixing transactional and raw access to the same
                keys is a configuration error worth failing loudly on.
        """
        if value is None:
            return cls()
        body = value.get(TX_FIELD)
        if body is None:
            raise ValueError(
                "value is not a transactional record (missing _tx field); "
                "was this key written outside the transaction layer?"
            )
        document = json.loads(body)
        versions = [Version.from_dict(item) for item in document.get("versions", [])]
        versions.sort(key=lambda v: -v.timestamp)
        lock_doc = document.get("lock")
        lock = LockInfo.from_dict(lock_doc) if lock_doc else None
        return cls(
            versions=versions,
            lock=lock,
            truncated_before=int(document.get("trunc", 0)),
        )
