"""Client-coordinated multi-item transactions (the authors' library [28]).

The design the paper describes in §II-B, re-implemented:

* **No central infrastructure.**  Timestamps come from a (per-process)
  monotonic clock; transaction metadata lives *inside* the key-value
  store itself — a transaction-status record (TSR) per transaction plus a
  lock-with-staged-intent on each written key.
* **Snapshot reads.**  A transaction reads the newest version committed
  at or before its start timestamp.  Reads that encounter a lock resolve
  it (roll forward / roll back / bounded wait), exactly the discipline
  that makes snapshot isolation sound with client-side commit.
* **Ordered locking.**  Write-set keys are locked in global ``(store,
  key)`` order, so two committing transactions can never deadlock — the
  "simple ordered locking protocol" of the paper.  Crashed clients are
  recovered via lock leases: an expired lock may be rolled back by anyone.
* **Atomic commit point.**  The TSR is created with an insert-if-absent
  conditional write; whoever creates it first — the committer (state
  ``committed``) or a recovering peer (state ``aborted``) — decides the
  transaction's fate.  Everything after that point is roll-forward-able.
* **Heterogeneous stores.**  A transaction may touch keys in several
  registered stores; nothing requires them to be the same implementation
  (the quickstart commits across an in-memory store and an LSM store).

Commit protocol (write set W, primary p = min(W)):

1. for each key in sorted(W): conditional-put the record with our lock +
   staged intent; fail → conflict (first-updater-wins write-write check
   happens here too: a committed version newer than our start aborts us);
2. obtain the commit timestamp;
3. insert the TSR — *the commit point*;
4. for each key: replace lock+intent with a committed version;
5. delete the TSR.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..core.retry import RetryPolicy, RetryStats
from ..recovery.crashpoints import crashpoint
from ..sim.clock import ambient_now_us, ambient_sleep
from ..kvstore.base import Fields, KeyValueStore, StoreError, VersionedValue
from .base import Transaction, TransactionManager, TxState
from .clock import LocalClock, TimestampSource
from .errors import TransactionAborted, TransactionConflict
from .record import TX_FIELD, LockInfo, TxRecord

__all__ = ["ClientTransactionManager", "ClientTransaction", "TxnStats", "TSR_PREFIX"]

#: Key prefix of transaction-status records; filtered out of scans.
TSR_PREFIX = "~tsr:"


@dataclass
class TxnStats:
    """Counters exposed by the manager, used by tests and the ablation bench."""

    begun: int = 0
    committed: int = 0
    aborted: int = 0
    conflicts: int = 0
    #: aborts forced by peer/lease recovery (a peer presumed us dead and
    #: decided ``aborted`` first) — distinct from first-class write-write
    #: ``conflicts`` so crash campaigns can tell "scavenged" from "contended".
    recovery_aborts: int = 0
    locks_acquired: int = 0
    rollforwards: int = 0
    rollbacks_of_peers: int = 0
    read_waits: int = 0
    #: commit-point writes whose outcome was unknown (torn/transient) and
    #: had to be decided by reading the TSR back.
    ambiguous_commits: int = 0
    #: store failures after the commit point (roll-forward left to peers).
    post_commit_failures: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)


_Address = tuple[str, str]  # (store name, key)


class ClientTransactionManager(TransactionManager):
    """Transaction manager with client-side coordination.

    Args:
        stores: named stores a transaction may touch.
        default_store: name used when an operation passes no store.
        clock: timestamp source (strictly monotonic within the process).
        lock_lease_ms: how long a lock may exist before any peer may
            presume its owner dead and roll the transaction back.
        lock_wait_retries / lock_wait_s: bounded politeness when a read or
            a lock attempt runs into a live peer's lock.
        isolation: ``"snapshot"`` (default — the paper library's level) or
            ``"serializable"``, which additionally validates the read set
            at commit: after the write locks are held, every key read (and
            not rewritten) must still be at the version the snapshot saw
            and not locked by a committing peer.  This closes snapshot
            isolation's write-skew anomaly at the price of extra reads and
            aborts — the isolation-level study the paper lists as future
            work (§VII).
    """

    ISOLATION_LEVELS = ("snapshot", "serializable")

    def __init__(
        self,
        stores: Mapping[str, KeyValueStore] | KeyValueStore,
        default_store: str | None = None,
        clock: TimestampSource | None = None,
        lock_lease_ms: float = 1000.0,
        lock_wait_retries: int = 50,
        lock_wait_s: float = 0.0005,
        isolation: str = "snapshot",
        sleep=ambient_sleep,
        retry_policy: RetryPolicy | None = None,
        client_id: str | None = None,
    ):
        if isinstance(stores, KeyValueStore):
            stores = {"default": stores}
        super().__init__(stores, default_store)
        if isolation not in self.ISOLATION_LEVELS:
            raise ValueError(
                f"unknown isolation {isolation!r}; use one of {self.ISOLATION_LEVELS}"
            )
        self.clock = clock or LocalClock()
        self.lock_lease_ms = lock_lease_ms
        self.lock_wait_retries = lock_wait_retries
        self.lock_wait_s = lock_wait_s
        self.isolation = isolation
        self.stats = TxnStats()
        self.retry_policy = retry_policy
        self.retry_stats = retry_policy.stats if retry_policy is not None else RetryStats()
        self._sleep = sleep
        # An explicit client_id pins transaction ids for deterministic
        # simulation runs; the default random id keeps concurrently started
        # real processes from colliding.
        self._client_id = client_id if client_id is not None else uuid.uuid4().hex[:8]
        self._tx_counter = itertools.count(1)

    def _call(self, fn):
        """One store call, retried per the manager's policy when set.

        Every call routed through here is either a pure read or a CAS
        whose failure makes the caller re-read — safe to retry blindly.
        The one write that is *not* safe to retry blindly, the committed-
        TSR insert, goes through ``ClientTransaction._decide_commit``
        instead.
        """
        if self.retry_policy is None:
            return fn()
        return self.retry_policy.call(fn)

    def counters(self) -> dict[str, int]:
        """Shared-run counters surfaced into benchmark reports."""
        counters = {
            "TXN-CONFLICTS": self.stats.conflicts,
            "TXN-RECOVERY-ABORTS": self.stats.recovery_aborts,
            "TXN-AMBIGUOUS-COMMITS": self.stats.ambiguous_commits,
            "TXN-POST-COMMIT-FAILURES": self.stats.post_commit_failures,
        }
        for name, value in self.retry_stats.counters().items():
            counters[f"TXN-{name}"] = value
        return counters

    # -- transaction factory -------------------------------------------------------

    def begin(self) -> "ClientTransaction":
        txid = f"{self._client_id}-{next(self._tx_counter)}"
        self.stats.bump("begun")
        return ClientTransaction(self, txid, self.clock.next_timestamp())

    # -- shared helpers used by transactions and recovery ---------------------------

    def _now_us(self) -> int:
        return ambient_now_us()

    def _lease_expiry(self) -> int:
        return self._now_us() + int(self.lock_lease_ms * 1000)

    def _tsr_key(self, txid: str) -> str:
        return f"{TSR_PREFIX}{txid}"

    def _tsr_store_of(self, lock: LockInfo) -> KeyValueStore:
        store_name, _, _ = lock.primary.partition(":")
        return self.store(store_name)

    def read_tsr(self, lock: LockInfo) -> tuple[str, int] | None:
        """The decided (state, commit_ts) of the lock's owner, or None."""
        store = self._tsr_store_of(lock)
        tsr = self._call(lambda: store.get(self._tsr_key(lock.txid)))
        if tsr is None:
            return None
        return tsr.get("state", "aborted"), int(tsr.get("commit_ts", "0"))

    def try_abort_peer(self, lock: LockInfo) -> bool:
        """Decide ``aborted`` for a lock owner whose lease has expired.

        Insert-if-absent on the TSR is the atomic arbiter: if the owner
        already created a committed TSR we lose and return False.  (Blind
        retry is sound here: a torn abort insert re-read simply finds the
        ``aborted`` record and returns True through the fallback below.)
        """
        store = self._tsr_store_of(lock)
        created = self._call(
            lambda: store.put_if_version(
                self._tsr_key(lock.txid), {"state": "aborted", "commit_ts": "0"}, None
            )
        )
        if created is not None:
            self.stats.bump("rollbacks_of_peers")
            return True
        decided = self.read_tsr(lock)
        return decided is not None and decided[0] == "aborted"

    def resolve_lock(self, store: KeyValueStore, key: str) -> bool:
        """Try to clear the lock currently on ``key``.

        Returns True when the caller should re-read (the lock was rolled
        forward or back), False when the owner is alive and undecided —
        the caller must wait.
        """
        versioned = self._call(lambda: store.get_with_meta(key))
        if versioned is None:
            return True
        record = TxRecord.decode(versioned.value)
        lock = record.lock
        if lock is None:
            return True
        decided = self.read_tsr(lock)
        if decided is None and lock.lease_expiry_us < self._now_us():
            if self.try_abort_peer(lock):
                decided = ("aborted", 0)
            else:
                decided = self.read_tsr(lock)
        if decided is None:
            return False
        state, commit_ts = decided
        if state == "committed":
            record.apply_commit(
                commit_ts, None if lock.is_delete else lock.staged, txid=lock.txid
            )
            self.stats.bump("rollforwards")
        else:
            record.lock = None
        # CAS the cleaned record back; a failed CAS means someone else
        # resolved it first, which is just as good.
        self._call(lambda: store.put_if_version(key, record.encode(), versioned.version))
        return True


class ClientTransaction(Transaction):
    """A transaction issued by :class:`ClientTransactionManager`."""

    def __init__(self, manager: ClientTransactionManager, txid: str, start_timestamp: int):
        super().__init__(txid, start_timestamp)
        self._manager = manager
        # Write buffer: address -> staged fields (None = delete intent).
        self._writes: dict[_Address, Fields | None] = {}
        # Locks we currently hold: address -> record version we installed.
        self._held_locks: list[_Address] = []
        # Read set for serializable validation: address -> commit timestamp
        # of the version the snapshot saw (0 when the key was absent).
        self._reads: dict[_Address, int] = {}
        # Decode cache: address -> (exact ``_tx`` body, its decoded record).
        self._decoded: dict[_Address, tuple[str, TxRecord]] = {}

    # -- helpers ---------------------------------------------------------------------

    def _decode(self, address: _Address, versioned: VersionedValue | None) -> TxRecord:
        """Decode a ``get_with_meta`` result, at most once per distinct body.

        Keyed on the exact body, never on the store version: a key that is
        deleted and re-inserted starts its version count again.  Returns a
        copy the caller may change.
        """
        if versioned is None:
            return TxRecord()
        body = versioned.value.get(TX_FIELD)
        cached = self._decoded.get(address)
        if cached is None or cached[0] != body:
            cached = self._decoded[address] = (body, TxRecord.decode(versioned.value))
        return cached[1].copy()

    def _address(self, key: str, store: str | None) -> _Address:
        name = store or self._manager.default_store_name
        if key.startswith(TSR_PREFIX):
            raise ValueError(f"keys may not start with the reserved prefix {TSR_PREFIX!r}")
        self._manager.store(name)  # validate early
        return (name, key)

    def _load_resolved(self, address: _Address) -> TxRecord:
        """Read ``address`` with lock resolution; never returns a locked
        record whose owner has decided."""
        manager = self._manager
        store = manager.store(address[0])
        for _ in range(manager.lock_wait_retries):
            versioned = manager._call(lambda: store.get_with_meta(address[1]))
            record = self._decode(address, versioned)
            if record.lock is None:
                return record
            if manager.resolve_lock(store, address[1]):
                continue
            manager.stats.bump("read_waits")
            manager._sleep(manager.lock_wait_s)
        raise TransactionConflict(
            f"{self.txid}: key {address[1]!r} stayed locked beyond the wait budget"
        )

    # -- data operations ----------------------------------------------------------------

    def read(self, key: str, store: str | None = None) -> Fields | None:
        self._require_active()
        address = self._address(key, store)
        if address in self._writes:
            staged = self._writes[address]
            return dict(staged) if staged is not None else None
        record = self._load_resolved(address)
        if record.snapshot_too_old(self.start_timestamp):
            self._manager.stats.bump("conflicts")
            raise TransactionConflict(
                f"{self.txid}: snapshot too old for {key!r} (versions trimmed)"
            )
        version = record.visible_at(self.start_timestamp)
        if self._manager.isolation == "serializable":
            self._reads[address] = version.timestamp if version is not None else 0
        if version is None or version.deleted:
            return None
        return dict(version.fields)

    def scan(
        self, start_key: str, record_count: int, store: str | None = None
    ) -> list[tuple[str, Fields]]:
        self._require_active()
        name = store or self._manager.default_store_name
        backing = self._manager.store(name)
        results: list[tuple[str, Fields]] = []
        cursor = start_key
        # Over-fetch to compensate for skipped tombstones/TSRs/locks.
        while len(results) < record_count:
            fetch_from = cursor
            batch = self._manager._call(
                lambda: backing.scan(fetch_from, max(record_count * 2, 16))
            )
            if not batch:
                break
            for key, value in batch:
                if key.startswith(TSR_PREFIX):
                    continue
                record = TxRecord.decode(value)
                version = record.visible_at(self.start_timestamp)
                if version is None or version.deleted:
                    continue
                results.append((key, dict(version.fields)))
                if len(results) >= record_count:
                    break
            last_key = batch[-1][0]
            if len(batch) < max(record_count * 2, 16):
                break
            cursor = last_key + "\x00"
        return results[:record_count]

    def write(self, key: str, fields: Mapping[str, str], store: str | None = None) -> None:
        self._require_active()
        self._writes[self._address(key, store)] = dict(fields)

    def delete(self, key: str, store: str | None = None) -> None:
        self._require_active()
        self._writes[self._address(key, store)] = None

    # -- commit protocol -------------------------------------------------------------------

    def _primary_name(self, ordered: list[_Address]) -> str:
        store_name, key = ordered[0]
        return f"{store_name}:{key}"

    def _acquire_lock(self, address: _Address, primary: str) -> None:
        """Install our lock + staged intent on ``address`` (CAS loop)."""
        manager = self._manager
        store = manager.store(address[0])
        staged = self._writes[address]
        for _ in range(manager.lock_wait_retries):
            versioned = manager._call(lambda: store.get_with_meta(address[1]))
            record = self._decode(address, versioned)
            if record.lock is not None:
                if record.lock.txid == self.txid:
                    # Already ours — a torn install (applied, error
                    # returned) can land here via the CAS-retry path.
                    # Record it so rollback releases this lock too.
                    if address not in self._held_locks:
                        self._held_locks.append(address)
                        manager.stats.bump("locks_acquired")
                    return
                if manager.resolve_lock(store, address[1]):
                    continue
                manager.stats.bump("read_waits")
                manager._sleep(manager.lock_wait_s)
                continue
            # First-updater-wins: a version committed after our snapshot
            # means a concurrent writer already won.
            if record.newest_commit_timestamp() > self.start_timestamp:
                manager.stats.bump("conflicts")
                raise TransactionConflict(
                    f"{self.txid}: write-write conflict on {address[1]!r}"
                )
            record.lock = LockInfo(
                txid=self.txid,
                primary=primary,
                lease_expiry_us=manager._lease_expiry(),
                staged=staged if staged is not None else None,
                is_delete=staged is None,
            )
            expected = versioned.version if versioned is not None else None
            encoded = record.encode()
            installed = manager._call(
                lambda: store.put_if_version(address[1], encoded, expected)
            )
            if installed is not None:
                # The commit re-reads this body; let it hit.
                self._decoded[address] = (encoded[TX_FIELD], record)
                self._held_locks.append(address)
                manager.stats.bump("locks_acquired")
                return
            # CAS raced with another writer (or our own torn install,
            # which the re-read will recognise); re-read and retry.
        manager.stats.bump("conflicts")
        raise TransactionConflict(f"{self.txid}: could not lock {address[1]!r}")

    def _release_lock(self, address: _Address) -> None:
        """Remove our (undecided) lock from ``address`` if still present."""
        manager = self._manager
        store = manager.store(address[0])
        while True:
            versioned = manager._call(lambda: store.get_with_meta(address[1]))
            if versioned is None:
                return
            record = self._decode(address, versioned)
            if record.lock is None or record.lock.txid != self.txid:
                return
            record.lock = None
            if not record.versions:
                # We created this record purely to hold the lock.
                removed = manager._call(
                    lambda: store.delete_if_version(address[1], versioned.version)
                )
                if removed is not None:
                    return
                continue
            replaced = manager._call(
                lambda: store.put_if_version(address[1], record.encode(), versioned.version)
            )
            if replaced is not None:
                return

    def _apply_commit(self, address: _Address, commit_ts: int) -> None:
        """Turn our staged intent on ``address`` into a committed version."""
        manager = self._manager
        store = manager.store(address[0])
        while True:
            versioned = manager._call(lambda: store.get_with_meta(address[1]))
            if versioned is None:
                return  # a peer rolled us forward and compacted; nothing to do
            record = self._decode(address, versioned)
            if record.lock is None or record.lock.txid != self.txid:
                return  # already rolled forward by a reader
            record.apply_commit(commit_ts, self._writes[address], txid=self.txid)
            applied = manager._call(
                lambda: store.put_if_version(address[1], record.encode(), versioned.version)
            )
            if applied is not None:
                return

    def commit(self) -> None:
        self._require_active()
        manager = self._manager
        if not self._writes:
            self.state = TxState.COMMITTED
            manager.stats.bump("committed")
            return
        ordered = sorted(self._writes)
        primary = self._primary_name(ordered)
        try:
            for address in ordered:
                self._acquire_lock(address, primary)
            if manager.isolation == "serializable":
                self._validate_read_set()
        except (TransactionConflict, StoreError):
            # Before the commit point any failure — conflict or a store
            # error that outlived the retry budget — aborts cleanly:
            # release what we hold (best effort; leaked locks are
            # recovered by peers via the lease) and report ABORTED.
            self._rollback_locks()
            self.state = TxState.ABORTED
            manager.stats.bump("aborted")
            raise
        crashpoint("txn.after_prewrite")

        commit_ts = manager.clock.next_timestamp()
        tsr_store = manager.store(ordered[0][0])
        tsr_key = manager._tsr_key(self.txid)
        if not self._decide_commit(tsr_store, tsr_key, commit_ts):
            # A peer presumed us dead and aborted us first.
            self._rollback_locks()
            try:
                manager._call(lambda: tsr_store.delete(tsr_key))
            except StoreError:
                pass  # the abort TSR is garbage once our locks are gone
            self.state = TxState.ABORTED
            manager.stats.bump("aborted")
            manager.stats.bump("recovery_aborts")
            raise TransactionAborted(f"{self.txid}: aborted by peer recovery before commit")
        crashpoint("txn.after_primary_commit")

        # Past the commit point the transaction IS committed, whatever the
        # store does next: every staged intent is roll-forward-able by any
        # reader that finds our committed TSR.  Apply what we can, count
        # what we could not, and only drop the TSR once nothing depends on
        # it — deleting it with an intent still staged would let a peer
        # presume us aborted and roll the committed write *back*.
        apply_failures = 0
        for position, address in enumerate(ordered):
            if position == 1:
                crashpoint("txn.mid_secondary_commit")
            try:
                self._apply_commit(address, commit_ts)
            except StoreError:
                apply_failures += 1
        if apply_failures:
            manager.stats.bump("post_commit_failures", apply_failures)
        else:
            try:
                manager._call(lambda: tsr_store.delete(tsr_key))
            except StoreError:
                manager.stats.bump("post_commit_failures")
        self.state = TxState.COMMITTED
        manager.stats.bump("committed")

    def _decide_commit(self, tsr_store: KeyValueStore, tsr_key: str, commit_ts: int) -> bool:
        """Create the committed TSR — the commit point — and report the fate.

        The insert-if-absent can fail *ambiguously*: a torn write raises
        after applying, and a retry layer below us turns that same tear
        into a plain ``None`` (the retried insert finds the key taken).
        Blind retry is therefore unsound — it would read our own torn
        insert as "a peer aborted us" and flip a committed transaction
        into an abort.  Instead, on any non-success we read the TSR back
        and match it: our committed record → committed; a peer's abort
        record → aborted; truly absent → the insert never landed and may
        safely be tried again.
        """
        manager = self._manager
        document = {"state": "committed", "commit_ts": str(commit_ts)}
        last_error: StoreError | None = None
        for _ in range(max(1, manager.lock_wait_retries)):
            ambiguous = False
            try:
                created = tsr_store.put_if_version(tsr_key, document, None)
            except StoreError as exc:
                ambiguous = True
                last_error = exc
                created = None
            if created is not None:
                return True
            if ambiguous:
                manager.stats.bump("ambiguous_commits")
            tsr = manager._call(lambda: tsr_store.get(tsr_key))
            if tsr is None:
                continue  # the insert never landed; safe to try again
            ours = (
                tsr.get("state") == "committed"
                and tsr.get("commit_ts") == document["commit_ts"]
            )
            if ours and not ambiguous:
                # A lower retry layer absorbed the tear into a CAS miss.
                manager.stats.bump("ambiguous_commits")
            return ours
        raise last_error or StoreError(
            f"{self.txid}: could not decide commit outcome for {tsr_key!r}"
        )

    def _validate_read_set(self) -> None:
        """Serializable commit validation (runs with write locks held).

        Every key read but not rewritten must still be exactly at the
        version the snapshot saw, and must not be locked by a committing
        peer.  With all writers holding ordered locks while they validate,
        any dangerous read-write interleaving (e.g. write skew) is caught
        by at least one side: the later validator either sees the peer's
        lock or the peer's committed version.
        """
        manager = self._manager
        for address, seen_ts in self._reads.items():
            if address in self._writes:
                continue  # locked and write-write checked already
            store = manager.store(address[0])
            versioned = manager._call(lambda: store.get_with_meta(address[1]))
            record = self._decode(address, versioned)
            if record.lock is not None and record.lock.txid != self.txid:
                manager.stats.bump("conflicts")
                raise TransactionConflict(
                    f"{self.txid}: read-set key {address[1]!r} is being "
                    f"committed by a concurrent transaction"
                )
            if record.newest_commit_timestamp() != seen_ts:
                manager.stats.bump("conflicts")
                raise TransactionConflict(
                    f"{self.txid}: read-set key {address[1]!r} changed "
                    f"since the snapshot (serializable validation)"
                )

    def _rollback_locks(self) -> None:
        for address in self._held_locks:
            try:
                self._release_lock(address)
            except StoreError:
                # Leave it: the lease expires and a peer rolls it back.
                pass
        self._held_locks.clear()

    def abort(self) -> None:
        if self.state is not TxState.ACTIVE:
            return
        self._rollback_locks()
        self._writes.clear()
        self.state = TxState.ABORTED
        self._manager.stats.bump("aborted")
