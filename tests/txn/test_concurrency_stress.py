"""Concurrency and fault stress for the client-coordinated manager.

The acid test for the commit protocol: under thread contention and
injected faults (transient errors, torn writes at the commit point), a
counter incremented only through transactions must equal the number of
*reported-successful* increments — any lost update (a committed increment
that vanished) or double-apply (an "aborted" increment that landed)
breaks the equality.
"""

import random
import threading

import pytest

from repro.core.retry import RetryPolicy, RetryingStore
from repro.kvstore import (
    FaultInjectingStore,
    FaultProfile,
    InMemoryKVStore,
    KeyValueStore,
    StoreError,
    TransientStoreError,
)
from repro.txn import ClientTransactionManager
from repro.txn.errors import TransactionAborted, TransactionConflict, TransactionError
from repro.txn.manager import TSR_PREFIX


def noop_sleep(seconds):
    pass


COUNTER_KEY = "counter"


def make_manager(store, **kwargs):
    kwargs.setdefault("sleep", noop_sleep)
    kwargs.setdefault("lock_wait_retries", 500)
    return ClientTransactionManager(store, **kwargs)


def seed_counter(manager):
    with manager.transaction() as tx:
        tx.write(COUNTER_KEY, {"n": "0"})


def read_counter(manager):
    with manager.transaction() as tx:
        return int(tx.read(COUNTER_KEY)["n"])


def increment_workers(manager, threads, increments_per_thread):
    """Run the increment storm; returns the number of reported successes."""
    successes = [0] * threads

    def body(tx):
        current = int(tx.read(COUNTER_KEY)["n"])
        tx.write(COUNTER_KEY, {"n": str(current + 1)})

    def worker(worker_id):
        for _ in range(increments_per_thread):
            try:
                manager.run(body, retries=200, backoff_s=0.0, sleep=noop_sleep)
            except (TransactionError, StoreError):
                continue  # not counted; must then not be applied either
            successes[worker_id] += 1

    pool = [
        threading.Thread(target=worker, args=(i,), name=f"stress-{i}")
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return sum(successes)


class TestNoLostUpdates:
    def test_contended_counter_exact(self):
        manager = make_manager(InMemoryKVStore())
        seed_counter(manager)
        successes = increment_workers(manager, threads=8, increments_per_thread=30)
        assert successes == 240  # enough conflict retries for all to land
        assert read_counter(manager) == 240

    @pytest.mark.slow
    def test_contended_counter_under_faults_exact(self):
        """Threads + transient errors + torn writes: reported == applied."""
        faulty = FaultInjectingStore(
            InMemoryKVStore(),
            profile=FaultProfile(error_rate=0.03, torn_write_rate=0.03),
            seed=21,
            sleep=noop_sleep,
        )
        policy = RetryPolicy(
            max_attempts=8,
            base_delay_s=0.0,
            max_delay_s=0.0,
            rng=random.Random(2),
            sleep=noop_sleep,
        )
        manager = make_manager(faulty, retry_policy=policy)
        seed_counter(manager)
        successes = increment_workers(manager, threads=6, increments_per_thread=25)
        faulty.profile = FaultProfile()  # clean read-back
        assert read_counter(manager) == successes
        assert policy.stats.retries > 0  # the faults actually bit

    def test_contended_counter_under_faults_exact_virtual_time(self):
        """The slow stress case re-homed onto the simulator.

        Same fault profile and per-worker workload as the wall-clock
        variant above, but the six workers are cooperative simulated
        tasks interleaved deterministically by the event scheduler, with
        store latency and real (virtual) backoff providing the
        interleavings. Runs in well under a second of wall time.
        """
        from repro.kvstore.latency import ConstantLatency, LatencyInjectingStore
        from repro.sim.clock import use_clock
        from repro.sim.scheduler import SimClock

        clock = SimClock()
        with use_clock(clock):
            faulty = FaultInjectingStore(
                LatencyInjectingStore(InMemoryKVStore(), ConstantLatency(0.001)),
                profile=FaultProfile(error_rate=0.03, torn_write_rate=0.03),
                seed=21,
            )
            policy = RetryPolicy(
                max_attempts=8,
                base_delay_s=0.001,
                max_delay_s=0.02,
                rng=random.Random(2),
            )
            manager = ClientTransactionManager(
                faulty, retry_policy=policy, lock_wait_retries=500
            )
            seed_counter(manager)

            successes = [0] * 6

            def body(tx):
                current = int(tx.read(COUNTER_KEY)["n"])
                tx.write(COUNTER_KEY, {"n": str(current + 1)})

            def worker(worker_id):
                for _ in range(25):
                    try:
                        manager.run(body, retries=200, backoff_s=0.001)
                    except (TransactionError, StoreError):
                        continue  # not counted; must then not be applied either
                    successes[worker_id] += 1

            clock.scheduler.run(
                [lambda i=i: worker(i) for i in range(6)],
                names=[f"stress-{i}" for i in range(6)],
            )

            faulty.profile = FaultProfile()  # clean read-back
            assert read_counter(manager) == sum(successes)
        assert policy.stats.retries > 0  # the faults actually bit
        assert clock.scheduler.now > 0.0  # latency/backoff really elapsed


class _TearTsrCommitOnce(KeyValueStore):
    """Wrapper that tears exactly one committed-TSR insert (applies it,
    then raises), leaving everything else untouched."""

    def __init__(self, inner):
        self.inner = inner
        self.torn = False

    def get_with_meta(self, key):
        return self.inner.get_with_meta(key)

    def scan(self, start_key, record_count):
        return self.inner.scan(start_key, record_count)

    def keys(self):
        return self.inner.keys()

    def size(self):
        return self.inner.size()

    def put(self, key, value):
        return self.inner.put(key, value)

    def put_if_version(self, key, value, expected_version):
        result = self.inner.put_if_version(key, value, expected_version)
        should_tear = (
            not self.torn
            and result is not None
            and key.startswith(TSR_PREFIX)
            and value.get("state") == "committed"
        )
        if should_tear:
            self.torn = True
            raise TransientStoreError("torn TSR insert: applied but reported failed")
        return result

    def delete(self, key):
        return self.inner.delete(key)

    def delete_if_version(self, key, expected_version):
        return self.inner.delete_if_version(key, expected_version)


class TestAmbiguousCommit:
    def test_torn_tsr_insert_decides_committed_not_aborted(self):
        """The torn commit-point write must be verified, not blindly
        retried: the transaction committed and applies exactly once."""
        inner = InMemoryKVStore()
        manager = make_manager(_TearTsrCommitOnce(inner))
        seed_counter(manager)
        tx = manager.begin()
        current = int(tx.read(COUNTER_KEY)["n"])
        tx.write(COUNTER_KEY, {"n": str(current + 1)})
        tx.commit()  # raises nothing: the tear is resolved by verification
        assert manager.stats.ambiguous_commits == 1
        assert read_counter(manager) == 1  # applied exactly once

    def test_tear_absorbed_by_retry_layer_still_decides_committed(self):
        """A RetryingStore below the manager turns the torn insert into a
        CAS miss; the manager must still verify rather than conclude
        'aborted by peer'."""
        inner = InMemoryKVStore()
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.0, max_delay_s=0.0, sleep=noop_sleep
        )
        manager = make_manager(RetryingStore(_TearTsrCommitOnce(inner), policy))
        seed_counter(manager)
        tx = manager.begin()
        tx.write(COUNTER_KEY, {"n": "1"})
        tx.commit()
        assert manager.stats.ambiguous_commits == 1
        assert manager.stats.committed == 2  # seed + this one
        assert read_counter(manager) == 1

    def test_peer_abort_wins_and_nothing_applies(self):
        """A peer's aborted TSR (lease-expiry recovery) must be honoured:
        commit raises TransactionAborted and the write is invisible."""
        inner = InMemoryKVStore()
        manager = make_manager(inner)
        tx = manager.begin()
        tx.write("account", {"n": "1"})
        inner.put_if_version(
            f"{TSR_PREFIX}{tx.txid}", {"state": "aborted", "commit_ts": "0"}, None
        )
        with pytest.raises(TransactionAborted):
            tx.commit()
        assert manager.stats.aborted == 1
        with manager.transaction() as reader:
            assert reader.read("account") is None


class _FailFirstLockInstall(KeyValueStore):
    """Raises (without applying) on the first non-TSR conditional put."""

    def __init__(self, inner):
        self.inner = inner
        self.failed = False

    def get_with_meta(self, key):
        return self.inner.get_with_meta(key)

    def scan(self, start_key, record_count):
        return self.inner.scan(start_key, record_count)

    def keys(self):
        return self.inner.keys()

    def size(self):
        return self.inner.size()

    def put(self, key, value):
        return self.inner.put(key, value)

    def put_if_version(self, key, value, expected_version):
        if not self.failed and not key.startswith(TSR_PREFIX):
            self.failed = True
            raise TransientStoreError("injected: request never reached the store")
        return self.inner.put_if_version(key, value, expected_version)

    def delete(self, key):
        return self.inner.delete(key)

    def delete_if_version(self, key, expected_version):
        return self.inner.delete_if_version(key, expected_version)


class TestStoreErrorsAroundCommit:
    def test_store_error_before_commit_point_aborts_cleanly(self):
        """Without a retry policy a transient lock-install failure aborts
        the transaction and leaves no lock behind."""
        inner = InMemoryKVStore()
        manager = make_manager(_FailFirstLockInstall(inner))
        tx = manager.begin()
        tx.write("k", {"f": "1"})
        with pytest.raises(TransientStoreError):
            tx.commit()
        assert tx.state.value == "aborted"
        # The key is free: a fresh transaction locks and commits at once.
        with manager.transaction() as retry_tx:
            retry_tx.write("k", {"f": "2"})
        with manager.transaction() as reader:
            assert reader.read("k") == {"f": "2"}

    def test_manager_retry_policy_rides_through_lock_install_failure(self):
        inner = InMemoryKVStore()
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.0, max_delay_s=0.0, sleep=noop_sleep
        )
        manager = make_manager(_FailFirstLockInstall(inner), retry_policy=policy)
        with manager.transaction() as tx:
            tx.write("k", {"f": "1"})
        assert manager.stats.committed == 1
        assert manager.retry_stats.retries == 1
        assert manager.counters()["TXN-RETRIES"] == 1

    def test_manager_retry_policy_rides_through_validation_read_failure(self):
        """Serializable validation re-reads the read set; a transient error
        on that pure read is retried like any other, not turned into an
        abort of a transaction that should commit."""

        class FailFirstValidationRead(_FailFirstLockInstall):
            armed = False

            def get_with_meta(self, key):
                if self.armed and not self.failed and key == "x":
                    self.failed = True
                    raise TransientStoreError("injected: validation read lost")
                return self.inner.get_with_meta(key)

            def put_if_version(self, key, value, expected_version):
                return self.inner.put_if_version(key, value, expected_version)

        store = FailFirstValidationRead(InMemoryKVStore())
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.0, max_delay_s=0.0, sleep=noop_sleep
        )
        manager = make_manager(store, retry_policy=policy, isolation="serializable")
        manager.run(lambda tx: (tx.write("x", {"f": "1"}), tx.write("y", {"f": "1"})))
        tx = manager.begin()
        tx.read("x")
        tx.write("y", {"f": str(int(tx.read("y")["f"]) + 1)})
        store.armed = True  # the next read of "x" is the validation read
        tx.commit()
        assert store.failed
        assert tx.state.value == "committed"
        assert manager.retry_stats.retries == 1
        with manager.transaction() as reader:
            assert reader.read("y") == {"f": "2"}

    def test_rollback_after_torn_lock_install_releases_the_lock(self):
        """A torn lock install absorbed by the retry layer re-enters
        ``_acquire_lock`` through the 'already ours' branch; the lock must
        be registered there so a later conflict rollback releases it."""
        from repro.txn.record import LockInfo, TxRecord

        class TearFirstLockInstall(_FailFirstLockInstall):
            def put_if_version(self, key, value, expected_version):
                if not self.failed and key == "a":
                    result = self.inner.put_if_version(key, value, expected_version)
                    if result is not None:
                        self.failed = True
                        raise TransientStoreError("torn lock install")
                    return result
                return self.inner.put_if_version(key, value, expected_version)

        inner = InMemoryKVStore()
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.0, max_delay_s=0.0, sleep=noop_sleep
        )
        manager = make_manager(
            TearFirstLockInstall(inner), retry_policy=policy, lock_wait_retries=5
        )
        # "k" is held by a live peer with a far-future lease, so locking it
        # must fail — after "a" was already (tornly) locked by us.
        blocker = TxRecord()
        blocker.lock = LockInfo(
            txid="peer-1",
            primary="default:k",
            lease_expiry_us=2**62,
            staged={"f": "x"},
            is_delete=False,
        )
        inner.put("k", blocker.encode())
        tx = manager.begin()
        tx.write("a", {"f": "1"})
        tx.write("k", {"f": "1"})
        with pytest.raises(TransactionConflict):
            tx.commit()
        # The torn lock on "a" was registered and rolled back: a fresh
        # transaction writes "a" immediately, no lease wait, no conflict.
        with manager.transaction() as retry_tx:
            retry_tx.write("a", {"f": "2"})
        with manager.transaction() as reader:
            assert reader.read("a") == {"f": "2"}
