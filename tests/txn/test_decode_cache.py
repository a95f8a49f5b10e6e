"""The per-transaction record decode cache: same calls, same answers, fewer decodes.

``ClientTransaction`` decodes each distinct ``_tx`` body once and hands out
copies.  None of that may show on the wire: the store-call sequence of a
transaction is pinned exactly, and a cached record must never be served for
a body that differs from the one it was decoded from.
"""

import pytest

from repro.kvstore import InMemoryKVStore
from repro.txn import ClientTransactionManager, LockInfo, TransactionConflict, TxRecord

STORE_METHODS = ("get", "get_with_meta", "scan", "put", "put_if_version", "delete", "delete_if_version")


class RecordingStore:
    """Logs ``(method, key)`` of every data call, then forwards it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        target = getattr(self.inner, name)
        if name not in STORE_METHODS:
            return target

        def call(key, *args):
            self.calls.append((name, key))
            return target(key, *args)

        return call


@pytest.fixture
def seeded():
    """A manager over a recording store holding accounts ``a`` and ``b``."""
    store = RecordingStore(InMemoryKVStore())
    manager = ClientTransactionManager({"default": store}, client_id="c")

    def seed(tx):
        tx.write("a", {"f": "10"})
        tx.write("b", {"f": "10"})

    manager.run(seed)  # transaction c-1
    store.calls.clear()
    return store, manager


def transfer(tx, amount=3):
    a = int(tx.read("a")["f"])
    b = int(tx.read("b")["f"])
    tx.write("a", {"f": str(a - amount)})
    tx.write("b", {"f": str(b + amount)})


class TestStoreCallTrace:
    def test_read_only_transaction(self, seeded):
        store, manager = seeded
        tx = manager.begin()
        tx.read("a")
        tx.read("b")
        tx.commit()
        assert store.calls == [("get_with_meta", "a"), ("get_with_meta", "b")]

    def test_two_account_transfer(self, seeded):
        store, manager = seeded
        tx = manager.begin()
        transfer(tx)
        tx.commit()
        assert store.calls == [
            ("get_with_meta", "a"),
            ("get_with_meta", "b"),
            ("get_with_meta", "a"),
            ("put_if_version", "a"),
            ("get_with_meta", "b"),
            ("put_if_version", "b"),
            ("put_if_version", "~tsr:c-2"),
            ("get_with_meta", "a"),
            ("put_if_version", "a"),
            ("get_with_meta", "b"),
            ("put_if_version", "b"),
            ("delete", "~tsr:c-2"),
        ]

    def test_transfer_losing_first_updater_wins(self, seeded):
        store, manager = seeded
        loser, winner = manager.begin(), manager.begin()
        transfer(loser)
        winner.write("b", {"f": "99"})
        winner.commit()
        store.calls.clear()
        with pytest.raises(TransactionConflict):
            loser.commit()
        assert store.calls == [
            ("get_with_meta", "a"),
            ("put_if_version", "a"),
            ("get_with_meta", "b"),
            ("get_with_meta", "a"),
            ("put_if_version", "a"),
        ]

    def test_transfer_decodes_each_written_key_once(self, seeded, monkeypatch):
        _, manager = seeded
        decoded = []
        real = TxRecord.decode.__func__

        def counting(cls, value):
            decoded.append(value)
            return real(cls, value)

        monkeypatch.setattr(TxRecord, "decode", classmethod(counting))
        tx = manager.begin()
        transfer(tx)
        tx.commit()
        assert len(decoded) == 2
        with manager.transaction() as reader:
            assert (reader.read("a"), reader.read("b")) == ({"f": "7"}, {"f": "13"})


class TestCacheSafety:
    def test_mutating_a_returned_record_leaves_the_next_decode_intact(self, seeded):
        store, manager = seeded
        tx = manager.begin()
        address = ("default", "a")
        versioned = store.inner.get_with_meta("a")
        first = tx._decode(address, versioned)
        first.apply_commit(first.newest_commit_timestamp() + 1, {"f": "mutated"})
        first.versions.append(first.versions[0])
        first.lock = LockInfo(txid="x", primary="default:a", lease_expiry_us=1)
        first.truncated_before = 5
        again = tx._decode(address, store.inner.get_with_meta("a"))
        assert again == TxRecord.decode(versioned.value)
        assert again is not first
        assert tx.read("a") == {"f": "10"}

    def test_delete_and_reinsert_at_the_same_version_misses(self):
        store = InMemoryKVStore()
        manager = ClientTransactionManager(store)

        def record_of(value):
            record = TxRecord()
            record.apply_commit(1, {"f": value})
            return record.encode()

        assert store.put_if_version("k", record_of("old"), None) == 1
        tx = manager.begin()
        assert tx.read("k") == {"f": "old"}
        assert store.delete("k")
        # Versions restart after a delete: same key, same version, new body.
        assert store.put_if_version("k", record_of("new"), None) == 1
        assert tx.read("k") == {"f": "new"}
