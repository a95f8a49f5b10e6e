"""Span arithmetic and proxy behaviour, on hand-built inputs."""

import threading

from ledger.spans import SpanProxy, Tracer, self_times


def span(span_id, parent, start, end, layer="x", name="call"):
    return (span_id, parent, 1, layer, name, start, end, None)


def test_self_time_is_duration_minus_children():
    tree = [
        span(1, 0, 0, 100),  # root
        span(2, 1, 10, 40),
        span(3, 2, 15, 25),  # grandchild counts against its parent only
        span(4, 1, 50, 90),
    ]
    own = self_times(tree)
    assert own == {1: 30, 2: 20, 3: 10, 4: 40}
    assert sum(own.values()) == 100  # self times add up to the root's duration


class _Store:
    def __init__(self):
        self.calls = []

    def get(self, key):
        self.calls.append(("get", key))
        return {"field0": "1"}

    def put(self, key, value):
        self.calls.append(("put", key))
        return 1

    def close(self):
        self.calls.append(("close",))


class _DB:
    def start(self):
        return "ok"

    def commit(self):
        return "ok"


def test_proxy_only_offers_what_the_inner_object_has():
    proxy = Tracer().store(_Store(), "kvstore.memory")
    assert getattr(proxy, "put_batch", None) is None
    assert callable(proxy.get) and callable(proxy.close)


def test_calls_outside_a_transaction_pass_through_unrecorded():
    tracer = Tracer()
    store = _Store()
    proxy = tracer.store(store, "kvstore.memory")
    assert proxy.get("k") == {"field0": "1"}
    assert tracer.spans == [] and store.calls == [("get", "k")]


def test_a_transaction_nests_its_calls_under_one_root():
    tracer = Tracer()
    store = tracer.store(_Store(), "kvstore.memory")
    db = tracer.db(_DB(), "bindings.kv")
    db.start()
    store.get("k")
    db.commit()
    tracer.finish()
    by_name = {s[4]: s for s in tracer.spans}
    root = by_name["tx"]
    assert root[3] == "core.client" and root[1] == 0
    assert {by_name[n][1] for n in ("start", "get", "commit")} == {root[0]}
    assert {s[2] for s in tracer.spans} == {root[0]}  # one transaction id throughout
    assert root[5] <= by_name["start"][5] and by_name["commit"][6] == root[6]
    own = self_times(tracer.spans)
    assert sum(own.values()) == root[6] - root[5]


def test_a_handler_thread_adopts_the_client_call_that_waits_on_it():
    tracer = Tracer()
    engine = tracer.store(_Store(), "kvstore.lsm", server=True)

    class _Remote:
        def get(self, key):
            worker = threading.Thread(target=engine.get, args=(key,))
            worker.start()
            worker.join()
            return {}

    client = tracer.store(_Remote(), "http", remote=True)
    db = tracer.db(_DB(), "bindings.kv")
    db.start()
    client.get("k")
    db.commit()
    tracer.finish()
    hop = next(s for s in tracer.spans if s[3] == "http")
    served = next(s for s in tracer.spans if s[3] == "kvstore.lsm")
    assert served[1] == hop[0] and served[2] == hop[2]
    assert hop[5] <= served[5] and served[6] <= hop[6]
    assert not tracer.inflight and not tracer.open_remote
    engine.get("later")  # nobody is waiting: not part of any transaction
    assert sum(1 for s in tracer.spans if s[3] == "kvstore.lsm") == 1


def test_proxy_is_a_plain_attribute_passthrough():
    inner = _Store()
    proxy = SpanProxy(Tracer(), inner, "x", ("get",))
    proxy.close()
    assert inner.calls == [("close",)] and proxy.inner is inner
