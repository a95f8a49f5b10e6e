"""Outside-in span tracing: timing proxies around the objects each layer is handed.

Nothing under ``src/`` knows about tracing.  The benchmark wraps the public
objects it passes into the program — ``DB``, ``Workload``, ``KeyValueStore``,
``TransactionManager`` (and the transactions it hands out), ``CoordinatorWAL``,
``TwoPCParticipant`` and the participant RPC stub — in :class:`SpanProxy`
objects that record one span per call: ``(id, parent, tx, layer, name, start_ns,
end_ns, key)``.  Spans stay in memory and are written out as JSONL at the end.

Parent links come from a per-thread "current span".  A call that crosses the
HTTP hop lands on a server handler thread that has no current span; there the
server-side proxy looks its parent up in :attr:`Tracer.inflight`, a table the
client-side proxy fills with the key (or transaction id) of the call it is
blocked in.  That only works because client and servers share one process; the
later "follow a transaction" issue replaces it with a header-carried context and
must reuse the layer names used here.

A layer's self time is its span's duration minus its children's durations.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

__all__ = [
    "Tracer",
    "NullTracer",
    "SpanProxy",
    "Delayed",
    "self_times",
    "write_jsonl",
    "SPAN_FIELDS",
    "SPAN_CAP",
]

SPAN_FIELDS = ("id", "parent", "tx", "layer", "name", "start_ns", "end_ns", "key")
#: spans a traced run may hold in memory.  Once reached, new transactions run
#: through the proxies unrecorded and the run fails its ``trace_complete``
#: check; the harness sizes traced segments to fill a fraction of it.
SPAN_CAP = 1_000_000

# Methods each kind of proxied object is timed on; anything else passes through.
STORE_METHODS = (
    "get",
    "get_with_meta",
    "scan",
    "put",
    "put_if_version",
    "put_batch",
    "delete",
    "delete_if_version",
)
DB_METHODS = ("read", "scan", "update", "insert", "delete", "batch_insert", "start", "commit", "abort")
WORKLOAD_METHODS = ("do_transaction", "do_insert", "do_batch_insert", "finish_transaction")
TXN_METHODS = ("read", "scan", "write", "delete", "commit", "abort")
WAL_METHODS = ("log_begin", "log_decision", "log_complete")
PARTICIPANT_METHODS = ("prepare", "commit", "abort", "expire")


class _Wrapper:
    """Wraps the listed methods of ``inner``; every other attribute passes through.

    Wrapped methods are bound as instance attributes only when ``inner`` has
    them, so feature probes such as ``getattr(store, "put_batch", None)`` see
    what they would see without the wrapper.
    """

    def __init__(self, inner, methods, wrap):
        self._inner = inner
        for name in methods:
            target = getattr(inner, name, None)
            if callable(target):
                self.__dict__[name] = wrap(name, target)

    @property
    def inner(self):
        return self._inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Delayed(_Wrapper):
    """Busy-waits ``delay_ns`` before each listed call — the injected slowdown
    the self-tests use to prove the ledger names the right layer."""

    def __init__(self, inner, methods, delay_ns: int):
        clock = time.perf_counter_ns

        def slow(name, target):
            def call(*args, **kwargs):
                until = clock() + delay_ns
                while clock() < until:
                    pass
                return target(*args, **kwargs)

            return call

        super().__init__(inner, methods, slow)


class NullTracer:
    """The untraced run: every wrap is the identity.

    ``inject`` maps a proxied class name (``KeyValueStore``,
    ``TransactionManager``, ``CoordinatorWAL``) to a per-call delay in
    nanoseconds; only the self-tests set it.
    """

    enabled = False

    def __init__(self, inject: dict[str, int] | None = None):
        self.inject = inject or {}
        self.spans: list[tuple] = []
        self.fsync_ns: list[int] = []

    def _slowed(self, kind: str, inner, methods):
        delay_ns = self.inject.get(kind)
        return Delayed(inner, methods, delay_ns) if delay_ns else inner

    def store(self, inner, layer: str, remote: bool = False, server: bool = False):
        # The injected delay belongs to the engine, not to its HTTP client.
        return inner if remote else self._slowed("KeyValueStore", inner, STORE_METHODS)

    def db(self, inner, layer: str):
        return inner

    def workload(self, inner):
        return inner

    def manager(self, inner, layer: str):
        return self._slowed("TransactionManager", inner, ("begin",))

    def wal(self, inner):
        return self._slowed("CoordinatorWAL", inner, WAL_METHODS)

    def participant(self, inner):
        return inner

    def stub(self, inner):
        return inner

    def finish(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def patch_fsync(self) -> None:
        pass

    def unpatch_fsync(self) -> None:
        pass


class _ThreadState:
    __slots__ = ("name", "current", "tx", "root_start", "root_end", "last_parent")

    def __init__(self, name: str) -> None:
        self.name = name  # recorded as the key of this thread's transaction roots
        self.current = 0  # id of the innermost open span on this thread, 0 = none
        self.tx = 0  # id of the open transaction root
        self.root_start = 0
        self.root_end = 0
        self.last_parent = None  # (span id, tx) a handler thread last served


class Tracer(NullTracer):
    """Span store plus the factory for every proxy of a traced run."""

    enabled = True

    def __init__(self, inject: dict[str, int] | None = None):
        super().__init__(inject)
        self.inflight: dict[object, tuple[int, int]] = {}
        self.open_remote: set[int] = set()
        self.ids = itertools.count(1)
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._real_fsync = None

    def state(self) -> _ThreadState:
        found = getattr(self._tls, "state", None)
        if found is None:
            with self._states_lock:
                found = self._tls.state = _ThreadState(f"thread-{len(self._states)}")
                self._states.append(found)
        return found

    # -- transaction roots ---------------------------------------------------------

    def open_root(self, now: int) -> None:
        """``DB.start`` entered: close the previous transaction, open the next."""
        state = self.state()
        self._close_root(state)
        if len(self.spans) >= SPAN_CAP:
            return
        state.tx = state.current = next(self.ids)
        state.root_start = state.root_end = now

    def _close_root(self, state: _ThreadState) -> None:
        if state.tx:
            self.spans.append(
                (state.tx, 0, state.tx, "core.client", "tx", state.root_start, state.root_end, state.name)
            )
        state.tx = state.current = 0

    def finish(self) -> None:
        """Close the roots the client threads left open when their phase ended."""
        with self._states_lock:
            states = list(self._states)
        for state in states:
            self._close_root(state)

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up is not part of the trace)."""
        self.finish()
        self.spans.clear()
        self.fsync_ns.clear()

    # -- proxies ----------------------------------------------------------------------

    def store(self, inner, layer: str, remote: bool = False, server: bool = False):
        inner = super().store(inner, layer, remote, server)
        return SpanProxy(self, inner, layer, STORE_METHODS, remote=remote, server=server)

    def db(self, inner, layer: str):
        return SpanProxy(self, inner, layer, DB_METHODS, roots=True)

    def workload(self, inner):
        return SpanProxy(self, inner, "core.workload", WORKLOAD_METHODS, keyed=False)

    def manager(self, inner, layer: str):
        return _ManagerProxy(self, super().manager(inner, layer), layer)

    def wal(self, inner):
        return SpanProxy(self, super().wal(inner), "cluster.wal", WAL_METHODS)

    def participant(self, inner):
        return SpanProxy(self, inner, "cluster.participant", PARTICIPANT_METHODS, server=True)

    def stub(self, inner):
        return SpanProxy(self, inner, "http", PARTICIPANT_METHODS, remote=True)

    # -- device -------------------------------------------------------------------------

    def patch_fsync(self) -> None:
        """Count and time every ``os.fsync`` of the process (traced runs only)."""
        if self._real_fsync is not None:
            return
        real = self._real_fsync = os.fsync
        clock = time.perf_counter_ns

        def fsync(fd):
            state = self.state()
            start = clock()
            try:
                return real(fd)
            finally:
                end = clock()
                self.fsync_ns.append(end - start)
                if state.current:
                    self.spans.append(
                        (next(self.ids), state.current, state.tx, "device", "fsync", start, end, None)
                    )

        os.fsync = fsync

    def unpatch_fsync(self) -> None:
        if self._real_fsync is not None:
            os.fsync = self._real_fsync
            self._real_fsync = None


class SpanProxy(_Wrapper):
    """Records one span per call of the listed methods.

    ``remote`` marks the client side of an HTTP hop (the call registers itself in
    ``Tracer.inflight``), ``server`` the side that runs on a handler thread (the
    call adopts the registered client span as its parent), ``roots`` the ``DB``
    whose ``start`` opens a transaction and whose ``commit``/``abort`` end it.
    """

    def __init__(
        self,
        tracer: Tracer,
        inner,
        layer: str,
        methods,
        remote: bool = False,
        server: bool = False,
        roots: bool = False,
        keyed: bool = True,
    ):
        super().__init__(
            inner,
            methods,
            lambda name, target: _timed(tracer, layer, name, target, remote, server, roots, keyed),
        )


def _timed(tracer: Tracer, layer, name, target, remote, server, roots, keyed):
    spans = tracer.spans
    state_of = tracer.state
    ids = tracer.ids
    clock = time.perf_counter_ns
    inflight = tracer.inflight
    open_remote = tracer.open_remote
    opens_root = roots and name == "start"
    ends_window = (roots and name in ("commit", "abort")) or name == "finish_transaction"

    def call(*args, **kwargs):
        state = state_of()
        if opens_root:
            tracer.open_root(clock())
        outer, outer_tx = state.current, state.tx
        parent, tx = outer, outer_tx
        key = args[0] if keyed and args and isinstance(args[0], str) else None
        if not parent:
            if not server:
                return target(*args, **kwargs)  # outside any recorded transaction
            # A handler thread: adopt the client call that is blocked on us.
            found = inflight.get(key)
            if found is None:
                found = state.last_parent
                if found is None or found[0] not in open_remote:
                    return target(*args, **kwargs)
            state.last_parent = found
            parent, tx = found
            state.tx = tx
        span_id = next(ids)
        state.current = span_id
        if remote:
            if key is None and name == "put_batch" and args and args[0]:
                key = args[0][0][0]
            inflight[key] = (span_id, tx)
            open_remote.add(span_id)
        start = clock()
        try:
            return target(*args, **kwargs)
        finally:
            end = clock()
            if remote:
                open_remote.discard(span_id)
                inflight.pop(key, None)
            state.current, state.tx = outer, outer_tx
            if ends_window:
                state.root_end = end
            spans.append((span_id, parent, tx, layer, name, start, end, key))

    return call


class _ManagerProxy(SpanProxy):
    """A transaction manager whose transactions are proxies too."""

    def __init__(self, tracer: Tracer, inner, layer: str):
        super().__init__(tracer, inner, layer, ())
        begin = _timed(tracer, layer, "begin", inner.begin, False, False, False, False)
        self.__dict__["begin"] = lambda: SpanProxy(tracer, begin(), layer, TXN_METHODS)


# -- arithmetic ---------------------------------------------------------------------------


def self_times(spans) -> dict[int, int]:
    """Self time (ns) of every span: its duration minus its children's durations."""
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[1]:
            children[span[1]] += span[6] - span[5]
    return {span[0]: (span[6] - span[5]) - children.get(span[0], 0) for span in spans}


def write_jsonl(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
