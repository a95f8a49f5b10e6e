"""Per-layer metrics: derived from the traced run's spans, from counters read at
the same boundaries, and from isolated micro-timings of single layers.

Names are ``<module>.<what>``.  Every metric is reported on every workload; a
layer the workload does not pass through has no spans and reports 0.
"""

from __future__ import annotations

import http.client
import itertools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from repro.core.db import DB, MeasuredDB
from repro.http.batch import execute_ops, put_ops
from repro.http.client import HttpKVStore
from repro.http.server import KVStoreHTTPServer
from repro.kvstore.lsm.wal import WalRecord, WriteAheadLog
from repro.kvstore.memory import InMemoryKVStore
from repro.kvstore.sharded import ConsistentHashRing
from repro.measurements.hdr import HdrHistogramMeasurement
from repro.measurements.registry import Measurements
from repro.replication.log import DurableReplicationLog
from repro.replication.node import LeaderStoreAdapter, NodeRole, ReplicationNode
from repro.sim.scheduler import Scheduler
from repro.txn.errors import TransactionConflict
from repro.txn.manager import ClientTransactionManager

from .spans import PARTICIPANT_METHODS, STORE_METHODS, WAL_METHODS, self_times
from .topologies import SPECS, LaneCEW, Spec, Stack, base_properties

__all__ = ["PER_LAYER", "ISOLATED", "layer_metrics", "after_timed", "counters", "metric"]

#: every per-layer metric and its unit, in report order.
PER_LAYER = {
    "core.client.self_us_per_op": "us",
    "core.workload.self_us_per_op": "us",
    "generators.zipfian_next_ns": "ns",
    "core.db.measured_overhead_ns_per_call": "ns",
    "measurements.hdr_measure_ns": "ns",
    "bindings.kv.self_us_per_call": "us",
    "bindings.txn.self_us_per_call": "us",
    "txn.manager.self_us_per_txn": "us",
    "txn.manager.store_calls_per_txn": "count",
    "txn.manager.commit_us_p50": "us",
    "txn.manager.commit_ratio": "ratio",
    "txn.manager.conflict_aborts": "count",
    "txn.manager.conflict_abort_us": "us",
    "kvstore.memory.get_ns": "ns",
    "kvstore.memory.put_ns": "ns",
    "kvstore.memory.cas_ns": "ns",
    "kvstore.lsm.get_us_p50": "us",
    "kvstore.lsm.put_us_p50": "us",
    "kvstore.lsm.put_batch_us_per_record": "us",
    "kvstore.lsm.segments": "count",
    "kvstore.lsm.disk_bytes_per_user_byte": "ratio",
    "kvstore.lsm.wal_append_sync_us": "us",
    "device.fsync_count": "count",
    "device.fsync_busy_us": "us",
    "device.fsyncs_per_committed_txn": "count",
    "http.roundtrip_self_us_p50": "us",
    "http.roundtrip_self_us_p95": "us",
    "http.requests_per_op": "count",
    "http.server.floor_us": "us",
    "http.client.get_overhead_us": "us",
    "http.batch.codec_us_per_record": "us",
    "http.stale_retries": "count",
    "cluster.twopc.self_us_per_txn": "us",
    "cluster.twopc.participant_calls_per_txn": "count",
    "cluster.twopc.cross_shard_share": "ratio",
    "cluster.wal.append_us_p50": "us",
    "cluster.wal.appends_per_txn": "count",
    "cluster.participant.prepare_us_p50": "us",
    "cluster.participant.commit_us_p50": "us",
    "cluster.router.owner_ns": "ns",
    "replication.leader_put_overhead_us": "us",
    "replication.max_follower_lag_seq": "count",
    "replication.catchup_s": "s",
    "replication.log_bytes_per_user_byte": "ratio",
    "sim.scheduler.switches_per_wall_s": "1/s",
    "sim.scheduler.handoff_us_per_op": "us",
    "sim.virtual_s_per_wall_s": "ratio",
    "trace.overhead_share": "ratio",
    "trace.unexplained_share": "ratio",
}

_MANAGER_LAYERS = ("txn.manager", "cluster.twopc")
#: bytes of one CEW record beyond its key: the field name and a 3-digit balance.
_RECORD_PAYLOAD = len("field0") + 3


# -- counters read at the layer boundaries ---------------------------------------------


def counters(stack: Stack) -> dict[str, int]:
    """Cumulative counters of a running topology; the harness diffs two reads."""
    found = {"requests": sum(server.request_count for server in stack.servers)}
    stats = getattr(stack.manager, "stats", None)
    if stats is not None:
        found.update(
            begun=stats.begun,
            committed=stats.committed,
            conflicts=stats.conflicts,
            locks_acquired=stats.locks_acquired,
        )
    found["stale_retries"] = sum(client.stale_retries for client in stack.http_clients)
    if stack.clock is not None:
        found["sim_events"] = stack.clock.scheduler.events_processed
    return found


def after_timed(stack: Stack) -> dict[str, float]:
    """Readings that only mean something the instant the timed phase ends."""
    if stack.repl_dir is None:
        return {}
    cluster = stack.cluster
    lag = 0
    for shard in cluster.shard_names:
        leader = cluster.nodes[shard][cluster.leader_member(shard)]
        for node in cluster.nodes[shard].values():
            lag = max(lag, leader.log.last_seq - node.applied_seq)
    started = time.perf_counter()
    cluster.wait_caught_up()
    return {"max_follower_lag_seq": lag, "catchup_s": time.perf_counter() - started}


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


# -- span-derived metrics ------------------------------------------------------------------


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def _p(values, fraction: float) -> float:
    """Linearly interpolated percentile; 0 for no samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def _us_per(total_ns: float, count: int) -> float:
    return total_ns / count / 1000.0 if count else 0.0


class _Trace:
    """The spans of one traced run, indexed the ways the metrics ask for them."""

    def __init__(self, spans):
        self.spans = spans
        self.own = self_times(spans)
        self.layer_self: dict[str, int] = defaultdict(int)
        self.layer_count: dict[str, int] = defaultdict(int)
        self.durations: dict[tuple[str, str], list[int]] = defaultdict(list)
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            self.layer_self[span[3]] += self.own[span[0]]
            self.layer_count[span[3]] += 1
            self.durations[(span[3], span[4])].append(span[6] - span[5])
            if span[1]:
                self.children[span[1]].append(span)
        self.roots = [span for span in spans if span[3] == "core.client" and span[4] == "tx"]

    def named(self, layer: str, *names: str) -> list[int]:
        """Durations of the layer's spans with any of the given names."""
        return [value for name in names for value in self.durations[(layer, name)]]


def layer_metrics(
    spec: Spec,
    stack: Stack,
    timed,
    reference_throughput: float,
    workdir: Path,
    seed: int,
) -> dict[str, dict]:
    trace = _Trace(timed.spans)
    out: dict[str, dict] = {}

    def put(name: str, value: float, samples: int) -> None:
        out[name] = metric(value, PER_LAYER[name], samples)

    workdir.mkdir(parents=True, exist_ok=True)
    for name in spec.isolated:
        put(name, *ISOLATED[name](workdir, seed))
    seconds = sum(elapsed for _, _, elapsed in timed.segments)
    handoff_ns = _framework(put, trace, spec, stack, timed, seconds)
    _managers(put, trace, timed.counters)
    _engines(put, trace, spec, stack, timed)
    _remote(put, trace, stack, timed)

    put("trace.overhead_share", 1.0 - timed.throughput / reference_throughput, len(timed.segments))
    if stack.clock is not None:
        # Virtual stopwatches say nothing about wall time.  What can be checked
        # is the scheduler's share: the hand-off time left over against the
        # events it processed at the isolated cost of one switch.
        switch_ns = 1e9 / out["sim.scheduler.switches_per_wall_s"]["value"]
        unexplained = abs(handoff_ns - timed.counters["sim_events"] * switch_ns) / (seconds * 1e9)
    else:
        unexplained = _unexplained(spec, timed, trace)
    put("trace.unexplained_share", unexplained, len(trace.roots))
    return {name: out.get(name) or metric(0.0, unit, 0) for name, unit in PER_LAYER.items()}


def _framework(put, trace: _Trace, spec: Spec, stack: Stack, timed, seconds: float) -> float:
    """Client loop, workload and bindings.  Returns the scheduler's hand-off time.

    ``core.client`` is what the client threads did outside the spans they
    called into, between the calls of one transaction and between
    transactions.  Under SimClock one thread runs at a time and wall time
    belongs to no one thread, so only the part inside transactions is the
    client's, plus the gaps between one transaction and the next on the same
    thread (no store call, so no switch, falls in a gap); the rest of the wall,
    less the time clients sat parked in ``sim.wait`` while others ran, is the
    scheduler handing control over.
    """
    count = len(trace.roots)
    windows = sum(root[6] - root[5] for root in trace.roots)
    client_ns = trace.layer_self["core.client"]
    handoff_ns = 0.0
    if stack.clock is not None:
        previous_end: dict[str, int] = {}
        for root in trace.roots:  # recorded in closing order, so per thread in time order
            if root[7] in previous_end:
                client_ns += root[5] - previous_end[root[7]]
            previous_end[root[7]] = root[6]
        running = windows - trace.layer_self["sim.wait"] + client_ns - trace.layer_self["core.client"]
        handoff_ns = seconds * 1e9 - running
        put("sim.scheduler.handoff_us_per_op", _us_per(handoff_ns, count), count)
        put("sim.virtual_s_per_wall_s", timed.virtual_seconds / seconds, len(timed.segments))
    elif not timed.read_back:  # the read-back's wall time is not in `seconds`
        client_ns += spec.clients * seconds * 1e9 - windows
    put("core.client.self_us_per_op", _us_per(client_ns, count), count)
    put("core.workload.self_us_per_op", _us_per(trace.layer_self["core.workload"], count), count)
    for layer in ("bindings.kv", "bindings.txn"):
        calls = trace.layer_count[layer]
        put(f"{layer}.self_us_per_call", _us_per(trace.layer_self[layer], calls), calls)
    return handoff_ns


def _managers(put, trace: _Trace, delta: dict[str, int]) -> None:
    """Transaction managers (spans of the manager proxy and of its
    transactions), the coordinator WAL and the participants."""
    begins = 0
    for layer in _MANAGER_LAYERS:
        begun = len(trace.durations[(layer, "begin")])
        begins += begun
        put(f"{layer}.self_us_per_txn", _us_per(trace.layer_self[layer], begun), begun)
    store_calls = participant_calls = cross_shard = 0
    writing_commits: list[int] = []
    for span in trace.spans:
        if span[3] not in _MANAGER_LAYERS:
            continue
        below = trace.children[span[0]]
        store_calls += sum(1 for child in below if child[4] in STORE_METHODS)
        verbs = [child for child in below if child[3] == "http" and child[4] in PARTICIPANT_METHODS]
        participant_calls += len(verbs)
        if span[4] == "commit" and below:
            writing_commits.append(span[6] - span[5])
            cross_shard += sum(1 for child in verbs if child[4] == "prepare") > 1
    writers = len(writing_commits)
    begun = delta.get("begun", 0)
    put("txn.manager.store_calls_per_txn", store_calls / begins if begins else 0.0, begins)
    put("txn.manager.commit_us_p50", _p(writing_commits, 0.5) / 1000.0, writers)
    put("txn.manager.commit_ratio", delta["committed"] / begun if begun else 0.0, begun)
    put("txn.manager.conflict_aborts", delta.get("conflicts", 0), begun)
    put("cluster.twopc.participant_calls_per_txn", participant_calls / begins if begins else 0.0, begins)
    put("cluster.twopc.cross_shard_share", cross_shard / writers if participant_calls else 0.0, writers)
    appends = trace.named("cluster.wal", *WAL_METHODS)
    put("cluster.wal.append_us_p50", _p(appends, 0.5) / 1000.0, len(appends))
    put("cluster.wal.appends_per_txn", len(appends) / writers if appends else 0.0, writers)
    for verb in ("prepare", "commit"):
        values = trace.durations[("cluster.participant", verb)]
        put(f"cluster.participant.{verb}_us_p50", _p(values, 0.5) / 1000.0, len(values))


def _engines(put, trace: _Trace, spec: Spec, stack: Stack, timed) -> None:
    """The stores behind everything, and the device under them."""
    fsyncs = timed.fsync_ns
    for short, names in (("get", ("get", "get_with_meta")), ("put", ("put",)), ("cas", ("put_if_version",))):
        values = trace.named("kvstore.memory", *names)
        put(f"kvstore.memory.{short}_ns", _p(values, 0.5), len(values))
    gets = trace.named("kvstore.lsm", "get", "get_with_meta")
    puts = trace.named("kvstore.lsm", "put", "put_if_version")
    put("kvstore.lsm.get_us_p50", _p(gets, 0.5) / 1000.0, len(gets))
    put("kvstore.lsm.put_us_p50", _p(puts, 0.5) / 1000.0, len(puts))
    if spec.phase == "load":
        batched = trace.durations[("kvstore.lsm", "put")]
        put("kvstore.lsm.put_batch_us_per_record", statistics.fmean(batched) / 1000.0, len(batched))
    if stack.lsm is not None:
        sample = [key for key, _ in stack.lsm.scan("usertable:", 200) if key.startswith("usertable:")]
        user_bytes = timed.records * (statistics.fmean(map(len, sample)) + _RECORD_PAYLOAD)
        put("kvstore.lsm.segments", stack.lsm.segment_count, 1)
        put("kvstore.lsm.disk_bytes_per_user_byte", _tree_bytes(stack.data_dir) / user_bytes, 1)
    committed = timed.attempted - timed.failed
    put("device.fsync_count", len(fsyncs), len(fsyncs))
    put("device.fsync_busy_us", sum(fsyncs) / 1000.0, len(fsyncs))
    put("device.fsyncs_per_committed_txn", len(fsyncs) / committed if committed else 0.0, committed)


def _remote(put, trace: _Trace, stack: Stack, timed) -> None:
    """The HTTP hop — a client-side span minus the server-side spans it
    caused — and what replication left behind."""
    hops = [trace.own[span[0]] for span in trace.spans if span[3] == "http" and trace.children[span[0]]]
    put("http.roundtrip_self_us_p50", _p(hops, 0.5) / 1000.0, len(hops))
    put("http.roundtrip_self_us_p95", _p(hops, 0.95) / 1000.0, len(hops))
    if stack.servers:
        put("http.requests_per_op", timed.counters["requests"] / timed.attempted, timed.attempted)
        put("http.stale_retries", timed.counters["stale_retries"], timed.attempted)
    if stack.repl_dir is not None:
        put("replication.max_follower_lag_seq", timed.after["max_follower_lag_seq"], 1)
        put("replication.catchup_s", timed.after["catchup_s"], 1)
        # A replicated record is the transaction layer's encoding of the user's.
        records = timed.records * (len("usertable:user") + 20 + _RECORD_PAYLOAD)
        put("replication.log_bytes_per_user_byte", _tree_bytes(stack.repl_dir) / records, 1)


def _unexplained(spec: Spec, timed, trace: _Trace) -> float:
    """Share of the client's own stopwatch time that no proxy span covers.

    The reference is a series only the client writes: ``TX-READMODIFYWRITE``
    (``TX-READ`` also holds MeasuredDB's per-call samples), or on the load
    workload ``BATCH-INSERT``.  The registry truncates each sample to whole
    microseconds, half a microsecond on average, which is added back.
    """
    series = timed.measurements.to_dict()["operations"]
    if spec.phase == "load":
        reference = series.get("BATCH-INSERT")
        covered = sum(trace.durations[("bindings.kv", "batch_insert")])
    else:
        reference = series.get("TX-READMODIFYWRITE")
        covered = sum(
            root[6] - root[5]
            for root in trace.roots
            if any(
                grand[4] == "update"
                for child in trace.children[root[0]]
                for grand in trace.children[child[0]]
            )
        )
    if not reference or not reference["count"]:
        return 0.0
    total_ns = (reference["total_us"] + 0.5 * reference["count"]) * 1000.0
    return (total_ns - covered) / total_ns


# -- isolated micro-timings ------------------------------------------------------------------


def _best_per_call(call, repeats: int, batches: int = 5) -> float:
    """Median over batches of the mean nanoseconds per call."""
    clock = time.perf_counter_ns
    means = []
    for _ in range(batches):
        started = clock()
        for _ in range(repeats):
            call()
        means.append((clock() - started) / repeats)
    return statistics.median(means)


def _zipfian(workdir: Path, seed: int):
    workload = LaneCEW()
    workload.init(base_properties(SPECS["mem_raw"], seed), Measurements())
    return _best_per_call(workload.key_chooser.next_value, 4_000), 20_000


def _measured_db(workdir: Path, seed: int):
    bare = DB()
    measured = MeasuredDB(DB(), Measurements())
    inner = _best_per_call(lambda: bare.read("t", "k"), 4_000)
    outer = _best_per_call(lambda: measured.read("t", "k"), 4_000)
    return outer - inner, 20_000


def _hdr_measure(workdir: Path, seed: int):
    histogram = HdrHistogramMeasurement("X")
    values = itertools.cycle(range(5, 5_000, 37))
    return _best_per_call(lambda: histogram.measure(next(values)), 4_000), 20_000


def _conflict_abort(workdir: Path, seed: int):
    """What losing costs: a two-account transfer whose second account a peer
    committed to first — lock the first, detect the conflict, roll back.  No
    workload aborts (see ``LaneCEW``), so this is the abort path's only number."""
    manager = ClientTransactionManager({"default": InMemoryKVStore()})
    value = {"field0": "100"}
    clock = time.perf_counter_ns
    lost = []
    for _ in range(2_000):
        loser, winner = manager.begin(), manager.begin()
        winner.write("b", value)
        winner.commit()
        loser.write("a", value)
        loser.write("b", value)
        started = clock()
        try:
            loser.commit()
        except TransactionConflict:
            lost.append(clock() - started)
    return _p(lost, 0.5) / 1000.0, len(lost)


def _wal_append_sync(workdir: Path, seed: int):
    log = WriteAheadLog(workdir / "wal-micro.log", sync_writes=True)
    try:
        record = WalRecord(1, "put", "usertable:user0000000000000000000", {"field0": "100"})
        return _best_per_call(lambda: log.append(record), 40) / 1000.0, 200
    finally:
        log.close()


def _health_floor(address) -> float:
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        def once():
            connection.request("GET", "/health")
            connection.getresponse().read()

        once()
        return _best_per_call(once, 80) / 1000.0
    finally:
        connection.close()


def _http_floor(workdir: Path, seed: int):
    with KVStoreHTTPServer(InMemoryKVStore()) as server:
        return _health_floor(server.address), 400


def _http_get_overhead(workdir: Path, seed: int):
    store = InMemoryKVStore()
    store.put("k", {"field0": "100"})
    with KVStoreHTTPServer(store) as server:
        floor = _health_floor(server.address)
        client = HttpKVStore(server.address)
        try:
            client.get("k")
            return _best_per_call(lambda: client.get("k"), 80) / 1000.0 - floor, 400
        finally:
            client.close()


def _batch_codec(workdir: Path, seed: int):
    store = InMemoryKVStore()
    records = [(f"usertable:user{index:019d}", {"field0": "100"}) for index in range(100)]

    def once():
        wire = json.dumps({"ops": put_ops(records)}).encode()
        results = execute_ops(store, json.loads(wire)["ops"])
        json.loads(json.dumps({"results": results}).encode())

    return _best_per_call(once, 20) / 100 / 1000.0, 100


def _router_owner(workdir: Path, seed: int):
    ring = ConsistentHashRing([f"shard{index}" for index in range(4)], replicas=32)
    keys = itertools.cycle([f"usertable:user{index:019d}" for index in range(256)])
    return _best_per_call(lambda: ring.owner(next(keys)), 4_000), 20_000


def _leader_put_overhead(workdir: Path, seed: int):
    bare = InMemoryKVStore()
    log = DurableReplicationLog(workdir / "repl-micro.log")
    try:
        node = ReplicationNode("n0", role=NodeRole.LEADER, term=1, log=log)
        logged = LeaderStoreAdapter(node)
        value = {"field0": "100"}
        plain = _best_per_call(lambda: bare.put("k", value), 40)
        through = _best_per_call(lambda: logged.put("k", value), 40)
        return (through - plain) / 1000.0, 200
    finally:
        log.close()


def _scheduler_switches(workdir: Path, seed: int):
    scheduler = Scheduler()
    sleeps = 400

    def task():
        for _ in range(sleeps):
            scheduler.sleep(0.001)

    started = time.perf_counter()
    scheduler.run([task] * 8)
    return scheduler.events_processed / (time.perf_counter() - started), scheduler.events_processed


#: metric name -> callable(workdir, seed) -> (value, samples).  Each times one
#: layer's public function on its own, outside any workload.
ISOLATED = {
    "generators.zipfian_next_ns": _zipfian,
    "core.db.measured_overhead_ns_per_call": _measured_db,
    "measurements.hdr_measure_ns": _hdr_measure,
    "txn.manager.conflict_abort_us": _conflict_abort,
    "kvstore.lsm.wal_append_sync_us": _wal_append_sync,
    "http.server.floor_us": _http_floor,
    "http.client.get_overhead_us": _http_get_overhead,
    "http.batch.codec_us_per_record": _batch_codec,
    "cluster.router.owner_ns": _router_owner,
    "replication.leader_put_overhead_us": _leader_put_overhead,
    "sim.scheduler.switches_per_wall_s": _scheduler_switches,
}
