"""The eight workloads: what each one builds, and why it is here.

Every topology is assembled from the program's public constructors, exactly
as the bindings (``MemoryDB``, ``TxnDB``, ``RawHttpDB``, ``HttpTxnDB``),
``ShardCluster.manager_for_wal`` and ``examples/closed_economy.py`` assemble
them, with one difference: each object a layer is handed passes through the
tracer first.  With :class:`~ledger.spans.NullTracer` that is the identity, so
the untraced and the traced run share one code path here.

Sizes are the issue's sizes multiplied by one common factor (about a fifth) so
that the driver's 180 runs fit its time cap; timed phases are sized in seconds
by the harness, not here.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.bindings.kv import KVStoreDB
from repro.bindings.stores import wrap_store
from repro.bindings.txn import TxnDB
from repro.cluster.cluster import ShardCluster
from repro.cluster.replicated import ReplicatedShardHttpCluster
from repro.cluster.twopc import TwoPCManager
from repro.cluster.wal import CoordinatorWAL
from repro.core.closed_economy import ClosedEconomyWorkload
from repro.core.properties import Properties
from repro.http.batching import BatchingKVStore
from repro.http.client import HttpKVStore
from repro.http.server import KVStoreHTTPServer
from repro.kvstore.lsm import LSMKVStore
from repro.kvstore.memory import InMemoryKVStore
from repro.sim.scheduler import SimClock
from repro.txn.manager import ClientTransactionManager

__all__ = ["LaneCEW", "Spec", "Stack", "SPECS", "base_properties"]

BATCH = 100


class LaneCEW(ClosedEconomyWorkload):
    """CEW whose client threads draw keys from disjoint lanes.

    Thread ``t`` of ``n`` only touches accounts whose number is ``t`` modulo
    ``n``, so two clients never write the same account: no conflict abort, no
    lost update, and therefore no failed operation and gamma == 0 on every
    workload, racing ones included.  The benchmark driver wants workloads on
    which no operation fails; plain CEW at two clients aborts 0.2-0.8 % of its
    operations on the three transactional HTTP workloads (README, "LaneCEW").
    With one client the mapping is the identity.

    Validation is off unless armed: the client validates after every phase, a
    full-table scan the harness wants once, at the end.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lane = threading.local()
        self.validation_armed = False

    def init_thread(self, thread_id: int, thread_count: int):
        if self.record_count % thread_count:
            raise ValueError("recordcount must be a multiple of the client count")
        self._lane.index = thread_id
        self._lane.count = thread_count
        return super().init_thread(thread_id, thread_count)

    def next_key_number(self) -> int:
        number = super().next_key_number()
        lane = self._lane
        return number - number % lane.count + lane.index

    def validate(self, db):
        return super().validate(db) if self.validation_armed else None


@dataclass
class Stack:
    """One started topology, ready for a client."""

    properties: Properties
    db_factory: Callable[[], object]
    record_count: Callable[[], int]
    close: Callable[[], None]
    #: DB factory for the load phase when it differs (batched HTTP loads).
    load_factory: Callable[[], object] | None = None
    #: installed as the ambient clock around every phase (``sim_txn``).
    clock: SimClock | None = None
    #: reopen the data directory after ``close`` and return a DB factory over
    #: what is on disk alone (``http_txn_durable``).
    reopen: Callable[[], tuple[Callable[[], object], Callable[[], int], Callable[[], None]]] | None = None
    #: objects the per-layer metrics read counters from.
    servers: list = field(default_factory=list)
    http_clients: list = field(default_factory=list)
    lsm: LSMKVStore | None = None
    data_dir: Path | None = None
    repl_dir: Path | None = None
    manager: object | None = None
    cluster: object | None = None


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    clients: int
    records: int
    warmup: int  # operations (records on a load workload) run before timing
    read_share: float
    build: Callable[["Spec", int, object, Path], Stack]
    phase: str = "run"
    isolated: tuple[str, ...] = ()


def base_properties(spec: Spec, seed: int, **extra) -> Properties:
    values = {
        "recordcount": spec.records,
        "totalcash": spec.records * 100,
        "readproportion": spec.read_share,
        "readmodifywriteproportion": round(1.0 - spec.read_share, 6),
        "updateproportion": 0,
        "requestdistribution": "zipfian",
        "fieldcount": 1,
        "fieldlength": 100,
        "threadcount": spec.clients,
        "seed": seed,
        "workload.seed": seed,
        "measurementtype": "hdrhistogram",
        "hdrhistogram.digits": 2,
    }
    values.update(extra)
    return Properties({key: str(value) for key, value in values.items()})


def _nothing() -> None:
    pass


def _stop_all(servers) -> None:
    """Stop HTTP servers side by side: each ``stop`` waits out its accept
    loop's half-second poll, which adds up over a six-node cluster."""
    stoppers = [threading.Thread(target=server.stop) for server in servers]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join()


# -- in-memory ------------------------------------------------------------------------


def _mem_raw(spec: Spec, seed: int, tracer, workdir: Path) -> Stack:
    properties = base_properties(spec, seed)
    raw = InMemoryKVStore()
    store = tracer.store(raw, "kvstore.memory")
    return Stack(
        properties,
        lambda: tracer.db(KVStoreDB(store, properties), "bindings.kv"),
        raw.size,
        _nothing,
    )


def _mem_txn(spec: Spec, seed: int, tracer, workdir: Path) -> Stack:
    properties = base_properties(spec, seed)
    raw = InMemoryKVStore()
    store = tracer.store(raw, "kvstore.memory")
    manager = ClientTransactionManager({"default": store})
    traced = tracer.manager(manager, "txn.manager")
    return Stack(
        properties,
        lambda: tracer.db(TxnDB(properties, manager=traced), "bindings.txn"),
        raw.size,
        _nothing,
        manager=manager,
    )


def _sim_txn(spec: Spec, seed: int, tracer, workdir: Path) -> Stack:
    properties = base_properties(
        spec,
        seed,
        **{"latency.read_ms": 1, "latency.write_ms": 2, "latency.model": "lognormal"},
    )
    raw = InMemoryKVStore()
    # The outer proxy sees the injected latency, i.e. the time a simulated
    # client spends parked while the scheduler runs the others.
    store = tracer.store(
        wrap_store(tracer.store(raw, "kvstore.memory"), properties), "sim.wait"
    )
    manager = ClientTransactionManager({"default": store}, client_id=f"sim{seed}")
    traced = tracer.manager(manager, "txn.manager")
    return Stack(
        properties,
        lambda: tracer.db(TxnDB(properties, manager=traced), "bindings.txn"),
        raw.size,
        _nothing,
        clock=SimClock(),
        manager=manager,
    )


# -- one HTTP server over the LSM engine ---------------------------------------------


def _lsm_server(tracer, workdir: Path, **lsm_options):
    data_dir = workdir / "lsm"
    lsm = LSMKVStore(data_dir, **lsm_options)
    server = KVStoreHTTPServer(tracer.store(lsm, "kvstore.lsm", server=True)).start()
    return data_dir, lsm, server


def _http_properties(spec: Spec, seed: int, server) -> Properties:
    host, port = server.address
    return base_properties(spec, seed, **{"http.host": host, "http.port": port})


def _raw_http_stack(spec: Spec, seed: int, tracer, workdir: Path, **lsm_options) -> Stack:
    data_dir, lsm, server = _lsm_server(tracer, workdir, **lsm_options)
    properties = _http_properties(spec, seed, server)
    clients: list[HttpKVStore] = []

    def factory(batched: bool):
        # What RawHttpDB builds per client thread: its own pooled HTTP client,
        # behind a write-behind batcher when http.batchsize > 1.
        client = HttpKVStore(server.address)
        clients.append(client)
        store = tracer.store(client, "http", remote=True)
        if batched:
            store = BatchingKVStore(store, batch_size=BATCH)
        return tracer.db(KVStoreDB(store, properties), "bindings.kv")

    def close() -> None:
        for client in clients:
            client.close()
        server.stop()
        lsm.close()

    return Stack(
        properties.merged({"batchsize": str(BATCH)}),
        lambda: factory(False),
        lsm.size,
        close,
        load_factory=lambda: factory(True),
        servers=[server],
        http_clients=clients,
        lsm=lsm,
        data_dir=data_dir,
    )


def _http_raw_read(spec: Spec, seed: int, tracer, workdir: Path) -> Stack:
    # A quarter-MiB memtable keeps the paper's shape at a quarter of its size:
    # the table is several memtables large, so reads come from segments.
    return _raw_http_stack(spec, seed, tracer, workdir, memtable_bytes=1 << 18)


def _http_txn_durable(spec: Spec, seed: int, tracer, workdir: Path) -> Stack:
    data_dir, lsm, server = _lsm_server(tracer, workdir, sync_writes=True)
    properties = _http_properties(spec, seed, server)
    # What HttpTxnDB builds: one pooled client and one manager for all threads.
    client = HttpKVStore(server.address)
    manager = ClientTransactionManager({"default": tracer.store(client, "http", remote=True)})
    traced = tracer.manager(manager, "txn.manager")

    def close() -> None:
        client.close()
        server.stop()
        lsm.close()

    def reopen():
        reopened = LSMKVStore(data_dir, sync_writes=True)
        on_disk = ClientTransactionManager({"default": reopened})
        return (lambda: TxnDB(properties, manager=on_disk)), reopened.size, reopened.close

    return Stack(
        properties,
        lambda: tracer.db(TxnDB(properties, manager=traced), "bindings.txn"),
        lsm.size,
        close,
        reopen=reopen,
        servers=[server],
        http_clients=[client],
        lsm=lsm,
        data_dir=data_dir,
        manager=manager,
    )


# -- clusters ---------------------------------------------------------------------------


def _coordinator(tracer, cluster, workdir: Path, **options) -> TwoPCManager:
    """The coordinator ``cluster.manager_for_wal`` builds, with its shard
    clients, participant stubs and WAL passed through the tracer."""
    wal = tracer.wal(CoordinatorWAL(workdir / "wal" / "coordinator.jsonl"))
    base = cluster.manager_for_wal(wal)
    names = base.store_names()
    return TwoPCManager(
        {name: tracer.store(base.store(name), "http", remote=True) for name in names},
        {name: tracer.stub(base.participant(name)) for name in names},
        wal,
        ring=base.ring,
        lock_lease_ms=base.lock_lease_ms,
        **options,
    )


def _cluster_stack(
    spec, seed, tracer, cluster, manager, record_count, servers, repl_dir=None
) -> Stack:
    properties = base_properties(spec, seed)
    traced = tracer.manager(manager, "cluster.twopc")

    def close() -> None:
        manager.wal.close()
        _stop_all(servers)
        cluster.stop()

    return Stack(
        properties,
        lambda: tracer.db(TxnDB(properties, manager=traced), "bindings.txn"),
        record_count,
        close,
        servers=servers,
        manager=manager,
        cluster=cluster,
        repl_dir=repl_dir,
    )


def _shard4_2pc(spec: Spec, seed: int, tracer, workdir: Path) -> Stack:
    cluster = ShardCluster(
        4,
        store_factory=lambda name: tracer.store(InMemoryKVStore(), "kvstore.memory", server=True),
        wal_dir=workdir / "wal",
    ).start()
    for server in cluster.servers.values():
        server.revive(participant=tracer.participant(server.participant))
    manager = _coordinator(tracer, cluster, workdir)
    return _cluster_stack(
        spec,
        seed,
        tracer,
        cluster,
        manager,
        lambda: sum(store.size() for store in cluster.stores.values()),
        list(cluster.servers.values()),
    )


def _repl_2pc(spec: Spec, seed: int, tracer, workdir: Path) -> Stack:
    cluster = ReplicatedShardHttpCluster(
        shard_count=2,
        follower_count=2,
        log_dir=workdir / "repl",
        wal_dir=workdir / "wal",
        seed=seed,
    ).start()
    leaders = {shard: cluster.leader_member(shard) for shard in cluster.shard_names}
    for shard, leader in leaders.items():
        server = cluster.servers[shard][leader]
        server.revive(participant=tracer.participant(server.participant))
    manager = _coordinator(
        tracer, cluster, workdir, participant_resolver=cluster.participant_link
    )
    return _cluster_stack(
        spec,
        seed,
        tracer,
        cluster,
        manager,
        lambda: sum(
            cluster.nodes[shard][leader].store.size() for shard, leader in leaders.items()
        ),
        [server for members in cluster.servers.values() for server in members.values()],
        repl_dir=workdir / "repl",
    )


_FRAMEWORK = (
    "generators.zipfian_next_ns",
    "core.db.measured_overhead_ns_per_call",
    "measurements.hdr_measure_ns",
)
_HTTP = ("http.server.floor_us", "http.client.get_overhead_us")

SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "mem_raw",
            "framework floor: client loop, CEW, MeasuredDB and generators do the work; no HTTP, txn or WAL",
            clients=1,
            records=10_000,
            warmup=6_000,
            read_share=0.5,
            build=_mem_raw,
            isolated=_FRAMEWORK,
        ),
        Spec(
            "mem_txn",
            "txn.manager dominates with no transport; one client, so store calls per transaction repeat exactly",
            clients=1,
            records=4_000,
            warmup=1_500,
            read_share=0.5,
            build=_mem_txn,
            isolated=_FRAMEWORK + ("txn.manager.conflict_abort_us",),
        ),
        Spec(
            "sim_txn",
            "the same txn stack under SimClock with 8 simulated clients: sim.scheduler sets simulated ops per wall second",
            clients=8,
            records=2_000,
            warmup=800,
            read_share=0.5,
            build=_sim_txn,
            isolated=("sim.scheduler.switches_per_wall_s",),
        ),
        Spec(
            "http_raw_read",
            "the paper's V-C setup: RawHttpDB over HTTP over an LSM read from segments, 90:10, GET-heavy, no txn",
            clients=2,
            records=12_000,
            warmup=600,
            read_share=0.9,
            build=_http_raw_read,
            isolated=_HTTP,
        ),
        Spec(
            "http_txn_durable",
            "client-coordinated txns over HTTP onto an fsync-per-write LSM: conditional PUTs, lock and TSR writes",
            clients=2,
            records=300,
            warmup=60,
            read_share=0.5,
            build=_http_txn_durable,
            isolated=_HTTP + ("kvstore.lsm.wal_append_sync_us",),
        ),
        Spec(
            "http_batch_load",
            "bulk load through POST /batch in 100-record batches: batch codec, LSM puts and memtable flushes, few round trips",
            clients=2,
            records=0,  # sized by the harness from the measured load rate
            warmup=6_000,
            read_share=1.0,
            build=_raw_http_stack,
            phase="load",
            isolated=("http.batch.codec_us_per_record",),
        ),
        Spec(
            "shard4_2pc",
            "cross-shard two-phase commit over 4 in-memory HTTP shards with an fsynced coordinator WAL",
            clients=2,
            records=400,
            warmup=100,
            read_share=0.5,
            build=_shard4_2pc,
            isolated=("cluster.router.owner_ns",),
        ),
        Spec(
            "repl_2pc",
            "the same 2PC over 2 shards of 1 leader + 2 followers with durable replication logs and lease renewal",
            clients=2,
            records=200,
            warmup=40,
            read_share=0.5,
            build=_repl_2pc,
            isolated=("replication.leader_put_overhead_us",),
        ),
    )
}
