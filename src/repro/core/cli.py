"""Command-line interface.

Mirrors the YCSB client invocation from the paper's Listing 1::

    ycsbt run -db raw_http -P workloads/closed_economy_workload \\
        -p http.port=8001 -threads 16

Sub-commands:

* ``load`` / ``run`` — execute the load phase or the transaction phase of
  a workload against a DB binding, then the validation stage, and print
  the measurement report (Listing 3 format by default).
* ``serve`` — start the HTTP key-value server (the store side of the
  paper's §V-C setup) and block until interrupted.
* ``experiment`` — regenerate a paper figure/table and print its series.
* ``sim`` — seed-sweep campaign in virtual time: run the Closed Economy
  Workload under deterministic simulation across many seeds and fault
  schedules, hunting for consistency violations; violating seeds are
  written out as replayable JSON trace artifacts.
* ``synth`` — statistical workload synthesis: compile declarative
  scenarios (time-varying arrival curves, drifting hot-key skew,
  multi-tenant mixes under token-bucket ceilings) into deterministic
  million-user virtual-time campaigns with conformance assertions;
  failing seeds emit replayable trace artifacts.
* ``crash`` — crash-recovery campaign: kill simulated clients at named
  crashpoints mid-protocol, let lock leases expire, run the transaction
  scavenger, and re-validate the Closed Economy invariants; violating
  seeds emit the same replayable trace artifacts.
* ``cluster`` — multi-shard campaign: run the CEW against N live HTTP
  shard servers (raw operations routed by the shard map, transactions
  committing via cross-shard 2PC), kill one shard mid-run, recover via
  coordinator-WAL replay + scavenging, and re-validate.
* ``replication`` — leader-follower campaign: run the CEW through the
  consistency-routed store against a leader + N follower HTTP nodes,
  kill the leader mid-run, fail over on the lease (clean drain of the
  dead leader's durable log), rejoin it, and re-validate; strong and
  read_your_writes must balance the economy, bounded_staleness reports
  its expected leak.
* ``exp`` — declarative experiments: ``exp run`` executes a spec
  (built-in name or JSON/TOML file) N times and aggregates every metric
  into mean / stddev / 95 % confidence intervals (the extended
  ``BENCH_*.json`` shape); ``exp diff`` compares two trajectories
  significance-aware and exits non-zero on a regression; ``exp list``
  prints the built-in catalogue.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from collections.abc import Sequence

from ..measurements.exporters import (
    CsvExporter,
    JsonExporter,
    JsonLinesExporter,
    TextExporter,
)
from ..measurements.registry import Measurements
from .client import Client
from .closed_economy import ClosedEconomyWorkload
from .core_workload import CoreWorkload
from .db import create_db
from .properties import Properties, load_properties
from .workload import Workload

__all__ = ["main", "build_parser"]

def _anomaly_workload(name: str):
    from .. import workloads

    return getattr(workloads, name)


_WORKLOAD_ALIASES = {
    "core": CoreWorkload,
    "closed_economy": ClosedEconomyWorkload,
    "cew": ClosedEconomyWorkload,
    # Anomaly-targeting workloads (§VII future work).
    "lost_update": lambda: _anomaly_workload("LostUpdateWorkload")(),
    "write_skew": lambda: _anomaly_workload("WriteSkewWorkload")(),
    "read_skew": lambda: _anomaly_workload("ReadSkewWorkload")(),
    # Java-style names from YCSB property files, for drop-in compatibility.
    "com.yahoo.ycsb.workloads.coreworkload": CoreWorkload,
    "com.yahoo.ycsb.workloads.closedeconomyworkload": ClosedEconomyWorkload,
}

_NO_TRACE_HELP = (
    "skip operation-interleaving capture (faster, artifacts carry no trace)"
)

_EXPORTERS = {
    "text": TextExporter,
    "json": JsonExporter,
    "jsonl": JsonLinesExporter,
    "csv": CsvExporter,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ycsbt",
        description="YCSB+T: benchmark framework for transactional key-value stores",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    phase_help = {
        "load": "execute the load phase",
        "run": "execute the transaction phase",
        "bench": "load then run in one process (required for in-process "
        "bindings like 'memory', whose data dies with the process)",
    }
    for phase in ("load", "run", "bench"):
        sub = commands.add_parser(phase, help=phase_help[phase])
        sub.add_argument(
            "-db",
            "--db",
            default="basic",
            help="DB binding: alias (memory, lsm, cloud, raw_http, txn, basic) "
            "or dotted class path",
        )
        sub.add_argument(
            "-P",
            "--property-file",
            action="append",
            default=[],
            help="workload property file (repeatable; later files override)",
        )
        sub.add_argument(
            "-p",
            "--property",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="property override (repeatable)",
        )
        sub.add_argument("-threads", "--threads", type=int, default=None)
        sub.add_argument(
            "-target", "--target", type=float, default=None, help="target ops/sec"
        )
        sub.add_argument(
            "--export", choices=sorted(_EXPORTERS), default="text", help="report format"
        )
        sub.add_argument(
            "-s",
            "--status",
            action="store_true",
            help="print interval status lines (ops done, current ops/sec, "
            "interval p95/p99 per operation) to stderr while running; "
            "window size via -p status.interval=SECONDS",
        )
        sub.add_argument(
            "--coordinator",
            default=None,
            metavar="HOST:PORT",
            help="multi-client coordination service: register, take a "
            "keyspace slice, rendezvous at phase barriers, report results",
        )
        sub.add_argument(
            "--processes",
            type=int,
            default=None,
            metavar="N",
            help="scale out across N worker processes (spawned and "
            "coordinated automatically; requires an HTTP binding such as "
            "raw_http or txn_http with http.port set).  operationcount "
            "is per worker; recordcount is sharded across workers",
        )

    coordinate = commands.add_parser(
        "coordinate", help="run the multi-client coordination service"
    )
    coordinate.add_argument("--clients", type=int, required=True,
                            help="number of benchmark clients to expect")
    coordinate.add_argument("--host", default="127.0.0.1")
    coordinate.add_argument("--port", type=int, default=9462)

    serve = commands.add_parser("serve", help="run the HTTP key-value server")
    serve.add_argument("--store", choices=("memory", "lsm"), default="memory")
    serve.add_argument("--dir", default=None, help="data directory (lsm store)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8001)

    experiment = commands.add_parser("experiment", help="regenerate a paper figure")
    experiment.add_argument(
        "name",
        choices=(
            "fig2",
            "fig2mp",
            "fig3",
            "fig4",
            "fig5",
            "sim_figure2",
            "tier5",
            "tier6",
            "ablation",
            "isolation",
            "all",
        ),
    )
    experiment.add_argument(
        "--full", action="store_true", help="longer, lower-noise runs"
    )

    from ..sim.campaign import FAULT_SCHEDULES, SIM_BINDINGS

    sim = commands.add_parser(
        "sim",
        help="seed-sweep campaign in virtual time: hunt for consistency "
        "violations and emit replayable traces",
    )
    _add_sweep_args(sim, default_seeds=20)
    sim.add_argument(
        "--db",
        action="append",
        choices=SIM_BINDINGS,
        default=None,
        help="binding to sweep (repeatable) [both]",
    )
    sim.add_argument(
        "--schedule",
        action="append",
        choices=sorted(FAULT_SCHEDULES),
        default=None,
        help="fault schedule to sweep (repeatable) [baseline]",
    )
    sim.add_argument("--no-trace", action="store_true", help=_NO_TRACE_HELP)

    synth = commands.add_parser(
        "synth",
        help="statistical workload-synthesis campaign: compile declarative "
        "scenarios (diurnal curves, flash crowds, drifting hot sets, "
        "multi-tenant mixes) into deterministic virtual-time runs",
    )
    _add_sweep_args(synth, default_seeds=5, overrides=False)
    synth.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="built-in scenario to sweep (repeatable) [steady]; "
        "see 'ycsbt synth --list'",
    )
    synth.add_argument(
        "--spec",
        action="append",
        default=None,
        metavar="FILE",
        help="synth spec file (.json/.toml) to sweep (repeatable)",
    )
    synth.add_argument(
        "--db",
        action="append",
        choices=("raw", "txn"),
        default=None,
        help="binding to sweep (repeatable) [each spec's own]",
    )
    synth.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override every spec's simulated duration",
    )
    synth.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )

    from ..recovery.campaign import CRASH_BINDINGS, CRASH_SCHEDULES

    crash = commands.add_parser(
        "crash",
        help="crash-recovery campaign: kill clients at scheduled "
        "crashpoints, scavenge, re-validate the CEW invariants",
    )
    _add_sweep_args(crash, default_seeds=10)
    crash.add_argument(
        "--db",
        action="append",
        choices=CRASH_BINDINGS,
        default=None,
        help="binding to sweep (repeatable) [raw and txn]",
    )
    crash.add_argument(
        "--schedule",
        action="append",
        choices=sorted(CRASH_SCHEDULES) + ["seeded"],
        default=None,
        help="crash schedule to sweep (repeatable; 'seeded' derives one "
        "from each seed) [prewrite, primary-commit, mid-secondary, worker-kill]",
    )
    crash.add_argument("--no-trace", action="store_true", help=_NO_TRACE_HELP)

    from ..cluster.campaign import CLUSTER_BINDINGS

    cluster = commands.add_parser(
        "cluster",
        help="multi-shard cluster campaign: run CEW over N HTTP shards "
        "with cross-shard 2PC, kill one shard mid-run, recover "
        "(WAL replay + scavenge), re-validate",
    )
    _add_sweep_args(cluster, default_seeds=3)
    cluster.add_argument(
        "--shards",
        action="append",
        type=int,
        default=None,
        metavar="N",
        help="shard count to sweep (repeatable) [4]",
    )
    cluster.add_argument(
        "--db",
        action="append",
        choices=CLUSTER_BINDINGS,
        default=None,
        help="binding to sweep (repeatable) [raw and txn]",
    )
    cluster.add_argument(
        "--no-kill",
        action="store_true",
        help="run fault-free (no shard is killed mid-run)",
    )

    from ..replication.campaign import REPLICATION_LEVELS

    replication = commands.add_parser(
        "replication",
        help="leader-follower replication campaign: run CEW through the "
        "routed store at one or more consistency levels, kill the "
        "leader mid-run, fail over on the lease, rejoin, re-validate",
    )
    _add_sweep_args(replication, default_seeds=3)
    replication.add_argument(
        "--level",
        action="append",
        choices=REPLICATION_LEVELS,
        default=None,
        help="consistency level to sweep (repeatable) [all three]",
    )
    replication.add_argument(
        "--followers", type=int, default=2, help="follower count [2]"
    )
    replication.add_argument(
        "--no-kill",
        action="store_true",
        help="run fault-free (the leader survives the whole run)",
    )

    replicated = commands.add_parser(
        "replicated-cluster",
        help="replicated shard cluster campaign: every shard a replica set "
        "of HTTP nodes with durable follower logs, kill one shard's "
        "leader mid-run, fail over on the lease, rejoin, replay the "
        "coordinator WAL through the new leader, re-validate",
    )
    _add_sweep_args(replicated, default_seeds=3)
    replicated.add_argument(
        "--shards",
        action="append",
        type=int,
        default=None,
        metavar="N",
        help="shard count to sweep (repeatable) [2]",
    )
    replicated.add_argument(
        "--followers", type=int, default=2, help="followers per shard [2]"
    )
    replicated.add_argument(
        "--level",
        choices=("strong", "quorum", "read_your_writes", "bounded_staleness"),
        default="strong",
        help="read consistency for the raw binding's routed store [strong]",
    )
    replicated.add_argument(
        "--db",
        action="append",
        choices=CLUSTER_BINDINGS,
        default=None,
        help="binding to sweep (repeatable) [raw and txn]",
    )
    replicated.add_argument(
        "--no-kill",
        action="store_true",
        help="run fault-free (every shard leader survives the whole run)",
    )

    exp = commands.add_parser(
        "exp",
        help="declarative experiments: run specs with N repetitions, "
        "aggregate confidence intervals, diff trajectories",
    )
    exp_commands = exp.add_subparsers(dest="exp_command", required=True)

    exp_run = exp_commands.add_parser(
        "run", help="run a spec (built-in name or .json/.toml file) N times"
    )
    exp_run.add_argument(
        "spec", help="built-in spec name (see 'exp list') or path to a "
        ".json/.toml spec file"
    )
    exp_run.add_argument(
        "--reps", type=int, default=None, help="override the spec's repetitions"
    )
    exp_run.add_argument(
        "--seed", type=int, default=None, help="override the spec's base seed"
    )
    exp_run.add_argument(
        "--full", action="store_true", help="longer, lower-noise runs"
    )
    exp_run.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for the aggregated BENCH_<name>.json trajectory",
    )
    exp_run.add_argument(
        "--json",
        action="store_true",
        help="print the BENCH json document to stdout instead of the table",
    )

    exp_diff = exp_commands.add_parser(
        "diff",
        help="compare two BENCH trajectories; exit 1 on a significant "
        "regression (CIs disjoint AND effect >= --min-effect; single-run "
        "legacy documents use --legacy-threshold)",
    )
    exp_diff.add_argument("old", help="baseline BENCH_*.json (v1 or v2 schema)")
    exp_diff.add_argument("new", help="fresh BENCH_*.json (v1 or v2 schema)")
    exp_diff.add_argument(
        "--min-effect",
        type=float,
        default=0.05,
        help="minimum relative change to flag when both sides carry "
        "confidence intervals [0.05]",
    )
    exp_diff.add_argument(
        "--legacy-threshold",
        type=float,
        default=0.25,
        help="relative-change threshold when either side is a single run "
        "with no variance information [0.25]",
    )
    exp_diff.add_argument(
        "--json", action="store_true", help="print the machine-readable diff"
    )

    exp_commands.add_parser("list", help="list built-in specs and runners")
    return parser


def _add_sweep_args(
    parser: argparse.ArgumentParser, default_seeds: int, overrides: bool = True
) -> None:
    """The flags every campaign shares (``synth`` takes no ``-p``)."""
    parser.add_argument(
        "--seeds",
        type=int,
        default=default_seeds,
        help=f"number of seeds to sweep [{default_seeds}]",
    )
    parser.add_argument(
        "--start-seed", type=int, default=0, help="first seed of the sweep [0]"
    )
    if overrides:
        parser.add_argument(
            "-p",
            "--property",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="workload property override (repeatable)",
        )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for violation trace artifacts (none written without it)",
    )


def _parse_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in args.property:
        key, separator, value = pair.partition("=")
        if not separator:
            raise SystemExit(f"bad -p argument {pair!r}: expected KEY=VALUE")
        overrides[key.strip()] = value.strip()
    return overrides


def _gather_properties(args: argparse.Namespace) -> Properties:
    properties = Properties()
    for path in args.property_file:
        properties.update(load_properties(path))
    for key, value in _parse_overrides(args).items():
        properties.set(key, value)
    if args.threads is not None:
        properties.set("threadcount", args.threads)
    if args.target is not None:
        properties.set("target", args.target)
    return properties


def _build_workload(properties: Properties) -> Workload:
    name = properties.get_str("workload", "core")
    workload_class = _WORKLOAD_ALIASES.get(name.lower())
    if workload_class is None:
        # Dotted python path fallback.
        import importlib

        module_name, _, class_name = name.rpartition(".")
        if not module_name:
            raise SystemExit(f"unknown workload {name!r}")
        workload_class = getattr(importlib.import_module(module_name), class_name)
    return workload_class()


def _parse_host_port(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad address {value!r}: expected HOST:PORT")
    return host, int(port)


_HTTP_BINDINGS = frozenset({"raw_http", "rawhttp", "txn_http", "txnhttp"})


def _run_scaleout_phase(args: argparse.Namespace, phase: str) -> int:
    """Drive ``--processes N``: spawn workers, merge, print one report."""
    from ..scaleout import ScaleoutSpec, run_scaleout

    if args.coordinator:
        raise SystemExit(
            "--processes embeds its own coordinator; it cannot be combined "
            "with --coordinator"
        )
    if args.db not in _HTTP_BINDINGS:
        raise SystemExit(
            f"--processes requires an HTTP binding ({', '.join(sorted(_HTTP_BINDINGS))}); "
            f"got {args.db!r}"
        )
    properties = _gather_properties(args)
    host = properties.get_str("http.host", "127.0.0.1")
    port = properties.get_int("http.port", 0)
    if port == 0:
        raise SystemExit("--processes needs http.port pointing at a running server")

    phases = ("load", "run") if phase == "bench" else (phase,)
    spec = ScaleoutSpec(
        processes=args.processes,
        db=args.db,
        properties=dict(properties.as_dict()),
        phases=phases,
        store_address=(host, port),
    )
    result = run_scaleout(spec)

    exporter = _EXPORTERS[args.export]()
    final = result.run if result.run is not None else result.load
    if final is None:
        for error in result.worker_errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    # The merged result carries the parent's authoritative validation.
    final.validation = result.validation
    sys.stdout.write(exporter.export(final.report()))
    for error in result.worker_errors:
        print(f"error: {error}", file=sys.stderr)
    if result.worker_errors:
        return 1
    if result.validation is not None and not result.validation.passed:
        return 1
    return 0


def _run_phase(args: argparse.Namespace, phase: str) -> int:
    if getattr(args, "processes", None):
        return _run_scaleout_phase(args, phase)
    properties = _gather_properties(args)

    coordinator = None
    if getattr(args, "coordinator", None):
        from ..coordination import CoordinatorClient

        coordinator = CoordinatorClient(_parse_host_port(args.coordinator))
        index, expected = coordinator.register()
        start, count = CoordinatorClient.keyspace_slice(
            index, expected, properties.get_int("recordcount", 1000)
        )
        # Each client loads its own contiguous slice; the transaction
        # phase runs over the whole key space (insertcount stays sliced
        # only during the load).
        if phase in ("load", "bench"):
            properties.set("insertstart", start)
            properties.set("insertcount", count)
        print(
            f"coordinated as client {index + 1}/{expected}: "
            f"keys [{start}, {start + count})",
            file=sys.stderr,
        )

    if args.status:
        # The client owns the live status thread (interval ops/sec and
        # per-operation p95/p99 to stderr); the flag is just a property.
        properties.set("status", "true")

    measurements = Measurements.from_properties(properties)
    workload = _build_workload(properties)
    workload.init(properties, measurements)

    def db_factory():
        return create_db(args.db, properties)

    client = Client(workload, db_factory, properties, measurements)

    try:
        if phase == "bench":
            if coordinator is not None:
                coordinator.wait_barrier("load-start")
            load_result = client.load()
            if coordinator is not None:
                coordinator.submit_result("load", load_result)
                coordinator.wait_barrier("run-start")
            result = client.run()
        elif phase == "load":
            if coordinator is not None:
                coordinator.wait_barrier("load-start")
            result = client.load()
        else:
            if coordinator is not None:
                coordinator.wait_barrier("run-start")
            result = client.run()
    finally:
        workload.cleanup()

    if coordinator is not None:
        coordinator.submit_result(phase if phase != "bench" else "run", result)

    exporter = _EXPORTERS[args.export]()
    sys.stdout.write(exporter.export(result.report()))
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)
    if result.validation is not None and not result.validation.passed:
        return 1
    return 0


def _coordinate(args: argparse.Namespace) -> int:
    from ..coordination import CoordinationServer

    server = CoordinationServer(args.clients, host=args.host, port=args.port)
    server.start()
    host, port = server.address
    print(
        f"coordinating {args.clients} clients on http://{host}:{port} "
        f"(Ctrl-C to stop; pass --coordinator {host}:{port} to each client)"
    )
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        while not stop.wait(2.0):
            summary = server.state.summary()
            if summary["reports"]:
                print(
                    f"[coordinator] reports={summary['reports']} "
                    f"total throughput={summary['total_throughput']:,.0f} ops/s",
                    file=sys.stderr,
                )
    finally:
        summary = server.state.summary()
        if summary["reports"]:
            print(json.dumps(summary, indent=2))
        server.stop()
    return 0


def _serve(args: argparse.Namespace) -> int:
    from ..http.server import KVStoreHTTPServer
    from ..kvstore.lsm import LSMKVStore
    from ..kvstore.memory import InMemoryKVStore

    if args.store == "lsm":
        if not args.dir:
            raise SystemExit("--dir is required for the lsm store")
        store = LSMKVStore(args.dir)
    else:
        store = InMemoryKVStore()
    server = KVStoreHTTPServer(store, host=args.host, port=args.port)
    server.start()
    host, port = server.address
    print(f"serving {args.store} store on http://{host}:{port} (Ctrl-C to stop)")
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    stop.wait()
    server.stop()
    store.close()
    return 0


def _experiment(args: argparse.Namespace) -> int:
    from .. import harness
    from ..harness.report import render_experiment

    runners = {
        "fig2": (harness.fig2_cloud_scaling, "threads"),
        "fig2mp": (harness.figure2_multiprocess, "processes"),
        "fig3": (harness.fig3_transaction_overhead, "threads"),
        "fig4": (harness.fig4_anomaly_score, "threads"),
        "fig5": (harness.fig5_raw_scaling, "threads"),
        "sim_figure2": (harness.sim_figure2, "threads"),
        "tier5": (harness.tier5_operation_overhead, "threads"),
        "tier6": (harness.tier6_consistency, "threads"),
        "isolation": (harness.isolation_matrix, "threads"),
        "ablation": (harness.ablation_coordinators, "oracle RPC delay (ms)"),
    }
    names = list(runners) if args.name == "all" else [args.name]
    for name in names:
        runner, x_label = runners[name]
        result = runner(quick=not args.full)
        sys.stdout.write(render_experiment(result, x_label=x_label))
        sys.stdout.write("\n")
    return 0


def _seeds(args: argparse.Namespace) -> range:
    if args.seeds < 1:
        raise SystemExit(f"--seeds must be >= 1, got {args.seeds}")
    return range(args.start_seed, args.start_seed + args.seeds)


def _axis(values, default: tuple) -> tuple:
    """A repeatable flag's values, duplicates dropped, or ``default``."""
    return tuple(dict.fromkeys(values)) if values else default


def _shard_counts(args: argparse.Namespace, default: int) -> tuple[int, ...]:
    shard_counts = _axis(args.shards, (default,))
    if any(count < 1 for count in shard_counts):
        raise SystemExit(f"--shards must be >= 1, got {shard_counts}")
    return shard_counts


def _followers(args: argparse.Namespace) -> int:
    if args.followers < 1:
        raise SystemExit(f"--followers must be >= 1, got {args.followers}")
    return args.followers


def _finish(campaign) -> int:
    """Print the summary and artifact paths; exit 1 iff a run fails.

    Which violations fail is the result type's rule (its ``fails``): a
    raw binding leaking money is a finding, not a bug.
    """
    print(campaign.summary())
    for artifact in campaign.artifacts:
        print(f"violation trace: {artifact}")
    for run in campaign.failures:
        print(f"error: {run.failure()}", file=sys.stderr)
    return 1 if campaign.failures else 0


def _sweep(args: argparse.Namespace, axes, run) -> int:
    from ..campaign import sweep

    return _finish(
        sweep(
            axes,
            _seeds(args),
            run,
            out_dir=args.out,
            on_result=lambda result: print(result.summary_line(), file=sys.stderr),
        )
    )


def _sim(args: argparse.Namespace) -> int:
    from ..sim.campaign import SIM_BINDINGS, run_sim

    overrides = _parse_overrides(args)
    return _sweep(
        args,
        [_axis(args.schedule, ("baseline",)), _axis(args.db, SIM_BINDINGS)],
        lambda schedule, binding, seed: run_sim(
            binding, overrides, seed, schedule, trace=not args.no_trace
        ),
    )


def _synth(args: argparse.Namespace) -> int:
    from ..synth import SCENARIOS, load_synth_spec, scenario_names
    from ..synth.engine import run_synth

    if args.list:
        for name in scenario_names():
            print(f"{name:<18} {SCENARIOS[name].description}")
        return 0
    sources = list(args.scenario or []) + list(args.spec or []) or ["steady"]
    specs = [load_synth_spec(source) for source in dict.fromkeys(sources)]
    if args.duration is not None:
        specs = [spec.with_overrides(duration_s=args.duration) for spec in specs]
    # No --db: each spec runs on its own binding.
    return _sweep(
        args,
        [specs, _axis(args.db, (None,))],
        lambda spec, binding, seed: run_synth(spec, binding=binding, seed=seed),
    )


def _crash(args: argparse.Namespace) -> int:
    from ..recovery.campaign import run_crash

    overrides = _parse_overrides(args)
    schedules = _axis(
        args.schedule, ("prewrite", "primary-commit", "mid-secondary", "worker-kill")
    )
    return _sweep(
        args,
        [schedules, _axis(args.db, ("raw", "txn"))],
        lambda schedule, binding, seed: run_crash(
            binding, overrides, seed, schedule, trace=not args.no_trace
        ),
    )


def _cluster(args: argparse.Namespace) -> int:
    from ..cluster.campaign import run_cluster

    overrides = _parse_overrides(args)
    return _sweep(
        args,
        [_shard_counts(args, 4), _axis(args.db, ("raw", "txn"))],
        lambda shards, binding, seed: run_cluster(
            binding, shards, overrides, seed, kill=not args.no_kill
        ),
    )


def _replicated_cluster(args: argparse.Namespace) -> int:
    from ..cluster.replicated_campaign import run_replicated_cluster

    followers = _followers(args)
    overrides = _parse_overrides(args)
    return _sweep(
        args,
        [_shard_counts(args, 2), _axis(args.db, ("raw", "txn"))],
        lambda shards, binding, seed: run_replicated_cluster(
            binding, shards, followers, args.level, overrides, seed,
            kill=not args.no_kill,
        ),
    )


def _replication(args: argparse.Namespace) -> int:
    from ..replication.campaign import REPLICATION_LEVELS, run_replication

    followers = _followers(args)
    overrides = _parse_overrides(args)
    return _sweep(
        args,
        [_axis(args.level, REPLICATION_LEVELS)],
        lambda level, seed: run_replication(
            level, seed, followers, overrides, kill=not args.no_kill
        ),
    )


def _exp(args: argparse.Namespace) -> int:
    from ..experiments import SpecValidationError

    try:
        if args.exp_command == "run":
            return _exp_run(args)
        if args.exp_command == "diff":
            return _exp_diff(args)
        if args.exp_command == "list":
            return _exp_list(args)
    except SpecValidationError as exc:
        raise SystemExit(f"spec error: {exc}") from None
    raise AssertionError(f"unhandled exp command {args.exp_command!r}")


def _exp_run(args: argparse.Namespace) -> int:
    from ..experiments import (
        load_spec,
        render_aggregate_text,
        render_bench_json,
        run_spec,
        write_bench,
    )

    if args.reps is not None and args.reps < 1:
        raise SystemExit(f"--reps must be >= 1, got {args.reps}")
    spec = load_spec(args.spec).with_overrides(
        repetitions=args.reps,
        seed=args.seed,
        quick=False if args.full else None,
    )

    def progress(index: int, seed: int, result) -> None:
        print(
            f"[exp] {spec.name} repetition {index + 1}/{spec.repetitions} "
            f"(seed {seed}) done",
            file=sys.stderr,
        )

    aggregate = run_spec(spec, on_repetition=progress)
    if args.json:
        sys.stdout.write(render_bench_json(aggregate) + "\n")
    else:
        sys.stdout.write(render_aggregate_text(aggregate))
    if args.out:
        path = write_bench(aggregate, args.out)
        print(f"[exp] wrote {path}", file=sys.stderr)
    return 0


def _exp_diff(args: argparse.Namespace) -> int:
    from ..experiments import compare_views, load_bench

    try:
        old = load_bench(args.old)
        new = load_bench(args.new)
        diff = compare_views(
            old,
            new,
            min_effect=args.min_effect,
            legacy_threshold=args.legacy_threshold,
        )
    except ValueError as exc:
        raise SystemExit(f"diff error: {exc}") from None
    if args.json:
        sys.stdout.write(json.dumps(diff.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(diff.render())
    return 0 if diff.passed else 1


def _exp_list(args: argparse.Namespace) -> int:
    from ..experiments import BUILTIN_SPECS, RUNNERS

    print("built-in specs:")
    for name, spec in sorted(BUILTIN_SPECS.items()):
        deterministic = " [deterministic]" if spec.deterministic else ""
        print(
            f"  {name:<18} runner={spec.runner:<12} reps={spec.repetitions} "
            f"seed={spec.seed}{deterministic}"
        )
        if spec.description:
            print(f"                     {spec.description}")
    print("runners:")
    for name, info in sorted(RUNNERS.items()):
        print(f"  {name:<18} engine={info.engine:<9} {info.description}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("load", "run", "bench"):
        return _run_phase(args, args.command)
    if args.command == "serve":
        return _serve(args)
    if args.command == "coordinate":
        return _coordinate(args)
    if args.command == "experiment":
        return _experiment(args)
    if args.command == "sim":
        return _sim(args)
    if args.command == "synth":
        return _synth(args)
    if args.command == "crash":
        return _crash(args)
    if args.command == "cluster":
        return _cluster(args)
    if args.command == "replicated-cluster":
        return _replicated_cluster(args)
    if args.command == "replication":
        return _replication(args)
    if args.command == "exp":
        return _exp(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
