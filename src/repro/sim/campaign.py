"""Seed-sweep simulation campaigns: hunt for consistency violations.

FoundationDB-style testing inverted into a benchmark tool: instead of one
stress run on wall time and luck, a campaign runs the Closed Economy
Workload M times in *virtual* time — one :class:`~repro.sim.scheduler.
SimClock` per seed — against configurable fault schedules, on both the
raw (non-transactional) binding and the transactional binding.  Each run
is a pure function of its seed, so any run whose validation stage reports
``gamma > 0`` is a *replayable* counterexample: the campaign emits the
seed, the fault schedule and the full operation interleaving as a JSON
artifact, and re-running that seed reproduces the violation event for
event.

The expected shape of a campaign: the raw binding leaks money under torn
writes and interleaved read-modify-writes (gamma > 0 on some seeds); the
transactional binding, running the paper's client-coordinated commit with
retries and verify-then-decide, scores gamma == 0 on every seed.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..bindings.kv import KVStoreDB
from ..bindings.txn import TxnDB
from ..core.client import Client
from ..core.closed_economy import ClosedEconomyWorkload
from ..core.properties import Properties
from ..core.retry import RetryPolicy
from ..kvstore.faults import FaultInjectingStore, FaultProfile
from ..kvstore.memory import InMemoryKVStore
from ..measurements.exporters import JsonLinesExporter
from ..measurements.registry import Measurements
from ..txn.manager import ClientTransactionManager
from .clock import use_clock
from .scheduler import SimClock
from .trace import SimTrace, TracingDB

__all__ = [
    "DEFAULT_SIM_PROPERTIES",
    "FAULT_SCHEDULES",
    "SIM_BINDINGS",
    "SimRunResult",
    "run_sim",
]

#: Baseline campaign workload: a small Closed Economy with every CEW
#: operation type in the mix, mid-size zipfian contention, lognormal
#: store latency (interleavings happen *inside* operations) and a retry
#: budget that absorbs transient noise without hiding torn writes.
DEFAULT_SIM_PROPERTIES: dict[str, str] = {
    "table": "usertable",
    "recordcount": "40",
    "operationcount": "400",
    "totalcash": "40000",
    "readproportion": "0.35",
    "updateproportion": "0.20",
    "insertproportion": "0.05",
    "deleteproportion": "0.05",
    "readmodifywriteproportion": "0.35",
    "requestdistribution": "zipfian",
    "fieldcount": "1",
    "threadcount": "6",
    "measurementtype": "hdrhistogram",
    "latency.read_ms": "2",
    "latency.write_ms": "3",
    "latency.model": "lognormal",
    "latency.sigma": "0.4",
    "retry.max_attempts": "8",
    "retry.base_delay_ms": "1",
    "retry.max_delay_ms": "20",
    "txn.isolation": "serializable",
    "txn.lock_lease_ms": "1000",
}

#: Named fault schedules a campaign sweeps (``fault.*`` property sets;
#: faults are enabled for the measured run phase only).
FAULT_SCHEDULES: dict[str, dict[str, str]] = {
    "baseline": {
        "fault.error_rate": "0.04",
        "fault.latency_spike_rate": "0.03",
        "fault.latency_spike_ms": "30",
        "fault.torn_write_rate": "0.03",
    },
    "torn-heavy": {
        "fault.error_rate": "0.02",
        "fault.torn_write_rate": "0.10",
    },
    "storm": {
        "fault.error_rate": "0.12",
        "fault.latency_spike_rate": "0.10",
        "fault.latency_spike_ms": "80",
        "fault.throttle_burst_rate": "0.02",
        "fault.torn_write_rate": "0.05",
    },
}

SIM_BINDINGS = ("raw", "txn")


@dataclass
class SimRunResult:
    """Everything one simulated seed produced."""

    binding: str
    seed: int
    schedule: str
    gamma: float
    passed: bool
    validation_fields: list[tuple[str, str]]
    operations: int
    failed_operations: int
    load_operations: int
    run_time_virtual_s: float
    wall_time_s: float
    events_processed: int
    counters: dict[str, int]
    report_jsonl: str
    properties: dict[str, str]
    trace: SimTrace | None = None
    errors: list[str] = field(default_factory=list)

    group_by = "binding"

    @property
    def violation(self) -> bool:
        """True when the economy leaked: the thing campaigns hunt."""
        return self.gamma > 0.0 or not self.passed

    @property
    def fails(self) -> bool:
        """Raw-binding leaks are the expected finding; a txn leak is a bug."""
        return self.violation and self.binding != "raw"

    def failure(self) -> str:
        return f"transactional binding violated on seed {self.seed}"

    @staticmethod
    def summarize(runs: list[SimRunResult]) -> str:
        violations = sum(1 for run in runs if run.violation)
        max_gamma = max(run.gamma for run in runs)
        vtime = sum(run.run_time_virtual_s for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        return (
            f"{len(runs)} runs, {violations} violations, "
            f"max gamma {max_gamma:.6f}, {vtime:.0f} simulated s "
            f"in {wall:.2f} wall s"
        )

    def trace_name(self) -> str:
        return f"violation-{self.binding}-{self.schedule}-seed{self.seed}.json"

    def trace_payload(self) -> dict[str, object]:
        """The minimal reproducing artifact: seed, fault schedule, full
        property set, the gamma verdict, and the operation interleaving
        (virtual time, task, op, key, status per DB call)."""
        payload: dict[str, object] = {
            "kind": "ycsbt-sim-violation",
            "binding": self.binding,
            "seed": self.seed,
            "schedule": self.schedule,
            "gamma": self.gamma,
            "validation_passed": self.passed,
            "validation": [list(pair) for pair in self.validation_fields],
            "operations": self.operations,
            "failed_operations": self.failed_operations,
            "virtual_run_time_s": self.run_time_virtual_s,
            "events_processed": self.events_processed,
            "counters": self.counters,
            "fault_schedule": {
                key: value
                for key, value in self.properties.items()
                if key.startswith("fault.")
            },
            "properties": self.properties,
            "replay": {
                "command": (
                    f"ycsbt sim --db {self.binding} --schedule {self.schedule} "
                    f"--seeds 1 --start-seed {self.seed}"
                ),
            },
            "errors": self.errors,
        }
        if self.trace is not None:
            payload["trace"] = self.trace.to_payload()
        return payload

    def summary_line(self) -> str:
        flag = "VIOLATION" if self.violation else "ok"
        return (
            f"{self.binding:<4} seed={self.seed:<6} schedule={self.schedule:<10} "
            f"gamma={self.gamma:.6f} ops={self.operations} "
            f"failed={self.failed_operations} vtime={self.run_time_virtual_s:.1f}s "
            f"wall={self.wall_time_s * 1000:.0f}ms {flag}"
        )


def _find_fault_layer(store) -> FaultInjectingStore | None:
    while store is not None:
        if isinstance(store, FaultInjectingStore):
            return store
        store = getattr(store, "inner", None)
    return None


def _build_binding(binding: str, props: Properties, seed: int):
    """Returns ``(db_factory, fault_layer)`` for a campaign binding.

    Stacks are built directly (not through the shared binding registry) so
    every seed starts from an empty store and the campaign can pause the
    fault layer around the load phase.
    """
    from ..bindings.stores import wrap_store

    if binding == "raw":
        store = wrap_store(InMemoryKVStore(), props)
        return (lambda: KVStoreDB(store, props)), _find_fault_layer(store)
    if binding == "txn":
        # The manager does its own retries and must see raw torn-write
        # errors at the commit point, so the store keeps latency + faults
        # but no retry layer (mirrors bindings.txn._default_manager).
        store = wrap_store(InMemoryKVStore(), props.merged({"retry.max_attempts": "1"}))
        manager = ClientTransactionManager(
            store,
            isolation=props.get_str("txn.isolation", "serializable"),
            lock_lease_ms=props.get_float("txn.lock_lease_ms", 1000.0),
            lock_wait_retries=props.get_int("txn.lock_wait_retries", 500),
            retry_policy=RetryPolicy.from_properties(props),
            client_id=f"sim{seed}",
        )
        return (lambda: TxnDB(props, manager=manager)), _find_fault_layer(store)
    raise ValueError(f"unknown sim binding {binding!r}; use one of {SIM_BINDINGS}")


def _campaign_properties(
    base: Mapping[str, str] | None,
    schedule: Mapping[str, str],
    seed: int,
) -> Properties:
    values = dict(DEFAULT_SIM_PROPERTIES)
    values.update({key: str(value) for key, value in schedule.items()})
    if base:
        values.update({key: str(value) for key, value in base.items()})
    # Every RNG in the stack keys off the campaign seed (distinct streams).
    values["seed"] = str(seed)
    values["fault.seed"] = str(seed + 1)
    values["retry.seed"] = str(seed + 2)
    values["latency.seed"] = str(seed + 3)
    return Properties(values)


def run_sim(
    binding: str = "raw",
    properties: Mapping[str, str] | None = None,
    seed: int = 0,
    schedule: str | Mapping[str, str] = "baseline",
    trace: bool = True,
    max_trace_events: int = 200_000,
) -> SimRunResult:
    """One deterministic virtual-time CEW run; the campaign's unit of work.

    Load phase runs fault-free (a botched load is a configuration error,
    not an anomaly), then the schedule's fault profile is switched on for
    the measured run phase, exactly like the wall-clock fault harnesses.
    The whole run — store latencies, fault sleeps, retry backoff, lock
    waits, throttle pacing — advances only virtual time.
    """
    if isinstance(schedule, str):
        schedule_name, schedule_values = schedule, FAULT_SCHEDULES[schedule]
    else:
        schedule_name, schedule_values = "custom", dict(schedule)
    props = _campaign_properties(properties, schedule_values, seed)
    clock = SimClock()
    sim_trace = SimTrace(clock.scheduler, max_trace_events) if trace else None
    wall_started = time.perf_counter()
    with use_clock(clock):
        base_factory, fault_layer = _build_binding(binding, props, seed)
        if sim_trace is not None:
            trace_ref = sim_trace  # narrow for the closure

            def db_factory():
                return TracingDB(base_factory(), trace_ref)

        else:
            db_factory = base_factory
        fault_profile = FaultProfile.from_properties(props)
        if fault_layer is not None:
            fault_layer.profile = FaultProfile()  # faults off for the load
        workload = ClosedEconomyWorkload()
        measurements = Measurements.from_properties(props)
        workload.init(props, measurements)
        client = Client(workload, db_factory, props, measurements)
        if sim_trace is not None:
            sim_trace.phase = "load"
        load = client.load()
        if fault_layer is not None and fault_profile is not None:
            fault_layer.profile = fault_profile
        if sim_trace is not None:
            sim_trace.phase = "run"
        run = client.run()
        workload.cleanup()
    wall_time_s = time.perf_counter() - wall_started
    validation_fields = list(run.validation.fields) if run.validation else []
    counters = {
        name: int(value)
        for name, value in run.measurements.counters().items()
    }
    return SimRunResult(
        binding=binding,
        seed=seed,
        schedule=schedule_name,
        gamma=run.anomaly_score if run.anomaly_score is not None else 0.0,
        passed=run.validation.passed if run.validation else False,
        validation_fields=validation_fields,
        operations=run.operations,
        failed_operations=run.failed_operations,
        load_operations=load.operations,
        run_time_virtual_s=run.run_time_ms / 1000.0,
        wall_time_s=wall_time_s,
        events_processed=clock.scheduler.events_processed,
        counters=counters,
        report_jsonl=JsonLinesExporter().export(run.report()),
        properties=props.as_dict(),
        trace=sim_trace,
        errors=list(run.errors) + list(load.errors),
    )
