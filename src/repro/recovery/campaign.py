"""Crash-recovery campaigns: kill a client mid-protocol, scavenge, re-validate.

The ``ycsbt crash`` counterpart to ``ycsbt sim``: each run executes the
Closed Economy Workload in virtual time with a *crash schedule* armed —
named crashpoints that kill a simulated client at a scheduled hit (between
prewrite and commit, right after the commit point, mid roll-forward, or
inside an arbitrary store write).  The dead client leaves stranded locks
and half-applied state behind; the campaign then

1. lets every lock lease expire (a virtual-clock sleep),
2. runs the :class:`~repro.recovery.scavenger.TxnScavenger` to roll each
   stranded transaction forward or back,
3. re-runs CEW validation on the recovered store.

The verdict: on the transactional bindings, **post-recovery validation
must pass** (total cash preserved, gamma == 0) for every seed and every
schedule — recovery restored a state some serial execution could have
produced.  The raw binding has no recovery story, so a client dying
between the debit and the credit of a transfer leaks money that stays
leaked; the campaign reports it but (like ``ycsbt sim``) only fails on
transactional violations.

Every run is a pure function of ``(binding, seed, schedule)``; violations
emit the same replayable JSON trace artifacts as the sim campaign.

Crash campaigns run the CEW without deletes: a delete's captured balance
lives in the *workload's* in-memory escrow until commit, so a client that
dies mid-delete takes that bookkeeping with it — real money lost to a
crashed *benchmark process*, not to the database.  With deletes off the
escrow stays empty and every operation's money lives in the store, where
recovery can reach it (see docs/RECOVERY.md).
"""

from __future__ import annotations

import random
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..bindings.kv import KVStoreDB
from ..bindings.txn import TxnDB
from ..campaign import recover
from ..core.client import Client
from ..core.closed_economy import ClosedEconomyWorkload
from ..core.properties import Properties
from ..core.retry import RetryPolicy
from ..kvstore.memory import InMemoryKVStore
from ..measurements.exporters import JsonLinesExporter
from ..measurements.registry import Measurements
from ..sim.campaign import DEFAULT_SIM_PROPERTIES
from ..sim.clock import use_clock
from ..sim.scheduler import SimClock
from ..sim.trace import SimTrace, TracingDB
from ..txn.manager import ClientTransactionManager
from ..txn.percolator import PercolatorLikeManager
from .crashpoints import CrashInjector, use_crash_injector
from .store import CrashpointStore

__all__ = [
    "DEFAULT_CRASH_PROPERTIES",
    "CRASH_SCHEDULES",
    "CRASH_BINDINGS",
    "CrashRunResult",
    "seeded_schedule",
    "run_crash",
]

#: The sim campaign's CEW, minus deletes (see module docs) and minus
#: injected store faults — the crash *is* the fault under study, and an
#: uncluttered run keeps each violation trace attributable to it.
DEFAULT_CRASH_PROPERTIES: dict[str, str] = {
    **{
        key: value
        for key, value in DEFAULT_SIM_PROPERTIES.items()
        if not key.startswith("fault.")
    },
    "deleteproportion": "0",
    "readmodifywriteproportion": "0.40",
}

#: Named crash schedules: crashpoint -> 1-based hit numbers that kill the
#: client passing through.  Hits are global across the run's clients, and
#: under the sim scheduler the hit order is deterministic per seed.
CRASH_SCHEDULES: dict[str, dict[str, list[int]]] = {
    # Die with every lock installed but the commit undecided: recovery
    # must roll the transaction back.
    "prewrite": {"txn.after_prewrite": [3, 17]},
    # Die just past the commit point (TSR created / primary committed)
    # with no intent applied: recovery must roll forward.
    "primary-commit": {"txn.after_primary_commit": [2, 11]},
    # Die with the apply phase half done: recovery must finish it.
    "mid-secondary": {"txn.mid_secondary_commit": [2, 9]},
    # Die inside arbitrary store writes — mid read-modify-write on the
    # raw binding, mid lock-install on the transactional ones.
    "worker-kill": {"worker.mid_run": [40, 180, 400]},
    # All of the above in one run: several clients die at different
    # protocol stages.
    "multi": {
        "txn.after_prewrite": [2],
        "txn.after_primary_commit": [6],
        "txn.mid_secondary_commit": [10],
        "worker.mid_run": [300],
    },
}

CRASH_BINDINGS = ("raw", "txn", "pct")

#: Crashpoints a seeded schedule may draw (store-engine points are
#: exercised by the WAL/LSM property tests, not the CEW campaign).
_SEEDED_POINTS = (
    "txn.after_prewrite",
    "txn.after_primary_commit",
    "txn.mid_secondary_commit",
    "worker.mid_run",
)


def seeded_schedule(seed: int) -> dict[str, list[int]]:
    """A pseudo-random crash schedule, a pure function of ``seed``.

    Draws 1-3 crashpoints and a small hit index for each, so a seed sweep
    covers protocol stages no hand-written schedule thought of.
    """
    rng = random.Random(seed * 2654435761 % (2**31))
    points = rng.sample(_SEEDED_POINTS, rng.randint(1, 3))
    schedule: dict[str, list[int]] = {}
    for point in points:
        ceiling = 500 if point == "worker.mid_run" else 25
        count = rng.randint(1, 2)
        schedule[point] = sorted({rng.randint(1, ceiling) for _ in range(count)})
    return schedule


@dataclass
class CrashRunResult:
    """One crash → scavenge → re-validate cycle."""

    binding: str
    seed: int
    schedule: str
    crash_schedule: dict[str, list[int]]
    #: (crashpoint, hit number) pairs that actually fired, in order.
    fired: list[tuple[str, int]]
    #: clients killed mid-run (the CLIENT-CRASHES counter).
    crashes: int
    #: validation straight after the run, stranded state and all.
    pre_gamma: float
    pre_passed: bool
    #: validation after lease expiry + scavenger recovery — the verdict.
    post_gamma: float
    post_passed: bool
    post_validation_fields: list[tuple[str, str]]
    #: locks still unresolved after recovery (must be 0).
    residual_locks: int
    scavenger_counters: dict[str, int]
    operations: int
    failed_operations: int
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
    def transactional(self) -> bool:
        return self.binding != "raw"

    @property
    def violation(self) -> bool:
        """True when recovery failed to restore a consistent state."""
        return not self.post_passed or self.post_gamma > 0.0 or self.residual_locks > 0

    @property
    def fails(self) -> bool:
        """Raw leaks are the expected baseline; a transactional violation
        means the scavenger broke its promise."""
        return self.violation and self.transactional

    def failure(self) -> str:
        return f"post-recovery violation on {self.binding}/{self.schedule}/{self.seed}"

    @staticmethod
    def summarize(runs: list[CrashRunResult]) -> str:
        violations = sum(1 for run in runs if run.violation)
        crashes = sum(run.crashes for run in runs)
        max_post = max(run.post_gamma for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        return (
            f"{len(runs)} runs, {crashes} crashed clients, "
            f"{violations} post-recovery violations, "
            f"max post-gamma {max_post:.6f}, {wall:.2f} wall s"
        )

    def trace_name(self) -> str:
        return f"crash-violation-{self.binding}-{self.schedule}-seed{self.seed}.json"

    def trace_payload(self) -> dict[str, object]:
        """The replayable artifact for a run recovery failed to repair."""
        payload: dict[str, object] = {
            "kind": "ycsbt-crash-violation",
            "binding": self.binding,
            "seed": self.seed,
            "schedule": self.schedule,
            "crash_schedule": self.crash_schedule,
            "crashpoints_fired": [list(pair) for pair in self.fired],
            "crashes": self.crashes,
            "pre_recovery": {"gamma": self.pre_gamma, "passed": self.pre_passed},
            "post_recovery": {
                "gamma": self.post_gamma,
                "passed": self.post_passed,
                "validation": [list(pair) for pair in self.post_validation_fields],
                "residual_locks": self.residual_locks,
            },
            "scavenger": self.scavenger_counters,
            "operations": self.operations,
            "failed_operations": self.failed_operations,
            "virtual_run_time_s": self.run_time_virtual_s,
            "events_processed": self.events_processed,
            "counters": self.counters,
            "properties": self.properties,
            "replay": {
                "command": (
                    f"ycsbt crash --db {self.binding} --schedule {self.schedule} "
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
            f"{self.binding:<4} seed={self.seed:<6} schedule={self.schedule:<14} "
            f"crashes={self.crashes} pre-gamma={self.pre_gamma:.6f} "
            f"post-gamma={self.post_gamma:.6f} residual-locks={self.residual_locks} "
            f"wall={self.wall_time_s * 1000:.0f}ms {flag}"
        )


def _build_binding(binding: str, props: Properties, seed: int):
    """Returns ``(db_factory, manager)``; ``manager`` is None for raw.

    Every store write goes through a :class:`CrashpointStore`, so the
    ``worker.mid_run`` crashpoint can kill a client inside any operation
    sequence.  Mirrors the sim campaign's stacks otherwise.
    """
    from ..bindings.stores import wrap_store

    if binding == "raw":
        store = CrashpointStore(wrap_store(InMemoryKVStore(), props))
        return (lambda: KVStoreDB(store, props)), None
    if binding in ("txn", "pct"):
        store = CrashpointStore(
            wrap_store(InMemoryKVStore(), props.merged({"retry.max_attempts": "1"}))
        )
        if binding == "txn":
            manager = ClientTransactionManager(
                store,
                isolation=props.get_str("txn.isolation", "serializable"),
                lock_lease_ms=props.get_float("txn.lock_lease_ms", 1000.0),
                lock_wait_retries=props.get_int("txn.lock_wait_retries", 500),
                retry_policy=RetryPolicy.from_properties(props),
                client_id=f"crash{seed}",
            )
        else:
            manager = PercolatorLikeManager(
                store,
                lock_lease_ms=props.get_float("txn.lock_lease_ms", 1000.0),
                lock_wait_retries=props.get_int("txn.lock_wait_retries", 500),
            )
        return (lambda: TxnDB(props, manager=manager)), manager
    raise ValueError(f"unknown crash binding {binding!r}; use one of {CRASH_BINDINGS}")


def _crash_properties(base: Mapping[str, str] | None, seed: int) -> Properties:
    values = dict(DEFAULT_CRASH_PROPERTIES)
    if base:
        values.update({key: str(value) for key, value in base.items()})
    values["seed"] = str(seed)
    values["retry.seed"] = str(seed + 2)
    values["latency.seed"] = str(seed + 3)
    # The percolator baseline has no serializable mode.
    return Properties(values)


def resolve_schedule(schedule: str | Mapping[str, object], seed: int):
    """Normalise a schedule argument to ``(name, {point: [hits]})``."""
    if isinstance(schedule, str):
        if schedule == "seeded":
            return "seeded", seeded_schedule(seed)
        return schedule, {
            point: list(hits) for point, hits in CRASH_SCHEDULES[schedule].items()
        }
    return "custom", {
        point: [hits] if isinstance(hits, int) else list(hits)  # type: ignore[list-item]
        for point, hits in dict(schedule).items()
    }


def run_crash(
    binding: str = "txn",
    properties: Mapping[str, str] | None = None,
    seed: int = 0,
    schedule: str | Mapping[str, object] = "multi",
    trace: bool = True,
    max_trace_events: int = 200_000,
    lease_margin_s: float = 1.0,
) -> CrashRunResult:
    """One deterministic crash/recovery cycle; the campaign's unit of work.

    Load runs with the injector disarmed (a crash during load is a setup
    failure, not a recovery scenario); the schedule is armed for the run
    phase only.  Afterwards the virtual clock jumps past every lock lease
    and the scavenger recovers whatever the dead clients left behind.
    """
    schedule_name, schedule_values = resolve_schedule(schedule, seed)
    props = _crash_properties(properties, seed)
    if binding == "pct":
        props = props.merged({"txn.isolation": "snapshot"})
    clock = SimClock()
    sim_trace = SimTrace(clock.scheduler, max_trace_events) if trace else None
    injector = CrashInjector(schedule_values)
    wall_started = time.perf_counter()
    with use_clock(clock):
        base_factory, manager = _build_binding(binding, props, seed)
        if sim_trace is not None:
            trace_ref = sim_trace  # narrow for the closure

            def db_factory():
                return TracingDB(base_factory(), trace_ref)

        else:
            db_factory = base_factory
        workload = ClosedEconomyWorkload()
        measurements = Measurements.from_properties(props)
        workload.init(props, measurements)
        client = Client(workload, db_factory, props, measurements)
        if sim_trace is not None:
            sim_trace.phase = "load"
        load = client.load()
        if sim_trace is not None:
            sim_trace.phase = "run"
        with use_crash_injector(injector):
            run = client.run()
        errors = list(run.errors) + list(load.errors)
        recovery = recover(
            workload,
            base_factory,
            manager,
            run.measurements,
            errors,
            sleep_s=props.get_float("txn.lock_lease_ms", 1000.0) / 1000.0 + lease_margin_s,
        )
        if injector.fired:
            run.measurements.set_counter("CRASHPOINTS-FIRED", len(injector.fired))
        workload.cleanup()
    wall_time_s = time.perf_counter() - wall_started
    counters = {name: int(value) for name, value in run.measurements.counters().items()}
    return CrashRunResult(
        binding=binding,
        seed=seed,
        schedule=schedule_name,
        crash_schedule={point: list(hits) for point, hits in schedule_values.items()},
        fired=list(injector.fired),
        crashes=counters.get("CLIENT-CRASHES", 0),
        pre_gamma=run.anomaly_score if run.anomaly_score is not None else 0.0,
        pre_passed=run.validation.passed if run.validation else False,
        **recovery.verdict(),
        operations=run.operations,
        failed_operations=run.failed_operations,
        run_time_virtual_s=run.run_time_ms / 1000.0,
        wall_time_s=wall_time_s,
        events_processed=clock.scheduler.events_processed,
        counters=counters,
        report_jsonl=JsonLinesExporter().export(run.report()),
        properties=props.as_dict(),
        trace=sim_trace,
        errors=errors,
    )
