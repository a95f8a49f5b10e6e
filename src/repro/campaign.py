"""The campaign kernel: seeds x axes -> run -> verdict -> replayable trace.

Every seed-sweep subcommand (``sim``, ``crash``, ``cluster``,
``replication``, ``replicated-cluster``, ``synth``) is one :func:`sweep`
over a unit of work returning a result object.  The result type carries
its own verdict and trace:

* ``violation`` — the run broke a promise (a campaign *finding*);
* ``fails`` — the violation fails the command (always a violation too);
  ``failure()`` says why, in one line;
* ``trace_name()`` / ``trace_payload()`` — the replayable JSON artifact;
* ``summary_line()`` per run; ``group_by`` names the field the summary
  groups on and ``summarize(runs)`` renders one group.

The wall-clock cluster campaigns share one more piece, :func:`kill_halfway`:
load, run half the operations healthy, inject a failure, run the rest
degraded, heal, recover and re-validate.  A :class:`Scenario` supplies only
the cluster (``build``), the failure (``inject``) and the repair (``heal``).
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .cluster.twopc import recover_coordinator
from .core.client import Client
from .core.closed_economy import ClosedEconomyWorkload
from .core.workload import ValidationResult, WorkloadError
from .kvstore.base import StoreError
from .measurements.exporters import JsonLinesExporter
from .measurements.registry import Measurements
from .recovery.scavenger import TxnScavenger
from .sim.clock import ambient_sleep

__all__ = [
    "Campaign",
    "Recovery",
    "Scenario",
    "kill_halfway",
    "recover",
    "sweep",
    "write_trace",
]


@dataclass
class Campaign:
    """All runs of one sweep plus the traces written for its violations."""

    runs: list = field(default_factory=list)
    artifacts: list[Path] = field(default_factory=list)

    @property
    def violations(self) -> list:
        return [run for run in self.runs if run.violation]

    @property
    def failures(self) -> list:
        """The violations that fail the command."""
        return [run for run in self.runs if run.fails]

    def summary(self) -> str:
        groups: dict[str, list] = {}
        for run in self.runs:
            groups.setdefault(getattr(run, run.group_by), []).append(run)
        return "\n".join(
            f"{name}: {type(runs[0]).summarize(runs)}"
            for name, runs in sorted(groups.items())
        )


def write_trace(result, directory: str | Path) -> Path:
    """Write ``result``'s replayable violation trace into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / result.trace_name()
    path.write_text(json.dumps(result.trace_payload(), indent=2, sort_keys=True) + "\n")
    return path


def sweep(axes, seeds, run, out_dir=None, on_result=None) -> Campaign:
    """Call ``run(*point, seed)`` for each point of ``product(*axes, seeds)``.

    The first axis varies slowest and the seed fastest.  A violating run's
    trace is written when ``out_dir`` is given; ``on_result`` sees every
    result as it completes (the CLI prints progress with it).
    """
    campaign = Campaign()
    for *point, seed in itertools.product(*axes, seeds):
        result = run(*point, seed)
        campaign.runs.append(result)
        if result.violation and out_dir is not None:
            campaign.artifacts.append(write_trace(result, out_dir))
        if on_result is not None:
            on_result(result)
    return campaign


@dataclass
class Recovery:
    """What :func:`recover` found: the inputs of a post-recovery verdict."""

    validation: ValidationResult | None = None
    residual_locks: int = 0
    coordinator: dict[str, int] = field(default_factory=dict)
    scavenger_counters: dict[str, int] = field(default_factory=dict)

    def verdict(self) -> dict[str, object]:
        """The post-recovery result fields; a validation that raised fails."""
        checked = self.validation
        return {
            "post_gamma": checked.anomaly_score if checked else 1.0,
            "post_passed": checked.passed if checked else False,
            "post_validation_fields": [
                (str(name), str(value)) for name, value in checked.fields
            ]
            if checked
            else [],
            "residual_locks": self.residual_locks,
            "scavenger_counters": self.scavenger_counters,
        }


def recover(
    workload, db_factory, manager, measurements, errors, sleep_s=0.0, replay_wal=False
) -> Recovery:
    """Let leases lapse, replay the coordinator WAL, scavenge, re-validate.

    ``sleep_s`` is slept on the ambient clock first.  The second scavenger
    pass only counts what the first left behind: residual locks.  Scavenger
    counters are recorded in ``measurements``; a validation that cannot scan
    is appended to ``errors`` and scores as failed.
    """
    if sleep_s:
        ambient_sleep(sleep_s)
    recovery = Recovery()
    if manager is not None:
        if replay_wal:
            recovery.coordinator = recover_coordinator(manager)
        scavenger = TxnScavenger(manager)
        scavenger.scavenge_once()
        recovery.residual_locks = scavenger.scavenge_once(remove_orphan_tsrs=False).locks_seen
        recovery.scavenger_counters = {
            name: value for name, value in scavenger.counters().items() if value
        }
        for name, value in recovery.scavenger_counters.items():
            measurements.set_counter(name, value)
    db = db_factory()
    db.init()
    try:
        recovery.validation = workload.validate(db)
    except (WorkloadError, StoreError) as exc:
        errors.append(f"post-validation: {type(exc).__name__}: {exc}")
    finally:
        db.cleanup()
    return recovery


class _NoValidation:
    """A workload view whose validation stage is a no-op.

    The client validates at the end of every phase, and validation scans
    the whole cluster — which cannot work while part of it is deliberately
    dead.  Shared workload state (key chooser, operation mix, escrow) lives
    in the wrapped instance, so the two halves are one workload.
    """

    def __init__(self, workload: ClosedEconomyWorkload):
        self._workload = workload

    def __getattr__(self, name: str):
        return getattr(self._workload, name)

    def validate(self, db) -> None:
        return None


class Scenario:
    """One failure for :func:`kill_halfway` to inject halfway through a run.

    Subclasses define ``build(props)``, a context manager that starts the
    cluster and yields the db factory (setting ``manager`` to the 2PC
    coordinator on the transactional binding); ``inject()``, which fails
    part of the cluster after the healthy half; and ``heal()``, which
    repairs it after the degraded half.
    """

    manager = None

    def settle(self) -> None:
        """Runs after the load and again before recovery."""

    def verdict_db(self, db_factory):
        """The reader post-recovery validation scans through."""
        return db_factory()

    def counters(self) -> dict[str, int]:
        """Counters reported beside the workload's own."""
        if self.manager is None:
            return {}
        return {name: value for name, value in self.manager.counters().items() if value}


def kill_halfway(
    scenario: Scenario, props, kill=True, kill_fraction=0.5, lease_margin_s=0.5
) -> dict[str, object]:
    """Load, run healthy, inject, run degraded, heal, recover, re-validate.

    The measured phase runs as two exact halves via the client's
    ``operation_count`` override, so the kill point is deterministic even
    though the wall-clock timings are not.  ``kill=False`` runs the same
    phases with no failure.  Returns the result fields the cluster
    campaigns share, named as their result types name them.
    """
    wall_started = time.perf_counter()
    with scenario.build(props) as db_factory:
        workload = ClosedEconomyWorkload()
        measurements = Measurements.from_properties(props)
        workload.init(props, measurements)
        client = Client(workload, db_factory, props, measurements)
        load = client.load()
        scenario.settle()

        total_ops = props.get_int("operationcount", 400)
        healthy_ops = max(1, int(total_ops * kill_fraction)) if kill else total_ops
        healthy = client.run(operation_count=healthy_ops)
        errors = list(load.errors) + list(healthy.errors)
        operations, failed, degraded_ops = healthy.operations, healthy.failed_operations, 0
        injected = healthy_ops < total_ops
        if injected:
            scenario.inject()
            degraded = Client(_NoValidation(workload), db_factory, props, measurements).run(
                operation_count=total_ops - healthy_ops
            )
            errors.extend(degraded.errors)
            operations += degraded.operations
            failed += degraded.failed_operations
            degraded_ops = degraded.operations
            scenario.heal()
        scenario.settle()

        lease_s = props.get_float("txn.lock_lease_ms", 1000.0) / 1000.0
        recovery = recover(
            workload,
            lambda: scenario.verdict_db(db_factory),
            scenario.manager,
            measurements,
            errors,
            sleep_s=lease_s + lease_margin_s
            if injected and scenario.manager is not None
            else 0.0,
            replay_wal=True,
        )
        workload.cleanup()
        counters = {name: int(value) for name, value in measurements.counters().items()}
        counters.update(scenario.counters())
        report_jsonl = JsonLinesExporter().export(healthy.report())
    return {
        "healthy_operations": healthy.operations,
        "degraded_operations": degraded_ops,
        "pre_gamma": healthy.anomaly_score if healthy.anomaly_score is not None else 0.0,
        "pre_passed": healthy.validation.passed if healthy.validation else False,
        **recovery.verdict(),
        "recovery": recovery.coordinator,
        "operations": operations,
        "failed_operations": failed,
        "wall_time_s": time.perf_counter() - wall_started,
        "counters": counters,
        "report_jsonl": report_jsonl,
        "errors": errors,
    }
