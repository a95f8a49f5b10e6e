"""Cluster crash campaigns: kill a shard mid-run, recover, re-validate.

The ``ycsbt cluster`` counterpart to ``ycsbt crash``: each run executes
the Closed Economy Workload against a live :class:`~repro.cluster.cluster.
ShardCluster` — N HTTP shard servers, raw operations routed by the shard
map, transactions spanning shards via two-phase commit — and, halfway
through the measured phase, **kills one shard server**.  The dead shard
drops every connection without a response; in-flight prepares fail, phase
2 commit RPCs against it fail (the coordinator's WAL keeps those
transactions in doubt), and peers' locks strand.  The campaign then

1. restarts the shard (durable store intact, volatile prepared table
   gone — exactly the state 2PC recovery must handle),
2. sleeps past every lock lease (wall clock: real sockets cannot run
   under the virtual-time scheduler),
3. replays the coordinator WAL (:func:`~repro.cluster.twopc.
   recover_coordinator` — redo logged commits, undo the undecided) and
   runs the :class:`~repro.recovery.scavenger.TxnScavenger` across every
   shard,
4. re-runs CEW validation over the whole cluster.

The verdict mirrors the single-node crash campaign: on the ``txn``
binding **post-recovery validation must pass** (total cash preserved,
gamma == 0, zero residual locks) at every shard count.  The ``raw``
binding has no recovery story — a routed read-modify-write pair that
straddles the dead shard leaks money that stays leaked — so the campaign
reports it as the expected baseline and only fails on transactional
violations.

Unlike the sim campaigns a cluster run is wall-clock and therefore not
bit-deterministic (thread scheduling is the OS's), but the *kill point*
is: the cycle is :func:`repro.campaign.kill_halfway`, which runs the
measured phase as two exact halves and kills the shard between them.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..bindings.kv import KVStoreDB
from ..bindings.txn import TxnDB
from ..campaign import Scenario, kill_halfway
from ..core.properties import Properties
from ..core.retry import RetryPolicy
from ..recovery.campaign import DEFAULT_CRASH_PROPERTIES
from .cluster import ShardCluster

__all__ = [
    "DEFAULT_CLUSTER_PROPERTIES",
    "CLUSTER_BINDINGS",
    "ClusterRunResult",
    "run_cluster",
]

#: The crash campaign's CEW over the wire: latency injection dropped (a
#: wall-clock run has real network latency; simulated sleeps on top would
#: only slow it down) and a transport retry budget added so a pooled
#: connection racing a server restart doesn't surface as a failed op.
DEFAULT_CLUSTER_PROPERTIES: dict[str, str] = {
    **{
        key: value
        for key, value in DEFAULT_CRASH_PROPERTIES.items()
        if not key.startswith("latency.")
    },
    "threadcount": "4",
}

CLUSTER_BINDINGS = ("raw", "txn")


@dataclass
class ClusterRunResult:
    """One load → run → kill-shard → run → recover → re-validate cycle."""

    binding: str
    seed: int
    shard_count: int
    #: the shard killed mid-run, or None for a fault-free run.
    killed_shard: str | None
    #: operations executed before / after the kill point.
    healthy_operations: int
    degraded_operations: int
    #: validation straight after the healthy half (cluster intact).
    pre_gamma: float
    pre_passed: bool
    #: validation after restart + WAL replay + scavenging — the verdict.
    post_gamma: float
    post_passed: bool
    post_validation_fields: list[tuple[str, str]]
    #: locks still unresolved after recovery (must be 0).
    residual_locks: int
    recovery: dict[str, int]
    scavenger_counters: dict[str, int]
    operations: int
    failed_operations: int
    wall_time_s: float
    counters: dict[str, int]
    report_jsonl: str
    properties: dict[str, str]
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
        """Raw leaks across a dead shard are the expected baseline; a
        transactional violation means 2PC recovery broke its promise."""
        return self.violation and self.transactional

    def failure(self) -> str:
        return (
            f"post-recovery violation on "
            f"{self.binding}/shards{self.shard_count}/{self.seed}"
        )

    @property
    def throughput(self) -> float:
        return (
            self.operations / self.wall_time_s if self.wall_time_s > 0 else 0.0
        )

    @staticmethod
    def summarize(runs: list[ClusterRunResult]) -> str:
        violations = sum(1 for run in runs if run.violation)
        kills = sum(1 for run in runs if run.killed_shard is not None)
        max_post = max(run.post_gamma for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        return (
            f"{len(runs)} runs, {kills} shard kills, "
            f"{violations} post-recovery violations, "
            f"max post-gamma {max_post:.6f}, {wall:.2f} wall s"
        )

    def trace_name(self) -> str:
        return (
            f"cluster-violation-{self.binding}-shards{self.shard_count}"
            f"-seed{self.seed}.json"
        )

    def trace_payload(self) -> dict[str, object]:
        """The replayable artifact for a run recovery failed to repair."""
        return {
            "kind": "ycsbt-cluster-violation",
            "binding": self.binding,
            "seed": self.seed,
            "shard_count": self.shard_count,
            "killed_shard": self.killed_shard,
            "healthy_operations": self.healthy_operations,
            "degraded_operations": self.degraded_operations,
            "pre_recovery": {"gamma": self.pre_gamma, "passed": self.pre_passed},
            "post_recovery": {
                "gamma": self.post_gamma,
                "passed": self.post_passed,
                "validation": [list(pair) for pair in self.post_validation_fields],
                "residual_locks": self.residual_locks,
            },
            "coordinator_recovery": self.recovery,
            "scavenger": self.scavenger_counters,
            "operations": self.operations,
            "failed_operations": self.failed_operations,
            "wall_time_s": self.wall_time_s,
            "counters": self.counters,
            "properties": self.properties,
            "replay": {
                "command": (
                    f"ycsbt cluster --db {self.binding} --shards {self.shard_count} "
                    f"--seeds 1 --start-seed {self.seed}"
                ),
            },
            "errors": self.errors,
        }

    def summary_line(self) -> str:
        flag = "VIOLATION" if self.violation else "ok"
        killed = self.killed_shard or "-"
        return (
            f"{self.binding:<4} seed={self.seed:<6} shards={self.shard_count} "
            f"killed={killed:<7} post-gamma={self.post_gamma:.6f} "
            f"residual-locks={self.residual_locks} "
            f"redone={self.recovery.get('redone', 0)} "
            f"undone={self.recovery.get('undone', 0)} "
            f"ops={self.operations} failed={self.failed_operations} "
            f"wall={self.wall_time_s:.2f}s {flag}"
        )


def _cluster_properties(base: Mapping[str, str] | None, seed: int) -> Properties:
    values = dict(DEFAULT_CLUSTER_PROPERTIES)
    if base:
        values.update({key: str(value) for key, value in base.items()})
    values["seed"] = str(seed)
    values["retry.seed"] = str(seed + 2)
    return Properties(values)


class _ShardKill(Scenario):
    """Kill the seed-chosen shard server; restart it with its store intact."""

    def __init__(self, binding: str, shard_count: int, seed: int):
        self.binding = binding
        self.shard_count = shard_count
        self.seed = seed
        self.killed_shard: str | None = None

    @contextmanager
    def build(self, props: Properties):
        with ShardCluster(
            self.shard_count,
            lock_lease_ms=props.get_float("txn.lock_lease_ms", 1000.0),
            retry_policy_factory=lambda: RetryPolicy.from_properties(props),
        ) as self.cluster:
            if self.binding == "txn":
                self.manager = self.cluster.manager(client_id=f"cluster{self.seed}")
                yield lambda: TxnDB(props, manager=self.manager)
            else:
                router = self.cluster.router()
                yield lambda: KVStoreDB(router, props)

    def inject(self) -> None:
        self.killed_shard = self.cluster.shard_names[self.seed % self.shard_count]
        self.cluster.kill_shard(self.killed_shard)

    def heal(self) -> None:
        self.cluster.restart_shard(self.killed_shard)


def run_cluster(
    binding: str = "txn",
    shard_count: int = 4,
    properties: Mapping[str, str] | None = None,
    seed: int = 0,
    kill: bool = True,
    kill_fraction: float = 0.5,
    lease_margin_s: float = 0.5,
) -> ClusterRunResult:
    """One cluster crash/recovery cycle; the campaign's unit of work.

    The measured phase runs as two halves: ``kill_fraction`` of the
    operations against the healthy cluster, then — with one shard killed —
    the rest.  The victim is chosen by seed, so a seed sweep kills
    different shards.  ``kill=False`` runs the same two halves without
    the kill (the scaling experiment's fault-free path).
    """
    if binding not in CLUSTER_BINDINGS:
        raise ValueError(
            f"unknown cluster binding {binding!r}; use one of {CLUSTER_BINDINGS}"
        )
    props = _cluster_properties(properties, seed)
    scenario = _ShardKill(binding, shard_count, seed)
    cycle = kill_halfway(scenario, props, kill, kill_fraction, lease_margin_s)
    return ClusterRunResult(
        binding=binding,
        seed=seed,
        shard_count=shard_count,
        killed_shard=scenario.killed_shard,
        properties=props.as_dict(),
        **cycle,
    )
