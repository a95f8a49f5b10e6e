"""Replicated-cluster campaigns: kill a shard *leader* mid-run, fail over.

The ``ycsbt replicated-cluster`` counterpart to ``ycsbt cluster``: each
run executes the Closed Economy Workload against a live
:class:`~repro.cluster.replicated.ReplicatedShardHttpCluster` — every
shard a replica set of HTTP node servers under a leader lease with a log
shipper, transactions spanning shards via two-phase commit — and,
halfway through the measured phase, **kills one shard's leader**.  The
dead leader drops every connection; in-flight prepares and phase-2 RPCs
against that shard fail, the coordinator's WAL keeps those transactions
in doubt, and peers' locks strand.  The degraded half runs with the
shard leaderless (strong operations against it fail; quorum reads still
assemble a majority from the followers).  The campaign then

1. waits out the leader lease and **fails over** to the most-caught-up
   follower (term bump, new shipper), then rejoins the dead member as a
   follower via log catch-up,
2. sleeps past every lock lease (wall clock: real sockets cannot run
   under the virtual-time scheduler),
3. replays the coordinator WAL (:func:`~repro.cluster.twopc.
   recover_coordinator`) — whose participant stubs for the victim shard
   are still bound to the *dead* leader, so redo/undo exercises the
   stale-participant re-route path — and runs the
   :class:`~repro.recovery.scavenger.TxnScavenger` across every shard,
4. re-runs CEW validation over the whole cluster.

The verdict mirrors ``ycsbt cluster``: on the ``txn`` binding
post-recovery validation must pass (total cash preserved, gamma == 0,
zero residual locks) at every shard count, now *through a leader
change*.  The ``raw`` binding has no recovery story and is reported as
the expected baseline; only transactional violations fail the campaign.
Follower logs are durable (each node persists its replication log to a
per-run WAL directory), so the rejoin after failover is a log catch-up,
not a full resync.
"""

from __future__ import annotations

import tempfile
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass

from ..bindings.kv import KVStoreDB
from ..bindings.txn import TxnDB
from ..campaign import Scenario, kill_halfway
from ..core.properties import Properties
from .campaign import CLUSTER_BINDINGS, ClusterRunResult, _cluster_properties
from .replicated import ReplicatedShardHttpCluster

__all__ = [
    "ReplicatedRunResult",
    "run_replicated_cluster",
]


@dataclass(kw_only=True)
class ReplicatedRunResult(ClusterRunResult):
    """One load → run → kill-leader → run → failover → recover cycle.

    ``killed_shard`` is the shard whose leader was killed; the verdict and
    the exit rule are the cluster campaign's, now through a leader change.
    """

    follower_count: int
    level: str
    #: the member (node name) that was killed, or None for a fault-free run.
    killed_member: str | None
    #: failover outcome: new leader, term, records lost at promotion.
    failover: dict
    #: rejoin outcome for the dead member ("catch-up" vs "resync").
    rejoin: dict

    @staticmethod
    def summarize(runs: list[ReplicatedRunResult]) -> str:
        violations = sum(1 for run in runs if run.violation)
        kills = sum(1 for run in runs if run.killed_member is not None)
        catchups = sum(1 for run in runs if run.rejoin.get("mode") == "catch-up")
        max_post = max(run.post_gamma for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        return (
            f"{len(runs)} runs, {kills} leader kills, "
            f"{catchups} catch-up rejoins, "
            f"{violations} post-recovery violations, "
            f"max post-gamma {max_post:.6f}, {wall:.2f} wall s"
        )

    def trace_name(self) -> str:
        return (
            f"replicated-violation-{self.binding}-shards{self.shard_count}"
            f"-seed{self.seed}.json"
        )

    def trace_payload(self) -> dict[str, object]:
        return {
            **super().trace_payload(),
            "kind": "ycsbt-replicated-cluster-violation",
            "follower_count": self.follower_count,
            "level": self.level,
            "killed_member": self.killed_member,
            "failover": self.failover,
            "rejoin": self.rejoin,
            "replay": {
                "command": (
                    f"ycsbt replicated-cluster --db {self.binding} "
                    f"--shards {self.shard_count} "
                    f"--followers {self.follower_count} "
                    f"--seeds 1 --start-seed {self.seed}"
                ),
            },
        }

    def summary_line(self) -> str:
        flag = "VIOLATION" if self.violation else "ok"
        killed = self.killed_member or "-"
        promoted = self.failover.get("leader", "-")
        return (
            f"{self.binding:<4} seed={self.seed:<6} shards={self.shard_count} "
            f"x{self.follower_count + 1} killed={killed:<10} "
            f"promoted={promoted:<10} rejoin={self.rejoin.get('mode', '-'):<8} "
            f"post-gamma={self.post_gamma:.6f} "
            f"residual-locks={self.residual_locks} "
            f"redone={self.recovery.get('redone', 0)} "
            f"undone={self.recovery.get('undone', 0)} "
            f"ops={self.operations} failed={self.failed_operations} "
            f"wall={self.wall_time_s:.2f}s {flag}"
        )


class _ShardLeaderKill(Scenario):
    """Kill one shard's leader; fail over on the lease and rejoin the dead
    member as a follower by log catch-up."""

    def __init__(
        self, binding: str, shard_count: int, follower_count: int, level: str, seed: int
    ):
        self.binding = binding
        self.shard_count = shard_count
        self.follower_count = follower_count
        self.level = level
        self.seed = seed
        self.killed_shard: str | None = None
        self.killed_member: str | None = None
        self.failover: dict = {}
        self.rejoin: dict = {}

    @contextmanager
    def build(self, props: Properties):
        with ReplicatedShardHttpCluster(
            self.shard_count,
            follower_count=self.follower_count,
            lock_lease_ms=props.get_float("txn.lock_lease_ms", 1000.0),
            log_dir=tempfile.mkdtemp(prefix=f"ycsbt-repl-log-{self.seed}-"),
            seed=self.seed,
        ) as self.cluster:
            if self.binding == "txn":
                self.manager = self.cluster.manager(client_id=f"replcluster{self.seed}")
                yield lambda: TxnDB(props, manager=self.manager)
            else:
                routed = self.cluster.routed(self.level)
                yield lambda: KVStoreDB(routed, props)

    def inject(self) -> None:
        self.killed_shard = self.cluster.shard_names[self.seed % self.shard_count]
        self.killed_member = self.cluster.kill_leader(self.killed_shard)

    def heal(self) -> None:
        # Recovery then replays the coordinator WAL against a *different*
        # leader than the one its in-doubt transactions prepared on.
        self.failover = self.cluster.failover(self.killed_shard)
        self.rejoin = self.cluster.rejoin(self.killed_shard, self.killed_member)
        self.cluster.wait_caught_up(timeout_s=10.0)


def run_replicated_cluster(
    binding: str = "txn",
    shard_count: int = 2,
    follower_count: int = 2,
    level: str = "strong",
    properties: Mapping[str, str] | None = None,
    seed: int = 0,
    kill: bool = True,
    kill_fraction: float = 0.5,
    lease_margin_s: float = 0.5,
) -> ReplicatedRunResult:
    """One leader-failover crash/recovery cycle; the campaign's unit of work.

    ``kill_fraction`` of the operations run against the healthy cluster,
    the rest with the seed-chosen shard's leader killed.  ``level`` sets
    the raw binding's read consistency (the txn binding always routes
    through shard leaders).
    """
    if binding not in CLUSTER_BINDINGS:
        raise ValueError(
            f"unknown cluster binding {binding!r}; use one of {CLUSTER_BINDINGS}"
        )
    props = _cluster_properties(properties, seed)
    scenario = _ShardLeaderKill(binding, shard_count, follower_count, level, seed)
    cycle = kill_halfway(scenario, props, kill, kill_fraction, lease_margin_s)
    return ReplicatedRunResult(
        binding=binding,
        seed=seed,
        shard_count=shard_count,
        follower_count=follower_count,
        level=level,
        killed_shard=scenario.killed_shard,
        killed_member=scenario.killed_member,
        failover=scenario.failover,
        rejoin=scenario.rejoin,
        properties=props.as_dict(),
        **cycle,
    )
