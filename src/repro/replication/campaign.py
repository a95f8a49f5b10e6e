"""Replication campaigns: kill the leader mid-run, fail over, re-validate.

The ``ycsbt replication`` counterpart to ``ycsbt cluster``: each run
executes the Closed Economy Workload against a live
:class:`~repro.replication.cluster.ReplicationCluster` — a leader and N
followers behind real HTTP servers, reads routed by the run's
consistency level — and, halfway through the measured phase, **kills the
leader's process**.  The campaign then

1. waits out the leader lease and promotes the most-caught-up follower
   under a bumped term (a *clean* failover first drains the dead
   leader's durable log, so no acknowledged write is lost),
2. runs the second half of the workload through the *same* routed store,
   whose lease-backed view discovers the new leader on its own,
3. revives the old leader and folds it back in as a follower
   (catch-up or full resync, whichever its log demands),
4. re-validates the CEW economy through a ``strong`` reader and checks
   every follower's log is once again identical to the leader's.

The verdict: at ``strong`` and ``read_your_writes`` the post-failover
economy must balance (total cash preserved, gamma == 0) — those are the
**gated** levels.  ``bounded_staleness`` read-modify-writes against
legally stale follower data, so its leaked money is the expected
baseline, not a violation.  A broken log-prefix invariant or a lost
acknowledged record after rejoin is a protocol violation at *every*
level.  Every violation fails the command.

Wall-clock, like every campaign over real sockets: the kill point is
deterministic (two exact half-runs), the timings are not.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..bindings.kv import KVStoreDB
from ..campaign import Scenario, kill_halfway
from ..cluster.campaign import DEFAULT_CLUSTER_PROPERTIES
from ..core.properties import Properties
from .cluster import ReplicationCluster
from .routed import ConsistencyLevel

__all__ = [
    "DEFAULT_REPLICATION_PROPERTIES",
    "REPLICATION_LEVELS",
    "GATED_LEVELS",
    "ReplicationRunResult",
    "run_replication",
]

#: The cluster campaign's CEW, single-threaded: one client session means
#: read-your-writes covers every read-modify-write the session issues, so
#: the economy must balance at both gated levels; bounded staleness still
#: bases RMWs on legally stale reads and leaks as the reported baseline.
DEFAULT_REPLICATION_PROPERTIES: dict[str, str] = {
    **DEFAULT_CLUSTER_PROPERTIES,
    "threadcount": "1",
}

REPLICATION_LEVELS = ("strong", "read_your_writes", "bounded_staleness")

#: Levels whose post-failover economy must balance.
GATED_LEVELS = ("strong", "read_your_writes")


@dataclass
class ReplicationRunResult:
    """One load → run → kill-leader → failover → run → rejoin cycle."""

    level: str
    seed: int
    follower_count: int
    #: the node killed mid-run, or None for a fault-free run.
    killed_leader: str | None
    new_leader: str | None
    term: int
    #: acknowledged records lost in the failover (must be 0: clean drain).
    lost_records: int
    rejoin_mode: str | None
    healthy_operations: int
    degraded_operations: int
    #: validation straight after the healthy half, read at the run's level.
    pre_gamma: float
    pre_passed: bool
    #: validation after failover + rejoin through a strong reader — the verdict.
    post_gamma: float
    post_passed: bool
    post_validation_fields: list[tuple[str, str]]
    #: every follower log identical to the leader's after rejoin.
    logs_converged: bool
    operations: int
    failed_operations: int
    wall_time_s: float
    counters: dict[str, int]
    properties: dict[str, str]
    errors: list[str] = field(default_factory=list)

    group_by = "level"

    @property
    def gated(self) -> bool:
        return self.level in GATED_LEVELS

    @property
    def violation(self) -> bool:
        """True when failover broke a promise the level (or protocol) made."""
        protocol_broken = not self.logs_converged or self.lost_records > 0
        economy_broken = not self.post_passed or self.post_gamma > 0.0
        return protocol_broken or (self.gated and economy_broken)

    @property
    def fails(self) -> bool:
        """Every violation fails: ``violation`` already ignores an economy
        leak at an ungated level, and a protocol break fails at any level."""
        return self.violation

    def failure(self) -> str:
        return f"post-failover violation on {self.level}/{self.seed}"

    @property
    def throughput(self) -> float:
        return self.operations / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @staticmethod
    def summarize(runs: list[ReplicationRunResult]) -> str:
        violations = sum(1 for run in runs if run.violation)
        kills = sum(1 for run in runs if run.killed_leader is not None)
        max_post = max(run.post_gamma for run in runs)
        max_pre = max(run.pre_gamma for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        return (
            f"{len(runs)} runs, {kills} leader kills, "
            f"{violations} violations, "
            f"max pre-gamma {max_pre:.6f}, max post-gamma {max_post:.6f}, "
            f"{wall:.2f} wall s"
        )

    def trace_name(self) -> str:
        return f"replication-violation-{self.level}-seed{self.seed}.json"

    def trace_payload(self) -> dict[str, object]:
        """The replayable artifact for a run that broke its promises."""
        return {
            "kind": "ycsbt-replication-violation",
            "level": self.level,
            "seed": self.seed,
            "follower_count": self.follower_count,
            "failover": {
                "killed_leader": self.killed_leader,
                "new_leader": self.new_leader,
                "term": self.term,
                "lost_records": self.lost_records,
                "rejoin_mode": self.rejoin_mode,
            },
            "healthy_operations": self.healthy_operations,
            "degraded_operations": self.degraded_operations,
            "pre_failover": {"gamma": self.pre_gamma, "passed": self.pre_passed},
            "post_failover": {
                "gamma": self.post_gamma,
                "passed": self.post_passed,
                "validation": [list(pair) for pair in self.post_validation_fields],
                "logs_converged": self.logs_converged,
            },
            "operations": self.operations,
            "failed_operations": self.failed_operations,
            "wall_time_s": self.wall_time_s,
            "counters": self.counters,
            "properties": self.properties,
            "replay": {
                "command": (
                    f"ycsbt replication --level {self.level} "
                    f"--followers {self.follower_count} "
                    f"--seeds 1 --start-seed {self.seed}"
                ),
            },
            "errors": self.errors,
        }

    def summary_line(self) -> str:
        flag = "VIOLATION" if self.violation else "ok"
        killed = self.killed_leader or "-"
        return (
            f"{self.level:<17} seed={self.seed:<6} "
            f"killed={killed:<6} new-leader={self.new_leader or '-':<6} "
            f"term={self.term} lost={self.lost_records} "
            f"rejoin={self.rejoin_mode or '-':<8} "
            f"pre-gamma={self.pre_gamma:.6f} post-gamma={self.post_gamma:.6f} "
            f"ops={self.operations} failed={self.failed_operations} "
            f"wall={self.wall_time_s:.2f}s {flag}"
        )


def _replication_properties(base: Mapping[str, str] | None, seed: int) -> Properties:
    values = dict(DEFAULT_REPLICATION_PROPERTIES)
    if base:
        values.update({key: str(value) for key, value in base.items()})
    values["seed"] = str(seed)
    values["retry.seed"] = str(seed + 2)
    return Properties(values)


class _LeaderFailover(Scenario):
    """Kill the leader and fail over cleanly before the degraded half; rejoin
    the old leader as a follower after it.  The level's verdict is read
    through a strong reader once every follower has caught up."""

    def __init__(
        self,
        level: str,
        follower_count: int,
        lease_duration_s: float,
        staleness_bound_s: float,
        seed: int,
    ):
        self.level = level
        self.follower_count = follower_count
        self.lease_duration_s = lease_duration_s
        self.staleness_bound_s = staleness_bound_s
        self.seed = seed
        self.killed_leader: str | None = None
        self.new_leader: str | None = None
        self.lost_records = 0
        self.rejoin_mode: str | None = None

    @contextmanager
    def build(self, props: Properties):
        with ReplicationCluster(
            follower_count=self.follower_count,
            lease_duration_s=self.lease_duration_s,
            seed=self.seed,
        ) as self.cluster:
            self.props = props
            self.term = self.cluster.leader_node.term
            self.routed = self.cluster.routed(
                ConsistencyLevel(self.level), staleness_bound_s=self.staleness_bound_s
            )
            yield lambda: KVStoreDB(self.routed, props)
            leader_log = self.cluster.leader_node.log.snapshot()
            self.logs_converged = all(
                node.log.snapshot() == leader_log
                for node in self.cluster.nodes.values()
                if node is not self.cluster.leader_node
            )

    def settle(self) -> None:
        self.cluster.wait_caught_up()

    def inject(self) -> None:
        # The routed store's lease-backed view finds the new leader itself.
        self.killed_leader = self.cluster.kill_leader()
        failover = self.cluster.failover(clean=True)
        self.new_leader = failover["leader"]
        self.term = failover["term"]
        self.lost_records = failover["lost_records"]

    def heal(self) -> None:
        self.rejoin_mode = self.cluster.rejoin(self.killed_leader)["mode"]

    def verdict_db(self, db_factory):
        return KVStoreDB(self.cluster.routed(ConsistencyLevel.STRONG), self.props)

    def counters(self) -> dict[str, int]:
        return self.routed.counters()


_RESULT_FIELDS = {f.name for f in dataclasses.fields(ReplicationRunResult)}


def run_replication(
    level: str = "strong",
    seed: int = 0,
    follower_count: int = 2,
    properties: Mapping[str, str] | None = None,
    kill: bool = True,
    kill_fraction: float = 0.5,
    lease_duration_s: float = 0.4,
    staleness_bound_s: float = 0.1,
) -> ReplicationRunResult:
    """One kill-the-leader cycle; the campaign's unit of work."""
    if level not in REPLICATION_LEVELS:
        raise ValueError(
            f"unknown consistency level {level!r}; use one of {REPLICATION_LEVELS}"
        )
    props = _replication_properties(properties, seed)
    scenario = _LeaderFailover(
        level, follower_count, lease_duration_s, staleness_bound_s, seed
    )
    cycle = kill_halfway(scenario, props, kill, kill_fraction)
    return ReplicationRunResult(
        level=level,
        seed=seed,
        follower_count=follower_count,
        killed_leader=scenario.killed_leader,
        new_leader=scenario.new_leader,
        term=scenario.term,
        lost_records=scenario.lost_records,
        rejoin_mode=scenario.rejoin_mode,
        logs_converged=scenario.logs_converged,
        properties=props.as_dict(),
        **{name: value for name, value in cycle.items() if name in _RESULT_FIELDS},
    )
