"""Replicated cluster campaign: kill the shard leader, fail over, re-validate."""

import json

import pytest

from repro.campaign import sweep, write_trace
from repro.cluster.replicated_campaign import (
    ReplicatedRunResult,
    run_replicated_cluster,
)

#: Small enough to keep one cycle around a second, big enough that the
#: degraded half actually commits cross-shard transactions.
FAST_PROPERTIES = {
    "recordcount": "20",
    "operationcount": "80",
    "threadcount": "2",
    "txn.lock_lease_ms": "300",
}


def _run(shard_count, binding, seed):
    return run_replicated_cluster(
        binding, shard_count, properties=FAST_PROPERTIES, seed=seed
    )


def test_unknown_binding_rejected():
    with pytest.raises(ValueError, match="unknown cluster binding"):
        run_replicated_cluster(binding="mongodb")


def test_txn_survives_a_leader_kill():
    """The tentpole promise, now through a leader change: kill a shard's
    leader mid-campaign, fail over on the lease, rejoin the dead member
    by log catch-up, replay the coordinator WAL against the *new* leader
    — and the 2PC binding still validates with gamma 0, no residual
    locks."""
    result = run_replicated_cluster(
        binding="txn", shard_count=2, properties=FAST_PROPERTIES, seed=0
    )
    assert result.killed_shard is not None
    assert result.killed_member is not None
    assert result.degraded_operations > 0
    assert result.transactional
    assert not result.violation, result.summary_line()
    assert result.post_gamma == 0.0
    assert result.residual_locks == 0
    # The failover was real: a different member now leads at a new term.
    assert result.failover["term"] >= 2
    assert result.failover["leader"] != result.killed_member
    # Durable follower logs make the rejoin a catch-up, not a resync.
    assert result.rejoin["mode"] == "catch-up"
    # The kill was real: some operations failed against the dead leader.
    assert result.failed_operations > 0
    assert "VIOLATION" not in result.summary_line()


def test_fault_free_run_skips_the_kill():
    result = run_replicated_cluster(
        binding="txn", shard_count=2, properties=FAST_PROPERTIES, seed=1, kill=False
    )
    assert result.killed_shard is None
    assert result.killed_member is None
    assert result.failover == {}
    assert not result.violation, result.summary_line()
    assert result.post_gamma == 0.0


def test_violation_trace_is_replayable_json(tmp_path):
    result = run_replicated_cluster(
        binding="txn", shard_count=2, properties=FAST_PROPERTIES, seed=2
    )
    path = write_trace(result, tmp_path)
    trace = json.loads(path.read_text(encoding="utf-8"))
    assert trace["kind"] == "ycsbt-replicated-cluster-violation"
    assert trace["binding"] == "txn"
    assert trace["shard_count"] == 2
    assert trace["follower_count"] == 2
    assert trace["seed"] == 2
    assert "gamma" in trace["post_recovery"]
    assert "coordinator_recovery" in trace
    assert "failover" in trace and "rejoin" in trace
    assert trace["properties"]["operationcount"] == "80"
    assert trace["replay"]["command"].startswith("ycsbt replicated-cluster")


@pytest.mark.slow
def test_raw_binding_leaks_money_across_a_dead_leader():
    """The control: without 2PC the same kill schedule loses cash.  One
    seed is not guaranteed to leak, so sweep a few and require at least
    one raw violation — that asymmetry against the txn runs above is the
    whole point of the campaign."""
    campaign = sweep([(2,), ("raw",)], range(3), _run)
    assert len(campaign.runs) == 3
    assert campaign.violations, campaign.summary()
    assert campaign.failures == []


@pytest.mark.slow
def test_campaign_sweeps_and_writes_artifacts(tmp_path):
    seen: list[ReplicatedRunResult] = []
    campaign = sweep(
        [(2,), ("raw", "txn")], [0], _run, out_dir=tmp_path, on_result=seen.append
    )
    assert len(campaign.runs) == len(seen) == 2
    assert campaign.failures == []
    for artifact in campaign.artifacts:
        assert artifact.exists()
    assert "txn" in campaign.summary()
    assert "catch-up rejoins" in campaign.summary()


@pytest.mark.slow
def test_cli_replicated_cluster_command_exits_clean(tmp_path, capsys):
    from repro.core.cli import main

    code = main(
        [
            "replicated-cluster",
            "--seeds", "1",
            "--db", "txn",
            "--shards", "2",
            "--followers", "1",
            "--out", str(tmp_path),
            "-p", "operationcount=80",
            "-p", "recordcount=20",
            "-p", "threadcount=2",
            "-p", "txn.lock_lease_ms=300",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "txn" in out
