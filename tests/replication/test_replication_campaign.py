"""Replication campaign: kill the leader mid-CEW, fail over, re-validate."""

import json

import pytest

from repro.campaign import sweep, write_trace
from repro.replication.campaign import (
    ReplicationRunResult,
    run_replication,
)

#: Small enough to keep one cycle around a second, big enough that the
#: degraded half actually runs through the promoted leader.
FAST_PROPERTIES = {
    "recordcount": "20",
    "operationcount": "80",
}


def _run(level, seed):
    return run_replication(level, seed, properties=FAST_PROPERTIES)


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match="unknown consistency level"):
        run_replication(level="eventual")


def test_strong_survives_a_leader_kill():
    """The tentpole promise over the wire: kill the leader mid-campaign,
    fail over on the lease, and the economy still balances."""
    result = run_replication(level="strong", properties=FAST_PROPERTIES, seed=0)
    assert result.killed_leader == "node0"
    assert result.new_leader in ("node1", "node2")
    assert result.term == 2
    assert result.lost_records == 0  # clean drain of the durable log
    assert result.degraded_operations > 0
    assert result.rejoin_mode in ("catch-up", "resync")
    assert result.logs_converged
    assert result.gated
    assert not result.violation, result.summary_line()
    assert result.post_gamma == 0.0
    assert "VIOLATION" not in result.summary_line()


def test_read_your_writes_balances_too():
    result = run_replication(
        level="read_your_writes", properties=FAST_PROPERTIES, seed=1
    )
    assert not result.violation, result.summary_line()
    assert result.post_gamma == 0.0
    # The relaxed level actually used its followers.
    assert result.counters.get("REPL-FOLLOWER-READS", 0) > 0


def test_fault_free_run_skips_the_kill():
    result = run_replication(
        level="strong", properties=FAST_PROPERTIES, seed=2, kill=False
    )
    assert result.killed_leader is None
    assert result.term == 1
    assert not result.violation, result.summary_line()
    assert result.post_gamma == 0.0


def test_violation_trace_is_replayable_json(tmp_path):
    result = run_replication(level="strong", properties=FAST_PROPERTIES, seed=3)
    path = write_trace(result, tmp_path)
    trace = json.loads(path.read_text(encoding="utf-8"))
    assert trace["level"] == "strong"
    assert trace["seed"] == 3
    assert trace["failover"]["killed_leader"] == "node0"
    assert trace["failover"]["lost_records"] == 0
    assert "gamma" in trace["post_failover"]
    assert trace["properties"]["operationcount"] == "80"
    assert trace["replay"]["command"].startswith("ycsbt replication")


@pytest.mark.slow
def test_bounded_staleness_is_the_expected_leaky_baseline():
    """The control: read-modify-writes over legally stale follower reads
    lose money, and the campaign reports rather than gates it.  One seed
    is not guaranteed to leak, so sweep a few and require at least one."""
    campaign = sweep([("bounded_staleness",)], range(3), _run)
    assert len(campaign.runs) == 3
    leaked = [run for run in campaign.runs if run.post_gamma > 0.0]
    assert leaked, campaign.summary()
    assert campaign.failures == []
    # Whatever it leaked, the protocol itself converged everywhere.
    assert all(run.logs_converged for run in campaign.runs)


@pytest.mark.slow
def test_campaign_sweeps_and_writes_artifacts(tmp_path):
    seen: list[ReplicationRunResult] = []
    campaign = sweep(
        [("strong", "read_your_writes")], [0], _run,
        out_dir=tmp_path, on_result=seen.append,
    )
    assert len(campaign.runs) == len(seen) == 2
    assert campaign.failures == []
    for artifact in campaign.artifacts:
        assert artifact.exists()
    assert "strong" in campaign.summary()


@pytest.mark.slow
def test_cli_replication_command_exits_clean(tmp_path, capsys):
    from repro.core.cli import main

    code = main(
        [
            "replication",
            "--seeds", "1",
            "--level", "strong",
            "--out", str(tmp_path),
            "-p", "operationcount=80",
            "-p", "recordcount=20",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "strong: 1 runs, 1 leader kills" in captured.out
