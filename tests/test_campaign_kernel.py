"""The campaign kernel: sweep order, artifacts, verdicts, exit codes, traces.

Every seed-sweep subcommand is one ``repro.campaign.sweep`` over a unit of
work.  These tests drive the kernel with fabricated results, so they pin
the rules themselves — which runs write a trace, which fail the command,
what each trace is named and which keys it carries — without running a
single workload.
"""

import json

import pytest

from repro.campaign import Campaign, sweep, write_trace
from repro.cluster.campaign import ClusterRunResult
from repro.cluster.replicated_campaign import ReplicatedRunResult
from repro.core.cli import main
from repro.recovery.campaign import CrashRunResult
from repro.replication.campaign import ReplicationRunResult
from repro.sim.campaign import SimRunResult
from repro.synth.engine import AssertionOutcome, SynthRunResult


class Fake:
    """A minimal result type: a violation on odd seeds, fails on txn."""

    group_by = "binding"

    def __init__(self, schedule, binding, seed):
        self.schedule, self.binding, self.seed = schedule, binding, seed

    @property
    def violation(self):
        return self.seed % 2 == 1

    @property
    def fails(self):
        return self.violation and self.binding == "txn"

    @staticmethod
    def summarize(runs):
        return f"{len(runs)} runs"

    def trace_name(self):
        return f"fake-{self.schedule}-{self.binding}-seed{self.seed}.json"

    def trace_payload(self):
        return {"seed": self.seed, "binding": self.binding}


class TestSweep:
    def test_order_is_the_old_nested_loops(self):
        schedules, bindings, seeds = ("baseline", "storm"), ("raw", "txn"), range(3)
        nested = [
            (schedule, binding, seed)
            for schedule in schedules
            for binding in bindings
            for seed in seeds
        ]
        campaign = sweep([schedules, bindings], seeds, Fake)
        assert [(r.schedule, r.binding, r.seed) for r in campaign.runs] == nested

    def test_single_axis(self):
        campaign = sweep(
            [("strong", "bounded")], [4, 5], lambda level, seed: Fake(level, "raw", seed)
        )
        assert [(r.schedule, r.seed) for r in campaign.runs] == [
            ("strong", 4), ("strong", 5), ("bounded", 4), ("bounded", 5),
        ]

    def test_artifacts_only_for_violations_and_only_with_out_dir(self, tmp_path):
        campaign = sweep([("s",), ("raw", "txn")], range(4), Fake, out_dir=tmp_path)
        assert len(campaign.violations) == 4
        assert campaign.artifacts == [tmp_path / r.trace_name() for r in campaign.violations]
        assert sorted(tmp_path.iterdir()) == sorted(campaign.artifacts)
        payload = json.loads(campaign.artifacts[0].read_text())
        assert payload == {"seed": 1, "binding": "raw"}
        # Today's writer: two-space indent, sorted keys, trailing newline.
        assert campaign.artifacts[0].read_text() == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

        without = sweep([("s",), ("raw", "txn")], range(4), Fake)
        assert without.violations and without.artifacts == []

    def test_on_result_sees_every_run_in_order(self):
        seen = []
        campaign = sweep([("s",), ("raw", "txn")], range(3), Fake, on_result=seen.append)
        assert seen == campaign.runs
        assert len(seen) == 6

    def test_failures_are_a_subset_of_violations(self):
        campaign = sweep([("s",), ("raw", "txn")], range(6), Fake)
        assert campaign.failures
        assert all(run in campaign.violations for run in campaign.failures)
        assert {run.binding for run in campaign.failures} == {"txn"}

    def test_summary_groups_sorted(self):
        campaign = sweep([("s",), ("txn", "raw")], range(2), Fake)
        assert campaign.summary() == "raw: 2 runs\ntxn: 2 runs"
        assert Campaign().summary() == ""


# -- fabricated results of the six campaign kinds ------------------------------

_COMMON = {
    "seed": 3,
    "operations": 80,
    "failed_operations": 2,
    "wall_time_s": 0.5,
    "counters": {"CLIENT-CRASHES": 1},
    "properties": {"operationcount": "80", "fault.seed": "4"},
}
_CYCLE = {
    "healthy_operations": 40,
    "degraded_operations": 40,
    "pre_gamma": 0.0,
    "pre_passed": True,
    "post_validation_fields": [("TOTAL CASH", "40000")],
}
_RECOVERED = {
    "residual_locks": 0,
    "recovery": {"redone": 1, "undone": 0},
    "scavenger_counters": {},
    "report_jsonl": "",
}


def make(kind, broken=False, **fields):
    """A result of ``kind``; ``broken`` makes its economy leak."""
    post = {"post_gamma": 0.25 if broken else 0.0, "post_passed": not broken}
    if kind == "sim":
        values = {
            **_COMMON,
            "binding": "raw",
            "schedule": "baseline",
            "gamma": post["post_gamma"],
            "passed": not broken,
            "validation_fields": [("TOTAL CASH", "40000")],
            "load_operations": 40,
            "run_time_virtual_s": 2.0,
            "events_processed": 900,
            "report_jsonl": "",
        }
        return SimRunResult(**{**values, **fields})
    if kind == "crash":
        values = {
            **_COMMON,
            **post,
            "residual_locks": 0,
            "scavenger_counters": {},
            "report_jsonl": "",
            "binding": "raw",
            "schedule": "prewrite",
            "crash_schedule": {"txn.after_prewrite": [3]},
            "fired": [("txn.after_prewrite", 3)],
            "crashes": 1,
            "pre_gamma": 0.0,
            "pre_passed": True,
            "post_validation_fields": [],
            "run_time_virtual_s": 2.0,
            "events_processed": 900,
        }
        return CrashRunResult(**{**values, **fields})
    if kind == "cluster":
        values = {
            **_COMMON, **_CYCLE, **_RECOVERED, **post,
            "binding": "raw", "shard_count": 4, "killed_shard": "shard3",
        }
        return ClusterRunResult(**{**values, **fields})
    if kind == "replicated-cluster":
        values = {
            **_COMMON, **_CYCLE, **_RECOVERED, **post,
            "binding": "raw", "shard_count": 2, "follower_count": 2,
            "level": "strong", "killed_shard": "shard1",
            "killed_member": "shard1-n0",
            "failover": {"leader": "shard1-n1", "term": 2},
            "rejoin": {"mode": "catch-up"},
        }
        return ReplicatedRunResult(**{**values, **fields})
    if kind == "replication":
        values = {
            **_COMMON, **_CYCLE, **post,
            "level": "strong", "follower_count": 2, "killed_leader": "node0",
            "new_leader": "node1", "term": 2, "lost_records": 0,
            "rejoin_mode": "catch-up", "logs_converged": True,
        }
        return ReplicationRunResult(**{**values, **fields})
    assert kind == "synth"
    values = {
        "scenario": "steady",
        "binding": "raw",
        "seed": 3,
        "operations": 80,
        "failed_operations": 0,
        "throttled_operations": 0,
        "gamma": 0.0,
        "validation_passed": True,
        "assertions": [
            AssertionOutcome("rate-conformance", not broken, "fabricated")
        ],
        "arrivals_by_bucket": [40, 40],
        "executed_by_bucket": [40, 40],
        "target_by_bucket": [40.0, 40.0],
        "tenant_offered": {"default": 80},
        "tenant_admitted": {"default": 80},
        "tenant_throttled": {"default": 0},
        "peak_user_states": 10,
        "distinct_users": 50,
        "virtual_time_s": 30.0,
        "wall_time_s": 0.1,
        "counters": {},
    }
    return SynthRunResult(**{**values, **fields})


# -- one exit-code rule per subcommand -------------------------------------------

#: subcommand -> (module attribute holding its unit of work, fixed argv).
_UNITS = {
    "sim": ("repro.sim.campaign.run_sim", []),
    "crash": ("repro.recovery.campaign.run_crash", ["--no-trace"]),
    "cluster": ("repro.cluster.campaign.run_cluster", []),
    "replicated-cluster": (
        "repro.cluster.replicated_campaign.run_replicated_cluster", [],
    ),
    "replication": ("repro.replication.campaign.run_replication", []),
    "synth": ("repro.synth.engine.run_synth", []),
}

_EXIT_CASES = [
    # Raw bindings have no transactions: their leaks are findings.
    ("sim", {"binding": "raw"}, True, 0),
    ("sim", {"binding": "txn"}, True, 1),
    ("sim", {"binding": "txn"}, False, 0),
    ("crash", {"binding": "raw"}, True, 0),
    ("crash", {"binding": "txn"}, True, 1),
    ("crash", {"binding": "pct"}, True, 1),
    ("crash", {"binding": "txn", "residual_locks": 2}, False, 1),
    ("cluster", {"binding": "raw"}, True, 0),
    ("cluster", {"binding": "txn"}, True, 1),
    ("replicated-cluster", {"binding": "raw"}, True, 0),
    ("replicated-cluster", {"binding": "txn"}, True, 1),
    # The synthesis engine is serial: any violation is a bug.
    ("synth", {"binding": "raw"}, True, 1),
    ("synth", {"binding": "txn"}, False, 0),
    # Replication: an economy leak is gated at strong/read_your_writes only,
    # a broken protocol (lost acknowledged records, diverged logs) everywhere.
    ("replication", {"level": "strong"}, True, 1),
    ("replication", {"level": "bounded_staleness"}, True, 0),
    (
        "replication",
        {"level": "bounded_staleness", "lost_records": 3, "logs_converged": False},
        False,
        1,
    ),
    ("replication", {"level": "bounded_staleness", "logs_converged": False}, False, 1),
]


@pytest.mark.parametrize(
    "command,fields,broken,expected",
    _EXIT_CASES,
    ids=[f"{c[0]}-{'-'.join(map(str, c[1].values()))}-{c[2]}" for c in _EXIT_CASES],
)
def test_exit_code_rule(command, fields, broken, expected, monkeypatch, tmp_path, capsys):
    target, argv = _UNITS[command]
    result = make(command, broken, **fields)
    monkeypatch.setattr(target, lambda *args, **kwargs: result)

    code = main([command, "--seeds", "1", "--out", str(tmp_path), *argv])

    captured = capsys.readouterr()
    assert code == expected, captured.err
    assert captured.err.splitlines()[0] == result.summary_line()
    assert ("error:" in captured.err) == bool(expected)
    written = list(tmp_path.iterdir())
    assert written == ([tmp_path / result.trace_name()] if result.violation else [])
    if written:
        assert f"violation trace: {written[0]}" in captured.out


def test_replication_protocol_break_fails_at_an_ungated_level():
    """Regression: a lost-records run at bounded_staleness is a violation
    and must fail the command, though the level's economy is not gated."""
    run = make("replication", level="bounded_staleness", lost_records=3, logs_converged=False)
    assert not run.gated
    assert run.violation
    assert run.fails


# -- trace schemas -------------------------------------------------------------

_SCHEMAS = {
    "sim": (
        "violation-raw-baseline-seed3.json",
        [
            "binding", "counters", "errors", "events_processed",
            "failed_operations", "fault_schedule", "gamma", "kind",
            "operations", "properties", "replay", "schedule", "seed",
            "validation", "validation_passed", "virtual_run_time_s",
        ],
    ),
    "crash": (
        "crash-violation-raw-prewrite-seed3.json",
        [
            "binding", "counters", "crash_schedule", "crashes",
            "crashpoints_fired", "errors", "events_processed",
            "failed_operations", "kind", "operations", "post_recovery",
            "pre_recovery", "properties", "replay", "scavenger", "schedule",
            "seed", "virtual_run_time_s",
        ],
    ),
    "cluster": (
        "cluster-violation-raw-shards4-seed3.json",
        [
            "binding", "coordinator_recovery", "counters",
            "degraded_operations", "errors", "failed_operations",
            "healthy_operations", "killed_shard", "kind", "operations",
            "post_recovery", "pre_recovery", "properties", "replay",
            "scavenger", "seed", "shard_count", "wall_time_s",
        ],
    ),
    "replicated-cluster": (
        "replicated-violation-raw-shards2-seed3.json",
        [
            "binding", "coordinator_recovery", "counters",
            "degraded_operations", "errors", "failed_operations", "failover",
            "follower_count", "healthy_operations", "killed_member",
            "killed_shard", "kind", "level", "operations", "post_recovery",
            "pre_recovery", "properties", "rejoin", "replay", "scavenger",
            "seed", "shard_count", "wall_time_s",
        ],
    ),
    "replication": (
        "replication-violation-strong-seed3.json",
        [
            "counters", "degraded_operations", "errors", "failed_operations",
            "failover", "follower_count", "healthy_operations", "kind",
            "level", "operations", "post_failover", "pre_failover",
            "properties", "replay", "seed", "wall_time_s",
        ],
    ),
    "synth": (
        "synth-violation-steady-raw-seed3.json",
        [
            "arrivals_by_bucket", "assertions", "binding", "counters",
            "distinct_users", "failed_operations", "gamma", "kind",
            "operations", "peak_user_states", "properties", "replay",
            "scenario", "seed", "spec", "target_by_bucket", "tenant_admitted",
            "tenant_offered", "tenant_throttled", "throttled_operations",
            "validation", "validation_passed", "virtual_time_s",
        ],
    ),
}


@pytest.mark.parametrize("kind", sorted(_SCHEMAS))
def test_trace_schema(kind, tmp_path):
    name, keys = _SCHEMAS[kind]
    result = make(kind, broken=True)
    assert result.violation
    path = write_trace(result, tmp_path)
    assert path.name == name
    payload = json.loads(path.read_text())
    assert sorted(payload) == keys
    assert payload["kind"] == f"ycsbt-{kind}-violation"
    assert payload["seed"] == 3
    assert payload["replay"]["command"].startswith(f"ycsbt {kind} ")
