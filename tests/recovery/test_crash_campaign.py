"""Crash campaign: crash → scavenge → re-validate, deterministically.

The acceptance bar for the recovery subsystem: for every seeded crash
schedule, post-recovery CEW validation passes on the transactional
bindings (total cash preserved, gamma == 0, zero residual locks), and the
same seed replays to a byte-identical report.
"""

import json

import pytest

from repro.campaign import sweep, write_trace
from repro.recovery.campaign import (
    CRASH_SCHEDULES,
    CrashRunResult,
    run_crash,
    seeded_schedule,
)


def _run(binding="txn", seed=0, schedule="multi", **kwargs) -> CrashRunResult:
    kwargs.setdefault("trace", False)
    return run_crash(binding=binding, seed=seed, schedule=schedule, **kwargs)


class TestRecoveryVerdict:
    @pytest.mark.parametrize("schedule", sorted(CRASH_SCHEDULES))
    def test_txn_recovers_from_every_schedule(self, schedule):
        result = _run(binding="txn", seed=1, schedule=schedule)
        assert result.fired, "the schedule never crashed anyone"
        assert result.crashes >= 1
        assert result.post_passed
        assert result.post_gamma == 0.0
        assert result.residual_locks == 0
        assert not result.violation

    def test_percolator_recovers(self):
        result = _run(binding="pct", seed=1, schedule="primary-commit")
        assert result.fired
        assert not result.violation

    def test_seeded_schedule_runs(self):
        result = _run(binding="txn", seed=5, schedule="seeded")
        assert result.schedule == "seeded"
        assert not result.violation

    def test_raw_binding_can_leak_money(self):
        """The baseline: no transactions, so a mid-transfer death leaks.

        Not every crash lands between a transfer's debit and credit, so
        scan a few seeds; at least one must show the leak the
        transactional bindings are immune to.
        """
        results = [
            _run(binding="raw", seed=seed, schedule="worker-kill")
            for seed in range(3)
        ]
        assert any(r.crashes for r in results)
        assert any(r.violation for r in results)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        first = _run(binding="txn", seed=11, schedule="multi")
        second = _run(binding="txn", seed=11, schedule="multi")
        assert first.fired == second.fired
        assert first.report_jsonl == second.report_jsonl
        assert first.counters == second.counters

    def test_seeded_schedule_is_pure(self):
        assert seeded_schedule(42) == seeded_schedule(42)
        schedule = seeded_schedule(7)
        assert schedule, "a seeded schedule must name at least one point"
        for hits in schedule.values():
            assert all(hit >= 1 for hit in hits)


class TestScavengerEvidence:
    def test_scavenger_counters_reach_the_report(self):
        result = _run(binding="txn", seed=1, schedule="multi")
        assert result.counters.get("CRASHPOINTS-FIRED") == len(result.fired)
        assert "SCAVENGER-PASSES" in result.counters


class TestCampaign:
    def test_campaign_sweeps_and_writes_artifacts(self, tmp_path):
        campaign = sweep(
            [("worker-kill",), ("raw", "txn")],
            range(2),
            lambda schedule, binding, seed: _run(binding, seed, schedule),
            out_dir=tmp_path,
        )
        assert len(campaign.runs) == 4
        # Transactional recovery held; any violations are raw-binding ones.
        assert campaign.failures == []
        for run in campaign.violations:
            assert run.binding == "raw"
        assert len(campaign.artifacts) == len(campaign.violations)
        summary = campaign.summary()
        assert "txn:" in summary and "raw:" in summary

    def test_violation_trace_is_replayable_json(self, tmp_path):
        result = _run(binding="raw", seed=0, schedule="worker-kill")
        path = write_trace(result, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "ycsbt-crash-violation"
        assert payload["seed"] == 0
        assert "ycsbt crash" in payload["replay"]["command"]
        assert payload["crash_schedule"] == result.crash_schedule


class TestCli:
    def test_crash_command_exit_zero_on_clean_txn_sweep(self, capsys):
        from repro.core.cli import main

        code = main(
            [
                "crash",
                "--seeds",
                "1",
                "--db",
                "txn",
                "--schedule",
                "prewrite",
                "--no-trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "txn:" in out
        assert "0 post-recovery violations" in out

    def test_crash_command_rejects_bad_seed_count(self):
        from repro.core.cli import main

        with pytest.raises(SystemExit):
            main(["crash", "--seeds", "0"])
