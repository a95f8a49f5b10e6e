"""Seed-sweep campaigns: determinism regression and anomaly hunting.

The two headline properties of the simulation subsystem:

* **Determinism** — a run is a pure function of its seed: same seed, same
  bytes (report export, gamma, trace); different seed, different
  interleaving.
* **Anomaly hunting** — across a seed sweep the raw binding leaks money
  (gamma > 0 on some seeds, with a replayable trace artifact) while the
  transactional binding holds gamma == 0 on every seed.
"""

import json

from repro.campaign import sweep, write_trace
from repro.sim.campaign import FAULT_SCHEDULES, SIM_BINDINGS, run_sim


def _run(schedule, binding, seed):
    return run_sim(binding, seed=seed, schedule=schedule)


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        first = run_sim("raw", seed=7)
        second = run_sim("raw", seed=7)
        assert first.report_jsonl == second.report_jsonl
        assert first.gamma == second.gamma
        assert first.counters == second.counters
        assert first.events_processed == second.events_processed
        assert first.trace.events == second.trace.events

    def test_txn_same_seed_is_byte_identical(self):
        first = run_sim("txn", seed=3)
        second = run_sim("txn", seed=3)
        assert first.report_jsonl == second.report_jsonl
        assert first.trace.events == second.trace.events

    def test_distinct_seeds_distinct_interleavings(self):
        first = run_sim("raw", seed=7)
        second = run_sim("raw", seed=8)
        assert first.trace.events != second.trace.events

    def test_schedules_change_the_run(self):
        baseline = run_sim("raw", seed=7, schedule="baseline")
        storm = run_sim("raw", seed=7, schedule="storm")
        assert baseline.trace.events != storm.trace.events


class TestCampaign:
    def test_twenty_seeds_raw_leaks_txn_never(self, tmp_path):
        """The acceptance sweep: >= 20 seeds, both bindings, baseline faults."""
        campaign = sweep([("baseline",), SIM_BINDINGS], range(20), _run, out_dir=tmp_path)

        raw_violations = [r for r in campaign.violations if r.binding == "raw"]
        assert raw_violations, "no raw-binding violation in 20 seeds"
        assert campaign.failures == []

        for run in (r for r in campaign.runs if r.binding == "txn"):
            assert run.gamma == 0.0, run.summary_line()
            assert run.passed, run.summary_line()

        # Every violation produced a replayable artifact.
        assert len(campaign.artifacts) == len(campaign.violations)
        for path in campaign.artifacts:
            payload = json.loads(path.read_text())
            assert payload["kind"] == "ycsbt-sim-violation"
            assert payload["gamma"] > 0.0 or not payload["validation_passed"]
            assert payload["trace"]["events"], "artifact carries no interleaving"
            assert "--start-seed" in payload["replay"]["command"]

    def test_violation_artifact_replays_exactly(self, tmp_path):
        campaign = sweep([("baseline",), ("raw",)], range(20), _run)
        violation = next(r for r in campaign.runs if r.violation)
        artifact = write_trace(violation, tmp_path)
        payload = json.loads(artifact.read_text())

        replay = run_sim(
            payload["binding"], seed=payload["seed"], schedule=payload["schedule"]
        )
        assert replay.gamma == payload["gamma"]
        assert [e.to_dict() for e in replay.trace.events] == payload["trace"]["events"]

    def test_every_schedule_runs(self):
        for name in FAULT_SCHEDULES:
            result = run_sim("raw", seed=1, schedule=name, trace=False)
            assert result.operations == 400
            assert result.wall_time_s < 5.0
