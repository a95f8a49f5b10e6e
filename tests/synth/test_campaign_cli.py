"""Synthesis campaigns and the ``ycsbt synth`` sub-command."""

import json

import pytest

import repro.synth.engine as engine_module
from repro.campaign import sweep, write_trace
from repro.core.cli import main
from repro.synth.engine import AssertionOutcome, SynthRunResult, run_synth
from repro.synth.models import RateCurve
from repro.synth.spec import SynthSpec, scenario_names


def tiny_spec(name="tiny", **overrides):
    values = {
        "name": name,
        "duration_s": 30.0,
        "users": 500,
        "active_users": 128,
        "records": 200,
        "binding": "raw",
        "curve": RateCurve(base_rate=20.0),
    }
    values.update(overrides)
    return SynthSpec(**values)


def fake_result(passed, scenario="steady", binding="raw", seed=9):
    outcome = AssertionOutcome(
        name="rate-conformance", passed=passed,
        detail="fabricated for the artifact test",
    )
    return SynthRunResult(
        scenario=scenario,
        binding=binding,
        seed=seed,
        operations=100,
        failed_operations=0,
        throttled_operations=0,
        gamma=0.0,
        validation_passed=True,
        assertions=[outcome],
        arrivals_by_bucket=[50, 50],
        executed_by_bucket=[50, 50],
        target_by_bucket=[50.0, 50.0],
        tenant_offered={"default": 100},
        tenant_admitted={"default": 100},
        tenant_throttled={"default": 0},
        peak_user_states=10,
        distinct_users=42,
        virtual_time_s=30.0,
        wall_time_s=0.1,
        counters={},
    )


def _run(spec, binding, seed):
    return run_synth(spec, binding=binding, seed=seed)


class TestCampaign:
    def test_sweep_shape_and_summary(self):
        spec = tiny_spec()
        result = sweep([[spec], ["raw", "txn"]], [0, 1], _run)
        assert len(result.runs) == 4
        assert not result.violations
        assert {run.binding for run in result.runs} == {"raw", "txn"}
        assert "tiny: 4 runs, 0 violations" in result.summary()

    def test_spec_objects_names_and_callbacks(self):
        seen = []
        result = sweep([[tiny_spec()], [None]], [3], _run, on_result=seen.append)
        assert len(seen) == len(result.runs) == 1
        # binding=None uses the spec's own binding.
        assert result.runs[0].binding == "raw"

    def test_violation_writes_artifact(self, tmp_path):
        result = sweep(
            [[tiny_spec()], [None]],
            [9],
            lambda spec, binding, seed: fake_result(passed=False, seed=seed),
            out_dir=tmp_path,
        )
        assert len(result.violations) == 1
        assert len(result.artifacts) == 1
        payload = json.loads(result.artifacts[0].read_text())
        assert payload["kind"] == "ycsbt-synth-violation"
        assert payload["seed"] == 9
        assert "--start-seed 9" in payload["replay"]["command"]
        assert payload["assertions"][0]["passed"] is False

    def test_no_artifact_when_passing(self, tmp_path):
        result = sweep([[tiny_spec()], [None]], [0], _run, out_dir=tmp_path)
        assert not result.violations
        assert not result.artifacts
        assert not list(tmp_path.glob("synth-violation-*.json"))

    def test_trace_includes_builtin_spec(self, tmp_path):
        path = write_trace(fake_result(passed=False), tmp_path)
        payload = json.loads(path.read_text())
        # "steady" is a built-in scenario, so the full spec rides along
        # for replay without access to the original process.
        assert payload["spec"]["name"] == "steady"


class TestSynthCommand:
    def test_list_scenarios(self, capsys):
        assert main(["synth", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_spec_file_run(self, tmp_path, capsys):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps({
            "name": "mini",
            "duration_s": 20.0,
            "users": 200,
            "records": 100,
            "binding": "raw",
            "arrival": {"base_rate": 15.0},
            "assertions": {"min_bucket_expected": 0},
        }))
        exit_code = main([
            "synth", "--spec", str(path), "--seeds", "2",
            "--out", str(tmp_path / "artifacts"),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.err.count("seed=") == 2
        assert "mini: 2 runs, 0 violations" in captured.out

    def test_scenario_with_duration_override(self, capsys):
        exit_code = main([
            "synth", "--scenario", "steady", "--db", "raw",
            "--duration", "20", "--seeds", "1",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "steady: 1 runs" in captured.out

    def test_violation_fails_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            engine_module, "run_synth",
            lambda spec, binding=None, seed=0: fake_result(
                passed=False, scenario=spec.name, binding=binding or spec.binding,
                seed=seed,
            ),
        )
        exit_code = main([
            "synth", "--scenario", "steady", "--seeds", "1",
            "--out", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "violation trace:" in captured.out
        assert "rate-conformance" in captured.err

    def test_rejects_bad_seed_count(self):
        with pytest.raises(SystemExit):
            main(["synth", "--seeds", "0"])
