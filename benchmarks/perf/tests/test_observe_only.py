"""Proxies observe, never alter: on the one-client workloads the traced and the
untraced run of one seed do the same operations, call for call."""

import dataclasses

import pytest

from ledger.harness import run_workload
from ledger.topologies import SPECS

OPS = 600  # divides into the 5 untraced, the 2 reference and the 3 traced segments


@pytest.mark.parametrize("name", ["mem_raw", "mem_txn", "http_txn_durable"])
def test_traced_and_untraced_runs_make_the_same_calls(name, tmp_path):
    spec = dataclasses.replace(SPECS[name], clients=1)
    plain = run_workload(spec, 7, 1, False, tmp_path / "plain", ops=OPS)
    traced = run_workload(spec, 7, 1, True, tmp_path / "traced", ops=OPS)
    assert plain["correct"] and traced["correct"], (plain["checks"], traced["checks"])
    assert plain["attempted"] == traced["attempted"] == OPS
    assert plain["failed"] == traced["failed"] == 0
    assert plain["counts"] == traced["counts"]
    stores = traced["metrics"]["txn.manager.store_calls_per_txn"]
    if stores["samples"]:
        # One client, no conflicts: store calls per transaction repeat exactly.
        again = run_workload(spec, 7, 1, True, tmp_path / "again", ops=OPS)
        assert again["metrics"]["txn.manager.store_calls_per_txn"]["value"] == stores["value"]


def test_fsyncs_are_counted_over_the_timed_phase_alone(tmp_path):
    """Every transfer costs the same whole number of fsyncs however long the
    run: nothing that runs after the timed phase — the final checks, the
    isolated micro-timings, which fsync too — is counted in."""
    spec = dataclasses.replace(SPECS["http_txn_durable"], clients=1)
    per_transfer = set()
    for ops in (60, OPS):
        run = run_workload(spec, 7, 1, True, tmp_path / str(ops), ops=ops)
        assert run["correct"], run["checks"]
        fsyncs = run["metrics"]["device.fsync_count"]["value"]
        assert fsyncs == pytest.approx(run["metrics"]["device.fsyncs_per_committed_txn"]["value"] * ops)
        per_transfer.add(fsyncs / run["counts"]["series"]["TX-READMODIFYWRITE"])
    assert len(per_transfer) == 1 and per_transfer.pop() % 1 == 0


def test_the_simulated_run_is_a_function_of_its_seed(tmp_path):
    spec = SPECS["sim_txn"]
    first = run_workload(spec, 7, 1, False, tmp_path / "a", ops=OPS)
    traced = run_workload(spec, 7, 1, True, tmp_path / "b", ops=OPS)
    other = run_workload(spec, 8, 1, False, tmp_path / "c", ops=OPS)
    assert first["correct"] and traced["correct"] and other["correct"]
    assert first["sim_checksum"] == traced["sim_checksum"] != other["sim_checksum"]
