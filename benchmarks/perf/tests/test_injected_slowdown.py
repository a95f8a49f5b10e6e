"""The ledger's acceptance test: slow one layer down through its proxy and the
gate must fail and the breakdown must name that layer."""

import json

import pytest

import compare
from ledger.envprofile import environment_profile
from ledger.harness import run_workload
from ledger.topologies import SPECS

#: (proxied class, workload, calls of that class per operation, layer it must name)
CASES = [
    ("KeyValueStore", "mem_txn", 7.5, "kvstore.memory."),
    ("TransactionManager", "mem_txn", 1.0, "txn.manager."),
    ("CoordinatorWAL", "shard4_2pc", 1.5, "cluster.wal."),
]
OPS = {"mem_txn": 3_000, "shard4_2pc": 360}
#: the slowdown, as a share of the time one operation takes end to end: half
#: as much again as the throughput bound the gate trips at, which leaves a
#: short run's own noise some room.
SLOWDOWN = 1.5 * next(
    metric["bound"]
    for metric in json.loads((compare.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if metric["name"] == "throughput_ops_s"
)


def _document(spec, seed, tmp_path, tag, inject=None):
    runs = {
        "end_to_end": run_workload(spec, seed, 1, False, tmp_path / f"{tag}-e2e", ops=OPS[spec.name], inject=inject),
        "per_layer": run_workload(spec, seed, 1, True, tmp_path / f"{tag}-trace", ops=OPS[spec.name], inject=inject),
    }
    assert all(run["correct"] for run in runs.values())
    entry = {
        key: {
            name: {"median": metric["value"], "values": [metric["value"]], "unit": metric["unit"], "samples": metric["samples"]}
            for name, metric in run["metrics"].items()
        }
        for key, run in runs.items()
    }
    return {"profile": environment_profile(), "workloads": {spec.name: entry}}, runs


@pytest.mark.parametrize("kind,workload,calls_per_op,layer", CASES)
def test_a_slowed_layer_fails_the_gate_and_is_named(kind, workload, calls_per_op, layer, tmp_path, capsys):
    spec = SPECS[workload]
    base, runs = _document(spec, 5, tmp_path, "base")
    throughput = runs["end_to_end"]["metrics"]["throughput_ops_s"]["value"]
    per_op_ns = spec.clients / throughput * 1e9
    delay_ns = int(SLOWDOWN * per_op_ns / calls_per_op)
    slowed, _ = _document(spec, 5, tmp_path, "slow", inject={kind: delay_ns})

    paths = []
    for name, document in (("base.json", base), ("slow.json", slowed)):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        paths.append(str(path))
    status = compare.main(paths)
    report = capsys.readouterr().out
    rows = [line for line in report.splitlines() if line.startswith(workload) and line.endswith("worse")]
    assert status == 1 and any("throughput_ops_s" in row for row in rows), report

    worst = compare.layer_deltas(base, slowed)[0]
    assert worst[1].startswith(layer), compare.layer_deltas(base, slowed)[:5]
