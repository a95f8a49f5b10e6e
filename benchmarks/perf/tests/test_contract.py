"""BENCHMARK.json against the code, and against what run.py prints."""

import json
import re
import subprocess
import sys

import pytest

import compare
from ledger.harness import END_TO_END
from ledger.layers import ISOLATED, PER_LAYER
from ledger.topologies import SPECS

CONTRACT = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_names_units_and_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert 1 <= CONTRACT["run_seconds"] <= 60


def test_contract_and_code_list_the_same_things():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(SPECS)
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {s.name: s.why for s in SPECS.values()}
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == PER_LAYER
    assert set(ISOLATED) <= set(PER_LAYER)
    assert {name for spec in SPECS.values() for name in spec.isolated} == set(ISOLATED)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_by_name_and_unit(trace, key):
    command = [sys.executable, *CONTRACT["command"][1:], "--workload", "mem_raw", "--seed", "2", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=compare.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in CONTRACT[key]}
    for metric in CONTRACT[key]:
        assert any(line.split()[1:2] == [metric["name"]] and metric["unit"] in line for line in lines[:-1])
    if not trace:
        assert all(metric["value"] > 0 for metric in last["metrics"].values())
