"""The layered performance ledger: one command, every metric by name and unit.

    PYTHONPATH=src python benchmarks/perf/run.py --seed 11            # end-to-end, all workloads
    PYTHONPATH=src python benchmarks/perf/run.py --seed 11 --traced   # plus the per-layer trace

Without ``--workload`` each workload runs in a fresh child process (one per
run, untraced first) and the children's results are merged, printed and
written to ``--out``.  With ``--workload NAME`` the workload runs in this
process; that is the form the benchmark driver calls:

    python3 benchmarks/perf/run.py --workload mem_raw --seed 3 --seconds 8 --trace 0

and its last line of output is one JSON object: correct, attempted, failed,
metrics (``--trace 0``: the end-to-end metrics, ``--trace 1``: the per-layer
ones).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from ledger.envprofile import environment_profile  # noqa: E402
from ledger.harness import run_workload  # noqa: E402
from ledger.topologies import SPECS  # noqa: E402

CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _print_metrics(workload: str, metrics: dict, value: str = "value") -> None:
    """One row per metric: name, value (or median), unit, sample count."""
    for name, metric in metrics.items():
        print(f"{workload:<17} {name:<42} {metric[value]:>16.4f} {metric['unit']:<6} n={metric['samples']}")
    share = metrics.get("trace.unexplained_share")
    if share and share[value] > 0.15:
        print(f"{workload:<17} WARNING trace.unexplained_share {share[value]:.3f} > 0.15")


def run_one(args) -> int:
    """Run one workload in this process and print the driver's result line."""
    spec = SPECS[args.workload]
    traced = bool(args.trace)
    result = run_workload(
        spec,
        args.seed,
        args.seconds,
        traced,
        OUT / f"work-{spec.name}-{os.getpid()}",
        trace_path=OUT / f"trace_{spec.name}.jsonl" if traced else None,
    )
    _print_metrics(spec.name, result["metrics"])
    _print_metrics(spec.name, result.get("diagnostics", {}))
    for name, passed in result["checks"].items():
        print(f"{spec.name:<17} check {name:<36} {'ok' if passed else 'FAILED'}")
    if "sim_checksum" in result:
        print(f"{spec.name:<17} sim_checksum {result['sim_checksum']}")
    if args.out:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    if not result["correct"]:
        failed = [name for name, passed in result["checks"].items() if not passed]
        print(f"{spec.name}: correctness checks failed: {failed}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in result["metrics"].items()
                },
            }
        )
    )
    return 0


def _child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One workload run in a fresh interpreter; its full result, or None."""
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        result_path = Path(scratch) / "result.json"
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(result_path),
        ]  # fmt: skip
        child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, errors = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"{workload}: timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
            return None
        if errors.strip():
            print(errors.rstrip(), file=sys.stderr)
        if not result_path.exists():
            print(f"{workload}: exited {child.returncode} without a result", file=sys.stderr)
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))


def _summarise(runs: list[dict]) -> dict:
    """Per metric: every run's value, and their median."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        summary[name] = {
            "median": statistics.median(values),
            "values": values,
            "unit": runs[0]["metrics"][name]["unit"],
            "samples": sum(run["metrics"][name]["samples"] for run in runs),
        }
    return summary


def run_all(args) -> int:
    """Every workload, each run in its own process; merge, print, write."""
    names = [entry["name"] for entry in load_contract()["workloads"]]
    document = {
        "profile": environment_profile(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "workloads": {},
    }
    status = 0
    for name in names:
        entry = document["workloads"][name] = {"why": SPECS[name].why}
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            if trace and not args.traced:
                continue
            runs = [_child(name, args.seed + index, args.seconds, trace) for index in range(args.repeat)]
            if None in runs or not all(run["correct"] for run in runs):
                status = 1
                runs = [run for run in runs if run]
            if not runs:
                continue
            entry[key] = _summarise(runs)
            entry[f"{key}_checks"] = [run["checks"] for run in runs]
            _print_metrics(name, entry[key], "median")
            if "sim_checksum" in runs[0]:
                entry["sim_checksum"] = runs[0]["sim_checksum"]
                print(f"{name:<17} sim_checksum {runs[0]['sim_checksum']} (seed {args.seed})")
    out = Path(args.out) if args.out else OUT / f"results-seed{args.seed}.json"
    out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11, help="feeds the workload's seed properties and nothing else")
    parser.add_argument("--seconds", type=int, default=load_contract()["run_seconds"], help="length of the timed phase")
    parser.add_argument("--workload", choices=sorted(SPECS), help="run this one workload in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload: 1 = the traced run")
    parser.add_argument("--traced", action="store_true", help="without --workload: also run every workload traced")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, on seeds seed..seed+repeat-1")
    parser.add_argument("--out", help="result file (default benchmarks/perf/out/results-seed<seed>.json)")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
