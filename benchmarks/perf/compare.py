"""Compare two result files of the performance ledger.

    python benchmarks/perf/compare.py A.json B.json

A is the baseline, B the candidate; both come from ``run.py --out``.  One row
per (workload, end-to-end metric): both medians, the relative delta in the
direction that hurts, the metric's bound from BENCHMARK.json and a verdict —

    ok          B is no worse than A by more than the bound
    worse       B is worse than A by more than the bound
    unresolved  the run-to-run spread of either side exceeds the bound, so the
                pair cannot be told apart (needs ``--repeat`` >= 2 to be seen)

Per-layer rows follow when both files hold a traced run; they carry no bound
and no verdict.  Refuses (exit 2) when the environment profiles differ, exits
1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger.envprofile import COMPARED_KEYS  # noqa: E402

#: latencies are recorded in whole microseconds; a shift below two of them is
#: inside the instrument's resolution whatever its relative size.
LATENCY_FLOOR_US = 2.0


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 with fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0


def verdict(name: str, spec: dict, base: dict, candidate: dict) -> tuple[float, str]:
    """Relative worsening of ``candidate`` against ``base`` and what to call it."""
    a, b = base["median"], candidate["median"]
    worsening = (a - b) / abs(a) if spec["better"] == "higher" else (b - a) / abs(a)
    if max(spread(base["values"]), spread(candidate["values"])) > spec["bound"]:
        return worsening, "unresolved"
    if worsening <= spec["bound"]:
        return worsening, "ok"
    if name.endswith("_us") and abs(b - a) < LATENCY_FLOOR_US:
        return worsening, "ok"
    return worsening, "worse"


def layer_deltas(base: dict, candidate: dict) -> list[tuple[str, str, float, float, float]]:
    """(workload, metric, base, candidate, relative change) for every per-layer
    metric both files hold, largest absolute relative change first.  The
    ``trace.*`` metrics describe the instrument, not a layer, and stay out."""
    rows = []
    for workload, entry in base["workloads"].items():
        theirs = candidate["workloads"].get(workload, {}).get("per_layer")
        for name, ours in (entry.get("per_layer") or {}).items():
            if theirs and name in theirs and ours["median"] and not name.startswith("trace."):
                change = (theirs[name]["median"] - ours["median"]) / abs(ours["median"])
                rows.append((workload, name, ours["median"], theirs[name]["median"], change))
    return sorted(rows, key=lambda row: -abs(row[4]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    differing = [
        key for key in COMPARED_KEYS if base["profile"].get(key) != candidate["profile"].get(key)
    ]
    if differing:
        for key in differing:
            print(f"profile differs on {key}: {base['profile'].get(key)!r} vs {candidate['profile'].get(key)!r}")
        print("refusing to compare runs from different environments")
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worse = 0
    print(f"{'workload':<17} {'metric':<20} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>6}  verdict")
    for workload in (entry["name"] for entry in contract["workloads"]):
        ours = base["workloads"].get(workload, {}).get("end_to_end")
        theirs = candidate["workloads"].get(workload, {}).get("end_to_end")
        if not ours or not theirs:
            print(f"{workload:<17} missing from {'A' if not ours else 'B'}")
            worse += 1
            continue
        for spec in contract["end_to_end"]:
            name = spec["name"]
            change, word = verdict(name, spec, ours[name], theirs[name])
            worse += word == "worse"
            print(
                f"{workload:<17} {name:<20} {ours[name]['median']:>14.4f} {theirs[name]['median']:>14.4f} "
                f"{change:>+9.1%} {spec['bound']:>6.0%}  {word}"
            )
    layers = layer_deltas(base, candidate)
    if layers:
        print(f"\n{'workload':<17} {'per-layer metric':<42} {'A':>14} {'B':>14} {'change':>9}")
        for workload, name, a, b, change in layers:
            print(f"{workload:<17} {name:<42} {a:>14.4f} {b:>14.4f} {change:>+9.1%}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
