"""The interpolated HDR quantile and compare.py's verdicts."""

import json
import random

import compare
from ledger.harness import hdr_quantile
from repro.measurements.hdr import HdrHistogramMeasurement


def test_hdr_quantile_tracks_the_exact_quantile():
    rng = random.Random(5)
    samples = [int(rng.lognormvariate(6.0, 0.5)) for _ in range(20_000)]
    histogram = HdrHistogramMeasurement("X", 2)
    for value in samples:
        histogram.measure(value)
    series = histogram.to_dict()
    ordered = sorted(samples)
    for fraction in (0.5, 0.95, 0.99):
        exact = ordered[int(fraction * len(ordered))]
        assert abs(hdr_quantile(series, fraction) - exact) <= 0.01 * exact + 1
    assert hdr_quantile(None, 0.5) == 0.0


def test_hdr_quantile_resolves_below_one_microsecond():
    histogram = HdrHistogramMeasurement("X", 2)
    for value in [10] * 60 + [11] * 40:
        histogram.measure(value)
    # The median sits five sixths of the way through the "10" slot.
    assert abs(hdr_quantile(histogram.to_dict(), 0.5) - (10 + 50 / 60)) < 1e-9


def _document(throughput, latency, profile=None):
    row = lambda values, unit: {  # noqa: E731
        "median": sorted(values)[len(values) // 2], "values": values, "unit": unit, "samples": 1
    }
    contract = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {spec["name"]: row([1.0], spec["unit"]) for spec in contract["end_to_end"]}
    end_to_end["throughput_ops_s"] = row(throughput, "1/s")
    end_to_end["tx_write_p50_us"] = row(latency, "us")
    return {
        "profile": profile or {"cpu_model": "x", "nproc": 2},
        "workloads": {w["name"]: {"end_to_end": end_to_end} for w in contract["workloads"]},
    }


def _verdicts(report):
    return {line.split()[-1] for line in report.splitlines()[1:] if line}


def _compare(tmp_path, a, b):
    paths = []
    for name, document in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        paths.append(str(path))
    return compare.main(paths)


def test_same_numbers_pass(tmp_path, capsys):
    assert _compare(tmp_path, _document([100.0], [50.0]), _document([100.0], [50.0])) == 0
    assert _verdicts(capsys.readouterr().out) == {"ok"}


def test_a_drop_beyond_the_bound_fails(tmp_path, capsys):
    assert _compare(tmp_path, _document([100.0], [50.0]), _document([70.0], [50.0])) == 1
    assert _verdicts(capsys.readouterr().out) == {"ok", "worse"}


def test_a_shift_inside_the_clock_resolution_is_not_a_regression(tmp_path):
    assert _compare(tmp_path, _document([100.0], [5.0]), _document([100.0], [6.5])) == 0


def test_spread_beyond_the_bound_is_unresolved_not_worse(tmp_path, capsys):
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert _compare(tmp_path, _document(noisy, [50.0]), _document([v * 0.6 for v in noisy], [50.0])) == 0
    assert _verdicts(capsys.readouterr().out) == {"ok", "unresolved"}


def test_different_environments_are_refused(tmp_path, capsys):
    other = _document([100.0], [50.0], profile={"cpu_model": "y", "nproc": 2})
    assert _compare(tmp_path, _document([100.0], [50.0]), other) == 2
    assert "refusing" in capsys.readouterr().out
