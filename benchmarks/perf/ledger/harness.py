"""Runs one workload: set-up, warm-up, timed segments, correctness checks.

Load model: closed loop, fixed operation counts.  The warm-up (part of set-up)
measures the workload's rate; each timed segment then runs a fifth of
``seconds`` at the rate of the segment before it, so the five segments last
about ``seconds`` whatever the machine.  Throughput and every latency quantile
are the median over the segments.
``ops`` replaces the calibration with a fixed count — the self-tests use it to
compare runs operation for operation.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.client import Client
from repro.measurements.registry import Measurements
from repro.sim.clock import use_clock

from . import layers
from .spans import SPAN_CAP, NullTracer, Tracer, write_jsonl
from .topologies import BATCH, LaneCEW, Spec, Stack

__all__ = ["run_workload", "hdr_quantile", "END_TO_END", "SEGMENTS", "SETUPS"]

SEGMENTS = 5
#: a traced run spends its segments on an untraced reference, then on the trace.
REFERENCE_SEGMENTS, TRACED_SEGMENTS = 2, 3
#: set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: reads issued after the bulk load, so that ``http_batch_load`` has a read unit.
READ_BACK = 3_000
#: share of ``seconds`` the bulk load gets; the read-back takes the rest.
LOAD_SHARE = 0.65
#: spans a traced run's segments are sized to record: the warm-up's spans per
#: operation are an estimate, so a third of the cap leaves room to be wrong.
SPAN_BUDGET = SPAN_CAP * 0.3

#: every end-to-end metric and its unit, in report order.
END_TO_END = {
    "throughput_ops_s": "1/s",
    "tx_read_p50_us": "us",
    "tx_read_p90_us": "us",
    "tx_write_p50_us": "us",
    "tx_write_p90_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def hdr_quantile(series: dict | None, fraction: float) -> float:
    """Interpolated quantile of a serialised HDR histogram, in microseconds.

    The registry stores whole microseconds in log-linear slots, so its own
    percentiles are quantised (and read the same run after run).  Treating the
    samples of a slot as spread evenly over the slot's width — the grouped-data
    quantile — gives a value with all the digits the sample supports.
    """
    if not series or not series.get("count"):
        return 0.0
    if series["type"] != "hdrhistogram":
        raise ValueError(f"unsupported measurement container {series['type']!r}")
    sub_bucket_count = 1
    while sub_bucket_count < 2 * 10 ** series["significant_digits"]:
        sub_bucket_count *= 2
    half = sub_bucket_count // 2
    target = fraction * series["count"]
    seen = 0
    for index, slot in enumerate(series["counts"]):
        if not slot:
            continue
        if seen + slot >= target:
            if index < sub_bucket_count:
                low, width = index, 1
            else:
                bucket = index // half - 1
                low = (index - bucket * half) << bucket
                width = 1 << bucket
            return low + width * (target - seen) / slot
        seen += slot
    return float(series["max_us"])


@dataclass
class _Ready:
    """A topology that has been started, loaded and warmed up."""

    stack: Stack
    workload: LaneCEW
    traced_workload: object
    rate: float
    loaded: int
    checks: dict[str, bool]
    checksum: str
    #: spans the warm-up recorded per operation (0 when untraced).
    spans_per_op: float = 0.0


@dataclass
class _Timed:
    """What the timed phase produced."""

    records: int
    segments: list[tuple[int, int, float]] = field(default_factory=list)  # ops, failed, seconds
    errors: list[str] = field(default_factory=list)
    #: one registry per client phase, and all of them merged.
    parts: list[Measurements] = field(default_factory=list)
    measurements: Measurements = field(default_factory=Measurements)
    workload: LaneCEW | None = None
    read_back: int = 0
    virtual_seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    after: dict[str, float] = field(default_factory=dict)
    #: what the tracer held when the phase ended (empty when untraced), so
    #: that nothing run afterwards — checks, micro-timings — is counted in.
    spans: list[tuple] = field(default_factory=list)
    fsync_ns: list[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(operations for operations, _, _ in self.segments) + self.read_back

    @property
    def failed(self) -> int:
        return sum(failed for _, failed, _ in self.segments)

    @property
    def throughput(self) -> float:
        return statistics.median(
            (operations - failed) / seconds for operations, failed, seconds in self.segments
        )


def _ambient(stack: Stack):
    return use_clock(stack.clock) if stack.clock is not None else nullcontext()


def _workload(tracer, properties) -> tuple[LaneCEW, object]:
    workload = LaneCEW()
    workload.init(properties, Measurements.from_properties(properties))
    return workload, tracer.workload(workload)


def _timed_call(stack: Stack, phase, count: int):
    """Run one client phase; returns its result and its duration in seconds —
    the client's own barrier-to-join clock, except under SimClock, where that
    clock is virtual and the wall around the call is what counts."""
    started = time.perf_counter()
    result = phase(count)
    wall = time.perf_counter() - started
    return result, (wall if stack.clock is not None else result.run_time_ms / 1000.0)


def _setup(spec: Spec, seed: int, tracer, workdir: Path) -> _Ready:
    """Start the topology, load it and warm it up."""
    workdir.mkdir(parents=True, exist_ok=True)
    stack = spec.build(spec, seed, tracer, workdir)
    try:
        with _ambient(stack):
            if spec.phase == "load":
                loaded = spec.warmup
                properties = stack.properties.merged(
                    {"recordcount": str(loaded), "totalcash": str(loaded * 100)}
                )
            else:
                loaded = spec.records
                properties = stack.properties
            workload, traced_workload = _workload(tracer, properties)
            loader = Client(
                traced_workload,
                stack.load_factory or stack.db_factory,
                properties,
                workload.measurements,
            )
            load, load_seconds = _timed_call(stack, loader.load, loaded)
            warm, warm_seconds = load, load_seconds
            checks = {
                "load_errors_empty": not load.errors and load.failed_operations == 0,
                "record_count_after_load": stack.record_count() == loaded,
            }
            if spec.phase == "run":
                tracer.reset()  # count spans per operation over the warm-up alone
                runner = Client(
                    traced_workload, stack.db_factory, properties, workload.measurements
                )
                warm, warm_seconds = _timed_call(stack, runner.run, spec.warmup)
                checks["warmup_errors_empty"] = not warm.errors and warm.failed_operations == 0
        checksum = hashlib.sha256(
            f"{load.operations}:{warm.operations}:{warm.failed_operations}:"
            f"{warm.run_time_ms:.6f}".encode()
        ).hexdigest()[:16]
        rate = warm.operations / max(warm_seconds, 1e-9)
        tracer.finish()
        spans_per_op = len(tracer.spans) / max(1, warm.operations)
        return _Ready(
            stack, workload, traced_workload, rate, loaded, checks, checksum, spans_per_op
        )
    except BaseException:
        stack.close()
        raise


def _segment(stack: Stack, timed: _Timed, workload: LaneCEW, client_for, phase: str, count: int):
    """One timed client phase with a measurement registry of its own."""
    part = Measurements.from_properties(stack.properties)
    workload.measurements = part
    result, seconds = _timed_call(stack, getattr(client_for(part), phase), count)
    timed.parts.append(part)
    timed.measurements.merge_from(part)
    timed.errors.extend(result.errors)
    if stack.clock is not None:
        timed.virtual_seconds += result.run_time_ms / 1000.0
    return result, seconds


class _Pace:
    """Sizes timed segments: a fifth of ``seconds`` at the rate the previous
    segment — for the first one, the warm-up — ran at."""

    def __init__(self, ready: _Ready, seconds: float, ops: int | None, segments: int):
        self.rate = ready.rate
        self.seconds = seconds / SEGMENTS
        self.fixed = ops // segments if ops else None
        self.cap = int(SPAN_BUDGET / ready.spans_per_op / segments) if ready.spans_per_op else None

    def size(self, share: float = 1.0) -> int:
        if self.fixed:
            return self.fixed
        size = int(self.rate * self.seconds * share)
        return min(size, self.cap) if self.cap else size

    def ran(self, timed: _Timed, result, seconds: float) -> None:
        timed.segments.append((result.operations, result.failed_operations, seconds))
        self.rate = result.operations / max(seconds, 1e-9)


def _timed_phase(spec: Spec, ready: _Ready, tracer, seconds: float, segments: int, ops: int | None) -> _Timed:
    stack = ready.stack
    timed = _Timed(records=ready.loaded)
    pace = _Pace(ready, seconds, ops, segments)
    before = layers.counters(stack)
    with _ambient(stack):
        if spec.phase == "load":
            _timed_load(spec, ready, tracer, pace, segments, timed)
        else:
            timed.workload = ready.workload
            for _ in range(segments):
                pace.ran(
                    timed,
                    *_segment(
                        stack,
                        timed,
                        ready.workload,
                        lambda part: Client(ready.traced_workload, stack.db_factory, stack.properties, part),
                        "run",
                        max(pace.size(), spec.clients),
                    ),
                )
    timed.counters = {name: value - before[name] for name, value in layers.counters(stack).items()}
    if tracer.enabled:
        timed.after = layers.after_timed(stack)
    tracer.finish()
    timed.spans, timed.fsync_ns = list(tracer.spans), list(tracer.fsync_ns)
    return timed


def _timed_load(spec: Spec, ready: _Ready, tracer, pace: _Pace, segments: int, timed: _Timed) -> None:
    """Bulk load in segments, then read a sample of what was loaded.

    Every segment gets a workload of its own that continues the key sequence
    where the last one stopped; with ``totalcash`` at 100 per record each
    account opens with exactly 100 whatever the final count turns out to be.
    """
    stack = ready.stack
    stride = BATCH * spec.clients

    def sized(records: int, **extra) -> tuple[LaneCEW, object, object]:
        properties = stack.properties.merged(
            {"recordcount": str(records), "totalcash": str(records * 100), **extra}
        )
        return (*_workload(tracer, properties), properties)

    for _ in range(segments):
        size = max(stride, pace.size(LOAD_SHARE) // stride * stride)
        workload, traced_workload, properties = sized(
            timed.records + size, insertstart=str(timed.records), insertcount=str(size)
        )
        pace.ran(
            timed,
            *_segment(
                stack,
                timed,
                workload,
                lambda part: Client(traced_workload, stack.load_factory, properties, part),
                "load",
                size,
            ),
        )
        timed.records += size
    timed.workload, traced_reader, properties = sized(
        timed.records, readproportion="1", readmodifywriteproportion="0"
    )
    for _ in range(segments):
        result, _ = _segment(
            stack,
            timed,
            timed.workload,
            lambda part: Client(traced_reader, stack.db_factory, properties, part),
            "run",
            READ_BACK // segments,
        )
        timed.read_back += result.operations
        if result.failed_operations:
            timed.errors.append(f"{result.failed_operations} read-back operations failed")


def _validate(workload: LaneCEW, db_factory) -> float | None:
    """Gamma from one armed validation pass through a fresh DB."""
    workload.validation_armed = True
    db = db_factory()
    db.init()
    try:
        result = workload.validate(db)
    finally:
        db.cleanup()
        workload.validation_armed = False
    return None if result is None else result.anomaly_score


def _final_checks(ready: _Ready, timed: _Timed) -> dict[str, bool]:
    stack = ready.stack
    with _ambient(stack):
        gamma = _validate(timed.workload, stack.db_factory)
        count = stack.record_count()
    return {
        "run_errors_empty": not timed.errors,
        "no_failed_operations": timed.failed == 0,
        "gamma_zero": gamma == 0.0,
        "record_count_after_run": count == timed.records,
    }


def _reopen_checks(ready: _Ready, timed: _Timed) -> dict[str, bool]:
    """After close: gamma and the record count from the data directory alone."""
    db_factory, size, close = ready.stack.reopen()
    try:
        return {
            "reopened_gamma_zero": _validate(timed.workload, db_factory) == 0.0,
            "reopened_record_count": size() == timed.records,
        }
    finally:
        close()


def _end_to_end(spec: Spec, timed: _Timed, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the ungated pooled p95/p99 beside them."""
    pooled = timed.measurements.to_dict()["operations"]
    parts = [part.to_dict()["operations"] for part in timed.parts]
    units = {
        "tx_read": "TX-READ",
        "tx_write": "BATCH-INSERT" if spec.phase == "load" else "TX-READMODIFYWRITE",
    }
    metrics = {
        "throughput_ops_s": layers.metric(timed.throughput, "1/s", len(timed.segments)),
        "setup_s": layers.metric(statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": layers.metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
    }
    diagnostics = {}
    for name, series in units.items():
        samples = pooled[series]["count"] if series in pooled else 0
        for label, fraction in (("p50", 0.50), ("p90", 0.90)):
            # The median over the segments, so that a stall in one of them
            # does not carry the run.  p90 is the highest percentile with ten
            # samples beyond it in every segment of the slowest workload.
            values = [hdr_quantile(part[series], fraction) for part in parts if series in part]
            metrics[f"{name}_{label}_us"] = layers.metric(
                statistics.median(values) if values else 0.0, "us", samples
            )
        for label, fraction in (("p95", 0.95), ("p99", 0.99)):
            diagnostics[f"{name}_{label}_us"] = layers.metric(
                hdr_quantile(pooled.get(series), fraction), "us", samples
            )
    return {name: metrics[name] for name in END_TO_END}, diagnostics


class _Checks(dict):
    """Named pass/fail checks; a name checked twice passes only if both did."""

    def add(self, new: dict[str, bool]) -> None:
        for name, passed in new.items():
            self[name] = self.get(name, True) and bool(passed)


@dataclass
class _Run:
    """What one ``run_workload`` call carries through its measurements."""

    spec: Spec
    seed: int
    seconds: float
    ops: int | None
    checks: _Checks = field(default_factory=_Checks)
    checksums: list[str] = field(default_factory=list)

    def measure(self, tracer, workdir: Path, setups: int, segments: int, after=None):
        """Set up ``setups`` times, run the timed phase on the last, check, tear down.

        Returns the timed phase and the set-up durations.  ``after(ready,
        timed)`` runs while the topology is still up.
        """
        durations: list[float] = []
        ready = None
        for attempt in range(setups):
            if ready is not None:
                ready.stack.close()
            started = time.perf_counter()
            ready = _setup(self.spec, self.seed, tracer, workdir / f"setup{attempt}")
            durations.append(time.perf_counter() - started)
            self.checks.add(ready.checks)
            self.checksums.append(ready.checksum)
        try:
            tracer.reset()  # the warm-up is not part of the trace
            timed = _timed_phase(self.spec, ready, tracer, self.seconds, segments, self.ops)
            self.checks.add(_final_checks(ready, timed))
            if after is not None:
                after(ready, timed)
        finally:
            ready.stack.close()
        if ready.stack.reopen is not None:
            self.checks.add(_reopen_checks(ready, timed))
        if ready.stack.clock is not None:
            self.checks.add({"sim_checksum_repeats": len(set(self.checksums)) == 1})
        return timed, durations


def run_workload(
    spec: Spec,
    seed: int,
    seconds: float,
    traced: bool,
    workdir: Path,
    ops: int | None = None,
    inject: dict[str, int] | None = None,
    trace_path: Path | None = None,
) -> dict:
    """One run of one workload.

    Untraced: ``SETUPS`` set-ups (all but the last torn down at once),
    ``SEGMENTS`` timed segments, the end-to-end metrics.  Traced: untraced
    reference segments, then a fresh set-up behind the timing proxies and the
    traced segments, the per-layer metrics.
    """
    workdir = Path(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    # Clients and in-process servers share one interpreter lock, so a second
    # CPU buys no parallel Python, only cross-CPU wake-ups and lock hand-offs —
    # and whether the kernel spreads the threads changes every few minutes,
    # halving or doubling every HTTP and simulator number.  One CPU holds still.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    run = _Run(spec, seed, seconds, ops)
    result = {"workload": spec.name, "seed": seed, "traced": traced}
    try:
        if not traced:
            timed, setups = run.measure(NullTracer(inject), workdir, SETUPS, SEGMENTS)
            result["metrics"], result["diagnostics"] = _end_to_end(spec, timed, setups)
        else:
            reference, _ = run.measure(
                NullTracer(inject), workdir / "reference", 1, REFERENCE_SEGMENTS
            )
            tracer = Tracer(inject)

            def derive(ready, timed):
                result["metrics"] = layers.layer_metrics(
                    spec, ready.stack, timed, reference.throughput, workdir / "isolated", seed
                )

            tracer.patch_fsync()
            try:
                timed, _ = run.measure(tracer, workdir / "traced", 1, TRACED_SEGMENTS, derive)
            finally:
                tracer.unpatch_fsync()
            run.checks.add({"trace_complete": len(timed.spans) < SPAN_CAP})
            result["spans"] = len(timed.spans)
            if trace_path is not None:
                trace_path.parent.mkdir(parents=True, exist_ok=True)
                write_jsonl(timed.spans, trace_path)
        result.update(
            attempted=timed.attempted,
            failed=timed.failed,
            # What the program was asked to do, call for call: identical between
            # the untraced and the traced run of one seed on a one-client workload.
            counts={
                "series": {
                    name: series["count"]
                    for name, series in timed.measurements.to_dict()["operations"].items()
                },
                "counters": timed.counters,
            },
            checks=dict(run.checks),
            correct=all(run.checks.values()),
        )
        if "sim_checksum_repeats" in run.checks:
            result["sim_checksum"] = run.checksums[0]
        return result
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
