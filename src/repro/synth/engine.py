"""The synthesis engine: compile a :class:`SynthSpec` into one run.

The engine is a single-driver discrete-event loop on the PR-4 virtual
clock.  Simulated users are *statistical*, not threads: a per-tenant
arrival process says **when** the next request happens, a per-tenant
Zipfian over the user population says **who** issues it, and per-user
state is materialised lazily into an LRU capped at ``active_users`` —
so a million-user campaign holds thousands of user records in memory,
never a million, and a 10^7-op day completes in minutes of wall time
(the driver-context ``sleep`` fast path advances virtual time in O(1)
per op, with zero thread switches).

Every run is a pure function of ``(spec, binding, seed)``: arrivals,
user draws, keys, operation choices, injected latencies and retry
backoff all derive from the one seed, so a failed assertion is a
replayable counterexample, exactly like ``ycsbt sim`` violations.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import OrderedDict, deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from ..core.closed_economy import ClosedEconomyWorkload
from ..core.db import DB, MeasuredDB
from ..core.properties import Properties
from ..generators import (
    DiscreteGenerator,
    DriftingHotspotGenerator,
    DriftingZipfianGenerator,
    NumberGenerator,
    UniformLongGenerator,
    ZipfianGenerator,
)
from ..generators.hashing import fnv1_64
from ..kvstore.ratelimit import TokenBucket
from ..measurements.registry import Measurements, StopWatch
from ..sim.campaign import _build_binding
from ..sim.clock import use_clock
from ..sim.scheduler import SimClock
from .spec import SCENARIOS, SynthSpec, TenantSpec

__all__ = [
    "DEFAULT_SYNTH_PROPERTIES",
    "AssertionOutcome",
    "SynthRunResult",
    "SynthCewWorkload",
    "run_synth",
]

#: Baseline stack under a synthesized campaign: modest lognormal store
#: latency (so histograms carry a realistic shape), a small retry budget,
#: no fault injection — conformance assertions measure the *workload
#: model*, not a fault schedule.  Specs override any of these through
#: ``properties``.
DEFAULT_SYNTH_PROPERTIES: dict[str, str] = {
    "table": "usertable",
    "fieldcount": "1",
    "measurementtype": "hdrhistogram",
    "requestdistribution": "zipfian",
    "maxscanlength": "20",
    "threadcount": "1",
    "latency.read_ms": "0.5",
    "latency.write_ms": "0.8",
    "latency.model": "lognormal",
    "latency.sigma": "0.3",
    "retry.max_attempts": "4",
    "retry.base_delay_ms": "1",
    "retry.max_delay_ms": "10",
    "txn.isolation": "serializable",
    "txn.lock_lease_ms": "1000",
}

#: Operation series copied into result histograms (the six CEW ops plus
#: the whole-transaction view).
_HISTOGRAM_OPS = (
    "READ",
    "UPDATE",
    "INSERT",
    "SCAN",
    "READMODIFYWRITE",
    "DELETE",
    "TX-READMODIFYWRITE",
)


class _UserState:
    """Resident state of one simulated user (lazy, LRU-evictable)."""

    __slots__ = ("home_key", "operations")

    def __init__(self, home_key: int):
        self.home_key = home_key
        self.operations = 0


class SynthCewWorkload(ClosedEconomyWorkload):
    """CEW with externally chosen keys and operations.

    The synthesis loop picks the key (tenant keyspace slice, drifting
    skew) and the operation (tenant mix) itself; this subclass lets it
    *inject* those choices while keeping CEW's money semantics, escrow
    settlement and validation stage untouched.  Injected keys are
    consumed by :meth:`next_key_number` in FIFO order; when the queue is
    empty (validation scans, extra draws) the inherited chooser applies.
    """

    def init(self, properties: Properties, measurements=None) -> None:
        super().init(properties, measurements)
        self._injected_keys: deque[int] = deque()

    def inject_keys(self, *keys: int) -> None:
        self._injected_keys.extend(keys)

    def next_key_number(self) -> int:
        if self._injected_keys:
            key = self._injected_keys.popleft()
            # Defensive clamp: an injected key must reference a record
            # that could exist (the tenant slices guarantee this already).
            limit = self.transaction_insert_sequence.last_value()
            return key if key <= limit else limit
        return super().next_key_number()

    def run_operation(self, db: DB, operation: str, thread_state) -> str | None:
        """Execute one externally chosen CEW operation."""
        handler = getattr(self, f"_txn_{operation.lower()}")
        ok = handler(db, thread_state)
        self._count_operation()
        return operation if ok else None


@dataclass
class AssertionOutcome:
    """One deterministic post-run check."""

    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class SynthRunResult:
    """Everything one synthesized seed produced."""

    scenario: str
    binding: str
    seed: int
    operations: int
    failed_operations: int
    throttled_operations: int
    gamma: float
    validation_passed: bool
    assertions: list[AssertionOutcome]
    arrivals_by_bucket: list[int]
    executed_by_bucket: list[int]
    target_by_bucket: list[float]
    tenant_offered: dict[str, int]
    tenant_admitted: dict[str, int]
    tenant_throttled: dict[str, int]
    peak_user_states: int
    distinct_users: int
    virtual_time_s: float
    wall_time_s: float
    counters: dict[str, int]
    histograms: dict[str, dict] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)
    validation_fields: list[tuple[str, str]] = field(default_factory=list)

    group_by = "scenario"

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.assertions)

    @property
    def violation(self) -> bool:
        """True when any deterministic assertion failed: replay the seed."""
        return not self.passed

    @property
    def fails(self) -> bool:
        """Every assertion must hold on both bindings (the engine is
        serial, so even raw stays consistent): any violation fails."""
        return self.violation

    def failed_assertions(self) -> list[AssertionOutcome]:
        return [outcome for outcome in self.assertions if not outcome.passed]

    def failure(self) -> str:
        failed = "; ".join(
            f"{outcome.name}: {outcome.detail}" for outcome in self.failed_assertions()
        )
        return f"{self.scenario}/{self.binding} seed {self.seed}: {failed}"

    @staticmethod
    def summarize(runs: list[SynthRunResult]) -> str:
        violations = sum(1 for run in runs if run.violation)
        ops = sum(run.operations for run in runs)
        vtime = sum(run.virtual_time_s for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        peak = max(run.peak_user_states for run in runs)
        return (
            f"{len(runs)} runs, {violations} violations, "
            f"{ops} ops, peak {peak} resident users, "
            f"{vtime:.0f} simulated s in {wall:.1f} wall s"
        )

    def trace_name(self) -> str:
        return f"synth-violation-{self.scenario}-{self.binding}-seed{self.seed}.json"

    def trace_payload(self) -> dict[str, object]:
        """The minimal reproducing artifact for a failed run; a built-in
        scenario's full spec rides along."""
        payload: dict[str, object] = {
            "kind": "ycsbt-synth-violation",
            "scenario": self.scenario,
            "binding": self.binding,
            "seed": self.seed,
            "operations": self.operations,
            "failed_operations": self.failed_operations,
            "throttled_operations": self.throttled_operations,
            "gamma": self.gamma,
            "validation_passed": self.validation_passed,
            "validation": [list(pair) for pair in self.validation_fields],
            "assertions": [outcome.to_dict() for outcome in self.assertions],
            "arrivals_by_bucket": self.arrivals_by_bucket,
            "target_by_bucket": self.target_by_bucket,
            "tenant_offered": self.tenant_offered,
            "tenant_admitted": self.tenant_admitted,
            "tenant_throttled": self.tenant_throttled,
            "peak_user_states": self.peak_user_states,
            "distinct_users": self.distinct_users,
            "virtual_time_s": self.virtual_time_s,
            "counters": self.counters,
            "properties": self.properties,
            "replay": {
                "command": (
                    f"ycsbt synth --scenario {self.scenario} --db {self.binding} "
                    f"--seeds 1 --start-seed {self.seed}"
                ),
            },
        }
        spec = SCENARIOS.get(self.scenario)
        if spec is not None:
            payload["spec"] = spec.to_dict()
        return payload

    def summary_line(self) -> str:
        flag = "VIOLATION" if self.violation else "ok"
        return (
            f"{self.binding:<4} seed={self.seed:<6} scenario={self.scenario:<16} "
            f"ops={self.operations} failed={self.failed_operations} "
            f"throttled={self.throttled_operations} gamma={self.gamma:.6f} "
            f"users={self.distinct_users} (peak resident {self.peak_user_states}) "
            f"vtime={self.virtual_time_s:.0f}s wall={self.wall_time_s:.1f}s {flag}"
        )


class _TenantRuntime:
    """Per-tenant machinery compiled from a :class:`TenantSpec`."""

    __slots__ = (
        "spec",
        "index",
        "arrivals",
        "key_gen",
        "op_chooser",
        "user_chooser",
        "bucket",
        "key_lo",
        "key_span",
        "offered",
        "admitted",
        "throttled",
        "admitted_by_bucket",
    )

    def __init__(
        self,
        spec: TenantSpec,
        index: int,
        arrivals: Iterator[float],
        key_gen: NumberGenerator,
        op_chooser: DiscreteGenerator,
        user_chooser: ZipfianGenerator,
        bucket: TokenBucket | None,
        key_lo: int,
        key_span: int,
        assert_buckets: int,
    ):
        self.spec = spec
        self.index = index
        self.arrivals = arrivals
        self.key_gen = key_gen
        self.op_chooser = op_chooser
        self.user_chooser = user_chooser
        self.bucket = bucket
        self.key_lo = key_lo
        self.key_span = key_span
        self.offered = 0
        self.admitted = 0
        self.throttled = 0
        self.admitted_by_bucket = [0] * assert_buckets


def _synth_properties(spec: SynthSpec, seed: int) -> Properties:
    values = dict(DEFAULT_SYNTH_PROPERTIES)
    values.update({key: str(value) for key, value in spec.properties.items()})
    total_cash = (
        spec.total_cash if spec.total_cash is not None else spec.records * 1000
    )
    values["recordcount"] = str(spec.records)
    values["operationcount"] = str(max(1, int(spec.expected_total_ops())))
    values["totalcash"] = str(total_cash)
    # One seed replays everything: the generators read ``workload.seed``
    # and every injection layer derives its stream from it (fan-out
    # offsets in bindings.stores.wrap_store).
    values["seed"] = str(seed)
    values["workload.seed"] = str(seed)
    return Properties(values)


def _build_tenant(
    spec: SynthSpec,
    tenant: TenantSpec,
    index: int,
    seed: int,
    clock: SimClock,
) -> _TenantRuntime:
    from .models import make_arrivals

    rng = random.Random(seed * 1_000_003 + 101 * (index + 1))
    lo_frac, hi_frac = tenant.keyspace
    key_lo = int(lo_frac * spec.records)
    key_hi = max(key_lo, int(hi_frac * spec.records) - 1)
    key_span = key_hi - key_lo + 1

    key_gen: NumberGenerator
    if spec.key_distribution == "zipfian":
        key_gen = DriftingZipfianGenerator(
            key_lo,
            key_hi,
            theta=spec.key_theta,
            drift_period_s=spec.drift_period_s,
            rng=rng,
            clock=clock.monotonic,
        )
    elif spec.key_distribution == "hotspot":
        key_gen = DriftingHotspotGenerator(
            key_lo,
            key_hi,
            hot_set_fraction=spec.hot_set_fraction,
            hot_opn_fraction=spec.hot_opn_fraction,
            drift_period_s=spec.drift_period_s,
            rng=rng,
            clock=clock.monotonic,
        )
    else:
        key_gen = UniformLongGenerator(key_lo, key_hi, rng=rng)

    op_chooser = DiscreteGenerator(rng=rng)
    for op, weight in sorted(tenant.mix.items()):
        if weight > 0:
            op_chooser.add_value(weight, op.upper())

    user_chooser = ZipfianGenerator(
        0, spec.users - 1, theta=tenant.user_theta, rng=rng
    )
    bucket = (
        TokenBucket(tenant.rate_limit, tenant.burst, clock=clock.monotonic)
        if tenant.rate_limit is not None
        else None
    )
    arrivals = make_arrivals(
        spec.arrival_kind,
        spec.curve,
        rng,
        scale=tenant.weight / spec.total_weight,
    )
    return _TenantRuntime(
        tenant,
        index,
        arrivals,
        key_gen,
        op_chooser,
        user_chooser,
        bucket,
        key_lo,
        key_span,
        spec.assert_buckets,
    )


def _load_records(workload: SynthCewWorkload, db: DB, spec: SynthSpec) -> int:
    """Bulk-load the account table (fault-free, batched)."""
    state = workload.init_thread(0, 1)
    loaded = 0
    while loaded < spec.records:
        batch = min(1000, spec.records - loaded)
        if not db.start().ok:
            raise RuntimeError("synth load: could not start a load transaction")
        inserted = workload.do_batch_insert(db, state, batch)
        if inserted > 0:
            if not db.commit().ok:
                inserted = 0
        else:
            db.abort()
        if inserted == 0:
            raise RuntimeError(
                f"synth load stalled after {loaded}/{spec.records} records"
            )
        loaded += inserted
    return loaded


def _execute_transaction(
    workload: SynthCewWorkload,
    db: MeasuredDB,
    measurements: Measurements,
    operation: str,
    state,
) -> bool:
    """One operation under YCSB+T transaction wrapping (mirrors Client)."""
    watch = StopWatch()
    if not db.start().ok:
        return False
    executed = workload.run_operation(db, operation, state)
    committed = False
    if executed is not None:
        committed = db.commit().ok
    else:
        db.abort()
    workload.finish_transaction(db, state, executed, committed)
    label = f"TX-{executed}" if executed is not None else "TX-ABORTED"
    measurements.measure(label, watch.elapsed_us())
    measurements.report_status(label, "OK" if committed else "ERROR")
    return committed


def _check_assertions(
    spec: SynthSpec,
    runtimes: list[_TenantRuntime],
    arrivals_by_bucket: list[int],
    target_by_bucket: list[float],
    gamma: float,
    validation_passed: bool,
    peak_user_states: int,
) -> list[AssertionOutcome]:
    outcomes: list[AssertionOutcome] = []
    step = spec.duration_s / spec.assert_buckets

    # (1) Achieved arrival rate tracks the target curve, bucket by bucket.
    worst = 0.0
    worst_bucket = -1
    checked = 0
    stochastic = spec.arrival_kind == "poisson"
    for b, expected in enumerate(target_by_bucket):
        if expected < spec.min_bucket_expected:
            continue
        checked += 1
        tolerance = spec.rate_tolerance
        if stochastic:
            # A Poisson count's relative sd is 1/sqrt(n); allow 4 sigma on
            # top of the modelling tolerance so conformance tests the
            # curve, not sampling noise.
            tolerance += 4.0 / expected**0.5
        error = abs(arrivals_by_bucket[b] - expected) / expected
        if error > tolerance and error > worst:
            worst = error
            worst_bucket = b
    outcomes.append(
        AssertionOutcome(
            name="rate-conformance",
            passed=worst_bucket < 0,
            detail=(
                f"{checked}/{spec.assert_buckets} buckets checked "
                f"(window {step:.0f}s, tolerance {spec.rate_tolerance:.0%})"
                if worst_bucket < 0
                else (
                    f"bucket {worst_bucket}: offered "
                    f"{arrivals_by_bucket[worst_bucket]} vs target "
                    f"{target_by_bucket[worst_bucket]:.0f} "
                    f"({worst:.0%} off, tolerance {spec.rate_tolerance:.0%})"
                )
            ),
        )
    )

    # (2) Per-tenant token-bucket ceilings were never exceeded.
    for rt in runtimes:
        limit = rt.spec.rate_limit
        if limit is None:
            continue
        burst = rt.spec.burst if rt.spec.burst is not None else limit
        allowed = limit * step + burst + 2.0
        over = [
            (b, count)
            for b, count in enumerate(rt.admitted_by_bucket)
            if count > allowed
        ]
        outcomes.append(
            AssertionOutcome(
                name=f"rate-ceiling:{rt.spec.name}",
                passed=not over,
                detail=(
                    f"admitted <= {allowed:.0f}/bucket "
                    f"(limit {limit}/s, burst {burst}, "
                    f"{rt.throttled} throttled)"
                    if not over
                    else (
                        f"bucket {over[0][0]}: admitted {over[0][1]} "
                        f"> allowed {allowed:.0f}"
                    )
                ),
            )
        )

    # (3) The economy stayed closed (serial execution must score zero).
    if spec.require_zero_gamma:
        outcomes.append(
            AssertionOutcome(
                name="zero-gamma",
                passed=gamma == 0.0 and validation_passed,
                detail=f"gamma={gamma:.6f} validation_passed={validation_passed}",
            )
        )

    # (4) Resident user state stayed under the LRU cap: O(active), not O(users).
    outcomes.append(
        AssertionOutcome(
            name="bounded-user-state",
            passed=peak_user_states <= spec.active_users,
            detail=(
                f"peak {peak_user_states} resident of {spec.users} simulated "
                f"(cap {spec.active_users})"
            ),
        )
    )
    return outcomes


def run_synth(
    spec: SynthSpec,
    binding: str | None = None,
    seed: int = 0,
) -> SynthRunResult:
    """Compile and run one synthesized campaign seed in virtual time."""
    binding = binding or spec.binding
    props = _synth_properties(spec, seed)
    clock = SimClock()
    wall_started = time.perf_counter()
    with use_clock(clock):
        db_factory, _fault_layer = _build_binding(binding, props, seed)
        workload = SynthCewWorkload()
        measurements = Measurements.from_properties(props)
        workload.init(props, measurements)

        load_db = MeasuredDB(db_factory(), Measurements())
        load_db.init()
        _load_records(workload, load_db, spec)
        load_db.cleanup()

        db = MeasuredDB(db_factory(), measurements)
        db.init()
        cew_state = workload.init_thread(0, 1)
        runtimes = [
            _build_tenant(spec, tenant, index, seed, clock)
            for index, tenant in enumerate(spec.tenants)
        ]

        buckets = spec.assert_buckets
        step = spec.duration_s / buckets
        arrivals_by_bucket = [0] * buckets
        executed_by_bucket = [0] * buckets
        users: OrderedDict[tuple[int, int], _UserState] = OrderedDict()
        peak_user_states = 0
        distinct_users = 0
        operations = 0
        failed = 0
        throttled = 0

        heap: list[tuple[float, int]] = []
        for rt in runtimes:
            first = next(rt.arrivals)
            if first <= spec.duration_s:
                heapq.heappush(heap, (first, rt.index))

        while heap:
            t, index = heapq.heappop(heap)
            rt = runtimes[index]
            upcoming = next(rt.arrivals)
            if upcoming <= spec.duration_s:
                heapq.heappush(heap, (upcoming, index))

            bucket = min(buckets - 1, int(t / step))
            arrivals_by_bucket[bucket] += 1
            rt.offered += 1
            # Driver-context fast path: advances virtual time in O(1).
            gap = t - clock.monotonic()
            if gap > 0:
                clock.sleep(gap)

            if rt.bucket is not None and not rt.bucket.try_acquire():
                throttled += 1
                rt.throttled += 1
                measurements.increment(f"THROTTLED-{rt.spec.name}")
                continue
            rt.admitted += 1
            rt.admitted_by_bucket[bucket] += 1

            user_id = rt.user_chooser.next_value()
            user_key = (index, user_id)
            user = users.get(user_key)
            if user is None:
                distinct_users += 1
                user = _UserState(rt.key_lo + fnv1_64(user_id) % rt.key_span)
                users[user_key] = user
                if len(users) > spec.active_users:
                    users.popitem(last=False)
            else:
                users.move_to_end(user_key)
            if len(users) > peak_user_states:
                peak_user_states = len(users)
            user.operations += 1

            operation = rt.op_chooser.next_value()
            if operation == "READMODIFYWRITE":
                # The transfer's counterparty is the user's home account:
                # popular users make their home keys hot, naturally.
                workload.inject_keys(rt.key_gen.next_value(), user.home_key)
            elif operation != "INSERT":
                workload.inject_keys(rt.key_gen.next_value())

            committed = _execute_transaction(
                workload, db, measurements, operation, cew_state
            )
            operations += 1
            executed_by_bucket[bucket] += 1
            if not committed:
                failed += 1

        validation = workload.validate(db)
        db.cleanup()
        virtual_time_s = clock.monotonic()

    wall_time_s = time.perf_counter() - wall_started
    gamma = validation.anomaly_score if validation.anomaly_score is not None else 0.0
    target_by_bucket = [
        spec.curve.expected_ops(b * step, (b + 1) * step) for b in range(buckets)
    ]
    assertions = _check_assertions(
        spec,
        runtimes,
        arrivals_by_bucket,
        target_by_bucket,
        gamma,
        validation.passed,
        peak_user_states,
    )
    operation_payloads = measurements.to_dict().get("operations", {})
    histograms = {
        name: payload
        for name, payload in operation_payloads.items()
        if name in _HISTOGRAM_OPS
    }
    return SynthRunResult(
        scenario=spec.name,
        binding=binding,
        seed=seed,
        operations=operations,
        failed_operations=failed,
        throttled_operations=throttled,
        gamma=gamma,
        validation_passed=validation.passed,
        assertions=assertions,
        arrivals_by_bucket=arrivals_by_bucket,
        executed_by_bucket=executed_by_bucket,
        target_by_bucket=target_by_bucket,
        tenant_offered={rt.spec.name: rt.offered for rt in runtimes},
        tenant_admitted={rt.spec.name: rt.admitted for rt in runtimes},
        tenant_throttled={rt.spec.name: rt.throttled for rt in runtimes},
        peak_user_states=peak_user_states,
        distinct_users=distinct_users,
        virtual_time_s=virtual_time_s,
        wall_time_s=wall_time_s,
        counters={
            name: int(value) for name, value in measurements.counters().items()
        },
        histograms=histograms,
        properties=props.as_dict(),
        validation_fields=[
            (str(name), str(value)) for name, value in validation.fields
        ],
    )
