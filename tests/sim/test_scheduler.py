"""Scheduler semantics: deterministic interleaving of cooperative tasks."""

import heapq
import itertools
from collections import Counter
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import scheduler as scheduler_module
from repro.sim.scheduler import Scheduler, SimClock, SimTaskFailed, VirtualResource


class TestScheduler:
    def test_single_task_runs_to_completion(self):
        scheduler = Scheduler()
        log = []

        def task():
            log.append(("start", scheduler.now))
            scheduler.sleep(5.0)
            log.append(("end", scheduler.now))
            return "done"

        results = scheduler.run([task])
        assert results == ["done"]
        assert log == [("start", 0.0), ("end", 5.0)]
        assert scheduler.now == 5.0

    def test_interleaving_follows_virtual_time(self):
        scheduler = Scheduler()
        log = []

        def make(name, delays):
            def task():
                for delay in delays:
                    scheduler.sleep(delay)
                    log.append((name, scheduler.now))

            return task

        # a wakes at 1, 3 (1+2); b wakes at 2, 4 (2+2).
        scheduler.run([make("a", [1.0, 2.0]), make("b", [2.0, 2.0])])
        assert log == [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)]

    def test_ties_break_in_push_order(self):
        scheduler = Scheduler()
        log = []

        def make(name):
            def task():
                scheduler.sleep(1.0)  # identical wake time for all three
                log.append(name)

            return task

        scheduler.run([make("x"), make("y"), make("z")])
        assert log == ["x", "y", "z"]

    def test_identical_runs_produce_identical_histories(self):
        def run_once():
            scheduler = Scheduler()
            log = []

            def make(name, step):
                def task():
                    for _ in range(5):
                        scheduler.sleep(step)
                        log.append((name, round(scheduler.now, 9)))

                return task

            scheduler.run(
                [make("a", 0.3), make("b", 0.7), make("c", 0.3)],
                names=["a", "b", "c"],
            )
            return log, scheduler.events_processed

        assert run_once() == run_once()

    def test_task_failure_surfaces_after_all_complete(self):
        scheduler = Scheduler()
        log = []

        def bad():
            scheduler.sleep(1.0)
            raise ValueError("exploded")

        def good():
            scheduler.sleep(2.0)
            log.append("good finished")

        with pytest.raises(SimTaskFailed) as excinfo:
            scheduler.run([bad, good])
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert log == ["good finished"]  # the healthy task still completed

    def test_driver_context_sleep_advances_directly(self):
        scheduler = Scheduler(start_time=10.0)
        scheduler.sleep(5.0)
        assert scheduler.now == 15.0

    def test_current_task_name(self):
        scheduler = Scheduler()
        seen = []

        def task():
            seen.append(scheduler.current_task_name)
            scheduler.sleep(1.0)
            seen.append(scheduler.current_task_name)

        assert scheduler.current_task_name is None
        scheduler.run([task], names=["worker-0"])
        assert seen == ["worker-0", "worker-0"]
        assert scheduler.current_task_name is None

    def test_thousands_of_virtual_seconds_cost_no_wall_time(self):
        scheduler = Scheduler()

        def task():
            for _ in range(100):
                scheduler.sleep(100.0)

        before = time.monotonic()
        scheduler.run([task])
        assert time.monotonic() - before < 1.0
        assert scheduler.now == 10_000.0


class _Boom(Exception):
    pass


def _reference(delays, raiser):
    """Pure-heap model of :meth:`Scheduler.run` over the tasks built by
    :func:`_tasks`: ``(log, events_processed, now, failed task or None)``."""
    heap, seq = [], itertools.count()
    now, events, log, failed = 0.0, 0, [], None
    position = [0] * len(delays)
    for index in range(len(delays)):
        heapq.heappush(heap, (now, next(seq), index))
    while heap:
        when, _, index = heapq.heappop(heap)
        if when > now:
            now = when
        events += 1
        log.append((index, now))
        step = position[index]
        if raiser == (index, step):
            failed = index
        elif step < len(delays[index]):
            heapq.heappush(heap, (now + delays[index][step], next(seq), index))
            position[index] += 1
    return log, events, now, failed


def _tasks(scheduler, delays, raiser, log):
    """Task ``i`` logs ``(i, now)`` on start and after each sleep of
    ``delays[i]``; the raiser ``(i, k)`` raises in place of its k-th sleep."""

    def make(index):
        def task():
            log.append((index, scheduler.now))
            for step, delay in enumerate(delays[index]):
                if raiser == (index, step):
                    raise _Boom(index)
                scheduler.sleep(delay)
                log.append((index, scheduler.now))
            if raiser == (index, len(delays[index])):
                raise _Boom(index)

        return task

    return [make(index) for index in range(len(delays))]


_delay = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 0.5, 1.0]),  # exact in binary: ties are common
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _task_sets(draw):
    delays = draw(st.lists(st.lists(_delay, max_size=6), min_size=1, max_size=5))
    raiser = None
    if draw(st.booleans()):
        index = draw(st.integers(0, len(delays) - 1))
        raiser = (index, draw(st.integers(0, len(delays[index]))))
    return delays, raiser


class TestAgainstReferenceModel:
    @given(_task_sets())
    @settings(max_examples=60, deadline=None)
    def test_matches_pure_heap_model(self, task_set):
        delays, raiser = task_set
        scheduler = Scheduler()
        log = []
        before = set(threading.enumerate())
        failure = None
        try:
            scheduler.run(_tasks(scheduler, delays, raiser, log))
        except SimTaskFailed as exc:
            failure = exc.__cause__.args[0]
        leftover = [t for t in threading.enumerate() if t not in before and t.name.startswith("sim:")]
        assert leftover == []
        assert (log, scheduler.events_processed, scheduler.now, failure) == _reference(
            delays, raiser
        )

    def test_sleeper_that_is_its_own_next_event_keeps_running(self, monkeypatch):
        """With every other task parked far ahead, a sleeping task pops its
        own event and carries on: no gate is touched after its start."""
        gate_calls = []
        original_init = scheduler_module._Task.__init__

        class CountingGate:
            def __init__(self, name, lock):
                self.name, self.lock = name, lock

            def acquire(self):
                gate_calls.append((self.name, "acquire"))
                return self.lock.acquire()

            def release(self):
                gate_calls.append((self.name, "release"))
                self.lock.release()

        def init(task, name, fn):
            original_init(task, name, fn)
            task.gate = CountingGate(name, task.gate)

        monkeypatch.setattr(scheduler_module._Task, "__init__", init)
        scheduler = Scheduler()
        log = []

        def busy():
            for _ in range(50):
                scheduler.sleep(0.0)
                scheduler.sleep(0.5)
            log.append(("busy", scheduler.now))

        def parked():
            scheduler.sleep(1_000.0)
            log.append(("parked", scheduler.now))

        scheduler.run([busy, parked], names=["busy", "parked"])
        assert log == [("busy", 25.0), ("parked", 1_000.0)]
        assert scheduler.events_processed == 2 + 100 + 1
        # Each side: its start-up acquire, one hand-off out and back (busy's
        # first zero sleep queues behind parked's start event), one release
        # to start it.  None of busy's other 99 sleeps touches a gate.
        assert Counter(gate_calls) == {
            ("busy", "acquire"): 2,
            ("busy", "release"): 2,
            ("parked", "acquire"): 2,
            ("parked", "release"): 2,
        }


class TestVirtualResource:
    def test_fifo_queueing(self):
        clock = SimClock()
        scheduler = clock.scheduler
        resource = VirtualResource(clock)
        log = []

        def make(name):
            def task():
                resource.occupy(1.0)
                log.append((name, scheduler.now))

            return task

        scheduler.run([make("a"), make("b"), make("c")])
        # All request at t=0; the resource serialises them 1 s apart.
        assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_idle_resource_costs_only_the_occupancy(self):
        clock = SimClock()
        resource = VirtualResource(clock)
        clock.scheduler.now = 100.0  # resource idle since busy_until=0
        resource.occupy(2.0)
        assert clock.scheduler.now == 102.0

    def test_zero_cost_is_free(self):
        clock = SimClock()
        resource = VirtualResource(clock)
        resource.occupy(0.0)
        assert clock.scheduler.now == 0.0
