"""Discrete-event scheduler: deterministic cooperative tasks in virtual time.

The :class:`Scheduler` owns a virtual clock (``now``, in seconds) and an
event heap keyed ``(wake_time, sequence)``.  Simulated client "threads"
are real OS threads, but **cooperative**: exactly one is runnable at any
moment, and control transfers only at :meth:`Scheduler.sleep` calls.  The
heap's sequence number breaks wake-time ties in push order, so a whole
run's interleaving is a pure function of the task bodies and their seeds
— no OS scheduling, no wall time, no races.

Sleeping costs nothing: ``sleep(30.0)`` pushes a wake event 30 virtual
seconds out and hands control to the next event, so a benchmark spanning
thousands of simulated seconds finishes in however long its *compute*
takes (typically well under a second).

:class:`SimClock` adapts a scheduler to the :class:`~repro.sim.clock.Clock`
protocol so the entire benchmark stack — latency models, rate limiters,
fault injectors, retry backoff, throttles, stopwatches — runs on virtual
time when installed via :func:`~repro.sim.clock.use_clock`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections.abc import Callable, Sequence

from .clock import Clock

__all__ = ["Scheduler", "SimClock", "SimTaskFailed", "VirtualResource", "SIM_EPOCH"]

#: Fixed epoch for SimClock.now(): an arbitrary, stable instant so two runs
#: of the same seed produce byte-identical timestamps (2020-09-13T12:26:40Z).
SIM_EPOCH = 1_600_000_000.0


class SimTaskFailed(Exception):
    """A simulated task raised; carries the original as ``__cause__``."""


class _Task:
    __slots__ = ("name", "fn", "thread", "gate", "error", "result")

    def __init__(self, name: str, fn: Callable[[], object]):
        self.name = name
        self.fn = fn
        self.thread: threading.Thread | None = None
        # Held while the task is parked; whoever dispatches the task's next
        # event releases it.  A plain Lock may be released by any thread.
        self.gate = threading.Lock()
        self.gate.acquire()
        self.error: BaseException | None = None
        self.result: object = None


class Scheduler:
    """Event-heap scheduler for deterministic cooperative multitasking.

    Control passes directly from task to task: the task giving it up pops
    the next event and releases that task's gate, one OS switch per event
    and none when the next event is its own.  The driver thread only
    starts the task threads, dispatches the first event and joins them.
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self.events_processed = 0
        self._heap: list[tuple[float, int, _Task]] = []
        self._seq = itertools.count()
        self._tasks_by_ident: dict[int, _Task] = {}
        # Released by the task that finishes with the heap empty.
        self._drained = threading.Lock()
        self._drained.acquire()
        self._running = False

    @property
    def current_task_name(self) -> str | None:
        """Name of the task currently holding control (None in the driver)."""
        task = self._tasks_by_ident.get(threading.get_ident())
        return task.name if task is not None else None

    def _dispatch(self, event: tuple[float, int, _Task]) -> _Task:
        """Advance the clock to a just-popped event; returns its task."""
        when, _, task = event
        if when > self.now:
            self.now = when
        self.events_processed += 1
        return task

    # -- task-side API ------------------------------------------------------------------

    def sleep(self, seconds: float) -> None:
        """Suspend the calling task for ``seconds`` of virtual time.

        Called from the driver (outside :meth:`run`) it simply advances the
        clock, which lets setup code that sleeps — warmups, probes — work
        before any tasks exist.
        """
        seconds = max(0.0, float(seconds))
        task = self._tasks_by_ident.get(threading.get_ident())
        if task is None:
            self.now += seconds
            return
        # Push our wake-up and pop the next event in one step; when our own
        # wake-up is next it never enters the heap and we carry on.
        following = self._dispatch(
            heapq.heappushpop(self._heap, (self.now + seconds, next(self._seq), task))
        )
        if following is not task:
            following.gate.release()
            task.gate.acquire()

    # -- driver-side API ----------------------------------------------------------------

    def run(
        self,
        fns: Sequence[Callable[[], object]],
        names: Sequence[str] | None = None,
    ) -> list[object]:
        """Run callables as cooperative tasks until every one completes.

        All tasks start at the current virtual instant, in list order.
        Returns their results in the same order; if any task raised, the
        first failure (in list order) is re-raised as
        :exc:`SimTaskFailed` after the remaining tasks finish.
        """
        if self._running:
            raise RuntimeError("scheduler is already running a task set")
        self._running = True
        tasks = []
        try:
            for index, fn in enumerate(fns):
                name = names[index] if names is not None else f"task-{index}"
                task = _Task(name, fn)
                task.thread = threading.Thread(
                    target=self._task_main, args=(task,), name=f"sim:{name}", daemon=True
                )
                tasks.append(task)
                heapq.heappush(self._heap, (self.now, next(self._seq), task))
                task.thread.start()
            if tasks:
                self._dispatch(heapq.heappop(self._heap)).gate.release()
                self._drained.acquire()
            for task in tasks:
                task.thread.join()
        finally:
            self._running = False
        for task in tasks:
            if task.error is not None:
                raise SimTaskFailed(f"simulated task {task.name!r} failed") from task.error
        return [task.result for task in tasks]

    def _task_main(self, task: _Task) -> None:
        ident = threading.get_ident()
        self._tasks_by_ident[ident] = task
        task.gate.acquire()
        try:
            task.result = task.fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced via SimTaskFailed
            task.error = exc
        finally:
            del self._tasks_by_ident[ident]
            # Every unfinished task has exactly one event queued, so an
            # empty heap means this was the last one.
            if self._heap:
                self._dispatch(heapq.heappop(self._heap)).gate.release()
            else:
                self._drained.release()


class SimClock(Clock):
    """Virtual-time :class:`Clock` driven by a :class:`Scheduler`.

    ``monotonic()`` is the scheduler's clock directly; ``now()`` offsets it
    by a fixed :data:`SIM_EPOCH` so epoch-based timestamps (transaction
    clocks) are stable across runs and machines.
    """

    def __init__(self, scheduler: Scheduler | None = None, epoch: float = SIM_EPOCH):
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self._epoch = float(epoch)

    def now(self) -> float:
        return self._epoch + self.scheduler.now

    def monotonic(self) -> float:
        return self.scheduler.now

    def sleep(self, seconds: float) -> None:
        self.scheduler.sleep(seconds)

    def now_us(self) -> int:
        return int(round(self.now() * 1_000_000))

    def perf_counter_ns(self) -> int:
        return int(round(self.scheduler.now * 1_000_000_000))


class VirtualResource:
    """A serialised resource paid for in virtual time (FIFO queueing).

    Models the shared client-side cost that produces Fig. 2's throughput
    *decline*: each request occupies the resource for ``cost`` seconds,
    and requests queue behind each other.  Under a busy-wait model this
    would hang a simulation (spinning never advances virtual time), so
    occupancy is book-kept as ``busy_until`` and the excess is slept —
    one cheap event per request.

    Safe without locks under a :class:`Scheduler` (only one task runs at a
    time and control transfers only inside ``sleep``); for wall-clock use
    wrap calls in an external lock.
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        self._busy_until = 0.0

    def occupy(self, cost_s: float) -> None:
        if cost_s <= 0.0:
            return
        now = self._clock.monotonic()
        start = max(now, self._busy_until)
        self._busy_until = start + cost_s
        self._clock.sleep(self._busy_until - now)
