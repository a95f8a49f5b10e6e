"""Deterministic simulation: virtual-time benchmarking and seeded anomaly hunting.

See ``docs/SIMULATION.md``.  The package splits into:

- :mod:`repro.sim.clock` — the :class:`Clock` protocol, :class:`WallClock`,
  and the ambient-clock context every timing module defaults to.
- :mod:`repro.sim.scheduler` — the event-heap :class:`Scheduler`,
  :class:`SimClock`, and :class:`VirtualResource`.
- :mod:`repro.sim.campaign` — the ``ycsbt sim`` unit of work and its
  violation-trace artifact (swept by :func:`repro.campaign.sweep`).  Imported lazily so
  the clock primitives stay dependency-free for the core modules that
  import them.
"""

from .clock import (
    WALL_CLOCK,
    Clock,
    WallClock,
    ambient_monotonic,
    ambient_now,
    ambient_now_us,
    ambient_perf_counter_ns,
    ambient_sleep,
    get_clock,
    set_clock,
    use_clock,
)
from .scheduler import SIM_EPOCH, Scheduler, SimClock, SimTaskFailed, VirtualResource

__all__ = [
    "Clock",
    "WallClock",
    "WALL_CLOCK",
    "get_clock",
    "set_clock",
    "use_clock",
    "ambient_sleep",
    "ambient_now",
    "ambient_now_us",
    "ambient_monotonic",
    "ambient_perf_counter_ns",
    "Scheduler",
    "SimClock",
    "SimTaskFailed",
    "VirtualResource",
    "SIM_EPOCH",
    # lazy (see __getattr__): campaign API
    "SimRunResult",
    "run_sim",
    "DEFAULT_SIM_PROPERTIES",
]

_LAZY = {
    "SimRunResult",
    "run_sim",
    "DEFAULT_SIM_PROPERTIES",
}


def __getattr__(name):
    if name in _LAZY:
        from . import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
