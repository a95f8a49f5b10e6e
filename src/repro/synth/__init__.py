"""Statistical workload synthesis: declarative specs -> deterministic op
streams on the virtual-time scheduler.

The pipeline:

1. A :class:`~repro.synth.spec.SynthSpec` (dict / JSON / TOML / built-in
   scenario) declares the campaign statistically: arrival-rate curve
   (diurnal sine + flash-crowd spikes), drifting hot-key skew,
   multi-tenant mixes with token-bucket ceilings, a simulated user
   population.
2. :func:`~repro.synth.engine.run_synth` compiles it into one
   deterministic run on the sim clock — O(active-users) memory, minutes
   of wall time for a million-user / ten-million-op day — and checks
   the spec's conformance assertions.
3. ``ycsbt synth`` sweeps scenarios x bindings x seeds through
   :func:`repro.campaign.sweep` and writes replayable violation traces,
   exactly like ``ycsbt sim``.
"""

from .engine import (
    DEFAULT_SYNTH_PROPERTIES,
    AssertionOutcome,
    SynthCewWorkload,
    SynthRunResult,
    run_synth,
)
from .models import (
    RateCurve,
    SpikeSegment,
    make_arrivals,
    paced_arrivals,
    poisson_arrivals,
)
from .spec import (
    SCENARIOS,
    SynthSpec,
    SynthSpecError,
    TenantSpec,
    load_synth_spec,
    scenario_names,
    synth_spec_from_dict,
)

__all__ = [
    "AssertionOutcome",
    "DEFAULT_SYNTH_PROPERTIES",
    "RateCurve",
    "SCENARIOS",
    "SpikeSegment",
    "SynthCewWorkload",
    "SynthRunResult",
    "SynthSpec",
    "SynthSpecError",
    "TenantSpec",
    "load_synth_spec",
    "make_arrivals",
    "paced_arrivals",
    "poisson_arrivals",
    "run_synth",
    "scenario_names",
    "synth_spec_from_dict",
]
