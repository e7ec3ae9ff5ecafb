"""Flight recorder for the federation runtime (ISSUE 9).

Always available, zero overhead when off:

* :mod:`repro.obs.meters` — dependency-free counter/gauge/histogram
  registry every runtime component publishes into;
* :mod:`repro.obs.trace` — a :class:`Tracer` emitting structured spans
  on the **simulated clock** (dispatch → train → uplink → aggregate →
  broadcast, backhaul hops, checkpoints, crashes/promotions) and on the
  host wall clock, exported as Chrome trace-event JSON (Perfetto);
* :mod:`repro.obs.observer` — the one place the round engines' spans
  and meters are emitted (a shared null object when tracing is off);
* :mod:`repro.obs.sink` — periodic JSONL metrics flush plus an
  end-of-run summary line;
* :mod:`repro.obs.analyze` — ``python -m repro.obs.analyze`` computes
  the critical path, straggler attribution, and per-tier/per-worker
  utilization from a trace.

The disabled path is the :data:`NULL_TRACER` singleton: every method a
no-op, no RNG consumed, histories bit-exact (hypothesis-tested).
"""

from .meters import (
    Counter,
    Gauge,
    Histogram,
    MeterRegistry,
    NULL_METERS,
)
from .observer import NULL_OBSERVER, EngineObserver, engine_observer
from .sink import MetricsSink
from .trace import (
    HOST_PID,
    NULL_TRACER,
    NullTracer,
    SIM_PID,
    Tracer,
)

__all__ = [
    "Counter",
    "EngineObserver",
    "Gauge",
    "Histogram",
    "MeterRegistry",
    "MetricsSink",
    "NULL_METERS",
    "NULL_OBSERVER",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "SIM_PID",
    "HOST_PID",
    "engine_observer",
]
