"""Structured span tracing on two clocks, exported as Chrome trace JSON.

The :class:`Tracer` records *complete* spans (``ph: "X"``) and instant
events on two tracks:

* ``pid 1`` — the **simulated clock**: round/update spans, per-client
  pull–train–push cycles with compute/comm children, backhaul hops,
  crash/promotion markers.  Timestamps are simulated seconds.
* ``pid 2`` — the **host wall clock** (``time.perf_counter`` relative
  to tracer construction): engine rounds, training waves, codec work,
  checkpoint IO, failover recovery.

Within a pid, each logical track ("server", "client:3", "backhaul:Utah",
"checkpoint", …) gets its own tid plus a ``thread_name`` metadata
record, so the file drops straight into Perfetto / ``chrome://tracing``
with labeled rows.  Timestamps and durations are microseconds and may
be fractional (the trace-event format takes doubles), which keeps
parent/child span edges exact.

The disabled path is :data:`NULL_TRACER`, a module singleton whose
every method is a no-op and whose ``enabled`` flag lets call sites skip
argument construction entirely.  Neither class ever touches an RNG —
the bit-exactness guarantee the hypothesis suite enforces.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from .meters import NULL_METERS, MeterRegistry

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "SIM_PID", "HOST_PID"]

#: Process ids of the two clock tracks in the exported trace.
SIM_PID = 1
HOST_PID = 2

_PROCESS_NAMES = {SIM_PID: "simulated clock", HOST_PID: "host wall clock"}


class Tracer:
    """Buffering span recorder with a meter registry and metrics sink.

    ``path`` is where :meth:`export` writes the Chrome trace JSON
    (``None`` = meters/sink only).  ``metrics_every`` > 0 makes
    :meth:`tick` flush a meters snapshot to ``sink`` every N server
    updates.
    """

    enabled = True

    def __init__(self, path: str | Path | None = None,
                 metrics_every: int = 0, sink=None):
        self.path = Path(path) if path is not None else None
        self.metrics_every = int(metrics_every)
        self.sink = sink
        self.meters = MeterRegistry()
        # (pid, tid, ph, name, ts_us, dur_us, args-or-None)
        self._events: list[tuple] = []
        self._tids: dict[tuple[int, str], int] = {}
        self._t0_host = time.perf_counter()

    # ------------------------------------------------------------------
    # Clocks and track bookkeeping
    # ------------------------------------------------------------------
    def now_host(self) -> float:
        """Host seconds since tracer construction."""
        return time.perf_counter() - self._t0_host

    def _tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = len(self._tids) + 1
        return tid

    # ------------------------------------------------------------------
    # Span emission
    # ------------------------------------------------------------------
    def _span(self, pid: int, track: str, name: str, start_s: float,
              dur_s: float, args: dict | None) -> None:
        self._events.append((
            pid, self._tid(pid, track), "X", name,
            start_s * 1e6, max(0.0, dur_s) * 1e6, args,
        ))

    def _instant(self, pid: int, track: str, name: str, t_s: float,
                 args: dict | None) -> None:
        self._events.append((
            pid, self._tid(pid, track), "i", name, t_s * 1e6, None, args,
        ))

    def span_sim(self, track: str, name: str, start_s: float, dur_s: float,
                 **args) -> None:
        """A completed span on the simulated clock."""
        self._span(SIM_PID, track, name, start_s, dur_s, args or None)

    def instant_sim(self, track: str, name: str, t_s: float, **args) -> None:
        """A point event (crash, promotion) on the simulated clock."""
        self._instant(SIM_PID, track, name, t_s, args or None)

    def span_host(self, track: str, name: str, start_s: float, dur_s: float,
                  **args) -> None:
        """A completed span on the host clock (seconds since start)."""
        self._span(HOST_PID, track, name, start_s, dur_s, args or None)

    @contextmanager
    def host_span(self, track: str, name: str, **args):
        """Context manager timing a host-side block into a span."""
        start = self.now_host()
        try:
            yield
        finally:
            self.span_host(track, name, start, self.now_host() - start,
                           **args)

    # ------------------------------------------------------------------
    # Periodic metrics + export
    # ------------------------------------------------------------------
    def tick(self, server_update: int) -> None:
        """Flush a meters snapshot to the sink every ``metrics_every``
        server updates (no-op without a sink or a cadence)."""
        if (self.sink is not None and self.metrics_every > 0
                and server_update % self.metrics_every == 0):
            self.sink.write(server_update, self.now_host(),
                            self.meters.snapshot())

    def summary(self) -> dict:
        """End-of-run digest: span counts per clock plus all meters."""
        sim_spans = sum(1 for e in self._events
                        if e[0] == SIM_PID and e[2] == "X")
        host_spans = sum(1 for e in self._events
                         if e[0] == HOST_PID and e[2] == "X")
        sim_end = max((e[4] + e[5] for e in self._events
                       if e[0] == SIM_PID and e[2] == "X"), default=0.0)
        return {
            "sim_spans": sim_spans,
            "host_spans": host_spans,
            "sim_total_s": sim_end / 1e6,
            "host_total_s": self.now_host(),
            "meters": self.meters.snapshot(),
        }

    def export(self) -> Path | None:
        """Write the Chrome trace-event JSON; returns the path."""
        if self.path is None:
            return None
        events: list[dict] = []
        for pid, pname in _PROCESS_NAMES.items():
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": pname}})
        for (pid, track), tid in sorted(self._tids.items(),
                                        key=lambda kv: kv[1]):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": track}})
        for pid, tid, ph, name, ts, dur, args in sorted(
                self._events, key=lambda e: (e[0], e[1], e[4])):
            event: dict = {"ph": ph, "name": name, "pid": pid, "tid": tid,
                           "ts": ts, "cat": "sim" if pid == SIM_PID else "host"}
            if ph == "X":
                event["dur"] = dur
            else:
                event["s"] = "t"
            if args:
                event["args"] = args
            events.append(event)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return self.path

    def finish(self) -> Path | None:
        """Export the trace and close the sink with the summary."""
        path = self.export()
        if self.sink is not None:
            self.sink.close(self.summary())
        return path


@contextmanager
def _null_context():
    yield


class NullTracer:
    """The zero-overhead disabled path: every method a no-op.

    ``enabled`` is False so hot paths can skip argument construction;
    the shared :data:`NULL_METERS` registry hands out inert meters to
    unconditional call sites.  Never touches an RNG.
    """

    enabled = False
    meters = NULL_METERS
    path = None
    sink = None
    metrics_every = 0

    def now_host(self) -> float:
        return 0.0

    def span_sim(self, track, name, start_s, dur_s, **args) -> None:
        pass

    def instant_sim(self, track, name, t_s, **args) -> None:
        pass

    def span_host(self, track, name, start_s, dur_s, **args) -> None:
        pass

    def host_span(self, track, name, **args):
        return _null_context()

    def tick(self, server_update) -> None:
        pass

    def summary(self) -> dict:
        return {}

    def export(self):
        return None

    def finish(self):
        return None


#: Module singleton every component defaults to when tracing is off.
NULL_TRACER = NullTracer()
