"""Engine observer: every span and meter the round engines emit.

The engines (:mod:`repro.fed.engine`) report what happened — a cohort
was selected, a cycle was dispatched, a client went idle, a cycle
ended, the edge tier merged, a server update landed — and this module
turns those reports into simulated-clock spans and meter samples on a
:class:`~repro.obs.trace.Tracer`.  The engine calls its observer
unconditionally; with tracing off it holds :data:`NULL_OBSERVER`, a
shared no-op singleton (the ``NULL_TRACER`` pattern), so the engine
carries neither tracing branches nor tracing-only state.

Nothing here touches an RNG or mutates the engine: the async engine
hands over the compute/comm split its dispatch planned, the barrier
spans read the deterministic ``client_timing``, so a traced run stays
bit-exact against an untraced one.  Observer state is diagnostic and never checkpointed —
a cycle dispatched before a resume simply has no span.
"""

from __future__ import annotations

__all__ = ["EngineObserver", "NullEngineObserver", "NULL_OBSERVER",
           "engine_observer"]


class EngineObserver:
    """Span/meter emission for one engine on an enabled tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        # Async cycle bookkeeping: dispatch-time (start clock, base
        # compute, base comm, queueing wait) per in-flight client, and
        # the clock at which each idle client last arrived.
        self._dispatch: dict[str, tuple] = {}
        self._idle_since: dict[str, float] = {}
        # Per-region backhaul hops of the last edge merge, held until
        # the server-update span they sit at the tail of is emitted.
        self._region_hops: list = []

    # ------------------------------------------------------------------
    # Selection and client cycles
    # ------------------------------------------------------------------
    def cohort(self, size: int) -> None:
        """The barrier engine selected a cohort of ``size``."""
        meters = self.tracer.meters
        meters.counter("scheduler/cohorts").inc()
        meters.counter("scheduler/selected").inc(size)

    def dispatched(self, client_id: str, now: float, compute: float,
                   comm: float) -> None:
        """The async engine dispatched a pull–train–push cycle at
        clock ``now``, planned to take ``compute + comm`` seconds
        before jitter."""
        self._dispatch[client_id] = (
            now, compute, comm, now - self._idle_since.pop(client_id, now))
        self.tracer.meters.counter("scheduler/dispatches").inc()

    def idle(self, client_id: str, clock_s: float) -> None:
        """``client_id`` rejoined the idle pool at ``clock_s``."""
        self._idle_since[client_id] = clock_s

    def cycle_ended(self, client_id: str, entry, outcome: str,
                    clock_s: float) -> None:
        """An async cycle ended (``ok``/``salvaged``/``crash``/
        ``timeout``).  The span carries the dispatch-time base split so
        the analyzer can attribute the excess to jitter and the wait
        before dispatch to queueing."""
        info = self._dispatch.pop(client_id, None)
        if info is None:
            return  # dispatched before the tracer attached (resume)
        start, compute, comm, queue_s = info
        dur, base = clock_s - start, compute + comm
        # Realized split: scale the base decomposition to the actual
        # duration (jitter stretches both phases).
        delivered = outcome in ("ok", "salvaged") and base > 0 and dur > 0
        self._cycle(client_id, start, dur, compute, comm,
                    compute * (dur / base) if delivered else None,
                    steps=entry.steps, version=entry.version,
                    outcome=outcome, queue_s=queue_s)

    def _cycle(self, client_id: str, start: float, dur: float,
               compute: float, comm: float, train_s: float | None,
               **args) -> None:
        """One client cycle span with its ``local train`` and
        ``uplink+broadcast`` children (``train_s`` None = no children:
        the cycle delivered nothing)."""
        track = f"client:{client_id}"
        self.tracer.span_sim(track, "cycle", start, dur, client=client_id,
                             compute_s=compute, comm_s=comm,
                             base_s=compute + comm, **args)
        if train_s is not None:
            self.tracer.span_sim(track, "local train", start, train_s)
            self.tracer.span_sim(track, "uplink+broadcast", start + train_s,
                                 dur - train_s)

    # ------------------------------------------------------------------
    # Server updates
    # ------------------------------------------------------------------
    def edge_merged(self, report, sim_s: float) -> None:
        """The edge tier finished one hierarchical merge."""
        self._region_hops = report.region_hops
        meters = self.tracer.meters
        meters.counter("edge/crashes").inc(report.crashes)
        meters.counter("edge/updates_lost").inc(report.updates_lost)
        for region in report.crashed_regions:
            self.tracer.instant_sim(f"backhaul:{region}", "edge crash", sim_s,
                                    region=region)

    def server_update(self, engine, record, elapsed_s: float,
                      cohort: list[str] | None = None,
                      local_steps: int = 0) -> None:
        """A server update was applied and ``record`` appended.

        With a wall-time model the span sits in cumulative simulated
        seconds; without one the raw event clock is used (``elapsed_s``
        back from ``engine.clock_s``) so updates still tile the
        timeline.  A barrier round passes its ``cohort``: the
        per-client cycles of each attempt are laid out here, inside
        the round span."""
        if engine.walltime is not None:
            end, dur = engine.simulated_wall_time_s, record.wall_time_s
        else:
            end, dur = engine.clock_s, elapsed_s
        start = end - dur
        kind = "update" if cohort is None else "round"
        self.tracer.span_sim(
            "server", f"{kind} {record.round_idx}", start, dur,
            clients=len(record.clients), failed=len(record.failed_clients),
            retries=record.retries, dropped_steps=record.dropped_steps,
            deadline_misses=record.deadline_misses)
        if cohort is not None and engine.walltime is not None and dur > 0:
            attempts = 1 + record.retries
            attempt_s = (dur - record.backhaul_hop_s) / attempts
            for attempt in range(attempts):
                a0 = start + attempt * attempt_s
                for cid in cohort:
                    timing = engine.walltime.client_timing(cid, local_steps)
                    cycle_s = min(timing.total_s, attempt_s)
                    self._cycle(
                        cid, a0, cycle_s, timing.compute_s, timing.comm_s,
                        min(timing.compute_s, cycle_s), steps=local_steps,
                        outcome=("failed" if cid in record.failed_clients
                                 else "ok"))
        # Backhaul hops sit at the tail of the update window (regions
        # transfer in parallel).
        if record.backhaul_hop_s > 0:
            for region, hop_s, wire in self._region_hops:
                self.tracer.span_sim(
                    f"backhaul:{region}", "backhaul hop",
                    end - record.backhaul_hop_s, hop_s, wire_bytes=wire)
        self._region_hops = []
        self._sample_meters(engine)
        self.tracer.tick(len(engine.history))

    def _sample_meters(self, engine) -> None:
        """Publish the engine's component counters as gauges."""
        meters = self.tracer.meters
        link = engine.link
        for name in link.COUNTER_FIELDS:
            meters.gauge(f"link/{name}").set(getattr(link, name))
        ledger = engine.drop_ledger
        if ledger is not None:
            for name in ("dropped_steps", "dropped_bytes", "deadline_misses",
                         "salvaged_steps", "cancelled_cycles"):
                meters.gauge(f"ledger/{name}").set(
                    getattr(ledger, f"total_{name}"))
        pool = engine.clients
        meters.gauge("pool/materializations").set(pool.materializations)
        meters.gauge("pool/rematerializations").set(pool.rematerializations)
        meters.gauge("pool/evictions").set(pool.evictions)
        meters.gauge("pool/hits").set(pool.hits)
        meters.gauge("pool/live").set(pool.live_count())
        if engine.edge_tier is not None:
            backhaul = engine.edge_tier.backhaul
            meters.gauge("edge/backhaul_wire_bytes").set(
                backhaul.uplink_wire_bytes)
            meters.gauge("edge/backhaul_raw_bytes").set(
                backhaul.uplink_raw_bytes)
        ef = engine.error_feedback
        if ef is not None and link.uplink_codec is not None:
            meters.histogram("ef/residual_norm").observe(
                ef.total_residual_norm())


class NullEngineObserver:
    """The disabled path: the engine-facing surface of
    :class:`EngineObserver` with every method a no-op."""

    def cohort(self, size) -> None:
        pass

    def dispatched(self, client_id, now, compute, comm) -> None:
        pass

    def idle(self, client_id, clock_s) -> None:
        pass

    def cycle_ended(self, client_id, entry, outcome, clock_s) -> None:
        pass

    def edge_merged(self, report, sim_s) -> None:
        pass

    def server_update(self, engine, record, elapsed_s, cohort=None,
                      local_steps=0) -> None:
        pass


#: Module singleton every engine shares while tracing is off.
NULL_OBSERVER = NullEngineObserver()


def engine_observer(tracer):
    """The observer for an engine running under ``tracer``."""
    return EngineObserver(tracer) if tracer.enabled else NULL_OBSERVER
