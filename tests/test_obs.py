"""Flight recorder (repro.obs): bit-exactness and trace schema.

The load-bearing guarantee: the tracer consumes **no RNG** and adds no
branches to the math, so a traced and an untraced run produce
bit-identical histories — hypothesis-tested across mode × local plane
× tiers.  On top of that: the exported Chrome trace is well-formed
(metadata-named tracks, non-negative durations, children nested inside
their cycle spans on both clocks), the analyzer attributes ≥95% of
simulated wall time to spans, meters land in the JSONL sink, and the
NullTracer path really is a shared no-op singleton.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import Photon
from repro.obs import (
    HOST_PID,
    NULL_METERS,
    NULL_TRACER,
    SIM_PID,
    MeterRegistry,
    MetricsSink,
)
from repro.obs.analyze import analyze, load_events

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5, model_mb=0.05)


def make_photon(mode="sync", rounds=2, trace_path=None, metrics_every=None,
                walltime=True, **overrides):
    fed_kwargs = dict(population=4, clients_per_round=2, local_steps=2,
                      rounds=rounds, mode=mode, seed=0,
                      trace_path=trace_path, metrics_every=metrics_every)
    if mode == "async":
        fed_kwargs.update(buffer_size=2, staleness_alpha=0.5)
    fed_kwargs.update(overrides)
    return Photon(CFG, FedConfig(**fed_kwargs), OPTIM, num_shards=4,
                  val_batches=2,
                  walltime_config=WALLTIME if walltime else None)


def assert_histories_identical(a, b):
    ha, hb = a.history, b.history
    assert len(ha) == len(hb)
    for ra, rb in zip(ha, hb):
        assert asdict(ra) == asdict(rb), f"round {ra.round_idx} diverged"
    la, lb = a.aggregator.link, b.aggregator.link
    assert (la.uplink_wire_bytes, la.uplink_raw_bytes, la.messages_sent) == \
           (lb.uplink_wire_bytes, lb.uplink_raw_bytes, lb.messages_sent)


# ----------------------------------------------------------------------
# Tentpole guarantee: tracing on vs off is bit-exact
# ----------------------------------------------------------------------

class TestBitExactness:

    @settings(max_examples=6, deadline=None)
    @given(
        mode=st.sampled_from(["sync", "async"]),
        local_plane=st.sampled_from(["sequential", "batched"]),
        tiers=st.sampled_from([None, 2]),
    )
    def test_trace_on_off_bit_exact(self, tmp_path_factory, mode,
                                    local_plane, tiers):
        tmp = tmp_path_factory.mktemp("obs")
        plain = make_photon(mode=mode, local_plane=local_plane, tiers=tiers)
        traced = make_photon(mode=mode, local_plane=local_plane, tiers=tiers,
                             trace_path=str(tmp / "t.json"), metrics_every=1)
        plain.train()
        traced.train()
        assert_histories_identical(plain, traced)
        # The traced run actually recorded something.
        assert (tmp / "t.json").is_file()
        assert traced.tracer.summary()["sim_spans"] > 0

    def test_async_jitter_deadline_bit_exact(self, tmp_path):
        kwargs = dict(mode="async", jitter=0.3, deadline=500.0,
                      drop_policy="admit_partial", rounds=3)
        plain = make_photon(**kwargs)
        traced = make_photon(trace_path=str(tmp_path / "t.json"), **kwargs)
        plain.train()
        traced.train()
        assert_histories_identical(plain, traced)
        ledgers = (plain.aggregator.drop_ledger,
                   traced.aggregator.drop_ledger)
        assert ledgers[0].total_dropped_steps == ledgers[1].total_dropped_steps
        assert ledgers[0].total_salvaged_steps == \
            ledgers[1].total_salvaged_steps

    def test_failover_crash_bit_exact(self, tmp_path):
        from repro.fed import FailureModel
        kwargs = dict(rounds=3, replicas=1)

        def run(trace_path=None):
            photon = make_photon(trace_path=trace_path, **kwargs)
            photon.failover.failure_model = FailureModel(
                scripted={(1, "root")})
            photon.train()
            return photon

        a, b = run(), run(str(tmp_path / "t.json"))
        assert a.failover.crashes == b.failover.crashes == 1
        assert_histories_identical(a, b)


# ----------------------------------------------------------------------
# Trace schema
# ----------------------------------------------------------------------

class TestTraceSchema:

    @pytest.fixture(scope="class", params=["sync", "async"])
    def traced_run(self, request, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        path = tmp / f"{request.param}.json"
        photon = make_photon(mode=request.param, rounds=3, tiers=2,
                             trace_path=str(path), metrics_every=1)
        photon.train()
        return photon, path

    def test_chrome_trace_well_formed(self, traced_run):
        _, path = traced_run
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        named = {(e["pid"], e["tid"]) for e in events
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        for e in events:
            assert e["ph"] in ("X", "i", "M")
            if e["ph"] == "M":
                continue
            assert e["pid"] in (SIM_PID, HOST_PID)
            assert e["ts"] >= 0.0
            # Every span/instant sits on a metadata-named track.
            assert (e["pid"], e["tid"]) in named
            if e["ph"] == "X":
                assert e["dur"] >= 0.0

    def test_spans_nested_within_cycles(self, traced_run):
        """Child spans (local train / uplink+broadcast) fit inside
        their track's cycle span on the simulated clock."""
        _, path = traced_run
        events = load_events(path)
        by_tid: dict[int, list[dict]] = {}
        for e in events:
            if e.get("ph") == "X" and e["pid"] == SIM_PID:
                by_tid.setdefault(e["tid"], []).append(e)
        checked = 0
        for spans in by_tid.values():
            parents = [s for s in spans
                       if s["name"] == "cycle"
                       or s["name"].startswith(("round ", "update "))]
            children = [s for s in spans
                        if s["name"] in ("local train", "uplink+broadcast")]
            for child in children:
                lo, hi = child["ts"], child["ts"] + child["dur"]
                assert any(p["ts"] - 1e-3 <= lo and
                           hi <= p["ts"] + p["dur"] + 1e-3
                           for p in parents), child
                checked += 1
        assert checked > 0

    def test_analyzer_coverage_and_attribution(self, traced_run):
        photon, path = traced_run
        report = analyze(load_events(path))
        assert report["total_sim_s"] > 0
        # Acceptance gate: ≥95% of simulated wall time inside spans.
        assert report["coverage"] >= 0.95
        assert report["sim_spans"] > 0 and report["host_spans"] > 0
        for row in report["stragglers"]:
            assert row["cause"] in ("compute", "comm", "jitter",
                                    "queueing", "backhaul")
            assert row["total_s"] >= 0
        # The 2-tier run pays a real backhaul — the analyzer sees it.
        assert report["tiers"], "expected backhaul utilization rows"

    def test_metrics_sink_lines(self, traced_run):
        photon, path = traced_run
        lines = [json.loads(line) for line in
                 path.with_suffix(".metrics.jsonl").read_text().splitlines()]
        assert lines[-1].keys() == {"summary"}
        samples = [line for line in lines if "meters" in line]
        assert len(samples) == len(photon.history)
        meters = samples[-1]["meters"]
        assert meters["link/uplink_wire_bytes"] > 0
        assert "scheduler/cohorts" in meters or \
            "scheduler/dispatches" in meters


# ----------------------------------------------------------------------
# Null path and meter primitives
# ----------------------------------------------------------------------

class TestNullPath:

    def test_null_tracer_is_inert_singleton(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.meters is NULL_METERS
        assert NULL_TRACER.span_sim("t", "n", 0.0, 1.0) is None
        assert NULL_TRACER.export() is None
        assert NULL_TRACER.finish() is None
        assert NULL_TRACER.summary() == {}
        with NULL_TRACER.host_span("t", "n"):
            pass
        # Null meters swallow writes and share instances.
        c = NULL_METERS.counter("x")
        c.inc(5)
        assert c.value == 0
        assert NULL_METERS.counter("y") is c
        assert NULL_METERS.snapshot() == {}

    def test_engine_defaults_to_null_tracer(self):
        photon = make_photon()
        assert photon.tracer is NULL_TRACER
        assert photon.aggregator.tracer is NULL_TRACER

    def test_trace_state_never_in_state_dict(self, tmp_path):
        photon = make_photon(mode="async",
                             trace_path=str(tmp_path / "t.json"))
        photon.train()
        state = json.dumps(
            sorted(photon.aggregator.state_dict().keys()))
        assert "trace" not in state and "tracer" not in state


class TestMeters:

    def test_counter_gauge_histogram(self):
        reg = MeterRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        reg.gauge("b").set(2.5)
        h = reg.histogram("c")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = reg.snapshot()
        assert snap["a"] == 5
        assert snap["b"] == 2.5
        assert snap["c"] == {"count": 3, "sum": 6.0, "min": 1.0,
                             "max": 3.0, "mean": 2.0}

    def test_pool_gauges_on_every_traced_run(self, tmp_path):
        """One registry, so one set of gauges: the default plane
        builds its whole population up front and evicts nobody."""
        photon = make_photon(trace_path=str(tmp_path / "t.json"))
        photon.train()
        snap = photon.tracer.meters.snapshot()
        assert snap["pool/materializations"] == 4
        assert snap["pool/rematerializations"] == 0
        assert snap["pool/live"] == 4
        assert snap["pool/evictions"] == 0
        assert snap["pool/hits"] > 0

    def test_type_collision_rejected(self):
        reg = MeterRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_sink_crash_safe_lines(self, tmp_path):
        sink = MetricsSink(tmp_path / "m.jsonl")
        sink.write(1, 0.5, {"k": 1})
        # No close() — the flushed line must already be on disk.
        line = json.loads((tmp_path / "m.jsonl").read_text().splitlines()[0])
        assert line == {"server_update": 1, "host_s": 0.5, "meters": {"k": 1}}
        sink.close(summary={"done": True})
        sink.close()  # idempotent
        assert json.loads((tmp_path / "m.jsonl").read_text()
                          .splitlines()[-1]) == {"summary": {"done": True}}


class TestConfigSurface:

    def test_metrics_every_requires_trace(self):
        with pytest.raises(ValueError, match="trace_path"):
            FedConfig(metrics_every=2)

    def test_metrics_every_validated(self):
        with pytest.raises(ValueError, match="metrics_every"):
            FedConfig(trace_path="t.json", metrics_every=0)

    def test_cli_flags(self, tmp_path, capsys):
        from repro.cli import main
        trace = tmp_path / "cli.json"
        rc = main(["train", "--model", "tiny", "--clients", "2",
                   "--local-steps", "1", "--rounds", "1",
                   "--batch-size", "2", "--walltime",
                   "--trace", str(trace), "--metrics-every", "1"])
        assert rc == 0
        assert trace.is_file()
        assert trace.with_suffix(".metrics.jsonl").is_file()
        assert "trace" in capsys.readouterr().out
