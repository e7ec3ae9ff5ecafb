"""Fault-tolerant async federation: deadline/drop policies, crash
routing per fault policy, adaptive local steps, and the determinism
regressions that guard them (rerun-identical, max_workers-invariant)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import (
    AsyncAggregator,
    ClientFailure,
    DeadlinePolicy,
    DropLedger,
    FailureModel,
    FaultPolicy,
    Photon,
    adaptive_step_weights,
)
from repro.fed.engine import _plan_cycles

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32, seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64, batch_size=2,
                    weight_decay=0.0)
#: 4 local steps at ν = 2 → nominal cycle ≈ 2 s (+ tiny comm).
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5, model_mb=0.05)


def make_photon(*, population=5, rounds=3, local_steps=4, spread=4.0,
                staleness_alpha=0.5, **kwargs):
    """Async federation over a heterogeneous clock (stragglers up to
    ``spread``x slower); deadline/fault knobs ride on kwargs."""
    fed_keys = ("deadline", "drop_policy", "adaptive_local_steps",
                "buffer_size", "seed", "local_plane")
    fed_kwargs = {k: kwargs.pop(k) for k in fed_keys if k in kwargs}
    fed = FedConfig(population=population, clients_per_round=population,
                    local_steps=local_steps, rounds=rounds, mode="async",
                    staleness_alpha=staleness_alpha, **fed_kwargs)
    walltime = kwargs.pop("walltime_config", WALLTIME)
    if spread > 1.0 and walltime is None:
        spread = 1.0
    return Photon(CFG, fed, OPTIM, num_shards=population, val_batches=2,
                  walltime_config=walltime, client_speed_spread=spread,
                  **kwargs)


def trace(history):
    return (history.val_perplexities, history.train_losses,
            [r.pseudo_grad_norm for r in history])


class TestDeadlinePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(deadline_s=-1.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(deadline_s=1.0, drop_policy="discard")

    def test_enforcing(self):
        assert DeadlinePolicy(1.0, "drop").enforcing
        assert DeadlinePolicy(1.0, "requeue").enforcing
        assert not DeadlinePolicy(1.0, "admit_stale").enforcing


class TestDropLedger:
    def test_windows_partition_totals(self):
        ledger = DropLedger()
        ledger.record_drop(4, 100)
        ledger.record_drop(2, 50)
        first = ledger.flush()
        assert first == {"dropped_steps": 6, "dropped_bytes": 150,
                         "deadline_misses": 0, "salvaged_steps": 0}
        ledger.record_late()
        second = ledger.flush()
        assert second["deadline_misses"] == 1
        assert second["dropped_steps"] == 0
        assert ledger.total_dropped_steps == 6
        assert ledger.total_dropped_bytes == 150
        assert ledger.total_deadline_misses == 1
        assert ledger.total_cancelled_cycles == 2
        # A closed ledger flushes empty windows.
        assert ledger.flush() == {"dropped_steps": 0, "dropped_bytes": 0,
                                  "deadline_misses": 0, "salvaged_steps": 0}

    def test_salvage_splits_cancelled_cycles(self):
        ledger = DropLedger()
        ledger.record_salvage(3, 5)
        ledger.record_salvage(1, 0)
        window = ledger.flush()
        assert window == {"dropped_steps": 5, "dropped_bytes": 0,
                          "deadline_misses": 0, "salvaged_steps": 4}
        assert ledger.total_salvaged_steps == 4
        assert ledger.total_dropped_steps == 5
        assert ledger.total_cancelled_cycles == 2
        # Conservation: dropped + salvaged covers every cancelled step.
        assert ledger.total_dropped_steps + ledger.total_salvaged_steps == 9

    def test_salvage_validation(self):
        with pytest.raises(ValueError):
            DropLedger().record_salvage(0, 4)  # nothing finished = a drop
        with pytest.raises(ValueError):
            DropLedger().record_salvage(2, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DropLedger().record_drop(-1, 0)
        with pytest.raises(ValueError):
            DropLedger().record_drop(0, -5)


class TestAsyncDeadline:
    # Tier-2: the admit_stale arm is also gated on every PR by the CI
    # fault-ablation benchmark; this double-run trace comparison only
    # re-verifies the same accounting-only semantics.
    @pytest.mark.slow
    def test_admit_stale_is_accounting_only(self):
        """admit_stale never cancels or reweights beyond the normal
        staleness discount — the trace is bit-identical to running
        with no deadline at all; only the miss count differs."""
        base = make_photon(uptime=0.7)
        base_history = base.train()
        measured = make_photon(uptime=0.7, deadline=3.0,
                               drop_policy="admit_stale")
        measured_history = measured.train()
        assert trace(base_history) == trace(measured_history)
        assert (base.aggregator.simulated_wall_time_s
                == measured.aggregator.simulated_wall_time_s)
        assert sum(r.deadline_misses for r in measured_history) > 0
        assert sum(r.dropped_steps for r in measured_history) == 0

    def test_drop_cancels_and_accounts(self):
        photon = make_photon(deadline=3.0, drop_policy="drop")
        history = photon.train()
        dropped_steps = sum(r.dropped_steps for r in history)
        dropped_bytes = sum(r.dropped_bytes for r in history)
        assert dropped_steps > 0
        assert dropped_bytes > 0
        # Cancelled broadcasts are a subset of what the Link sent.
        assert dropped_bytes <= photon.aggregator.link.bytes_sent
        # Cancelled clients never contribute to any flush's delta set
        # in this setup: every drop means fewer admitted updates.
        assert all(len(r.clients) <= 5 for r in history)

    def test_drop_records_partition_ledger_totals(self):
        """Every recorded drop lands in exactly one flush window; the
        open window after the final flush holds the remainder."""
        photon = make_photon(deadline=3.0, drop_policy="drop", rounds=3)
        history = photon.train()
        ledger = photon.aggregator.drop_ledger
        open_window = ledger.flush()  # drops after the last flush
        assert (sum(r.dropped_steps for r in history)
                + open_window["dropped_steps"] == ledger.total_dropped_steps)
        assert (sum(r.dropped_bytes for r in history)
                + open_window["dropped_bytes"] == ledger.total_dropped_bytes)

    # Tier-2: the same claim now gates every PR via the CI
    # bench-regression job (bench_fault_ablation.py asserts it).
    @pytest.mark.slow
    def test_drop_faster_than_admit_stale_under_stragglers(self):
        """The headline claim: enforcing the deadline reaches the same
        number of server updates in less simulated wall time than
        waiting out the stragglers, under a 4x spread + flaky uptime."""
        stale = make_photon(uptime=0.7, deadline=3.0, drop_policy="admit_stale")
        stale.train()
        drop = make_photon(uptime=0.7, deadline=3.0, drop_policy="drop")
        drop.train()
        assert len(drop.history) == len(stale.history)
        assert (drop.aggregator.simulated_wall_time_s
                < stale.aggregator.simulated_wall_time_s)

    def test_forced_flush_bounds_the_window(self):
        """Under an enforcing deadline no flush window stretches past
        deadline_s once the buffer holds at least one delta."""
        photon = make_photon(deadline=3.0, drop_policy="drop")
        history = photon.train()
        # Windows are bounded by the deadline plus at most one cycle
        # (an empty buffer waits for its first arrival).
        agg = photon.aggregator
        fastest = agg._predict_cycles(sorted(agg.clients), 4).min()
        assert all(r.wall_time_s <= 3.0 + fastest + 1e-9 for r in history)

    # Tier-2: the requeue arm gates every PR via the CI
    # bench-regression job; the invariants run nightly.
    @pytest.mark.slow
    def test_requeue_reissues_immediately(self):
        """requeue keeps the cancelled client in flight (fresh pull at
        the deadline) instead of parking it in the idle queue."""
        drop = make_photon(deadline=3.0, drop_policy="drop", rounds=2)
        drop.train()
        requeue = make_photon(deadline=3.0, drop_policy="requeue", rounds=2)
        requeue.train()
        # Both cancel the same slow clients; the requeue engine spends
        # at least as many broadcasts on them (every cancel re-sends).
        assert (requeue.aggregator.drop_ledger.total_dropped_bytes
                >= drop.aggregator.drop_ledger.total_dropped_bytes)
        # Requeued clients are in flight, not idle, right after a run.
        assert len(requeue.aggregator._inflight) >= 1

    def test_impossible_deadline_rejected(self):
        # The feasibility check fails fast at construction, before the
        # (expensive) data build — not only at train() time.
        with pytest.raises(ValueError, match="fastest client cycle"):
            make_photon(deadline=0.01, drop_policy="drop")

    def test_impossible_deadline_on_unit_clock(self):
        # Without a wall-time model every cycle costs one unit.
        with pytest.raises(ValueError, match="fastest client cycle"):
            make_photon(deadline=0.5, drop_policy="drop",
                        walltime_config=None, spread=1.0)

    def test_impossible_deadline_rejected_by_engine(self):
        """Direct engine users (no Photon pre-flight) still fail fast
        at the first run_round."""
        photon = make_photon(rounds=1)
        agg = photon.aggregator
        agg.deadline = DeadlinePolicy(deadline_s=0.01, drop_policy="drop")
        with pytest.raises(ValueError, match="fastest client cycle"):
            agg.run_round(0, 2)

    # Tier-2: default-engine rerun identity is also anchored by the
    # cheaper test_engine_async determinism tests.
    @pytest.mark.slow
    def test_deadline_none_trace_untouched(self):
        """The equivalence guard: building the engine with all fault
        knobs at their defaults reproduces the PR-1 trace bit-exactly
        (no new code path runs without a deadline/failure model)."""
        a = make_photon()
        b = make_photon()
        assert trace(a.train()) == trace(b.train())
        assert a.aggregator.drop_ledger.total_dropped_steps == 0

    # Tier-2: rerun-determinism is also anchored by the cheaper
    # test_engine_async/test_scheduler determinism tests.
    @pytest.mark.slow
    def test_deterministic_reruns(self):
        a = make_photon(uptime=0.7, deadline=3.0, drop_policy="drop")
        b = make_photon(uptime=0.7, deadline=3.0, drop_policy="drop")
        ha, hb = a.train(), b.train()
        assert trace(ha) == trace(hb)
        assert ([r.dropped_steps for r in ha] == [r.dropped_steps for r in hb])
        assert ([r.dropped_bytes for r in ha] == [r.dropped_bytes for r in hb])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FedConfig(mode="sync", deadline=5.0)
        with pytest.raises(ValueError):
            FedConfig(mode="async", deadline=0.0)
        with pytest.raises(ValueError):
            FedConfig(mode="async", drop_policy="drop")  # needs deadline
        with pytest.raises(ValueError):
            FedConfig(mode="async", deadline=5.0, drop_policy="discard")
        with pytest.raises(ValueError):
            FedConfig(mode="sync", adaptive_local_steps=True)


class TestAsyncCrashRouting:
    def test_retry_round_reissues_crashed_client(self):
        photon = make_photon(rounds=2, spread=1.0,
                             failure_model=FailureModel(scripted={(0, "client1")}),
                             fault_policy=FaultPolicy(mode="retry_round"))
        history = photon.train()
        # The crash was retried, not dropped: the client delivered.
        assert sum(r.retries for r in history) == 1
        assert all("client1" not in r.failed_clients for r in history)
        assert any("client1" in r.clients for r in history)

    def test_zero_retry_budget_degrades_to_dropout(self):
        photon = make_photon(rounds=2, spread=1.0,
                             failure_model=FailureModel(scripted={(0, "client1")}),
                             fault_policy=FaultPolicy(mode="retry_round",
                                                      max_retries=0))
        history = photon.train()
        assert sum(r.retries for r in history) == 0
        assert "client1" in history.records[0].failed_clients

    def test_partial_drops_crashed_client(self):
        photon = make_photon(rounds=2, spread=1.0,
                             failure_model=FailureModel(scripted={(0, "client1")}),
                             fault_policy=FaultPolicy(mode="partial"))
        history = photon.train()
        assert "client1" in history.records[0].failed_clients
        assert sum(r.retries for r in history) == 0

    def test_strict_aborts(self):
        photon = make_photon(rounds=2, spread=1.0,
                             failure_model=FailureModel(scripted={(0, "client1")}),
                             fault_policy=FaultPolicy(mode="strict"))
        with pytest.raises(ClientFailure):
            photon.train()

    @pytest.mark.slow  # rerun-determinism also held by test_deterministic_reruns
    def test_random_crashes_rerun_identical(self):
        def run():
            photon = make_photon(
                uptime=0.8,
                failure_model=FailureModel(crash_prob=0.2, seed=11),
                fault_policy=FaultPolicy(mode="retry_round", max_retries=2),
            )
            return photon.train()

        ha, hb = run(), run()
        assert trace(ha) == trace(hb)
        assert [r.retries for r in ha] == [r.retries for r in hb]
        assert ([r.failed_clients for r in ha]
                == [r.failed_clients for r in hb])

    @pytest.mark.slow  # tier-1 keeps the scheduler/async max_workers anchors
    def test_max_workers_invariant_under_faults(self):
        """Failure draws are serialized in completion-batch order, so
        the history is identical for any procpool width."""
        def run(max_workers):
            photon = make_photon(
                deadline=3.0, drop_policy="drop",
                failure_model=FailureModel(crash_prob=0.2, seed=5),
                fault_policy=FaultPolicy(mode="retry_round", max_retries=1),
                local_plane="sequential" if max_workers == 1 else "procpool",
                max_workers=max_workers,
            )
            return photon.train()

        hs, ht = run(1), run(2)
        assert trace(hs) == trace(ht)
        assert [r.dropped_steps for r in hs] == [r.dropped_steps for r in ht]
        assert [r.retries for r in hs] == [r.retries for r in ht]

    @pytest.mark.slow
    def test_crashes_through_deadline_still_converge(self):
        photon = make_photon(
            rounds=6, uptime=0.8, deadline=3.0, drop_policy="drop",
            failure_model=FailureModel(crash_prob=0.1, seed=3),
            fault_policy=FaultPolicy(mode="retry_round", max_retries=1),
        )
        history = photon.train()
        assert len(history) == 6
        assert np.isfinite(history.val_perplexities).all()
        assert history.val_perplexities[-1] < history.val_perplexities[0]


class TestAdaptiveLocalSteps:
    def test_slow_clients_train_fewer_steps(self):
        photon = make_photon(adaptive_local_steps=True, local_steps=8)
        history = photon.train()
        agg = photon.aggregator
        ids = sorted(agg.clients)
        planned = dict(zip(ids, _plan_cycles(agg.walltime, ids, 8, True)[0]))
        slowest = max(ids, key=agg.walltime.compute_factor)
        assert planned[slowest] < 8
        assert all(1 <= s <= 8 for s in planned.values())
        # Per-flush mean steps (client metric) reflects the mix.
        assert any(r.client_metrics["local_steps"] < 8 for r in history)

    def test_noop_without_walltime(self):
        photon = make_photon(adaptive_local_steps=True, walltime_config=None,
                             spread=1.0)
        photon.aggregator._ensure_started(4)
        inflight = photon.aggregator._inflight
        assert len(inflight) == 5
        assert all(cycle.planned == 4 for cycle in inflight.values())

    def test_homogeneous_adaptive_matches_sync(self):
        """The equivalence anchor survives the adaptive path: equal
        speeds → equal steps → uniform weights → the sync trace."""
        fed_sync = FedConfig(population=3, clients_per_round=3, local_steps=2,
                             rounds=3, mode="sync")
        sync = Photon(CFG, fed_sync, OPTIM, num_shards=4, val_batches=2,
                      walltime_config=WALLTIME)
        fed_async = FedConfig(population=3, clients_per_round=3, local_steps=2,
                              rounds=3, mode="async", staleness_alpha=0.0,
                              adaptive_local_steps=True)
        asyn = Photon(CFG, fed_async, OPTIM, num_shards=4, val_batches=2,
                      walltime_config=WALLTIME)
        assert trace(sync.train()) == trace(asyn.train())

    @pytest.mark.slow
    def test_adaptive_run_converges(self):
        photon = make_photon(adaptive_local_steps=True, rounds=6, local_steps=8)
        history = photon.train()
        assert history.val_perplexities[-1] < history.val_perplexities[0]

    def test_weights_proportional_and_normalized(self):
        weights = adaptive_step_weights([8, 4, 2, 2])
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] == pytest.approx(2 * weights[1])
        assert weights[2] == weights[3]
        with pytest.raises(ValueError):
            adaptive_step_weights([])
        with pytest.raises(ValueError):
            adaptive_step_weights([4, 0])


class TestPhotonFaultWiring:
    def test_failure_model_routed_to_sync_engine(self):
        fed = FedConfig(population=3, clients_per_round=3, local_steps=2,
                        rounds=1, mode="sync")
        photon = Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                        failure_model=FailureModel(scripted={(0, "client1")}),
                        fault_policy=FaultPolicy(mode="partial"))
        history = photon.train()
        assert "client1" in history.records[0].failed_clients

    def test_deadline_routed_from_fed_config(self):
        photon = make_photon(deadline=3.0, drop_policy="requeue")
        agg = photon.aggregator
        assert isinstance(agg, AsyncAggregator)
        assert agg.deadline.deadline_s == 3.0
        assert agg.deadline.drop_policy == "requeue"

    def test_default_drop_policy_is_drop(self):
        photon = make_photon(deadline=3.0)
        assert photon.aggregator.deadline.drop_policy == "drop"
