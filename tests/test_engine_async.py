"""Round engines: async FedBuff semantics, sync equivalence anchors,
determinism regressions, and the per-client wall-time heterogeneity
they run on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser
from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import (
    AsyncAggregator,
    ClientFailure,
    ClientPopulation,
    FailureModel,
    FaultPolicy,
    Photon,
    PolynomialStaleness,
    SyncAggregator,
)
from repro.net import WallTimeModel

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32, seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64, batch_size=2,
                    weight_decay=0.0)
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5, model_mb=0.05)


def make_photon(mode="sync", *, population=3, rounds=3, local_steps=2,
                staleness_alpha=0.0, local_plane="sequential", **kwargs):
    fed = FedConfig(population=population, clients_per_round=population,
                    local_steps=local_steps, rounds=rounds, mode=mode,
                    staleness_alpha=staleness_alpha if mode == "async" else None,
                    local_plane=local_plane)
    return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2, **kwargs)


def trace(history):
    return (history.val_perplexities, history.train_losses,
            [r.pseudo_grad_norm for r in history])


class TestPolynomialStaleness:
    def test_fresh_updates_unweighted(self):
        assert PolynomialStaleness(0.7)(0) == 1.0

    def test_polynomial_decay(self):
        w = PolynomialStaleness(0.5)
        np.testing.assert_allclose(w(1), 1.0 / np.sqrt(2.0))
        np.testing.assert_allclose(w(3), 0.5)
        assert w(5) < w(2) < w(1)

    def test_alpha_zero_is_identity(self):
        w = PolynomialStaleness(0.0)
        assert [w(s) for s in range(5)] == [1.0] * 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialStaleness(-0.1)
        with pytest.raises(ValueError):
            PolynomialStaleness(0.5)(-1)


class TestWallTimeHeterogeneity:
    def test_homogeneous_reduces_to_analytic(self):
        wt = WallTimeModel(WALLTIME)
        cohort = wt.cohort_timing("rar", ["a", "b", "c"], 8)
        analytic = wt.round_timing("rar", 3, 8)
        assert cohort.compute_s == analytic.compute_s
        assert cohort.comm_s == analytic.comm_s

    def test_straggler_paces_the_cohort(self):
        wt = WallTimeModel(WALLTIME, ClientPopulation(
            ["fast", "slow"], compute_factors=[1.0, 4.0]))
        cohort = wt.cohort_timing("rar", ["fast", "slow"], 8)
        assert cohort.compute_s == 4.0 * wt.local_compute_s(8)
        # The straggler only pays its own price on the async clock.
        assert wt.client_timing("fast", 8).compute_s == wt.local_compute_s(8)
        assert wt.client_timing("slow", 8).compute_s == 4.0 * wt.local_compute_s(8)

    def test_slow_link_scales_client_comm(self):
        wt = WallTimeModel(WALLTIME, ClientPopulation(
            ["near", "far"], bandwidth_factors=[1.0, 2.0]))
        assert wt.client_timing("far", 1).comm_s == 2.0 * wt.client_timing("near", 1).comm_s

    def test_heterogeneous_factory_bounds_and_seed(self):
        ids = [f"c{i}" for i in range(16)]
        pop = ClientPopulation.heterogeneous(ids, compute_spread=4.0,
                                             bandwidth_spread=2.0, seed=5)
        wt = WallTimeModel(WALLTIME, pop)
        assert all(1.0 <= wt.compute_factor(c) <= 4.0 for c in ids)
        assert all(1.0 <= wt.bandwidth_factor(c) <= 2.0 for c in ids)
        again = ClientPopulation.heterogeneous(ids, compute_spread=4.0,
                                               bandwidth_spread=2.0, seed=5)
        assert (pop.compute_factors == again.compute_factors).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientPopulation(["c"], compute_factors=[0.0])
        with pytest.raises(ValueError):
            ClientPopulation.heterogeneous(["a"], compute_spread=0.5)
        with pytest.raises(ValueError):
            WallTimeModel(WALLTIME).cohort_timing("rar", [], 4)


class TestAsyncEngine:
    def test_photon_builds_async_engine(self):
        photon = make_photon("async")
        assert isinstance(photon.aggregator, AsyncAggregator)
        assert not isinstance(photon.aggregator, SyncAggregator)

    def test_full_buffer_zero_staleness_matches_sync(self):
        """The acceptance anchor: buffer == cohort, no staleness
        penalty, equipollent clock -> bit-identical convergence."""
        sync = make_photon("sync")
        sync_history = sync.train()
        asyn = make_photon("async")
        async_history = asyn.train()
        assert trace(sync_history) == trace(async_history)
        # Byte accounting windows line up with the sync rounds too:
        # each flush owns the dispatches that seeded it.
        assert [(r.comm_bytes_up, r.comm_bytes_down) for r in sync_history] == \
               [(r.comm_bytes_up, r.comm_bytes_down) for r in async_history]

    def test_matches_sync_under_homogeneous_walltime(self):
        sync = make_photon("sync", walltime_config=WALLTIME)
        asyn = make_photon("async", walltime_config=WALLTIME)
        assert trace(sync.train()) == trace(asyn.train())

    def test_smaller_buffer_updates_more_often(self):
        fed = FedConfig(population=3, clients_per_round=3, local_steps=2,
                        rounds=4, mode="async", buffer_size=1)
        # Distinct per-client speeds -> distinct arrival times -> one
        # update per arrival; training still moves.
        eager = Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                       walltime_config=WALLTIME, client_speed_spread=4.0)
        history = eager.train()
        assert all(len(r.clients) == 1 for r in history)
        assert history.val_perplexities[-1] < history.val_perplexities[0]

    def test_stragglers_produce_staleness_and_save_walltime(self):
        sync = make_photon("sync", walltime_config=WALLTIME,
                           client_speed_spread=4.0)
        sync.train()
        asyn = make_photon("async", walltime_config=WALLTIME,
                           client_speed_spread=4.0, staleness_alpha=0.5)
        async_history = asyn.train()
        assert asyn.aggregator.simulated_wall_time_s < sync.aggregator.simulated_wall_time_s
        staleness = [r.client_metrics["staleness"] for r in async_history]
        assert max(staleness) > 0.0
        weights = [r.client_metrics["staleness_weight"] for r in async_history]
        assert all(0.0 < w <= 1.0 for w in weights)

    def test_no_walltime_model_reports_no_fake_seconds(self):
        photon = make_photon("async")
        history = photon.train()
        assert all(r.wall_time_s == 0.0 for r in history)
        assert photon.aggregator.simulated_wall_time_s == 0.0

    def test_wall_time_recorded_per_flush(self):
        photon = make_photon("async", walltime_config=WALLTIME)
        history = photon.train()
        assert all(r.wall_time_s > 0 for r in history)
        np.testing.assert_allclose(
            photon.aggregator.simulated_wall_time_s,
            sum(r.wall_time_s for r in history),
        )

    def test_staleness_discount_is_absolute(self):
        """A lone stale delta must shrink by w(s) — the discount is
        not renormalized away by the buffer mean."""
        def run(alpha):
            fed = FedConfig(population=3, clients_per_round=3, local_steps=2,
                            rounds=6, mode="async", buffer_size=1,
                            staleness_alpha=alpha)
            photon = Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                            walltime_config=WALLTIME, client_speed_spread=4.0)
            return photon.train()

        flat = run(0.0)
        harsh = run(5.0)
        assert trace(flat) != trace(harsh)
        # Runs are identical until the first stale flush, where the
        # single-delta pseudo-gradient scales by exactly 1/(1+s)^5.
        idx, s = next((i, r.client_metrics["staleness"])
                      for i, r in enumerate(harsh.records)
                      if r.client_metrics["staleness"] > 0)
        np.testing.assert_allclose(
            harsh.records[idx].pseudo_grad_norm,
            flat.records[idx].pseudo_grad_norm / (1.0 + s) ** 5,
            rtol=1e-5,
        )

    def test_strict_fault_policy_aborts(self):
        photon = make_photon("async", rounds=2)
        photon.aggregator.failure_model = FailureModel(scripted={(0, "client0")})
        photon.aggregator.fault_policy = FaultPolicy(mode="strict")
        with pytest.raises(ClientFailure):
            photon.train()

    def test_failures_degrade_to_partial_participation(self):
        photon = make_photon("async", rounds=2)
        photon.aggregator.failure_model = FailureModel(scripted={(0, "client1")})
        photon.aggregator.fault_policy = FaultPolicy(mode="partial")
        history = photon.train()
        assert "client1" in history.records[0].failed_clients
        assert len(history) == 2

    def test_comm_bytes_attributed_to_flushes(self):
        photon = make_photon("async")
        history = photon.train()
        agg = photon.aggregator
        assert all(r.comm_bytes_up > 0 and r.comm_bytes_down > 0 for r in history)
        # Every byte up to the last flush mark lands in exactly one
        # record; only post-final-flush in-flight dispatches remain.
        assert sum(r.comm_bytes_up for r in history) == agg._bytes_up_mark
        assert sum(r.comm_bytes_down for r in history) == agg._bytes_down_mark

    def test_dispatch_defers_unavailable_clients(self):
        photon = make_photon("async", rounds=1)
        agg = photon.aggregator

        class OnlyLastReachable:
            def available(self, population, round_idx):
                return [population[-1]]

        agg.availability = OnlyLastReachable()
        agg._ensure_started(2)
        # Unreachable clients stay idle (effective concurrency drops)
        # instead of being force-dispatched.
        assert list(agg._inflight) == ["client2"]
        assert agg._idle.indices().tolist() == \
            agg.clients.population.indices_of(["client0", "client1"]).tolist()

    def test_buffer_size_honored_on_unit_clock(self):
        """Without a wall-time model all completions tie; arrivals must
        still be drained one at a time so buffer_size binds."""
        fed = FedConfig(population=3, clients_per_round=3, local_steps=2,
                        rounds=4, mode="async", buffer_size=2,
                        staleness_alpha=0.0)
        photon = Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2)
        history = photon.train()
        assert all(len(r.clients) == 2 for r in history)
        # The surplus arrival of each tied batch aggregates one server
        # version late.
        assert any(r.client_metrics["staleness"] > 0 for r in history)

    def test_uptime_run_still_trains(self):
        photon = make_photon("async", uptime=0.5, rounds=2)
        history = photon.train()
        assert len(history) == 2
        assert np.isfinite(history.val_perplexities).all()

    # Tier-2: uptime paths stay covered in tier-1 by the cheaper
    # test_uptime_run_still_trains.
    @pytest.mark.slow
    def test_deferred_concurrency_recovers(self):
        """Unavailable clients shrink the in-flight pool only until the
        next availability draw — deferred slots are re-offered."""
        fed = FedConfig(population=6, clients_per_round=6, local_steps=2,
                        rounds=8, mode="async", staleness_alpha=0.0)
        photon = Photon(CFG, fed, OPTIM, num_shards=6, val_batches=2,
                        uptime=0.4)
        agg = photon.aggregator
        counts = []
        for t in range(8):
            agg.run_round(t, 2)
            counts.append(len(agg._inflight))
        assert min(counts) >= 1  # the floor keeps the federation alive
        assert max(counts) >= 3  # ...and concurrency climbs back up

    def test_run_rounds_equals_server_updates(self):
        """A tied batch must not over-apply: run(R) means exactly R
        ServerOpt steps and R history records, even with buffer_size=1
        on the unit clock (where one batch holds many arrivals)."""
        fed = FedConfig(population=3, clients_per_round=3, local_steps=2,
                        rounds=4, mode="async", buffer_size=1,
                        staleness_alpha=0.0)
        photon = Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2)
        history = photon.train()
        assert len(history) == 4
        assert photon.aggregator.version == 4
        assert [r.round_idx for r in history] == [0, 1, 2, 3]

    def test_local_steps_cannot_change_mid_run(self):
        photon = make_photon("async", rounds=2)
        photon.aggregator.run_round(0, 2)
        with pytest.raises(ValueError):
            photon.aggregator.run_round(1, 5)

    def test_async_config_validation(self):
        with pytest.raises(ValueError):
            FedConfig(mode="banana")
        with pytest.raises(ValueError):
            FedConfig(mode="sync", buffer_size=2)  # async-only knob
        with pytest.raises(ValueError):
            FedConfig(mode="sync", staleness_alpha=0.5)  # async-only knob
        with pytest.raises(ValueError):
            FedConfig(mode="async", buffer_size=0)
        with pytest.raises(ValueError):
            FedConfig(mode="async", staleness_alpha=-0.5)


class TestDeterminism:
    """Identical seeds must give bit-identical histories — the
    regression that guards every refactor of the round engines."""

    def test_sync_bit_identical_reruns(self):
        a, b = make_photon("sync"), make_photon("sync")
        ha, hb = a.train(), b.train()
        assert trace(ha) == trace(hb)
        assert [(r.comm_bytes_up, r.comm_bytes_down) for r in ha] == \
               [(r.comm_bytes_up, r.comm_bytes_down) for r in hb]

    def test_async_bit_identical_reruns(self):
        a, b = make_photon("async"), make_photon("async")
        ha, hb = a.train(), b.train()
        assert trace(ha) == trace(hb)
        assert [(r.comm_bytes_up, r.comm_bytes_down) for r in ha] == \
               [(r.comm_bytes_up, r.comm_bytes_down) for r in hb]

    def test_max_workers_does_not_change_results(self):
        serial = make_photon("sync", max_workers=1)
        pooled = make_photon("sync", local_plane="procpool", max_workers=2)
        hs, hp = serial.train(), pooled.train()
        assert trace(hs) == trace(hp)
        assert [(r.comm_bytes_up, r.comm_bytes_down) for r in hs] == \
               [(r.comm_bytes_up, r.comm_bytes_down) for r in hp]

    def test_async_max_workers_does_not_change_results(self):
        serial = make_photon("async", max_workers=1)
        pooled = make_photon("async", local_plane="procpool", max_workers=2)
        assert trace(serial.train()) == trace(pooled.train())


class TestPhotonValidation:
    def test_max_workers_validated(self):
        with pytest.raises(ValueError):
            make_photon(max_workers=0)
        with pytest.raises(ValueError):
            make_photon(max_workers=-2)
        # Workers are procpool processes; no other plane takes them.
        for plane in ("sequential", "batched"):
            with pytest.raises(ValueError, match="max_workers=2 needs "
                               "local_plane='procpool'"):
                make_photon(local_plane=plane, max_workers=2)

    def test_uptime_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                make_photon(uptime=bad)

    def test_speed_spread_validated(self):
        with pytest.raises(ValueError):
            make_photon(client_speed_spread=0.9)

    def test_speed_spread_requires_walltime(self):
        with pytest.raises(ValueError):
            make_photon(client_speed_spread=4.0)  # no walltime_config

    def test_boundary_values_accepted(self):
        photon = make_photon(uptime=1.0, max_workers=1, rounds=1)
        assert photon.train(rounds=1) is not None


class TestCLIAsync:
    def test_parser_accepts_async_flags(self):
        args = build_parser().parse_args(
            ["train", "--mode", "async", "--buffer-size", "2",
             "--staleness-alpha", "0.3", "--straggler-spread", "2.0",
             "--walltime"])
        assert args.mode == "async"
        assert args.buffer_size == 2
        assert args.staleness_alpha == 0.3
        assert args.straggler_spread == 2.0

    def test_parser_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--mode", "semi"])

    @pytest.mark.slow
    def test_train_async_end_to_end(self, capsys):
        from repro.cli import main

        assert main(["train", "--model", "tiny", "--clients", "2",
                     "--local-steps", "2", "--rounds", "2",
                     "--batch-size", "2", "--mode", "async",
                     "--walltime", "--straggler-spread", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "engine          : async" in out
        assert "simulated wall" in out
