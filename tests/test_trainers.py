"""Centralized baseline, DiLoCo, and the Photon facade (integration)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.data import CachedTokenStream, SyntheticC4
from repro.fed import (
    CentralizedTrainer,
    DILOCO_SERVER_LRS,
    FullParticipation,
    LLMClient,
    NesterovOuter,
    Photon,
    SyncAggregator,
    diloco,
)
from repro.optim import ConstantLR, WarmupCosine

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32, seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=4, schedule_steps=128, batch_size=4,
                    weight_decay=0.0)


def streams(n=2, batch=4):
    c4 = SyntheticC4(num_shards=max(n, 2), vocab=CFG.vocab_size, seed=1)
    return {
        f"c{i}": CachedTokenStream(c4.shard(i), batch_size=batch, seq_len=CFG.seq_len,
                                   cache_tokens=2048, seed=10 + i)
        for i in range(n)
    }


def val_stream(batch=4):
    c4 = SyntheticC4(num_shards=2, vocab=CFG.vocab_size, seed=1)
    return CachedTokenStream(c4.validation(), batch_size=batch, seq_len=CFG.seq_len,
                             cache_tokens=2048, seed=99)


class TestCentralizedTrainer:
    def test_loss_decreases(self):
        trainer = CentralizedTrainer(CFG, streams(1)["c0"], OPTIM,
                                     val_stream=val_stream(), seed=0)
        result = trainer.train(total_steps=30, eval_every=10)
        assert not result.diverged
        ppls = result.history.val_perplexities
        assert ppls[-1] < ppls[0]

    def test_divergence_detected_at_extreme_lr(self):
        crazy = OptimConfig(max_lr=500.0, warmup_steps=1, schedule_steps=64,
                            batch_size=4, grad_clip=1e9, weight_decay=0.0)
        trainer = CentralizedTrainer(CFG, streams(1)["c0"], crazy,
                                     schedule=ConstantLR(500.0), seed=0)
        result = trainer.train(total_steps=50, eval_every=10)
        assert result.diverged
        assert result.steps_done < 50

    def test_ddp_workers_path(self):
        trainer = CentralizedTrainer(CFG, streams(1, batch=8)["c0"], OPTIM,
                                     val_stream=val_stream(), n_workers=2, seed=0)
        result = trainer.train(total_steps=4, eval_every=2)
        assert not result.diverged
        assert len(result.history) == 2

    def test_target_stops_early(self):
        trainer = CentralizedTrainer(CFG, streams(1)["c0"], OPTIM,
                                     val_stream=val_stream(), seed=0)
        result = trainer.train(total_steps=100, eval_every=5, target_perplexity=1e9)
        assert result.steps_done == 5

    def test_invalid_args(self):
        trainer = CentralizedTrainer(CFG, streams(1)["c0"], OPTIM)
        with pytest.raises(ValueError):
            trainer.train(total_steps=0)


class TestDiLoCo:
    """DiLoCo is the ``diloco`` FedConfig preset, run by Photon."""

    FED = FedConfig(population=2, clients_per_round=2, local_steps=8, rounds=3)

    def test_builds_and_trains(self):
        photon = Photon(CFG, diloco(self.FED, 0.1), OPTIM, corpus=streams(2))
        history = photon.train()
        assert history.val_perplexities[-1] < history.val_perplexities[0]

    def test_preset_sets_only_the_three_values(self):
        preset = diloco(self.FED, 0.7)
        changed = {f.name for f in fields(FedConfig)
                   if getattr(preset, f.name) != getattr(self.FED, f.name)}
        assert changed == {"server_opt", "server_lr", "stateless_clients"}
        assert (preset.server_opt, preset.server_lr, preset.stateless_clients) \
            == ("nesterov", 0.7, False)
        assert diloco(self.FED).server_lr == 0.1

    def test_clients_are_stateful(self):
        photon = Photon(CFG, diloco(self.FED), OPTIM, corpus=streams(2))
        for cid in photon.clients:
            assert not photon.clients[cid].stateless

    def test_outer_optimizer_is_nesterov(self):
        photon = Photon(CFG, diloco(self.FED), OPTIM, corpus=streams(2))
        assert isinstance(photon.aggregator.server_opt, NesterovOuter)
        assert photon.aggregator.server_opt.momentum == 0.9
        assert photon.aggregator.server_opt.lr == 0.1

    def test_lr_sweep_constants(self):
        assert DILOCO_SERVER_LRS == (0.1, 0.3, 0.5, 0.7)

    @pytest.mark.parametrize("eta", [0.1, 0.7])
    @pytest.mark.parametrize("plane", ["batched", "sequential"])
    def test_photon_equals_a_hand_built_diloco(self, plane, eta):
        """The preset run by Photon is bit for bit the federation the
        DiLoCo paper describes, assembled by hand: stateful clients
        under Photon's schedule and Nesterov(0.9) outer SGD at ηs over
        full participation."""
        fed = FedConfig(population=3, clients_per_round=3, local_steps=4,
                        rounds=3, local_plane=plane)
        photon = Photon(CFG, diloco(fed, eta), OPTIM, corpus=streams(3))
        photon.train()

        schedule = WarmupCosine(OPTIM.max_lr, OPTIM.warmup_steps,
                                OPTIM.schedule_steps, OPTIM.alpha_min)
        reference = SyncAggregator(
            CFG,
            {cid: LLMClient(cid, CFG, stream, OPTIM, schedule,
                            stateless=False, seed=0)
             for cid, stream in streams(3).items()},
            server_opt=NesterovOuter(eta, 0.9),
            sampler=FullParticipation(),
        )
        reference.run(3, 4)

        assert photon.aggregator.global_state.keys() == reference.global_state.keys()
        for key, value in reference.global_state.items():
            np.testing.assert_array_equal(photon.aggregator.global_state[key], value)
        assert photon.history.train_losses == reference.history.train_losses


class TestPhotonFacade:
    def make_photon(self, **kwargs):
        defaults = dict(
            model_config=CFG,
            fed_config=FedConfig(population=2, clients_per_round=2,
                                 local_steps=4, rounds=3),
            optim_config=OPTIM,
        )
        defaults.update(kwargs)
        return Photon(**defaults)

    @pytest.mark.slow
    def test_c4_end_to_end(self):
        photon = self.make_photon()
        history = photon.train()
        assert len(history) == 3
        assert history.val_perplexities[-1] < history.val_perplexities[0]

    @pytest.mark.slow
    def test_result_summary(self):
        photon = self.make_photon()
        photon.train()
        result = photon.result()
        assert result.total_comm_bytes > 0
        assert result.tokens_processed == 2 * 3 * 4 * 4 * CFG.seq_len
        assert result.final_perplexity == photon.history.val_perplexities[-1]
        assert result.best_perplexity <= result.final_perplexity

    def test_pile_corpus(self):
        photon = self.make_photon(
            fed_config=FedConfig(population=4, clients_per_round=4,
                                 local_steps=2, rounds=1),
            corpus="pile",
        )
        history = photon.train()
        assert len(history) == 1

    def test_pile_heterogeneity_zero_is_iid(self):
        photon = self.make_photon(
            fed_config=FedConfig(population=4, clients_per_round=4,
                                 local_steps=1, rounds=1),
            corpus="pile", heterogeneity=0.0,
        )
        kernels = [c.streams[0].source.kernel for c in photon.clients.values()]
        for k in kernels[1:]:
            np.testing.assert_allclose(k, kernels[0])

    def test_custom_stream_dict(self):
        photon = self.make_photon(corpus=streams(2))
        history = photon.train(rounds=1)
        assert len(history) == 1

    def test_custom_stream_count_mismatch(self):
        with pytest.raises(ValueError):
            self.make_photon(corpus=streams(3))

    def test_unknown_corpus(self):
        with pytest.raises(ValueError):
            self.make_photon(corpus="wikitext")

    @pytest.mark.slow
    def test_partial_participation_built(self):
        from repro.fed import UniformSampler

        photon = self.make_photon(
            fed_config=FedConfig(population=4, clients_per_round=2,
                                 local_steps=1, rounds=1),
        )
        assert isinstance(photon.aggregator.sampler, UniformSampler)
        record = photon.aggregator.run_round(0, 1)
        assert len(record.clients) == 2

    @pytest.mark.slow
    def test_walltime_integration(self):
        photon = self.make_photon(
            walltime_config=WallTimeConfig(throughput=2.0, bandwidth_mbps=1250.0,
                                           model_mb=0.05),
        )
        photon.train(rounds=2)
        assert photon.result().simulated_wall_time_s > 0

    @pytest.mark.slow
    def test_communication_summary(self):
        photon = self.make_photon()
        photon.train(rounds=2)
        summary = photon.communication_summary()
        assert summary["measured_bytes"] > 0
        assert summary["reduction_vs_ddp"] > 1.0

    @pytest.mark.slow
    def test_uptime_availability(self):
        photon = self.make_photon(
            fed_config=FedConfig(population=4, clients_per_round=4,
                                 local_steps=1, rounds=2),
            uptime=0.5,
        )
        history = photon.train()
        assert all(1 <= len(r.clients) <= 4 for r in history)

    def test_fed_config_validation(self):
        with pytest.raises(ValueError):
            FedConfig(population=2, clients_per_round=4)


class TestPhotonVsBaselines:
    """The paper's qualitative claims at miniature scale."""

    @pytest.mark.slow
    def test_fedavg_matches_centralized_token_budget(self):
        """Photon with N clients for R rounds of τ steps sees the same
        number of tokens as centralized R·τ steps at N× batch."""
        fed = FedConfig(population=2, clients_per_round=2, local_steps=4, rounds=2)
        photon = Photon(CFG, fed, OPTIM)
        photon.train()
        fed_tokens = photon.result().tokens_processed
        assert fed_tokens == 2 * 2 * 4 * OPTIM.batch_size * CFG.seq_len

    @pytest.mark.slow
    def test_photon_converges_faster_than_diloco_eta01(self):
        """Table 3's claim: Photon reaches a target perplexity roughly
        2× faster than DiLoCo with the paper-selected ηs = 0.1."""
        fed = FedConfig(population=2, clients_per_round=2, local_steps=8, rounds=6)
        photon = Photon(CFG, fed, OPTIM, data_seed=7)
        photon_history = photon.train()

        diloco_run = Photon(CFG, diloco(fed, 0.1), OPTIM, data_seed=7)
        diloco_history = diloco_run.train()

        target = 22.0  # reachable by both within the budget
        photon_rounds = photon_history.rounds_to_target(target)
        diloco_rounds = diloco_history.rounds_to_target(target)
        assert photon_rounds is not None
        if diloco_rounds is not None:
            assert photon_rounds * 2 <= diloco_rounds + 1
        assert photon_history.best_perplexity() < diloco_history.best_perplexity()
