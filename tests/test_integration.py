"""End-to-end integration scenarios across the full system surface.

Each test exercises a realistic multi-component workflow rather than a
single unit: the kind of path a downstream adopter would actually run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compress import make_codec
from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.data import CachedTokenStream, MixedStream, SyntheticC4, SyntheticPile
from repro.eval import BigramTask, score_task
from repro.fed import (
    Aggregator,
    ClipUpdate,
    Compose,
    DPGaussianNoise,
    FailureModel,
    FaultPolicy,
    LLMClient,
    Link,
    Photon,
    RunStateCheckpointer,
    UniformSampler,
    personalize,
)
from repro.net import WallTimeModel
from repro.nn import DecoderLM, InferenceEngine
from repro.optim import ConstantLR, WarmupCosine, federated_schedule_steps
from repro.utils import state_to_vector

CFG = ModelConfig("int", n_blocks=1, d_model=16, n_heads=2, vocab_size=32, seq_len=16)
OPTIM = OptimConfig(max_lr=4e-3, warmup_steps=2, schedule_steps=128,
                    batch_size=4, weight_decay=0.0)


class TestFullLifecycle:
    @pytest.mark.slow
    def test_pretrain_checkpoint_recover_serve(self, tmp_path):
        """Pre-train -> crash -> recover from checkpoint -> evaluate
        downstream -> serve via the inference engine."""
        photon = Photon(
            CFG,
            FedConfig(population=2, clients_per_round=2, local_steps=8, rounds=3,
                      checkpoint_dir=str(tmp_path)),
            OPTIM, data_seed=3,
        )
        history = photon.train()
        assert history.val_perplexities[-1] < history.val_perplexities[0]

        # "Crash": rebuild everything from disk only.  A run-state
        # step counts completed server updates.
        step, tree = RunStateCheckpointer(tmp_path).load_tree()
        assert step == 3
        model = DecoderLM(CFG, seed=0)
        model.load_state_dict(tree["global_state"])
        np.testing.assert_allclose(
            state_to_vector(model.state_dict()),
            state_to_vector(photon.aggregator.global_state), rtol=1e-6,
        )

        # Downstream + serving on the recovered model.
        source = SyntheticC4(num_shards=2, vocab=CFG.vocab_size, seed=3).shard(0)
        acc = score_task(model, BigramTask(source, seed=5), n_examples=30)
        assert acc > 0.6
        engine = InferenceEngine(model)
        out = engine.generate(np.array([3, 4]), max_new_tokens=5, temperature=0.0)
        np.testing.assert_array_equal(
            out, model.generate(np.array([3, 4]), 5, temperature=0.0)
        )


class TestHardenedDeployment:
    def test_everything_on_stack(self, tmp_path):
        """Crashing clients + partial-update policy + DP clipping +
        client sampling + quantized link + wall-time model, all in one
        federation — and it still converges."""
        c4 = SyntheticC4(num_shards=4, vocab=CFG.vocab_size, seed=1)
        post = Compose([ClipUpdate(50.0),
                        DPGaussianNoise(clip_norm=50.0, noise_multiplier=1e-4,
                                        seed=0)])
        clients = {
            f"c{i}": LLMClient(
                f"c{i}", CFG,
                CachedTokenStream(c4.shard(i), 4, CFG.seq_len, seed=i),
                OPTIM, ConstantLR(4e-3), post_process=post,
            )
            for i in range(4)
        }
        agg = Aggregator(
            CFG, clients,
            sampler=UniformSampler(3, seed=0),
            val_stream=CachedTokenStream(c4.validation(), 4, CFG.seq_len, seed=99),
            link=Link(uplink_codec=make_codec("int8"),
                      downlink_codec=make_codec("int8")),
            failure_model=FailureModel(crash_prob=0.1, seed=7),
            fault_policy=FaultPolicy(mode="partial"),
            walltime=WallTimeModel(WallTimeConfig(2.0, 312.0, 0.05)),
            comm_topology="ps",
        )
        for r in range(4):
            agg.run_round(r, 8)
        ppls = agg.history.val_perplexities
        assert ppls[-1] < ppls[0]
        assert agg.simulated_wall_time_s > 0

    def test_heterogeneous_pretraining_with_personalization(self):
        """Heterogeneous pre-training, then per-client personalization
        on the hardest source."""
        photon = Photon(
            CFG,
            FedConfig(population=4, clients_per_round=4, local_steps=8, rounds=3),
            OPTIM, corpus="pile", heterogeneity=0.5, data_seed=3,
        )
        history = photon.train()
        assert history.val_perplexities[-1] < history.val_perplexities[0]

        pile = SyntheticPile(vocab=CFG.vocab_size, seed=3, heterogeneity=0.5)
        private = CachedTokenStream(pile.sources["gutenberg"], 4, CFG.seq_len,
                                    seed=17)
        result = personalize(photon.aggregator.global_state, CFG, private,
                             steps=10, optim=OPTIM)
        assert result.ppl_after < result.ppl_before


class TestRecipeComposition:
    @pytest.mark.slow
    def test_table5_style_schedule_stretch(self):
        """Build the federated schedule from a centralized recipe via
        the Table 5 stretch rule and verify the client follows it."""
        cent_steps, cent_batch, local_batch = 64, 16, 4
        fed_steps = federated_schedule_steps(cent_steps, cent_batch, local_batch)
        assert fed_steps == 256
        schedule = WarmupCosine(4e-3, warmup_steps=8, total_steps=fed_steps)
        photon = Photon(
            CFG,
            FedConfig(population=2, clients_per_round=2, local_steps=8, rounds=2),
            OptimConfig(max_lr=4e-3, warmup_steps=8, schedule_steps=fed_steps,
                        batch_size=local_batch, weight_decay=0.0),
            schedule=schedule, data_seed=3,
        )
        history = photon.train()
        lr_final = history.records[-1].client_metrics["lr_final"]
        assert lr_final == pytest.approx(schedule(15))

    def test_mixed_stream_client(self):
        """A client consuming a weighted mixture of two sources (the
        public-DS sharing scenario) trains normally."""
        pile = SyntheticPile(vocab=CFG.vocab_size, seed=3, heterogeneity=0.5)
        a = CachedTokenStream(pile.sources["c4"], 4, CFG.seq_len, seed=1)
        b = CachedTokenStream(pile.sources["arxiv"], 4, CFG.seq_len, seed=2)
        mixed = MixedStream([a, b], weights=[0.7, 0.3], seed=0)
        solo = CachedTokenStream(pile.sources["wikipedia"], 4, CFG.seq_len, seed=3)
        photon = Photon(
            CFG,
            FedConfig(population=2, clients_per_round=2, local_steps=6, rounds=2),
            OPTIM, corpus={"client0": mixed, "client1": solo}, data_seed=3,
        )
        history = photon.train()
        assert np.isfinite(history.val_perplexities).all()

    @pytest.mark.slow
    def test_parallel_workers_full_photon(self):
        """Photon on a fork pool matches the sequential run."""
        def build(workers):
            return Photon(
                CFG,
                FedConfig(population=3, clients_per_round=3, local_steps=4,
                          rounds=2,
                          local_plane="sequential" if workers == 1 else "procpool"),
                OPTIM, data_seed=3, max_workers=workers,
            )

        seq = build(1)
        par = build(2)
        seq.train()
        par.train()
        np.testing.assert_array_equal(
            state_to_vector(seq.aggregator.global_state),
            state_to_vector(par.aggregator.global_state),
        )
