"""LoRA adapters, continual pre-training, KV-cached inference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FedConfig, ModelConfig, OptimConfig
from repro.data import CachedTokenStream, SyntheticC4
from repro.fed import (
    Photon,
    continue_pretraining,
    personalize,
)
from repro.nn import (
    DecoderLM,
    InferenceEngine,
    LoRALinear,
    apply_lora,
    load_lora_state_dict,
    lora_compression_ratio,
    lora_parameters,
    lora_state_dict,
    merge_lora,
)
from repro.optim import AdamW

from helpers import FACTORED_LORA_ULPS, GEMM_SHAPE_ULPS, assert_within_ulps


CFG = ModelConfig("micro", n_blocks=2, d_model=16, n_heads=2, vocab_size=32, seq_len=24)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64, batch_size=4,
                    weight_decay=0.0)


def make_stream(batch=4, seed=0):
    c4 = SyntheticC4(num_shards=2, vocab=CFG.vocab_size, seed=1)
    return CachedTokenStream(c4.shard(0), batch_size=batch, seq_len=CFG.seq_len,
                             cache_tokens=2048, seed=seed)


class TestLoRA:
    def test_fresh_adapters_are_identity(self, rng):
        """B starts at zero, so a LoRA model equals the base model."""
        model = DecoderLM(CFG, seed=0)
        tokens = rng.integers(0, CFG.vocab_size, size=(2, 8))
        base_logits = model(tokens).data.copy()
        apply_lora(model, rank=2, seed=1)
        assert_within_ulps(model(tokens).data, base_logits, GEMM_SHAPE_ULPS)

    def test_only_adapters_and_small_layers_trainable(self):
        model = DecoderLM(CFG, seed=0)
        dense_params = model.num_parameters()
        apply_lora(model, rank=2)
        adapters = lora_parameters(model)
        # Frozen projections vanish from parameters(); what remains is
        # embeddings + norms + adapters.
        assert model.num_parameters() < dense_params
        assert all(p.size > 0 for p in adapters)

    def test_training_moves_only_adapters(self, rng):
        model = DecoderLM(CFG, seed=0)
        apply_lora(model, rank=2, seed=1)
        frozen_before = model.blocks._blocks[0].attn.qkv._frozen_weight.data.copy()
        opt = AdamW(lora_parameters(model), lr=1e-2, weight_decay=0.0)
        stream = make_stream()
        for _ in range(3):
            x, y = stream.next_batch()
            model.zero_grad()
            model.loss(x, y).backward()
            opt.step()
        np.testing.assert_array_equal(
            model.blocks._blocks[0].attn.qkv._frozen_weight.data, frozen_before
        )
        assert np.abs(model.blocks._blocks[0].attn.qkv.lora_b.data).max() > 0

    def test_adapter_state_roundtrip(self):
        a = DecoderLM(CFG, seed=0)
        b = DecoderLM(CFG, seed=0)
        apply_lora(a, rank=2, seed=1)
        apply_lora(b, rank=2, seed=2)
        a.blocks._blocks[0].attn.qkv.lora_b.data += 0.3
        load_lora_state_dict(b, lora_state_dict(a))
        np.testing.assert_allclose(
            b.blocks._blocks[0].attn.qkv.lora_b.data,
            a.blocks._blocks[0].attn.qkv.lora_b.data,
        )

    def test_merge_recovers_dense_model(self, rng):
        model = DecoderLM(CFG, seed=0)
        apply_lora(model, rank=2, seed=1)
        model.blocks._blocks[0].attn.qkv.lora_b.data += 0.05
        tokens = rng.integers(0, CFG.vocab_size, size=(1, 8))
        lora_logits = model(tokens).data.copy()
        merge_lora(model)
        assert not isinstance(model.blocks._blocks[0].attn.qkv, LoRALinear)
        assert_within_ulps(model(tokens).data, lora_logits, FACTORED_LORA_ULPS)

    def test_compression_ratio_substantial(self):
        model = DecoderLM(CFG, seed=0)
        apply_lora(model, rank=1)
        assert lora_compression_ratio(model) > 3.0

    def test_double_apply_rejected(self):
        model = DecoderLM(CFG, seed=0)
        apply_lora(model, rank=2)
        with pytest.raises(ValueError):
            apply_lora(model, rank=2)

    def test_no_adapters_rejected(self):
        with pytest.raises(ValueError):
            lora_parameters(DecoderLM(CFG, seed=0))

    def test_federated_adapter_round(self):
        """A manual PEFT federated round: average adapter states."""
        from repro.utils import tree_mean

        global_model = DecoderLM(CFG, seed=0)
        apply_lora(global_model, rank=2, seed=1)
        base_adapters = lora_state_dict(global_model)

        client_states = []
        for i in range(2):
            client = DecoderLM(CFG, seed=0)
            apply_lora(client, rank=2, seed=1)
            load_lora_state_dict(client, base_adapters)
            opt = AdamW(lora_parameters(client), lr=1e-2, weight_decay=0.0)
            stream = make_stream(seed=10 + i)
            for _ in range(3):
                x, y = stream.next_batch()
                client.zero_grad()
                client.loss(x, y).backward()
                opt.step()
            client_states.append(lora_state_dict(client))
        merged = tree_mean(client_states)
        load_lora_state_dict(global_model, merged)
        for k in merged:
            assert np.isfinite(merged[k]).all()


class TestContinual:
    @pytest.mark.slow
    def test_warm_start_resumes_progress(self):
        fed = FedConfig(population=2, clients_per_round=2, local_steps=8, rounds=2)
        first = Photon(CFG, fed, OPTIM, data_seed=3)
        first.train()
        checkpoint = first.aggregator.global_state

        resumed = continue_pretraining(checkpoint, CFG, fed, OPTIM,
                                       rounds=1, data_seed=3)
        # The resumed run starts from the checkpoint's quality, not
        # from scratch.
        fresh = Photon(CFG, fed, OPTIM, data_seed=3)
        fresh_first_round = fresh.train(rounds=1).val_perplexities[0]
        resumed_first_round = resumed.history.val_perplexities[0]
        assert resumed_first_round < fresh_first_round

    def test_bad_checkpoint_rejected(self):
        fed = FedConfig(population=1, clients_per_round=1, local_steps=1, rounds=1)
        with pytest.raises(KeyError):
            continue_pretraining({"bogus": np.zeros(1)}, CFG, fed, OPTIM)

    @pytest.mark.slow
    def test_personalize_improves_local_ppl(self):
        photon = Photon(
            CFG,
            FedConfig(population=2, clients_per_round=2, local_steps=12, rounds=2),
            OPTIM, data_seed=3,
        )
        photon.train()
        result = personalize(photon.aggregator.global_state, CFG,
                             make_stream(seed=42), steps=15,
                             optim=OPTIM, client_id="c0")
        assert result.ppl_after < result.ppl_before
        assert result.improvement > 0
        assert result.adapter_state is None

    def test_personalize_with_lora_returns_adapters(self):
        model = DecoderLM(CFG, seed=0)
        result = personalize(model.state_dict(), CFG, make_stream(seed=7),
                             steps=8, optim=OPTIM, lora_rank=2)
        assert result.adapter_state is not None
        assert all(np.isfinite(v).all() for v in result.adapter_state.values())

    def test_personalize_validation(self):
        model = DecoderLM(CFG, seed=0)
        with pytest.raises(ValueError):
            personalize(model.state_dict(), CFG, make_stream(), steps=0)


class TestInferenceEngine:
    def test_prefill_matches_forward(self, rng):
        model = DecoderLM(CFG, seed=0)
        engine = InferenceEngine(model)
        prompt = rng.integers(2, CFG.vocab_size, size=10)
        expected = model(prompt[None, :]).data[0, -1]
        actual = engine.prefill(prompt)
        assert_within_ulps(actual, expected, GEMM_SHAPE_ULPS)

    def test_incremental_matches_full_recompute(self, rng):
        model = DecoderLM(CFG, seed=0)
        engine = InferenceEngine(model)
        prompt = rng.integers(2, CFG.vocab_size, size=6)
        engine.prefill(prompt)
        extra = rng.integers(2, CFG.vocab_size, size=4)
        sequence = list(prompt)
        for token in extra:
            logits = engine.decode_step(int(token))
            sequence.append(int(token))
            expected = model(np.array(sequence)[None, :]).data[0, -1]
            assert_within_ulps(logits, expected, GEMM_SHAPE_ULPS)

    def test_greedy_generation_matches_model(self, rng):
        model = DecoderLM(CFG, seed=0)
        engine = InferenceEngine(model)
        prompt = rng.integers(2, CFG.vocab_size, size=4)
        slow = model.generate(prompt, max_new_tokens=6, temperature=0.0)
        fast = engine.generate(prompt, max_new_tokens=6, temperature=0.0)
        np.testing.assert_array_equal(slow, fast)

    def test_sampled_generation_matches_model(self, rng):
        """One sampler over logits a few ULPs apart: the same seeded
        draws pick the same tokens."""
        model = DecoderLM(CFG, seed=0)
        engine = InferenceEngine(model)
        prompt = rng.integers(2, CFG.vocab_size, size=4)
        slow, fast = (decoder.generate(prompt, max_new_tokens=12, temperature=0.8,
                                       rng=np.random.default_rng(5))
                      for decoder in (model, engine))
        np.testing.assert_array_equal(slow, fast)

    def test_non_alibi_model_supported(self, rng):
        cfg = CFG.scaled(alibi=False)
        model = DecoderLM(cfg, seed=0)
        engine = InferenceEngine(model)
        prompt = rng.integers(2, cfg.vocab_size, size=5)
        expected = model(prompt[None, :]).data[0, -1]
        assert_within_ulps(engine.prefill(prompt), expected, GEMM_SHAPE_ULPS)

    def test_cache_limits_enforced(self, rng):
        model = DecoderLM(CFG, seed=0)
        engine = InferenceEngine(model)
        with pytest.raises(ValueError):
            engine.prefill(np.array([], dtype=np.int64))
        engine.reset()
        engine.prefill(rng.integers(2, CFG.vocab_size, size=CFG.seq_len))
        with pytest.raises(ValueError):
            engine.decode_step(3)

    def test_generation_respects_seq_len(self, rng):
        model = DecoderLM(CFG, seed=0)
        engine = InferenceEngine(model)
        prompt = rng.integers(2, CFG.vocab_size, size=CFG.seq_len - 2)
        out = engine.generate(prompt, max_new_tokens=50, temperature=0.0)
        assert out.size <= CFG.seq_len

    def test_reset_between_sequences(self, rng):
        model = DecoderLM(CFG, seed=0)
        engine = InferenceEngine(model)
        p1 = rng.integers(2, CFG.vocab_size, size=5)
        first = engine.prefill(p1).copy()
        engine.reset()
        assert engine.cache_len == 0
        np.testing.assert_array_equal(engine.prefill(p1), first)
