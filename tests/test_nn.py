"""Layers, module system, attention and the decoder LM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.nn import (
    MLP,
    CausalSelfAttention,
    DecoderLM,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    alibi_slopes,
)
from repro.tensor import Tensor

from helpers import causal_bias


class TestModuleSystem:
    def test_parameter_registration(self):
        layer = Linear(4, 3)
        names = [n for n, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_registration(self):
        mlp = MLP(4, expansion_ratio=2)
        names = {n for n, _ in mlp.named_parameters()}
        assert names == {"up.weight", "up.bias", "down.weight", "down.bias"}

    def test_tied_parameters_deduplicated(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        params = model.parameters()
        assert len({id(p) for p in params}) == len(params)

    def test_state_dict_roundtrip(self, micro_model_config):
        model = DecoderLM(micro_model_config, seed=0)
        other = DecoderLM(micro_model_config, seed=1)
        other.load_state_dict(model.state_dict())
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_state_dict_rejects_bad_keys(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_propagates(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        model.eval()
        assert not model.blocks._blocks[0].drop.training
        model.train()
        assert model.blocks._blocks[0].drop.training

    def test_zero_grad(self):
        layer = Linear(3, 2)
        out = layer(Tensor(np.ones((1, 3)), requires_grad=True))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_linear_shapes_and_bias(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 7, 5))))
        assert out.shape == (2, 7, 3)
        no_bias = Linear(5, 3, bias=False, rng=rng)
        assert no_bias.bias is None

    def test_embedding_range_check(self, rng):
        emb = Embedding(10, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_layernorm_learnable(self, rng):
        ln = LayerNorm(6)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        ln(x).sum().backward()
        assert ln.gamma.grad is not None
        assert ln.beta.grad is not None

    def test_dropout_respects_training_flag(self, rng):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.eval()
        x = Tensor(rng.normal(size=(8, 8)))
        assert drop(x) is x


class TestALiBi:
    def test_slopes_power_of_two(self):
        slopes = alibi_slopes(8)
        assert slopes.shape == (8,)
        # Geometric sequence: constant ratio.
        ratios = slopes[1:] / slopes[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-5)
        assert (slopes > 0).all() and (slopes < 1).all()

    def test_slopes_non_power_of_two(self):
        slopes = alibi_slopes(6)
        assert slopes.shape == (6,)
        assert (slopes > 0).all()

    def test_bias_is_causal(self):
        bias = causal_bias(2, 5)
        upper = np.triu_indices(5, k=1)
        assert (bias[:, upper[0], upper[1]] <= -1e8).all()
        # Diagonal contributes zero bias.
        np.testing.assert_allclose(np.diagonal(bias, axis1=1, axis2=2), 0.0)

    def test_bias_decreases_with_distance(self):
        bias = causal_bias(1, 6)[0]
        row = bias[5, :6]  # last query, keys 0..5
        assert (np.diff(row) > 0).all()  # closer keys get higher bias

    def test_causal_bias_without_alibi(self):
        bias = causal_bias(1, 4, alibi=False)[0]
        assert bias[2, 3] <= -1e8
        assert bias[3, 2] == 0.0


class TestAttention:
    def test_output_shape(self, rng):
        attn = CausalSelfAttention(16, 4, rng=rng)
        out = attn(Tensor(rng.normal(size=(2, 6, 16))))
        assert out.shape == (2, 6, 16)

    def test_causality(self, rng):
        """Changing a future token must not affect earlier outputs."""
        attn = CausalSelfAttention(8, 2, rng=np.random.default_rng(0))
        x = rng.normal(size=(1, 5, 8)).astype(np.float32)
        base = attn(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 4] += 10.0  # perturb the last position
        perturbed = attn(Tensor(x2)).data
        np.testing.assert_allclose(base[0, :4], perturbed[0, :4], atol=1e-5)
        assert not np.allclose(base[0, 4], perturbed[0, 4])

    def test_bias_cache_reused(self, rng):
        attn = CausalSelfAttention(8, 2, rng=rng)
        attn(Tensor(rng.normal(size=(1, 4, 8))))
        first = attn._bias_cache[4]
        attn(Tensor(rng.normal(size=(1, 4, 8))))
        assert attn._bias_cache[4] is first

    def test_invalid_head_count(self):
        with pytest.raises(ValueError):
            CausalSelfAttention(10, 3)


class TestDecoderLM:
    def test_logits_shape(self, micro_model_config, rng):
        model = DecoderLM(micro_model_config)
        tokens = rng.integers(0, micro_model_config.vocab_size, size=(2, 8))
        logits = model(tokens)
        assert logits.shape == (2, 8, micro_model_config.vocab_size)

    def test_1d_input_promoted(self, micro_model_config, rng):
        model = DecoderLM(micro_model_config)
        tokens = rng.integers(0, micro_model_config.vocab_size, size=8)
        assert model(tokens).shape == (1, 8, micro_model_config.vocab_size)

    def test_seq_len_limit(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        too_long = np.zeros((1, micro_model_config.seq_len + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            model(too_long)

    def test_seed_determinism(self, micro_model_config, rng):
        a = DecoderLM(micro_model_config, seed=3)
        b = DecoderLM(micro_model_config, seed=3)
        tokens = rng.integers(0, micro_model_config.vocab_size, size=(1, 8))
        np.testing.assert_array_equal(a(tokens).data, b(tokens).data)

    def test_different_seeds_differ(self, micro_model_config):
        a = DecoderLM(micro_model_config, seed=0)
        b = DecoderLM(micro_model_config, seed=1)
        assert not np.allclose(
            a.tok_emb.weight.data, b.tok_emb.weight.data
        )

    def test_tied_embeddings_share_memory(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        assert model.lm_head_weight is None
        untied = DecoderLM(micro_model_config.scaled(tie_embeddings=False))
        assert untied.lm_head_weight is not None
        assert untied.num_parameters() > model.num_parameters()

    def test_initial_loss_near_uniform(self, micro_model_config, rng):
        model = DecoderLM(micro_model_config)
        tokens = rng.integers(0, micro_model_config.vocab_size, size=(4, 16))
        loss = model.loss(tokens[:, :-1], tokens[:, 1:]).item()
        assert abs(loss - np.log(micro_model_config.vocab_size)) < 0.5

    def test_few_steps_reduce_loss(self, micro_model_config, c4_stream):
        from repro.optim import AdamW

        model = DecoderLM(micro_model_config, seed=0)
        opt = AdamW(model.parameters(), lr=5e-3, weight_decay=0.0)
        x, y = c4_stream.next_batch()
        first = model.loss(x, y)
        model.zero_grad()
        first.backward()
        opt.step()
        for _ in range(10):
            x, y = c4_stream.next_batch()
            loss = model.loss(x, y)
            model.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < float(first.data)

    def test_gradients_flow_to_all_parameters(self, micro_model_config, rng):
        model = DecoderLM(micro_model_config)
        tokens = rng.integers(0, micro_model_config.vocab_size, size=(2, 8))
        model.loss(tokens[:, :-1], tokens[:, 1:]).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"
            assert np.isfinite(p.grad).all(), f"non-finite gradient for {name}"

    def test_generate_length_and_range(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        prompt = np.array([2, 3, 4])
        out = model.generate(prompt, max_new_tokens=5,
                             rng=np.random.default_rng(0))
        assert out.shape == (8,)
        assert (out >= 0).all() and (out < micro_model_config.vocab_size).all()

    def test_generate_greedy_deterministic(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        prompt = np.array([2, 3])
        a = model.generate(prompt, 4, temperature=0.0)
        b = model.generate(prompt, 4, temperature=0.0)
        np.testing.assert_array_equal(a, b)


class TestModelConfig:
    def test_param_count_close_to_actual(self, micro_model_config):
        model = DecoderLM(micro_model_config)
        estimate = micro_model_config.n_params
        actual = model.num_parameters()
        assert abs(estimate - actual) / actual < 0.05

    def test_paper_sizes_roughly_match_names(self):
        from repro.config import PAPER_MODELS

        assert 0.8e8 < PAPER_MODELS["125M"].n_params < 1.8e8
        assert 1.0e9 < PAPER_MODELS["1.3B"].n_params < 1.7e9
        assert 2.3e9 < PAPER_MODELS["3B"].n_params < 3.6e9
        assert 5.5e9 < PAPER_MODELS["7B"].n_params < 8.5e9

    def test_invalid_heads_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig("bad", n_blocks=1, d_model=10, n_heads=3)
