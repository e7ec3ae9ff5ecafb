"""Fused op correctness: softmax, layer norm, cross entropy, embedding,
dropout — values against NumPy references and gradients against finite
differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, cross_entropy, dropout, embedding, layer_norm, log_softmax, softmax

from helpers import check_gradients, numeric_grad


class TestSoftmax:
    def test_values_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(2, 5)))
        out = softmax(x).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(2), rtol=1e-6)
        assert (out > 0).all()

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 4))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_large_values_stable(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        out = softmax(x).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, :2], [0.5, 0.5], rtol=1e-5)

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 4))
        weights = Tensor(rng.normal(size=(2, 4)))
        check_gradients(lambda t: softmax(t) * weights, [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 6)))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), rtol=1e-5, atol=1e-6
        )

    def test_log_softmax_gradients(self, rng):
        x = rng.normal(size=(2, 5))
        weights = Tensor(rng.normal(size=(2, 5)))
        check_gradients(lambda t: log_softmax(t) * weights, [x])


class TestLayerNorm:
    def test_normalizes(self, rng):
        d = 8
        x = Tensor(rng.normal(2.0, 3.0, size=(4, d)))
        gamma, beta = Tensor(np.ones(d)), Tensor(np.zeros(d))
        out = layer_norm(x, gamma, beta).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-3)

    def test_affine_params_applied(self, rng):
        d = 4
        x = Tensor(rng.normal(size=(2, d)))
        gamma = Tensor(np.full(d, 2.0))
        beta = Tensor(np.full(d, 0.5))
        plain = layer_norm(x, Tensor(np.ones(d)), Tensor(np.zeros(d))).data
        scaled = layer_norm(x, gamma, beta).data
        np.testing.assert_allclose(scaled, 2.0 * plain + 0.5, rtol=1e-5, atol=1e-6)

    def test_gradients_all_inputs(self, rng):
        d = 6
        x = rng.normal(size=(3, d))
        gamma = rng.uniform(0.5, 1.5, size=d)
        beta = rng.normal(size=d)
        check_gradients(lambda a, g, b: layer_norm(a, g, b), [x, gamma, beta])


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(2, 3, 5)).astype(np.float32)
        targets = rng.integers(0, 5, size=(2, 3))
        loss = cross_entropy(Tensor(logits), targets).item()
        # Manual reference.
        flat = logits.reshape(-1, 5)
        shifted = flat - flat.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(6), targets.reshape(-1)].mean()
        np.testing.assert_allclose(loss, expected, rtol=1e-5)

    def test_uniform_logits_give_log_vocab(self):
        vocab = 7
        logits = Tensor(np.zeros((1, 4, vocab)))
        targets = np.zeros((1, 4), dtype=np.int64)
        loss = cross_entropy(logits, targets).item()
        np.testing.assert_allclose(loss, np.log(vocab), rtol=1e-6)

    def test_ignore_index_excluded(self, rng):
        logits = rng.normal(size=(1, 4, 5)).astype(np.float32)
        targets = np.array([[1, 2, -100, -100]])
        loss_masked = cross_entropy(Tensor(logits), targets).item()
        loss_two = cross_entropy(Tensor(logits[:, :2]), targets[:, :2]).item()
        np.testing.assert_allclose(loss_masked, loss_two, rtol=1e-5)

    def test_all_ignored_raises(self):
        logits = Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([[-100, -100]]))

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(2, 2, 4))
        targets = rng.integers(0, 4, size=(2, 2))
        t = Tensor(logits, requires_grad=True)
        cross_entropy(t, targets).backward()

        def f(raw):
            return cross_entropy(Tensor(raw), targets).data

        expected = numeric_grad(lambda raw: f(raw), [logits], 0)
        np.testing.assert_allclose(t.grad, expected, atol=1e-3, rtol=1e-2)

    def test_gradient_sums_to_zero_per_token(self, rng):
        """Softmax-minus-onehot rows sum to zero."""
        logits = Tensor(rng.normal(size=(1, 3, 6)), requires_grad=True)
        targets = rng.integers(0, 6, size=(1, 3))
        cross_entropy(logits, targets).backward()
        np.testing.assert_allclose(
            logits.grad.sum(axis=-1), np.zeros((1, 3)), atol=1e-6
        )


class TestEmbedding:
    def test_lookup_values(self, rng):
        weight = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        idx = np.array([[1, 3], [3, 9]])
        out = embedding(weight, idx)
        np.testing.assert_allclose(out.data, weight.data[idx])

    def test_gradient_scatter_adds_duplicates(self, rng):
        weight = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([2, 2, 4])
        embedding(weight, idx).sum().backward()
        expected = np.zeros((5, 3), dtype=np.float32)
        expected[2] = 2.0  # two lookups of row 2
        expected[4] = 1.0
        np.testing.assert_allclose(weight.grad, expected)


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_zero_p_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert dropout(x, 0.0, np.random.default_rng(0), training=True) is x

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, np.random.default_rng(0), training=True)
        np.testing.assert_allclose(out.data.mean(), 1.0, atol=0.02)

    def test_invalid_probability_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            dropout(x, 1.0, np.random.default_rng(0), training=True)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("training", [True, False])
    def test_range_is_checked_before_the_identity_return(self, p, training):
        """A negative rate used to train silently without dropout, and
        an eval-mode call never looked at the rate at all."""
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            dropout(Tensor(np.ones(3)), p, np.random.default_rng(0), training=training)

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones((8, 8)), requires_grad=True)
        out = dropout(x, 0.5, np.random.default_rng(1), training=True)
        out.sum().backward()
        # Gradient equals the mask applied in forward.
        np.testing.assert_allclose(x.grad, out.data)


class TestPropertyBased:
    @given(st.integers(2, 8), st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_softmax_rows_are_distributions(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        out = softmax(Tensor(rng.normal(size=(rows, cols)))).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows), rtol=1e-5)
        assert (out >= 0).all()

    @given(st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_cross_entropy_nonnegative(self, vocab):
        rng = np.random.default_rng(vocab)
        logits = Tensor(rng.normal(size=(1, 3, vocab)))
        targets = rng.integers(0, vocab, size=(1, 3))
        assert cross_entropy(logits, targets).item() >= 0.0


class TestFiniteDifferenceSweep:
    """Every fused op in ``repro.tensor.ops`` checked against central
    finite differences on several shapes — the property the hand-derived
    backward passes must satisfy."""

    @pytest.mark.parametrize("shape", [(3,), (2, 5), (2, 3, 4)])
    def test_softmax(self, rng, shape):
        x = rng.normal(size=shape)
        weights = Tensor(rng.normal(size=shape))
        check_gradients(lambda t: softmax(t) * weights, [x])

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2, 5)])
    def test_log_softmax(self, rng, shape):
        x = rng.normal(size=shape)
        weights = Tensor(rng.normal(size=shape))
        check_gradients(lambda t: log_softmax(t) * weights, [x])

    @pytest.mark.parametrize("batch,seq,vocab", [(1, 4, 6), (2, 3, 5)])
    def test_cross_entropy(self, rng, batch, seq, vocab):
        logits = rng.normal(size=(batch, seq, vocab))
        targets = rng.integers(0, vocab, size=(batch, seq))
        check_gradients(lambda t: cross_entropy(t, targets), [logits])

    def test_cross_entropy_ignore_index(self, rng):
        vocab = 6
        logits = rng.normal(size=(2, 4, vocab))
        targets = rng.integers(0, vocab, size=(2, 4))
        targets[0, 1] = -100
        targets[1, 3] = -100
        check_gradients(lambda t: cross_entropy(t, targets, ignore_index=-100),
                        [logits])
        # Ignored positions must receive exactly zero gradient.
        t = Tensor(logits, requires_grad=True)
        cross_entropy(t, targets, ignore_index=-100).backward()
        np.testing.assert_array_equal(t.grad[0, 1], np.zeros(vocab))
        np.testing.assert_array_equal(t.grad[1, 3], np.zeros(vocab))

    @pytest.mark.parametrize("shape", [(3, 6), (2, 2, 4)])
    def test_layer_norm_all_operands(self, rng, shape):
        d = shape[-1]
        x = rng.normal(size=shape)
        gamma = rng.uniform(0.5, 1.5, size=d)
        beta = rng.normal(size=d)
        check_gradients(lambda a, g, b: layer_norm(a, g, b), [x, gamma, beta])

    def test_embedding(self, rng):
        weight = rng.normal(size=(7, 4))
        idx = np.array([[0, 2, 2], [6, 1, 2]])
        scale = Tensor(rng.normal(size=(2, 3, 4)))
        check_gradients(lambda w: embedding(w, idx) * scale, [weight])

    def test_dropout(self, rng):
        x = rng.normal(size=(4, 5))
        # A fresh generator with a fixed seed per evaluation keeps the
        # mask identical across the finite-difference probes.
        check_gradients(
            lambda t: dropout(t, 0.4, np.random.default_rng(11), training=True),
            [x],
        )
