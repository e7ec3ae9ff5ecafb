"""The local step's shared kernels: the forward/backward pairs of
``tensor/kernels.py``, their bindings, in-place AdamW, global-norm clip
and the cached parameter list.

Four kinds of check.  Every ``*_forward`` / ``*_backward`` pair that
``kernels.__all__`` names is run in **float64** straight through the
kernels against central differences of its own forward (a pair without
a case fails the discovery).  The float32 bindings are compared with
central differences of an independent float64 NumPy reference
(``Tensor`` itself only computes in float32).  Each fused op is
compared with the op-by-op composition it replaced — kept here as the
oracle — to a stated bound in units of float32 spacing at the array's
scale, not ``allclose`` defaults.  And wherever the sequential and the
stacked plane share a kernel, slice ``k`` of the stacked call must
equal the lone call **bitwise**: that is what makes K batched clients
equal K sequential ones.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.nn import DecoderLM, InferenceEngine, apply_lora, merge_lora
from repro.nn.inference import IncrementalDecoder
from repro.optim import AdamW, clip_grad_norm, global_grad_norm
from repro.optim.clip import clip_grads
from repro.serve import MultiAdapterEngine
from repro.tensor import Parameter, Tensor, kernels, no_grad, ops, unbroadcast

from helpers import assert_within_ulps, causal_bias, numeric_grad

def f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


# ----------------------------------------------------------------------
# Every forward/backward pair, in float64, straight through the kernels
# ----------------------------------------------------------------------
# One entry per pair: a float64 "binding" ``run(*inputs) -> (out,
# backward)`` and the shapes of its differentiable inputs.  Every entry
# carries a leading model axis (K = 2), the way the stacked plane calls
# the pair.

_KEYS = np.array([[[0, 3, 3, 6], [1, 1, 5, 0]],
                  [[7, 9, 9, 13], [12, 8, 8, 8]]])  # model 1 offset by 7 rows
_TARGETS = np.array([[1, 4, -100, 0, 2, 2], [-100, -100, 3, 3, 0, 1]])


def _gelu(x):
    y, t = kernels.gelu_forward(x)
    return y, lambda g: (kernels.gelu_backward(g, x, t),)


def _layer_norm(x, gamma, beta):
    out, x_hat, inv_std = kernels.layer_norm_forward(x, gamma, beta)

    def backward(g):
        dx, dgamma = kernels.layer_norm_backward(g, x_hat, inv_std, gamma)
        return dx, unbroadcast(dgamma, gamma.shape), unbroadcast(g, beta.shape)

    return out, backward


def _softmax(x):
    s = kernels.softmax_forward(x, 1)
    return s, lambda g: (kernels.softmax_backward(g, s, 1),)


def _log_softmax(x):
    log_s = kernels.log_softmax_forward(x, 1)
    return log_s, lambda g: (kernels.log_softmax_backward(g, log_s, 1),)


def _attention(q, k, v):
    bias = causal_bias(2, 5).astype(np.float64)
    context, weights = kernels.attention_forward(q, k, v, bias, 0.5)
    return context, lambda g: kernels.attention_backward(g, q, k, v, weights, 0.5)


def _linear(x, w, b):
    return (kernels.linear_forward(x, w, b),
            lambda g: kernels.linear_backward(g, x, w))


def _embedding(table):
    return (kernels.embedding_forward(table, _KEYS),
            lambda g: (kernels.embedding_backward(g, _KEYS, len(table)),))


def _cross_entropy(logits):
    loss, *saved = kernels.cross_entropy_forward(logits, _TARGETS)
    return loss, lambda g: (kernels.cross_entropy_backward(g, *saved),)


PAIRS = {
    "gelu": (_gelu, [(2, 3, 5)]),
    "layer_norm": (_layer_norm, [(2, 2, 3, 8), (2, 1, 1, 8), (2, 1, 1, 8)]),
    "softmax": (_softmax, [(2, 6, 3)]),
    "log_softmax": (_log_softmax, [(2, 6, 3)]),
    "attention": (_attention, [(2, 2, 2, 5, 4)] * 3),
    "linear": (_linear, [(2, 3, 4, 6), (2, 6, 3), (2, 3)]),
    "embedding": (_embedding, [(14, 4)]),
    "cross_entropy": (_cross_entropy, [(2, 6, 5)]),
}


@pytest.mark.parametrize("name", sorted(
    {n.rsplit("_", 1)[0] for n in kernels.__all__
     if n.endswith(("_forward", "_backward"))}))
def test_every_kernel_pair_in_float64(rng, name):
    """Discovered from ``kernels.__all__``: a new primitive has no entry
    in ``PAIRS`` until someone writes its case, and fails here."""
    assert {f"{name}_forward", f"{name}_backward"} <= set(kernels.__all__)
    run, shapes = PAIRS[name]
    inputs = [rng.normal(size=shape) for shape in shapes]
    held = [a.copy() for a in inputs]
    out, backward = run(*inputs)
    assert out.dtype == np.float64  # computes in the dtype it is given
    cotangent = rng.normal(size=out.shape)
    seed = cotangent.copy()
    grads = backward(seed)
    np.testing.assert_array_equal(seed, cotangent)  # the seed is not theirs
    for a, b in zip(inputs, held):
        np.testing.assert_array_equal(a, b)
    assert len(grads) == len(inputs)
    for i, got in enumerate(grads):
        want = numeric_grad(lambda *a: run(*a)[0] * cotangent, inputs, i, eps=1e-5)
        assert got.dtype == np.float64 and got.shape == inputs[i].shape
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6,
                                   err_msg=f"{name}: operand {i}")


# ----------------------------------------------------------------------
# GELU
# ----------------------------------------------------------------------

class TestGelu:
    def test_matches_the_powf_formula(self, rng):
        x = (4.0 * rng.normal(size=(4, 32, 128))).astype(np.float32)
        want = x.astype(np.float64)
        want = 0.5 * want * (1.0 + np.tanh(
            math.sqrt(2.0 / math.pi) * (want + 0.044715 * want**3)))
        assert_within_ulps(kernels.gelu_forward(x)[0], want, ulps=2)

    def test_backward_matches_float64_derivative(self, rng):
        x = (3.0 * rng.normal(size=(5, 7))).astype(np.float32)
        grad = f32(rng, 5, 7)
        y, t = kernels.gelu_forward(x)
        x64 = x.astype(np.float64)
        c = math.sqrt(2.0 / math.pi)
        t64 = np.tanh(c * (x64 + 0.044715 * x64**3))
        want = grad * (0.5 * (1 + t64) + 0.5 * x64 * (1 - t64**2)
                       * c * (1 + 3 * 0.044715 * x64**2))
        assert_within_ulps(kernels.gelu_backward(grad, x, t), want, ulps=4)

    def test_does_not_write_its_input(self, rng):
        x = f32(rng, 3, 4)
        before = x.copy()
        y, t = kernels.gelu_forward(x)
        kernels.gelu_backward(np.ones_like(x), x, t)
        np.testing.assert_array_equal(x, before)

    def test_scalar_tensor(self):
        t = Tensor(1.5, requires_grad=True)
        out = t.gelu()
        out.backward()
        assert out.shape == () and t.grad.shape == ()
        assert out.item() == pytest.approx(1.3995715, rel=1e-6)

    def test_training_and_every_inference_engine_share_one_function(
            self, monkeypatch):
        """Not only GELU: replacing any one forward of ``kernels`` is
        seen by the training decoder and by both inference engines, so
        none of them holds a second definition (or a stale reference)."""
        # Serving has no forward of its own to disagree with: it is the
        # K-slot configuration of the incremental decoder.
        assert issubclass(MultiAdapterEngine, IncrementalDecoder)
        model = DecoderLM(MICRO, seed=0)
        prompt = np.arange(5)

        def serve():
            engine = MultiAdapterEngine(model, max_streams=2)
            engine.open("r")
            engine.prefill_batch({"r": prompt})

        paths = {
            "DecoderLM": lambda: DecoderLM(MICRO, seed=0).forward(prompt),
            "InferenceEngine": lambda: InferenceEngine(model).prefill(prompt),
            "MultiAdapterEngine": serve,
        }
        for name in ("gelu_forward", "layer_norm_forward", "attention_forward",
                     "attention_bias"):
            original, calls = getattr(kernels, name), []
            with monkeypatch.context() as patch, no_grad():
                patch.setattr(
                    kernels, name,
                    lambda *a, _f=original, **kw: calls.append(1) or _f(*a, **kw))
                for path, run in paths.items():
                    del calls[:]
                    run()
                    assert calls, f"{path} does not go through kernels.{name}"


# ----------------------------------------------------------------------
# ops.linear
# ----------------------------------------------------------------------

def linear_composed(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """What ``nn.Linear`` and the stacked plane ran before the fused
    op: a broadcasting matmul node plus an add node (stacked weights
    shaped ``(K, 1, in, out)``, biases ``(K, 1, 1, out)``)."""
    out = x @ w
    if b is not None:
        out = out + b
    return out


def linear_reference(x, w, b=None):
    """float64; ``w`` ``(in, out)`` or ``(K, in, out)`` with ``x``
    ``(K, B, T, in)`` and ``b`` ``(K, out)``."""
    if w.ndim == 3:
        out = x @ w[:, None]
        return out if b is None else out + b[:, None, None, :]
    out = x @ w
    return out if b is None else out + b


LINEAR_CASES = {
    "plain": ((4, 5, 6), (6, 3), (3,)),
    "no-bias": ((4, 5, 6), (6, 3), None),
    "rows-only": ((7, 6), (6, 3), (3,)),
    "K=1": ((1, 2, 5, 6), (1, 6, 3), (1, 3)),
    "K=3": ((3, 2, 5, 6), (3, 6, 3), (3, 3)),
    "K=3-no-bias": ((3, 2, 5, 6), (3, 6, 3), None),
}


class TestLinear:
    @pytest.mark.parametrize("case", LINEAR_CASES)
    def test_float64_finite_difference_gradients(self, rng, case):
        xs, ws, bs = LINEAR_CASES[case]
        arrays = [f32(rng, *xs), f32(rng, *ws)] + ([f32(rng, *bs)] if bs else [])
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = ops.linear(*tensors)
        cotangent = rng.normal(size=out.shape)
        np.testing.assert_allclose(out.data, linear_reference(*arrays),
                                   rtol=1e-5, atol=1e-5)
        out.backward(cotangent.astype(np.float32))
        for i, t in enumerate(tensors):
            want = numeric_grad(lambda *a: linear_reference(*a) * cotangent,
                                arrays, i, eps=1e-4)
            np.testing.assert_allclose(t.grad, want, rtol=1e-4, atol=1e-4,
                                       err_msg=f"operand {i}")

    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_the_matmul_add_composition(self, rng, stacked):
        k, batch, seq, d_in, d_out = 3, 4, 32, 32, 96
        x = f32(rng, *((k,) if stacked else ()), batch, seq, d_in)
        w = f32(rng, *((k,) if stacked else ()), d_in, d_out)
        b = f32(rng, *((k,) if stacked else ()), d_out)
        cotangent = f32(rng, *x.shape[:-1], d_out)

        fused = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = ops.linear(*fused)
        out.backward(cotangent)
        old_shapes = ((k, 1, d_in, d_out), (k, 1, 1, d_out)) if stacked else (
            w.shape, b.shape)
        composed = [Tensor(a, requires_grad=True) for a in
                    (x, w.reshape(old_shapes[0]), b.reshape(old_shapes[1]))]
        want = linear_composed(*composed)
        want.backward(cotangent)

        # Same dot products in the forward; the weight gradient sums
        # its batch*seq rows in one GEMM instead of per batch row.
        assert_within_ulps(out.data, want.data.astype(np.float64), ulps=2)
        for got, old in zip(fused, composed):
            assert_within_ulps(got.grad.reshape(old.grad.shape),
                               old.grad.astype(np.float64), ulps=8)

    def test_stacked_slices_equal_lone_calls_bitwise(self, rng):
        k, batch, seq, d_in, d_out = 3, 2, 8, 16, 48
        x, w, b = f32(rng, k, batch, seq, d_in), f32(rng, k, d_in, d_out), f32(rng, k, d_out)
        cotangent = f32(rng, k, batch, seq, d_out)
        stacked = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = ops.linear(*stacked)
        out.backward(cotangent)
        for j in range(k):
            lone = [Tensor(a[j], requires_grad=True) for a in (x, w, b)]
            lone_out = ops.linear(*lone)
            lone_out.backward(cotangent[j])
            np.testing.assert_array_equal(out.data[j], lone_out.data)
            for s, t in zip(stacked, lone):
                np.testing.assert_array_equal(s.grad[j], t.grad)

    def test_frozen_operands_get_no_gradient(self, rng):
        x = Tensor(f32(rng, 2, 3), requires_grad=True)
        w, b = Tensor(f32(rng, 3, 4)), Tensor(f32(rng, 4))
        ops.linear(x, w, b).sum().backward()
        assert x.grad is not None and w.grad is None and b.grad is None


# ----------------------------------------------------------------------
# ops.causal_attention
# ----------------------------------------------------------------------

def attention_composed(qkv: Tensor, n_heads: int, bias: np.ndarray,
                       scale: float) -> Tensor:
    """The op-by-op body ``CausalSelfAttention.forward`` and
    ``_BatchedDecoderLM._attention`` each carried before the fused op
    (any number of leading batch axes)."""
    lead, (seq, width) = qkv.shape[:-2], qkv.shape[-2:]
    d_model, n = width // 3, len(qkv.shape) - 2
    split = qkv.reshape(*lead, seq, 3, n_heads, d_model // n_heads)
    split = split.transpose(n + 1, *range(n), n + 2, n, n + 3)
    q, k, v = split[0], split[1], split[2]
    scores = (q @ k.swapaxes(-1, -2)) * scale
    scores = scores + Tensor(bias)
    context = ops.softmax(scores, axis=-1) @ v
    context = context.transpose(*range(n), n + 1, n, n + 2)
    return context.reshape(*lead, seq, d_model)


def attention_reference(qkv, n_heads, bias, scale):
    """float64, any number of leading batch axes."""
    lead, (seq, width) = qkv.shape[:-2], qkv.shape[-2:]
    d_model = width // 3
    split = qkv.reshape(*lead, seq, 3, n_heads, d_model // n_heads)
    q, k, v = (np.moveaxis(split[..., i, :, :], -2, -3) for i in range(3))
    scores = q @ np.swapaxes(k, -1, -2) * scale + bias
    scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = scores / scores.sum(axis=-1, keepdims=True)
    return np.moveaxis(weights @ v, -3, -2).reshape(*lead, seq, d_model)


def _bias(alibi: bool, n_heads: int, seq: int) -> np.ndarray:
    return causal_bias(n_heads, seq, alibi)


class TestCausalAttention:
    @pytest.mark.parametrize("alibi", [True, False], ids=["alibi", "causal"])
    @pytest.mark.parametrize("lead", [(2,), (1, 2), (3, 2)],
                             ids=["no-model-axis", "K=1", "K=3"])
    def test_float64_finite_difference_gradients(self, rng, lead, alibi):
        n_heads, seq, d_model = 2, 5, 8
        bias, scale = _bias(alibi, n_heads, seq), 1.0 / math.sqrt(d_model // n_heads)
        qkv = f32(rng, *lead, seq, 3 * d_model)
        t = Tensor(qkv, requires_grad=True)
        out = ops.causal_attention(t, n_heads, bias, scale)
        cotangent = rng.normal(size=out.shape)
        want_out = attention_reference(qkv.astype(np.float64), n_heads, bias, scale)
        np.testing.assert_allclose(out.data, want_out, rtol=1e-5, atol=1e-5)
        out.backward(cotangent.astype(np.float32))
        want = numeric_grad(
            lambda a: attention_reference(a, n_heads, bias, scale) * cotangent,
            [qkv], 0, eps=1e-4)
        np.testing.assert_allclose(t.grad, want, rtol=1e-4, atol=1e-4)

    def test_future_positions_get_no_gradient(self, rng):
        """Causality: position 0's output ignores every later key and
        value, so their gradient from that output alone is zero."""
        n_heads, seq, d_model = 2, 6, 8
        t = Tensor(f32(rng, 1, seq, 3 * d_model), requires_grad=True)
        out = ops.causal_attention(t, n_heads, _bias(True, n_heads, seq), 0.5)
        seed = np.zeros(out.shape, dtype=np.float32)
        seed[0, 0] = 1.0
        out.backward(seed)
        np.testing.assert_array_equal(t.grad[0, 1:], 0.0)
        assert np.abs(t.grad[0, 0]).max() > 0

    @pytest.mark.parametrize("alibi", [True, False], ids=["alibi", "causal"])
    @pytest.mark.parametrize("lead", [(4,), (3, 4)], ids=["sequential", "stacked"])
    def test_matches_the_op_by_op_composition(self, rng, lead, alibi):
        n_heads, seq, d_model = 2, 32, 32
        bias, scale = _bias(alibi, n_heads, seq), 1.0 / math.sqrt(d_model // n_heads)
        qkv = f32(rng, *lead, seq, 3 * d_model)
        cotangent = f32(rng, *lead, seq, d_model)
        fused, composed = (Tensor(qkv, requires_grad=True) for _ in range(2))
        out = ops.causal_attention(fused, n_heads, bias, scale)
        out.backward(cotangent)
        want = attention_composed(composed, n_heads, bias, scale)
        want.backward(cotangent)
        # The same GEMMs and the same softmax arithmetic; only the
        # assembly of the packed gradient (views instead of three
        # scatter-added buffers) is new.
        assert_within_ulps(out.data, want.data.astype(np.float64), ulps=2)
        assert_within_ulps(fused.grad, composed.grad.astype(np.float64), ulps=4)

    def test_stacked_slices_equal_lone_calls_bitwise(self, rng):
        k, batch, n_heads, seq, d_model = 3, 2, 2, 8, 16
        bias = causal_bias(n_heads, 16)[:, :seq, :seq]  # a strided view
        qkv = f32(rng, k, batch, seq, 3 * d_model)
        cotangent = f32(rng, k, batch, seq, d_model)
        stacked = Tensor(qkv, requires_grad=True)
        out = ops.causal_attention(stacked, n_heads, bias, 0.25)
        out.backward(cotangent)
        for j in range(k):
            lone = Tensor(qkv[j], requires_grad=True)
            lone_out = ops.causal_attention(lone, n_heads, bias, 0.25)
            lone_out.backward(cotangent[j])
            np.testing.assert_array_equal(out.data[j], lone_out.data)
            np.testing.assert_array_equal(stacked.grad[j], lone.grad)


# ----------------------------------------------------------------------
# Embedding backward: sorted-segment reduction
# ----------------------------------------------------------------------

class TestEmbeddingBackward:
    def test_many_duplicates_match_scatter_add(self, rng):
        """Runs of >= 8 equal indices take reduceat's pairwise sum: the
        order differs from ``np.add.at``, the value only by rounding."""
        weight = Tensor(f32(rng, 5, 7), requires_grad=True)
        indices = rng.integers(-5, 5, size=(6, 40))  # negatives wrap
        grad = f32(rng, 6, 40, 7)
        ops.embedding(weight, indices).backward(grad)
        want = np.zeros((5, 7), dtype=np.float64)
        np.add.at(want, indices.reshape(-1) % 5, grad.reshape(-1, 7).astype(np.float64))
        assert_within_ulps(weight.grad, want, ulps=16)

    def test_unused_rows_stay_zero_and_empty_lookup_works(self, rng):
        weight = Tensor(f32(rng, 6, 3), requires_grad=True)
        ops.embedding(weight, np.array([4, 4, 1])).sum().backward()
        np.testing.assert_array_equal(weight.grad[[0, 2, 3, 5]], 0.0)
        weight.zero_grad()
        ops.embedding(weight, np.zeros((0,), dtype=np.int64)).sum().backward()
        np.testing.assert_array_equal(weight.grad, 0.0)

    def test_stacked_slices_equal_lone_calls_bitwise(self, rng):
        k, vocab, dim = 3, 7, 5
        weight = f32(rng, k, vocab, dim)
        indices = rng.integers(0, vocab, size=(k, 4, 32))  # ~18 hits per row
        grad = f32(rng, k, 4, 32, dim)
        stacked = Tensor(weight, requires_grad=True)
        ops.batched_embedding(stacked, indices).backward(grad)
        for j in range(k):
            lone = Tensor(weight[j], requires_grad=True)
            ops.embedding(lone, indices[j]).backward(grad[j])
            np.testing.assert_array_equal(stacked.grad[j], lone.grad)


# ----------------------------------------------------------------------
# AdamW + clip
# ----------------------------------------------------------------------

def adamw_reference(p, g, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """The textbook update, one fresh float32 array per line."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    p = p - lr * weight_decay * p
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


class TestAdamWInPlace:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_five_steps_equal_the_straight_line_reference(self, rng, weight_decay):
        shapes = [(4, 3), (3,), (2, 2)]
        params = [Parameter(f32(rng, *s)) for s in shapes]
        skipped = params[2].data.copy()  # never receives a gradient
        opt = AdamW(params, lr=3e-3, betas=(0.9, 0.95), eps=1e-8,
                    weight_decay=weight_decay)
        ref = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for p in params]
        for t in range(1, 6):
            opt.lr = 3e-3 / t
            for i, p in enumerate(params[:2]):
                p.grad = f32(rng, *shapes[i])
                ref[i] = adamw_reference(*ref[i][:1], p.grad, *ref[i][1:], t,
                                         opt.lr, 0.9, 0.95, 1e-8, weight_decay)
            opt.step()
            for p, (want, m, v), got_m, got_v in zip(params, ref, opt.m, opt.v):
                np.testing.assert_array_equal(p.data, want)
                np.testing.assert_array_equal(got_m, m)
                np.testing.assert_array_equal(got_v, v)
        np.testing.assert_array_equal(params[2].data, skipped)
        np.testing.assert_array_equal(opt.m[2], 0.0)

    def test_state_round_trips_do_not_alias(self, rng):
        p = Parameter(f32(rng, 3, 2))
        opt = AdamW([p], lr=1e-2)
        p.grad = f32(rng, 3, 2)
        opt.step()
        saved = opt.state_dict()
        snapshot = {"m": saved["m"][0].copy(), "v": saved["v"][0].copy()}
        opt.step()  # updates m/v in place: the exported copy must not move
        np.testing.assert_array_equal(saved["m"][0], snapshot["m"])
        np.testing.assert_array_equal(saved["v"][0], snapshot["v"])

        other = AdamW([Parameter(p.data.copy())], lr=1e-2)
        other.load_state_dict(saved)
        other.params[0].grad = f32(rng, 3, 2)
        other.step()  # must not write through to the loaded arrays
        assert other.t == 2
        np.testing.assert_array_equal(saved["m"][0], snapshot["m"])
        np.testing.assert_array_equal(saved["v"][0], snapshot["v"])

        held_m = other.m[0]
        other.reset_state()
        assert other.t == 0
        np.testing.assert_array_equal(other.m[0], 0.0)
        np.testing.assert_array_equal(other.v[0], 0.0)
        other.params[0].grad = f32(rng, 3, 2)
        other.step()
        assert np.abs(held_m).max() > 0  # the pre-reset array was left alone


class TestClipKernel:
    def test_stacked_models_clip_exactly_as_each_would_alone(self, rng):
        k = 3
        stacked = [f32(rng, k, 4, 5), f32(rng, k, 5), f32(rng, k, 2, 3, 2)]
        stacked[0][1] *= 1e-3  # model 1 stays under the limit
        stacked[1][1] *= 1e-3
        stacked[2][1] *= 1e-3
        lone = [[Parameter(np.zeros(g.shape[1:])) for g in stacked] for _ in range(k)]
        for j in range(k):
            for p, g in zip(lone[j], stacked):
                p.grad = g[j].copy()
        before = [g.copy() for g in stacked]
        norms = clip_grads(stacked, 0.5, k)
        assert norms[1] < 0.5 < min(norms[0], norms[2])
        for j in range(k):
            assert clip_grad_norm(lone[j], 0.5) == norms[j]
            for p, g in zip(lone[j], stacked):
                np.testing.assert_array_equal(g[j], p.grad)
        for g, b in zip(stacked, before):
            np.testing.assert_array_equal(g[1], b[1])  # untouched bitwise

    def test_norm_accumulates_across_parameters_in_float64(self, rng):
        grads = [f32(rng, 64, 64), f32(rng, 64), f32(rng, 3, 5, 7)]
        params = [Parameter(np.zeros(g.shape)) for g in grads]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        want = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads))
        assert global_grad_norm(params) == pytest.approx(want, rel=1e-6)
        assert clip_grad_norm(params, 1.0) == pytest.approx(want, rel=1e-6)
        assert global_grad_norm(params) == pytest.approx(1.0, rel=1e-5)


# ----------------------------------------------------------------------
# Module.parameters() cache
# ----------------------------------------------------------------------

MICRO = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                    seq_len=16)


def walked(model) -> list[Parameter]:
    return [p for _, p in model.named_parameters()]


class TestParameterCache:
    def test_cached_list_is_the_walk_and_callers_get_their_own_copy(self):
        model = DecoderLM(MICRO, seed=0)
        first = model.parameters()
        assert [id(p) for p in first] == [id(p) for p in walked(model)]
        first.clear()  # a caller's list is theirs to mutate
        assert len(model.parameters()) == len(walked(model))

    def test_steady_state_does_not_rewalk_the_tree(self, monkeypatch):
        model = DecoderLM(MICRO, seed=0)
        model.parameters()
        calls = []
        original = DecoderLM.named_parameters
        monkeypatch.setattr(
            DecoderLM, "named_parameters",
            lambda self, prefix="": calls.append(1) or original(self, prefix))
        for _ in range(5):
            model.parameters()
            model.zero_grad()
        assert calls == []

    def test_lora_wrapping_and_merging_invalidate(self):
        model = DecoderLM(MICRO, seed=0)
        dense = {id(p) for p in model.parameters()}
        apply_lora(model, rank=2)
        wrapped = model.parameters()
        assert [id(p) for p in wrapped] == [id(p) for p in walked(model)]
        frozen = id(model.blocks._blocks[0].attn.qkv._frozen_weight)
        assert frozen not in {id(p) for p in wrapped}
        assert {id(p) for p in wrapped} != dense
        merge_lora(model)
        merged = model.parameters()
        assert [id(p) for p in merged] == [id(p) for p in walked(model)]
        assert len(merged) == len(dense)

    def test_reassigning_a_parameter_or_submodule_invalidates(self, rng):
        model = DecoderLM(MICRO, seed=0)
        other = DecoderLM(MICRO, seed=1)
        model.parameters(), other.parameters()
        block = model.blocks._blocks[0]
        block.ln1.gamma = Parameter(np.ones(16))
        assert any(p is block.ln1.gamma for p in model.parameters())
        block.mlp = other.blocks._blocks[0].mlp
        assert any(p is block.mlp.up.weight for p in model.parameters())
        # Another model's cache is rebuilt too, to the same list.
        assert [id(p) for p in other.parameters()] == [id(p) for p in walked(other)]

    def test_cache_is_not_built_at_construction(self):
        assert "_parameter_cache" not in DecoderLM(MICRO, seed=0).__dict__
