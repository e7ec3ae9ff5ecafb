"""KV-cached incremental decoding.

``DecoderLM.generate`` recomputes the full prefix every step —
O(T²·d) per generated token.  This engine snapshots a model's weights
into plain arrays and decodes incrementally with per-block key/value
caches, which is how the models are actually served (and what the
downstream evaluation uses for long suites).

The implementation is deliberately independent of the autograd graph;
``tests/test_inference.py`` asserts bit-level agreement (to float32
tolerance) with ``DecoderLM.forward`` on every architecture in the
tiny family.

Snapshot semantics: construction **copies** every weight array, so a
model that keeps training (continual or personalization rounds) never
mutates a live engine mid-generation — the engine serves exactly the
weights it was built from.  LoRA-wrapped models are supported
directly: adapters are folded through
:meth:`~repro.nn.lora.LoRALinear.merged_weight` at snapshot time, so
the engine decodes the adapted model without mutating it (unlike
:func:`~repro.nn.lora.merge_lora`, which rewrites the model in place).
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor.kernels import gelu
from .attention import alibi_slopes
from .lora import LoRALinear
from .transformer import DecoderLM

__all__ = ["InferenceEngine"]


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _causal_attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   scale: float, slopes: np.ndarray | None) -> np.ndarray:
    """Attend the trailing ``t_new`` queries to the full key/value run.

    Shapes: ``q`` is ``(heads, t_new, head_dim)``; ``k``/``v`` are
    ``(heads, t_total, head_dim)`` with the new positions last.
    ``slopes`` enables ALiBi when not None.  Shared by the single-
    stream engine and the multi-adapter serving engine so both decode
    with bit-identical masking and softmax.
    """
    t_new, t_total = q.shape[1], k.shape[1]
    scores = (q @ k.transpose(0, 2, 1)) * scale  # (H, t_new, t_total)
    q_pos = np.arange(t_total - t_new, t_total)
    k_pos = np.arange(t_total)
    relative = k_pos[None, :] - q_pos[:, None]  # (t_new, t_total), <=0 visible
    if slopes is not None:
        bias = slopes[:, None, None] * relative[None, :, :]
    else:
        bias = np.zeros((1, t_new, t_total), dtype=np.float32)
    scores = scores + np.where(relative[None, :, :] > 0, -1e9, bias)
    weights = _softmax(scores.astype(np.float32))
    return weights @ v  # (H, t_new, head_dim)


def _snapshot_linear(layer) -> tuple[np.ndarray, np.ndarray]:
    """``(weight, bias)`` copies of a dense or LoRA-wrapped Linear.

    LoRA adapters are folded via ``merged_weight()`` (a fresh array),
    leaving the wrapped layer untouched.  Bias-free layers are not a
    shape this engine decodes.
    """
    if isinstance(layer, LoRALinear):
        if layer._frozen_bias is None:
            raise ValueError("InferenceEngine requires standard dense blocks")
        return layer.merged_weight(), layer._frozen_bias.data.copy()
    if getattr(layer, "bias", None) is None:
        raise ValueError("InferenceEngine requires standard dense blocks")
    return layer.weight.data.copy(), layer.bias.data.copy()


class _BlockWeights:
    """Dense snapshot of one transformer block (arrays copied, LoRA
    adapters folded)."""

    def __init__(self, block):
        self.ln1_g = block.ln1.gamma.data.copy()
        self.ln1_b = block.ln1.beta.data.copy()
        self.qkv_w, self.qkv_b = _snapshot_linear(block.attn.qkv)
        self.proj_w, self.proj_b = _snapshot_linear(block.attn.proj)
        self.ln2_g = block.ln2.gamma.data.copy()
        self.ln2_b = block.ln2.beta.data.copy()
        self.up_w, self.up_b = _snapshot_linear(block.mlp.up)
        self.down_w, self.down_b = _snapshot_linear(block.mlp.down)


class InferenceEngine:
    """Incremental decoder over a trained :class:`DecoderLM`.

    Not thread-safe (one KV cache per engine); create one engine per
    concurrent generation stream.
    """

    def __init__(self, model: DecoderLM):
        cfg = model.config
        if any(not hasattr(block.attn, "qkv") for block in model.blocks):
            raise ValueError("InferenceEngine requires standard dense blocks")
        self.config = cfg
        self.n_heads = cfg.n_heads
        self.head_dim = cfg.head_dim
        self.scale = 1.0 / math.sqrt(cfg.head_dim)
        self.alibi = cfg.alibi
        self.slopes = alibi_slopes(cfg.n_heads) if cfg.alibi else None

        self.emb = model.tok_emb.weight.data.copy()
        self.blocks = [_BlockWeights(b) for b in model.blocks]
        self.ln_f_g = model.ln_f.gamma.data.copy()
        self.ln_f_b = model.ln_f.beta.data.copy()
        head = (model.lm_head_weight.data if model.lm_head_weight is not None
                else model.tok_emb.weight.data)
        self.head = head.copy()
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear the KV caches (start a new sequence)."""
        self._k = [np.zeros((self.n_heads, 0, self.head_dim), dtype=np.float32)
                   for _ in self.blocks]
        self._v = [np.zeros((self.n_heads, 0, self.head_dim), dtype=np.float32)
                   for _ in self.blocks]
        self.position = 0

    @property
    def cache_len(self) -> int:
        return self.position

    # ------------------------------------------------------------------
    def _attend(self, layer: int, q: np.ndarray, k_new: np.ndarray,
                v_new: np.ndarray) -> np.ndarray:
        """Append new K/V and attend the new queries to the full cache.

        Shapes: ``q, k_new, v_new`` are ``(heads, t_new, head_dim)``.
        """
        self._k[layer] = np.concatenate([self._k[layer], k_new], axis=1)
        self._v[layer] = np.concatenate([self._v[layer], v_new], axis=1)
        return _causal_attend(q, self._k[layer], self._v[layer],
                              self.scale, self.slopes)

    def _forward_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Run ``tokens`` (1-D) through the stack, extending the cache;
        returns logits for every new position, shape (len, vocab)."""
        x = self.emb[tokens]  # (t, d)
        t = x.shape[0]
        for layer, w in enumerate(self.blocks):
            h = _layer_norm(x, w.ln1_g, w.ln1_b)
            qkv = h @ w.qkv_w + w.qkv_b  # (t, 3d)
            qkv = qkv.reshape(t, 3, self.n_heads, self.head_dim)
            q = qkv[:, 0].transpose(1, 0, 2)
            k = qkv[:, 1].transpose(1, 0, 2)
            v = qkv[:, 2].transpose(1, 0, 2)
            context = self._attend(layer, q, k, v)  # (H, t, hd)
            context = context.transpose(1, 0, 2).reshape(t, -1)
            x = x + context @ w.proj_w + w.proj_b
            h = _layer_norm(x, w.ln2_g, w.ln2_b)
            x = x + gelu(h @ w.up_w + w.up_b) @ w.down_w + w.down_b
        x = _layer_norm(x, self.ln_f_g, self.ln_f_b)
        self.position += t
        return x @ self.head.T

    # ------------------------------------------------------------------
    def prefill(self, prompt: np.ndarray) -> np.ndarray:
        """Process a prompt; returns the last position's logits."""
        prompt = np.asarray(prompt).reshape(-1)
        if prompt.size == 0:
            raise ValueError("empty prompt")
        if self.position + prompt.size > self.config.seq_len:
            raise ValueError("prompt exceeds the model's sequence length")
        return self._forward_tokens(prompt)[-1]

    def decode_step(self, token: int) -> np.ndarray:
        """Feed one token; returns next-token logits."""
        if self.position >= self.config.seq_len:
            raise ValueError("KV cache is full (sequence length reached)")
        return self._forward_tokens(np.array([token], dtype=np.int64))[-1]

    def generate(self, prompt: np.ndarray, max_new_tokens: int,
                 temperature: float = 1.0,
                 rng: np.random.Generator | None = None) -> np.ndarray:
        """Sample a continuation with KV caching.

        Semantics match :meth:`DecoderLM.generate` (greedy at
        ``temperature<=0``), but each new token costs O(T·d) instead
        of O(T²·d).
        """
        rng = rng or np.random.default_rng()
        self.reset()
        tokens = list(np.asarray(prompt).reshape(-1))
        budget = min(max_new_tokens, self.config.seq_len - len(tokens))
        logits = self.prefill(np.array(tokens))
        for _ in range(budget):
            if temperature <= 0:
                nxt = int(logits.argmax())
            else:
                scaled = logits / temperature
                scaled -= scaled.max()
                probs = np.exp(scaled)
                probs /= probs.sum()
                nxt = int(rng.choice(probs.size, p=probs))
            tokens.append(nxt)
            if len(tokens) >= self.config.seq_len:
                break
            logits = self.decode_step(nxt)
        return np.array(tokens, dtype=np.int64)
