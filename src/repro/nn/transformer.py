"""MPT-style decoder-only transformer for causal language modelling.

Architecture per paper Table 4: pre-norm blocks, ALiBi attention, GELU
MLP with a configurable expansion ratio, tied input/output embeddings
and a final layer norm.  The model exposes ``forward`` (logits),
``loss`` (token cross-entropy) and ``generate`` (sampling).
"""

from __future__ import annotations

import math

import numpy as np

from ..config import ModelConfig
from ..tensor import Parameter, Tensor, kernels, no_grad, ops
from .attention import CausalSelfAttention
from .layers import Dropout, Embedding, LayerNorm, MLP
from .module import Module

__all__ = ["Block", "DecoderLM", "sample_token"]


def sample_token(logits: np.ndarray, temperature: float,
                 rng: np.random.Generator | None = None) -> int:
    """Greedy at ``temperature<=0``, else a softmax sample from ``rng``.

    The one sampler: :meth:`DecoderLM.generate`, ``InferenceEngine`` and
    the serving engine all draw through it.  Callers that sample should
    pass a per-request generator so batch composition never changes a
    request's output.
    """
    if temperature <= 0:
        return int(logits.argmax())
    if rng is None:
        rng = np.random.default_rng()
    scaled = logits / temperature
    probs = kernels.softmax_forward(scaled, out=scaled)
    return int(rng.choice(probs.size, p=probs))


class Block(Module):
    """Pre-norm transformer block: x + Attn(LN(x)); x + MLP(LN(x))."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator,
                 resid_scale: float):
        super().__init__()
        self.ln1 = LayerNorm(config.d_model)
        self.attn = CausalSelfAttention(
            config.d_model, config.n_heads, alibi=config.alibi, rng=rng,
            resid_scale=resid_scale,
        )
        self.ln2 = LayerNorm(config.d_model)
        self.mlp = MLP(config.d_model, config.expansion_ratio, rng=rng,
                       resid_scale=resid_scale)
        self.drop = Dropout(config.dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.drop(self.attn(self.ln1(x)))
        x = x + self.drop(self.mlp(self.ln2(x)))
        return x


class DecoderLM(Module):
    """Decoder-only causal language model.

    Parameters
    ----------
    config:
        Architecture description (see :class:`repro.config.ModelConfig`).
    seed:
        Seed for weight initialization and dropout; two models built
        with the same config and seed are bit-identical, which the
        federated tests rely on.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        # GPT-2 style residual scaling keeps activations bounded as
        # depth grows.
        resid_scale = 0.02 / math.sqrt(2 * config.n_blocks)
        self.tok_emb = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.blocks = _BlockList(
            [Block(config, rng, resid_scale) for _ in range(config.n_blocks)]
        )
        self.ln_f = LayerNorm(config.d_model)
        if config.tie_embeddings:
            self.lm_head_weight: Parameter | None = None  # reuse tok_emb.weight
        else:
            self.lm_head_weight = Parameter(
                rng.normal(0.0, 0.02, size=(config.vocab_size, config.d_model))
            )

    # ------------------------------------------------------------------
    def forward(self, tokens: np.ndarray) -> Tensor:
        """Compute logits of shape ``(batch, seq, vocab)``.

        The parameters may carry a leading model axis (``K`` stacked
        models: weights ``(K, in, out)``, biases ``(K, out)``, layer-norm
        affines ``(K, 1, 1, d)``); ``tokens`` is then ``(K, batch, seq)``
        and the logits ``(K, batch, seq, vocab)``, slice ``j`` being what
        model ``j`` computes alone.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.shape[-1] > self.config.seq_len:
            raise ValueError(
                f"sequence length {tokens.shape[-1]} exceeds configured "
                f"maximum {self.config.seq_len}"
            )
        x = self.tok_emb(tokens)
        x = self.blocks(x)
        x = self.ln_f(x)
        head = self.lm_head_weight if self.lm_head_weight is not None else self.tok_emb.weight
        head = head.swapaxes(-1, -2)
        if head.ndim == 3:
            # One (d, vocab) head per model, broadcast over its batch.
            head = head.reshape(head.shape[0], 1, *head.shape[1:])
        return x @ head

    def loss(self, tokens: np.ndarray, targets: np.ndarray) -> Tensor:
        """Mean next-token cross-entropy: a scalar, or one mean per
        stacked model ``(K,)``."""
        logits = self.forward(tokens)
        weight = self.tok_emb.weight
        return ops.cross_entropy(
            logits, targets, k=weight.shape[0] if weight.ndim == 3 else None)

    def generate(self, prompt: np.ndarray, max_new_tokens: int,
                 temperature: float = 1.0, rng: np.random.Generator | None = None) -> np.ndarray:
        """Sample a continuation of ``prompt`` (1-D token array); a
        ``ValueError`` for ``ndim > 1``, a ``(1, T)`` batch of one
        included, as :meth:`InferenceEngine.generate` raises."""
        rng = rng or np.random.default_rng()
        prompt = np.asarray(prompt)
        if prompt.ndim > 1:
            raise ValueError(f"prompt: token ids must be one sequence, "
                             f"got shape {prompt.shape}")
        tokens = list(prompt.reshape(-1))
        for _ in range(max_new_tokens):
            window = np.array(tokens[-self.config.seq_len:])[None, :]
            with no_grad():
                logits = self.forward(window).data[0, -1]
            tokens.append(sample_token(logits, temperature, rng))
        return np.array(tokens, dtype=np.int64)


class _BlockList(Module):
    """Sequential container registering each block as a submodule."""

    def __init__(self, blocks: list[Block]):
        super().__init__()
        self._blocks = blocks
        for i, block in enumerate(blocks):
            setattr(self, f"block{i}", block)

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def forward(self, x: Tensor) -> Tensor:
        for block in self._blocks:
            x = block(x)
        return x
