"""Causal multi-head self-attention with ALiBi positional biases.

The paper's models are MPT-family decoders [39], which use ALiBi
(attention with linear biases) instead of learned positional
embeddings.  We reproduce that choice: it keeps the parameter count
independent of sequence length and extrapolates to longer contexts.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Tensor, ops
from .layers import Linear
from .module import Module

__all__ = ["alibi_slopes", "CausalSelfAttention"]

_NEG_INF = -1e9


def alibi_slopes(n_heads: int) -> np.ndarray:
    """Per-head ALiBi slopes following Press et al. (2022).

    For ``n_heads`` a power of two the slopes are a geometric sequence
    starting at ``2**(-8/n)``; otherwise the sequence is built from the
    nearest power of two and interleaved, matching the reference
    implementation used by MPT.
    """
    def power_of_two_slopes(n: int) -> list[float]:
        start = 2.0 ** (-(2.0 ** -(math.log2(n) - 3)))
        return [start * (start**i) for i in range(n)]

    if math.log2(n_heads).is_integer():
        return np.array(power_of_two_slopes(n_heads), dtype=np.float32)
    closest = 2 ** math.floor(math.log2(n_heads))
    slopes = power_of_two_slopes(closest)
    extra = power_of_two_slopes(2 * closest)[0::2][: n_heads - closest]
    return np.array(slopes + extra, dtype=np.float32)


def _alibi_bias(n_heads: int, seq_len: int) -> np.ndarray:
    """Additive bias of shape ``(n_heads, seq_len, seq_len)``.

    Bias is ``-slope * (i - j)`` for keys ``j <= i`` (zero on the
    diagonal) and ``-inf`` above the diagonal (causal mask folded in).
    """
    slopes = alibi_slopes(n_heads)
    positions = np.arange(seq_len)
    relative = positions[None, :] - positions[:, None]  # j - i, <= 0 in causal region
    bias = slopes[:, None, None] * relative[None, :, :]
    causal_mask = relative > 0
    bias = np.where(causal_mask[None, :, :], _NEG_INF, bias)
    return bias.astype(np.float32)


def _causal_bias(seq_len: int) -> np.ndarray:
    """Pure causal mask (no ALiBi) of shape ``(1, seq_len, seq_len)``."""
    mask = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
    return np.where(mask, _NEG_INF, 0.0).astype(np.float32)[None, :, :]


class CausalSelfAttention(Module):
    """Multi-head causal self-attention.

    The bias matrix (ALiBi + causal mask) is cached per sequence length
    since it is a pure function of ``(n_heads, seq_len)``.
    """

    def __init__(self, d_model: int, n_heads: int, alibi: bool = True,
                 rng: np.random.Generator | None = None, resid_scale: float | None = None):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.head_dim = d_model // n_heads
        self.alibi = alibi
        self.qkv = Linear(d_model, 3 * d_model, rng=rng)
        self.proj = Linear(d_model, d_model, rng=rng, init_scale=resid_scale)
        self._bias_cache: dict[int, np.ndarray] = {}

    def _bias(self, seq_len: int) -> np.ndarray:
        cached = self._bias_cache.get(seq_len)
        if cached is None:
            cached = (
                _alibi_bias(self.n_heads, seq_len)
                if self.alibi
                else _causal_bias(seq_len)
            )
            self._bias_cache[seq_len] = cached
        return cached

    def forward(self, x: Tensor) -> Tensor:
        context = ops.causal_attention(
            self.qkv(x), self.n_heads, self._bias(x.shape[-2]),
            1.0 / math.sqrt(self.head_dim))
        return self.proj(context)
