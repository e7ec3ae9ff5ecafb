"""Causal multi-head self-attention with ALiBi positional biases.

The paper's models are MPT-family decoders [39], which use ALiBi
(attention with linear biases) instead of learned positional
embeddings.  We reproduce that choice: it keeps the parameter count
independent of sequence length and extrapolates to longer contexts.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Tensor, kernels, ops
from .layers import Linear
from .module import Module

__all__ = ["alibi_slopes", "CausalSelfAttention"]


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


class CausalSelfAttention(Module):
    """Multi-head causal self-attention.

    The bias matrix (:func:`~repro.tensor.kernels.attention_bias`:
    causal mask + ALiBi) is cached per sequence length since it is a
    pure function of ``(slopes, seq_len)``.
    """

    def __init__(self, d_model: int, n_heads: int, alibi: bool = True,
                 rng: np.random.Generator | None = None, resid_scale: float | None = None):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.head_dim = d_model // n_heads
        # A zero slope is no ALiBi: the bias is then the causal mask alone.
        slopes = alibi_slopes(n_heads) if alibi else np.zeros(1, dtype=np.float32)
        self.slopes = slopes[:, None, None]
        self.qkv = Linear(d_model, 3 * d_model, rng=rng)
        self.proj = Linear(d_model, d_model, rng=rng, init_scale=resid_scale)
        self._bias_cache: dict[int, np.ndarray] = {}

    def _bias(self, seq_len: int) -> np.ndarray:
        cached = self._bias_cache.get(seq_len)
        if cached is None:
            positions = np.arange(seq_len)
            cached = self._bias_cache[seq_len] = kernels.attention_bias(
                self.slopes, positions, positions)
        return cached

    def forward(self, x: Tensor) -> Tensor:
        context = ops.causal_attention(
            self.qkv(x), self.n_heads, self._bias(x.shape[-2]),
            1.0 / math.sqrt(self.head_dim))
        return self.proj(context)
