"""Core layers: Linear, Embedding, LayerNorm, Dropout and the MLP block."""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Parameter, Tensor
from ..tensor import ops
from .module import Module

__all__ = ["Linear", "Embedding", "LayerNorm", "Dropout", "MLP"]


class Linear(Module):
    """Affine map ``y = x W + b`` with GPT-style initialization."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None, init_scale: float | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        scale = init_scale if init_scale is not None else 1.0 / math.sqrt(in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Token embedding table."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None, init_scale: float = 0.02):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, init_scale, size=(num_embeddings, embedding_dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.max(initial=0) >= self.num_embeddings or indices.min(initial=0) < 0:
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}) in embedding lookup"
            )
        return ops.embedding(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the trailing feature axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma, self.beta, eps=self.eps)


class Dropout(Module):
    """Inverted dropout driven by an explicit RNG for reproducibility."""

    def __init__(self, p: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.p, self.rng, training=self.training)


class MLP(Module):
    """Transformer feed-forward block: Linear -> GELU -> Linear."""

    def __init__(self, d_model: int, expansion_ratio: int = 4,
                 rng: np.random.Generator | None = None, resid_scale: float | None = None):
        super().__init__()
        hidden = expansion_ratio * d_model
        self.up = Linear(d_model, hidden, rng=rng)
        self.down = Linear(hidden, d_model, rng=rng, init_scale=resid_scale)

    def forward(self, x: Tensor) -> Tensor:
        return self.down(self.up(x).gelu())
