"""Global-norm gradient clipping (part of the local training recipe)."""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Parameter

__all__ = ["global_grad_norm", "clip_grad_norm", "clip_grads"]


def _squared_norms(grads: list[np.ndarray], k: int) -> np.ndarray:
    """Per-model squared global norms, ``(k,)`` float64: one dot
    product per gradient and model, summed over gradients in order."""
    totals = np.zeros(k, dtype=np.float64)
    for g in grads:
        flat = g.reshape(k, 1, -1)
        totals += (flat @ flat.swapaxes(1, 2)).reshape(k)
    return totals


def clip_grads(grads: list[np.ndarray], max_norm: float, k: int = 1) -> np.ndarray:
    """Scale ``grads`` in place so each model's global norm is at most
    ``max_norm``; returns the ``(k,)`` pre-clip norms.

    With ``k > 1`` every array carries ``k`` stacked models on its
    leading axis and each model is clipped by its own norm: the dot
    products are the ones a lone model runs, and a model under the
    limit is multiplied by exactly 1.0 (a bitwise no-op).
    """
    norms = np.sqrt(_squared_norms(grads, k))
    over = norms > max_norm
    if over.any():
        scales = np.where(over, max_norm / (norms + 1e-12), 1.0).astype(np.float32)
        for g in grads:
            g *= scales.reshape((k,) + (1,) * (g.ndim - 1))
    return norms


def global_grad_norm(params: list[Parameter]) -> float:
    """L2 norm over all gradients (zeros for params without grads)."""
    grads = [p.grad for p in params if p.grad is not None]
    return math.sqrt(_squared_norms(grads, 1)[0])


def clip_grad_norm(params: list[Parameter], max_norm: float, k: int = 1) -> np.ndarray:
    """Scale gradients in place so the global norm of each of the ``k``
    models stacked on the parameters' leading axis (``k=1``: one model,
    no model axis) is at most ``max_norm``; returns the ``(k,)`` pre-clip
    norms.  The one clip entry point of every training plane."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    grads = [p.grad for p in params if p.grad is not None]
    return clip_grads(grads, max_norm, k)
