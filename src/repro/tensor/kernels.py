"""Array-level kernels shared by training and inference.

Plain ``float32`` NumPy in, plain NumPy out — no :class:`Tensor`, no
graph.  :meth:`Tensor.gelu` wraps the forward/backward pair for
autograd; the incremental decoder of ``nn/inference.py`` — the one
forward behind both ``InferenceEngine`` and the serving engine — calls
:func:`gelu`, :func:`layer_norm` and :func:`cached_attention`
directly, so training and serving can never disagree on the
activation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gelu", "gelu_forward", "gelu_backward", "layer_norm",
           "cached_attention"]

_C = math.sqrt(2.0 / math.pi)
_A = 0.044715


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximated GELU (MPT/GPT): returns ``(y, t)`` with
    ``t = tanh(c·(x + a·x³))`` kept for :func:`gelu_backward`.

    The cube is ``x*x*x``: ``x**3`` on float32 goes through ``powf``,
    ~150x slower per element than two multiplies.
    """
    t = np.multiply(x, x, out=np.empty_like(x))  # an array even for 0-d x
    t *= x
    t *= _A
    t += x
    t *= _C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    return y, t


def gelu_backward(grad: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``grad · dGELU/dx`` from the forward's ``x`` and ``t``:
    ``0.5·(1 + t + x·(1 − t²)·c·(1 + 3a·x²))``."""
    d = x * x
    d *= 3.0 * _A * _C
    d += _C
    s = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, s, out=s)
    s *= x
    s *= d
    s += t
    s += 1.0
    s *= 0.5
    s *= grad
    return s


def gelu(x: np.ndarray) -> np.ndarray:
    """Forward-only GELU for the inference engines."""
    return gelu_forward(x)[0]


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    """Forward-only layer normalization over the last axis with
    affine parameters (``ops.layer_norm`` is the autograd one).

    The reductions are ``np.add.reduce``: ``ndarray.mean`` is the same
    sum and divide behind ~5 us of Python wrapper, which at decode
    shapes (a few rows of ``d_model``) is most of the call.
    """
    width = x.shape[-1]
    out = x - np.add.reduce(x, axis=-1, keepdims=True) / width
    var = np.add.reduce(out * out, axis=-1, keepdims=True)
    var /= width
    var += eps
    out /= np.sqrt(var, out=var)
    out *= gamma
    out += beta
    return out


def cached_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     bias: np.ndarray, scale: float) -> np.ndarray:
    """Attend queries ``(..., t_new, head_dim)`` to a key/value run
    ``(..., t_total, head_dim)``; returns ``(..., t_new, head_dim)``.

    ``bias`` is added to the scaled scores and carries every mask
    (causal, ALiBi, padding); it must broadcast against
    ``(..., t_new, t_total)``.  The softmax is the in-place sequence of
    ``ops.causal_attention``'s forward.
    """
    weights = q @ k.swapaxes(-1, -2)
    weights *= scale
    weights += bias
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights @ v
