"""Array-level kernels shared by training and inference.

Plain ``float32`` NumPy in, plain NumPy out — no :class:`Tensor`, no
graph.  :meth:`Tensor.gelu` wraps the forward/backward pair for
autograd; the inference engines (``nn/inference.py``,
``serve/engine.py``, ``parallel/tp.py``) call :func:`gelu` directly, so
training and serving can never disagree on the activation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gelu", "gelu_forward", "gelu_backward"]

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
