"""Optimizers: AdamW (the paper's ClientOpt) and plain SGD.

AdamW [41] is the clients' local optimizer.  It operates on the
parameter lists produced by :meth:`repro.nn.Module.parameters` and can
export/import its state (momenta) so tests can verify the paper's
"stateless local optimization" choice (Appendix A): Photon *resets*
optimizer state each round, DiLoCo-style setups may retain it.  Plain
SGD is the linear step the data-parallel engines of
:mod:`repro.parallel` are checked with.  DiLoCo's outer optimizer
(Nesterov momentum [9]) is :class:`repro.fed.server_opt.NesterovOuter`.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Parameter
from ..utils.durable import INT, Array, Durable, Field, List

__all__ = ["Optimizer", "AdamW", "SGD", "adamw_update"]


def adamw_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                 lr, lr_decay, beta1: float, beta2: float, eps: float,
                 bias1: float, bias2: float) -> None:
    """One AdamW update of ``p`` and its moments, all in place.

    ``lr`` and ``lr_decay`` (``lr * weight_decay``; ``None`` skips the
    decay) are python floats, or ``(K,)`` float32 vectors holding one
    value per model stacked on ``p``'s leading axis — NumPy rounds a
    python float to the same float32, so K stacked models update
    exactly as each would alone.
    """
    if np.ndim(lr):
        per_model = (-1,) + (1,) * (p.ndim - 1)
        lr = lr.reshape(per_model)
        lr_decay = None if lr_decay is None else lr_decay.reshape(per_model)
    if lr_decay is not None:
        # Decoupled weight decay: applied directly to weights, not
        # folded into the gradient.
        p -= lr_decay * p
    tmp = g * (1.0 - beta1)
    m *= beta1
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - beta2
    v *= beta2
    v += tmp
    np.divide(v, bias2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    step = m / bias1
    step *= lr
    step /= tmp
    p -= step


class Optimizer(Durable):
    """Shared plumbing: parameter list, lr attribute, and the moment
    state a stateful client retains (``_STATE``)."""

    def __init__(self, params: list[Parameter], lr: float):
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        self.params = list(params)
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def reset_state(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AdamW(Optimizer):
    """AdamW with decoupled weight decay (Loshchilov & Hutter, 2019).

    Matches the paper's local recipe: betas from Table 4, weight decay
    applied to all parameters, bias-corrected moment estimates.  When
    the parameters carry K stacked models on a leading axis, ``lr`` may
    be set to a ``(K,)`` float64 vector, one rate per model.
    """

    _STATE = (Field("t", INT), Field("m", List(Array(), counted=True)),
              Field("v", List(Array(), counted=True)))

    def __init__(self, params: list[Parameter], lr: float = 6e-4,
                 betas: tuple[float, float] = (0.9, 0.95),
                 eps: float = 1e-8, weight_decay: float = 0.1):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        lr = self.lr
        lr_decay = lr * self.weight_decay if self.weight_decay else None
        if np.ndim(lr):
            # One rate per stacked model, rounded to float32 after the
            # float64 product exactly as a python float would be.
            lr = lr.astype(np.float32)
            lr_decay = None if lr_decay is None else lr_decay.astype(np.float32)
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is not None:
                adamw_update(p.data, p.grad, m, v, lr, lr_decay,
                             self.beta1, self.beta2, self.eps, bias1, bias2)

    def reset_state(self) -> None:
        """Drop momenta — the paper's stateless-client mode."""
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


class SGD(Optimizer):
    """Plain SGD, ``p -= lr * g``.  It is linear in the gradient, so a
    data-parallel step over summed worker gradients must move the
    weights exactly as one step over the whole batch does."""

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad

    def reset_state(self) -> None:
        """Plain SGD keeps no state."""
