"""Server-side optimizers (``ServerOpt`` / ``OuterOpt``).

Algorithm 1 L.9: the aggregator applies an optimization policy to the
mean pseudo-gradient ``Δ_t = mean_k(θ_t − θ_t^k)``.  The paper's
defaults (Appendix A): FedAvg with server LR 1.0 and momentum 0.0 for
Photon; SGD with Nesterov momentum 0.9 as DiLoCo's outer optimizer;
FedMom [83] and FedAdam are provided as the pluggable alternatives
Section 6 discusses.  :func:`diloco` is the one definition of the
DiLoCo baseline: a :class:`~repro.config.FedConfig` that Photon runs
like any other.

All optimizers operate on state dicts of NumPy arrays — the global
model never needs to be materialized as a live module on the server.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..config import FedConfig
from ..utils.durable import INT, MODEL_TREE, Durable, Field, Opt
from ..utils.serialization import StateDict, tree_zeros_like

__all__ = [
    "ServerOpt",
    "FedAvg",
    "FedMom",
    "FedAdam",
    "NesterovOuter",
    "DILOCO_SERVER_LRS",
    "diloco",
    "make_server_opt",
]


class ServerOpt(Durable):
    """Base class: consume a pseudo-gradient, produce new global state.

    Run state: the moment trees, written only once the first step has
    created them (momentum-free optimizers have none)."""

    def __init__(self, lr: float = 1.0):
        if lr <= 0:
            raise ValueError(f"server lr must be positive, got {lr}")
        self.lr = lr

    def step(self, global_state: StateDict, pseudo_grad: StateDict) -> StateDict:
        """Return the next global state.  ``pseudo_grad`` follows the
        paper's sign convention: ``Δ = θ_t − θ_k`` (a *descent*
        direction is ``−Δ``), so the generic update is
        ``θ_{t+1} = θ_t − lr · direction(Δ)``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any momentum state (used between experiments)."""


class FedAvg(ServerOpt):
    """θ_{t+1} = θ_t − lr · Δ.  With lr = 1 this is exact parameter
    averaging (McMahan et al. [15]) — Photon's default."""

    def step(self, global_state: StateDict, pseudo_grad: StateDict) -> StateDict:
        return {k: global_state[k] - self.lr * pseudo_grad[k] for k in global_state}


class _MomentumOpt(ServerOpt):
    """A server optimizer whose one moment tree is a velocity."""

    _STATE = (Field("velocity", Opt(MODEL_TREE), "_velocity", omit=True),)

    def __init__(self, lr: float, momentum: float):
        super().__init__(lr)
        self.momentum = momentum
        self._velocity: StateDict | None = None

    def reset(self) -> None:
        self._velocity = None


class FedMom(_MomentumOpt):
    """Federated momentum (FedAvgM / FedMom [83]).

    v ← μ·v + Δ;  θ ← θ − lr·v.  Reduces round-to-round oscillation of
    the global model under partial participation.
    """

    def __init__(self, lr: float = 1.0, momentum: float = 0.9):
        super().__init__(lr, momentum)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")

    def step(self, global_state: StateDict, pseudo_grad: StateDict) -> StateDict:
        if self._velocity is None:
            self._velocity = tree_zeros_like(pseudo_grad)
        for k in pseudo_grad:
            self._velocity[k] = self.momentum * self._velocity[k] + pseudo_grad[k]
        return {k: global_state[k] - self.lr * self._velocity[k] for k in global_state}


class FedAdam(ServerOpt):
    """Adam on the pseudo-gradient (Reddi et al., 'Adaptive Federated
    Optimization') — one of the drop-in alternatives Section 6 notes."""

    # The step count is written beside the moments (the group is all
    # or none); a tree without them is a fresh optimizer.
    _STATE = (Field("m", Opt(MODEL_TREE), "_m", omit=True),
              Field("v", Opt(MODEL_TREE), "_v", omit=True),
              Field("t", Opt(INT), "_t", omit=True,
                    decode=lambda t: t or 0))

    def __init__(self, lr: float = 1e-2, betas: tuple[float, float] = (0.9, 0.99),
                 eps: float = 1e-8):
        super().__init__(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m: StateDict | None = None
        self._v: StateDict | None = None
        self._t = 0

    def step(self, global_state: StateDict, pseudo_grad: StateDict) -> StateDict:
        if self._m is None:
            self._m = tree_zeros_like(pseudo_grad)
            self._v = tree_zeros_like(pseudo_grad)
        self._t += 1
        out: StateDict = {}
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for k in global_state:
            g = pseudo_grad[k]
            self._m[k] = self.beta1 * self._m[k] + (1 - self.beta1) * g
            self._v[k] = self.beta2 * self._v[k] + (1 - self.beta2) * g * g
            m_hat = self._m[k] / bias1
            v_hat = self._v[k] / bias2
            out[k] = global_state[k] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return out

    def reset(self) -> None:
        self._m = None
        self._v = None
        self._t = 0


class NesterovOuter(_MomentumOpt):
    """SGD with Nesterov momentum on the pseudo-gradient — DiLoCo's
    recommended OuterOpt [9] (momentum 0.9 in the Figure 8 sweep).

    v ← μ·v + Δ;  θ ← θ − lr·(Δ + μ·v).
    """

    def __init__(self, lr: float = 0.1, momentum: float = 0.9):
        super().__init__(lr, momentum)
        if not 0.0 < momentum < 1.0:
            raise ValueError("nesterov momentum must be in (0, 1)")

    def step(self, global_state: StateDict, pseudo_grad: StateDict) -> StateDict:
        if self._velocity is None:
            self._velocity = tree_zeros_like(pseudo_grad)
        out: StateDict = {}
        for k in global_state:
            self._velocity[k] = self.momentum * self._velocity[k] + pseudo_grad[k]
            step_dir = pseudo_grad[k] + self.momentum * self._velocity[k]
            out[k] = global_state[k] - self.lr * step_dir
        return out


#: The ηs sweep of Figure 8.
DILOCO_SERVER_LRS = (0.1, 0.3, 0.5, 0.7)


def diloco(fed: FedConfig, server_lr: float = 0.1) -> FedConfig:
    """DiLoCo (Douillard et al. [9]) as a federation: ``fed`` with
    :class:`NesterovOuter` at ``server_lr`` (momentum 0.9) as the outer
    optimizer and stateful clients, which keep their inner AdamW
    moments across rounds.  Photon differs only in these three values:
    FedAvg at server lr 1.0 and stateless clients."""
    return replace(fed, server_opt="nesterov", server_lr=server_lr,
                   stateless_clients=False)


def make_server_opt(name: str, lr: float = 1.0, momentum: float = 0.0) -> ServerOpt:
    """Factory keyed by the ``FedConfig.server_opt`` string (which
    ``FedConfig`` checks by calling this)."""
    name = str(name).lower()
    if name == "fedavg":
        return FedAvg(lr=lr)
    if name in ("fedmom", "fedavgm"):
        return FedMom(lr=lr, momentum=momentum or 0.9)
    if name == "fedadam":
        return FedAdam(lr=lr)
    if name in ("nesterov", "diloco"):
        return NesterovOuter(lr=lr, momentum=momentum or 0.9)
    raise KeyError(f"unknown server optimizer {name!r}; available: fedavg, "
                   "fedmom (fedavgm), fedadam, nesterov (diloco)")
