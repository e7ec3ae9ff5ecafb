"""Batched client stepping: K stacked clients, one fused graph.

The pure-numpy autograd makes per-client local training python-bound —
a thread pool buys nothing under the GIL (ROADMAP item 2).  This
module removes the per-client python overhead instead of hiding it:
the weights of K shape-homogeneous clients are stacked along a new
leading model axis and a **single** forward/backward/AdamW step
advances all K at once, so every numpy kernel runs over K clients'
worth of data per python op.

Equivalence with the sequential path is by construction, not by luck:
both planes call the same kernels.

* the stacked forward calls the fused ops of :mod:`repro.tensor.ops`
  that ``nn/`` calls — :func:`~repro.tensor.ops.linear` and
  :func:`~repro.tensor.ops.causal_attention` take the model axis as an
  outer loop around the *same* per-model GEMMs on the same shapes, and
  every reduction (layer-norm stats, softmax rows, loss sums, bias
  gradients) reduces the same contiguous axes in the same order slice
  by slice;
* :func:`~repro.tensor.ops.batched_cross_entropy` returns per-client
  losses, so ``loss.sum().backward()`` seeds every client's graph
  with gradient 1.0 exactly like K independent ``backward()`` calls
  — gradients cannot flow between clients;
* the stacked AdamW and the global-norm clip run the scalar path's
  kernels (:func:`~repro.optim.optimizers.adamw_update`,
  :func:`~repro.optim.clip.clip_grads`), with per-client learning rates
  and clip scales applied as float32 broadcasts (multiplying an
  unclipped client's gradients by exactly 1.0 is a bitwise identity).

The result is bit-exact against client-by-client training on the same
BLAS (property-tested in ``tests/test_local_plane.py``), so the
engines can route any shape-homogeneous wave through
:func:`train_clients_batched` without perturbing the async==sync and
determinism anchors.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import ModelConfig
from ..nn.attention import _alibi_bias, _causal_bias
from ..optim.clip import clip_grads
from ..optim.optimizers import adamw_update
from ..tensor import Parameter, Tensor, ops
from ..utils.serialization import StateDict, tree_sub
from .client import LLMClient
from .postprocess import Identity
from .types import ClientUpdate, RoundInfo

__all__ = [
    "batch_eligible",
    "batch_group_key",
    "train_clients_batched",
]


def batch_eligible(client: LLMClient) -> bool:
    """Whether a client can join a stacked training group.

    The batched graph replicates the single-node, stateless, plain-SGD
    -shaped local recipe; anything that makes a client's step sequence
    diverge from that shape (multi-stream sub-federation, silo
    execution plans, retained optimizer momenta, proximal anchoring,
    delta post-processing, dropout RNG) falls back to the sequential
    path inside the same wave.
    """
    return (
        client.silo is None
        and len(client.streams) == 1
        and client.stateless
        and client.proximal_mu == 0.0
        and type(client.post_process) is Identity
        and client.model_config.dropout == 0.0
    )


def batch_group_key(client: LLMClient, round_info: RoundInfo):
    """Stacking key: clients in one group share every *shape* and every
    *shared scalar* of the fused step.  Learning rates may differ per
    client (async waves mix pulled versions), so the schedule is not
    part of the key — it is evaluated per client each step."""
    stream = client.streams[0]
    optim = client.optim_config
    return (
        id(client.model_config),
        round_info.local_steps,
        stream.batch_size,
        stream.seq_len,
        optim.betas,
        optim.eps,
        optim.weight_decay,
        optim.grad_clip,
    )


# ----------------------------------------------------------------------
# Stacked model
# ----------------------------------------------------------------------

class _BatchedDecoderLM:
    """K stacked :class:`~repro.nn.DecoderLM` workspaces sharing one
    autograd graph: every parameter gains a leading model axis and the
    forward calls the same fused ops as the sequential model."""

    def __init__(self, config: ModelConfig, states: list[StateDict]):
        self.config = config
        self.k = len(states)
        self._shapes = {name: np.shape(value) for name, value in states[0].items()}
        self.params: dict[str, Parameter] = {}
        for name in self._shapes:
            stacked = np.stack([np.asarray(s[name], dtype=np.float32)
                                for s in states])
            if name.endswith((".gamma", ".beta")):
                # layer_norm broadcasts its affine against (K, B, T, d).
                stacked = stacked[:, None, None, :]
            self.params[name] = Parameter(stacked)
        self.param_list = list(self.params.values())
        self._bias_full = (_alibi_bias(config.n_heads, config.seq_len)
                           if config.alibi else _causal_bias(config.seq_len))
        self._scale = 1.0 / math.sqrt(config.head_dim)

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.param_list:
            p.grad = None

    def _linear(self, x: Tensor, prefix: str) -> Tensor:
        return ops.linear(x, self.params[prefix + ".weight"],
                          self.params.get(prefix + ".bias"))

    def _layer_norm(self, x: Tensor, prefix: str) -> Tensor:
        return ops.layer_norm(x, self.params[prefix + ".gamma"],
                              self.params[prefix + ".beta"], eps=1e-5)

    def _attention(self, x: Tensor, prefix: str) -> Tensor:
        seq_len = x.shape[-2]
        context = ops.causal_attention(
            self._linear(x, prefix + ".qkv"), self.config.n_heads,
            self._bias_full[:, :seq_len, :seq_len], self._scale)
        return self._linear(context, prefix + ".proj")

    def loss(self, tokens: np.ndarray, targets: np.ndarray) -> Tensor:
        """Per-client mean cross entropy, shape ``(K,)``.

        ``tokens``/``targets`` are ``(K, B, T)`` integer stacks."""
        x = ops.batched_embedding(self.params["tok_emb.weight"], tokens)
        for i in range(self.config.n_blocks):
            prefix = f"blocks.block{i}."
            x = x + self._attention(self._layer_norm(x, prefix + "ln1"),
                                    prefix + "attn")
            h = self._linear(self._layer_norm(x, prefix + "ln2"),
                             prefix + "mlp.up").gelu()
            x = x + self._linear(h, prefix + "mlp.down")
        x = self._layer_norm(x, "ln_f")
        head = self.params.get("lm_head_weight")
        if head is None:
            head = self.params["tok_emb.weight"]
        vocab, dim = head.shape[1], head.shape[2]
        logits = x @ head.transpose(0, 2, 1).reshape(self.k, 1, dim, vocab)
        return ops.batched_cross_entropy(logits, targets)

    # ------------------------------------------------------------------
    def unstack(self) -> list[StateDict]:
        """Per-client state dicts (fresh copies, original shapes)."""
        return [
            {name: self.params[name].data[j].reshape(shape).copy()
             for name, shape in self._shapes.items()}
            for j in range(self.k)
        ]


class _BatchedAdamW:
    """AdamW over stacked parameters with a per-client learning rate:
    :func:`~repro.optim.optimizers.adamw_update` with each client's
    ``lr`` broadcast along the model axis."""

    def __init__(self, params: list[Parameter], betas: tuple[float, float],
                 eps: float, weight_decay: float):
        self.params = params
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, lrs: np.ndarray) -> None:
        """One fused step; ``lrs`` is the ``(K,)`` float64 per-client
        learning-rate vector for this step."""
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        lr = lrs.astype(np.float32)
        lr_decay = ((lrs * self.weight_decay).astype(np.float32)
                    if self.weight_decay else None)
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            shape = (-1,) + (1,) * (p.data.ndim - 1)
            adamw_update(p.data, p.grad, m, v, lr.reshape(shape),
                         None if lr_decay is None else lr_decay.reshape(shape),
                         self.beta1, self.beta2, self.eps, bias1, bias2)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def train_clients_batched(clients: list[LLMClient],
                          global_states: list[StateDict],
                          round_infos: list[RoundInfo]) -> list[ClientUpdate]:
    """Train K stacked clients in one fused graph.

    Replicates :meth:`LLMClient.train` for every client — per-client
    data streams advance through their own RNG exactly as the
    sequential loop would, metrics and participation counters are
    updated identically, and the returned deltas are bit-exact against
    client-by-client training.  Callers must pre-filter with
    :func:`batch_eligible` and group with :func:`batch_group_key`;
    per-client global states may differ (async waves stack clients
    that pulled different versions).
    """
    k = len(clients)
    if not (k == len(global_states) == len(round_infos)):
        raise ValueError("clients, states and round infos must align")
    optim = clients[0].optim_config
    local_steps = round_infos[0].local_steps
    model = _BatchedDecoderLM(clients[0].model_config, global_states)
    optimizer = _BatchedAdamW(model.param_list, betas=optim.betas,
                              eps=optim.eps,
                              weight_decay=optim.weight_decay)

    losses = np.empty((k, local_steps), dtype=np.float64)
    tokens = [0] * k
    lrs = np.empty(k, dtype=np.float64)
    for i in range(local_steps):
        xs, ys = [], []
        for j, client in enumerate(clients):
            lrs[j] = client.schedule(round_infos[j].global_step_base + i)
            x, y = client.streams[0].next_batch()
            tokens[j] += x.size
            xs.append(x)
            ys.append(y)
        model.zero_grad()
        loss = model.loss(np.stack(xs), np.stack(ys))
        loss.sum().backward()
        clip_grads([p.grad for p in model.param_list if p.grad is not None],
                   optim.grad_clip, k)
        optimizer.step(lrs)
        losses[:, i] = [float(v) for v in loss.data]

    local_states = model.unstack()
    updates: list[ClientUpdate] = []
    for j, client in enumerate(clients):
        delta = tree_sub(global_states[j], local_states[j])
        delta = client.post_process(delta)
        client.tokens_processed += tokens[j]
        client.rounds_participated += 1
        metrics = {
            "train_loss_mean": float(losses[j].mean()),
            "train_loss_final": float(losses[j, -1]),
            "lr_final": float(lrs[j]),
            "local_steps": float(round_infos[j].local_steps),
        }
        updates.append(ClientUpdate(
            client_id=client.client_id,
            delta=delta,
            num_steps=round_infos[j].local_steps,
            num_tokens=tokens[j],
            metrics=metrics,
        ))
    return updates
