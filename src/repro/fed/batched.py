"""Batched client stepping: K stacked clients, one fused graph.

The pure-numpy autograd makes per-client local training python-bound —
threads buy nothing under the GIL (ROADMAP item 8).  This
module removes the per-client python overhead instead of hiding it:
the weights of K shape-homogeneous clients are stacked along a new
leading model axis of **one** :class:`~repro.nn.DecoderLM` workspace
and a single forward/backward/AdamW step advances all K at once, so
every numpy kernel runs over K clients' worth of data per python op.

There is no second decoder and no second optimizer here: the stacked
workspace is the model and the :class:`~repro.optim.AdamW` every
client trains with, and this module holds only eligibility, grouping
and the driver that stacks, steps and unstacks.  Equivalence with the
sequential path is therefore by construction:

* the fused ops of :mod:`repro.tensor.ops` take the model axis as an
  outer loop around the *same* per-model GEMMs on the same shapes, and
  every reduction (layer-norm stats, softmax rows, loss sums, bias
  gradients) reduces the same contiguous axes in the same order slice
  by slice;
* the loss of a stacked model is the ``(K,)`` vector of per-client
  means, so ``loss.sum().backward()`` seeds every client's graph with
  gradient 1.0 exactly like K independent ``backward()`` calls —
  gradients cannot flow between clients;
* AdamW takes the K learning rates as a vector and the global-norm
  clip (:func:`~repro.optim.clip.clip_grad_norm`) takes K as an argument;
  both apply per-client values as float32 broadcasts (multiplying an
  unclipped client's gradients by exactly 1.0 is a bitwise identity).

The result is bit-exact against client-by-client training on the same
BLAS (property-tested in ``tests/test_local_plane.py``), so the
engines can route any shape-homogeneous wave through
:func:`train_clients_batched` without perturbing the async==sync and
determinism anchors.
"""

from __future__ import annotations

import numpy as np

from ..nn import DecoderLM
from ..optim import AdamW
from ..optim.clip import clip_grad_norm
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
        client.model_config,
        round_info.local_steps,
        stream.batch_size,
        stream.seq_len,
        optim.betas,
        optim.eps,
        optim.weight_decay,
        optim.grad_clip,
    )


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
    model = DecoderLM(clients[0].model_config)
    params = dict(model.named_parameters())
    for name, param in params.items():
        stacked = np.stack([np.asarray(state[name], dtype=np.float32)
                            for state in global_states])
        if name.endswith((".gamma", ".beta")):
            # layer_norm broadcasts its affine against (K, B, T, d).
            stacked = stacked[:, None, None, :]
        param.data = stacked
    optimizer = AdamW(model.parameters(), lr=optim.max_lr, betas=optim.betas,
                      eps=optim.eps, weight_decay=optim.weight_decay)

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
        optimizer.lr = lrs
        model.zero_grad()
        loss = model.loss(np.stack(xs), np.stack(ys))
        loss.sum().backward()
        clip_grad_norm(optimizer.params, optim.grad_clip, k)
        optimizer.step()
        losses[:, i] = loss.data

    updates: list[ClientUpdate] = []
    for j, client in enumerate(clients):
        # Views of the stacked workspace: ``tree_sub`` allocates the delta.
        local_state = {name: param.data[j].reshape(np.shape(global_states[j][name]))
                       for name, param in params.items()}
        delta = tree_sub(global_states[j], local_state)
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
