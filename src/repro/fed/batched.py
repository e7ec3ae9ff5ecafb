"""The local step loop (Algorithm 1 L.16–18), written once.

:func:`local_step` is the one step body — zero_grad → loss → backward
→ proximal pull → clip → AdamW — and :func:`run_local_steps` the one
loop around it (schedule lr → ``next_batch`` → step, τ times).  Every
single-node training path runs them:

* the sequential plane: :meth:`~repro.fed.client.LLMClient.local_update`
  steps the client's own persistent :class:`~repro.nn.DecoderLM` and
  AdamW with K = 1 (once per node for a sub-federated client; DDP and
  FSDP silos hand each step to their engine);
* the batched plane (the default): :func:`train_clients_batched`
  stacks the weights of K shape-homogeneous clients along a new
  leading model axis of **one** ``DecoderLM`` workspace, so a single
  forward/backward/AdamW step advances all K at once and every numpy
  kernel runs over K clients' worth of data per python op (threads buy
  nothing under the GIL, ROADMAP item 8);
* :class:`~repro.fed.centralized.CentralizedTrainer` and
  :func:`~repro.fed.continual.personalize` call :func:`local_step`.

At K = 1 there is no model axis: the loss is a scalar, AdamW's lr a
python float and ``clip_grad_norm(k=1)`` clips one model.  Above it,
equivalence with K separate clients is by construction:

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
  unclipped client's gradients by exactly 1.0 is a bitwise identity);
* the proximal pull ``mu · (θ − θ_global)`` is applied to the rows of
  the clients whose ``mu`` is positive and nowhere else, so a client
  with ``mu = 0`` is stepped exactly as without the term;
* retained AdamW moments (stateful, DiLoCo-style clients) are stacked
  in and unstacked out with the weights, and clients stack only with
  clients of the same retained step count (:func:`batch_group_key`),
  so bias correction is one scalar per group.

The result is bit-exact against client-by-client training on the same
BLAS (property-tested in ``tests/test_local_plane.py``), so the
engines can route any shape-homogeneous wave through
:func:`train_clients_batched` without perturbing the async==sync and
determinism anchors.  Post-processing (L.27) is not part of the loop:
the engine runs :meth:`~repro.fed.client.LLMClient.finish` on every
update in task order.

Stacking pays only while a step is dispatch-bound.  A stacked step
holds about K times one client's activations, and once those outgrow
the cache the per-op python overhead it amortizes is a sliver of the
arithmetic: on one core, shapes whose widest activation is 8–16k
float32 elements per client train ×1.2–1.6 faster stacked, 32–64k ones
read ×0.8–1.3 from run to run at K = 4, and wider ones lose.  So
:func:`stack_chunks` cuts every group into chunks of at most
:func:`stack_limit` clients — ``STACK_BUDGET`` over the widest
activation of one client's step — and a chunk of one trains solo (a
wave with nothing to stack takes the sequential plane's path).
Chunking stacks fewer clients at a time and changes no result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..nn import DecoderLM
from ..optim import AdamW
from ..optim.clip import clip_grad_norm
from ..utils.serialization import StateDict
from .types import ClientUpdate, RoundInfo

if TYPE_CHECKING:
    from ..data.stream import BatchStream
    from .client import LLMClient

__all__ = [
    "STACK_BUDGET",
    "batch_eligible",
    "batch_group_key",
    "local_step",
    "run_local_steps",
    "stack_chunks",
    "stack_limit",
    "train_clients_batched",
    "widest_activation",
]

#: Float32 elements the widest activation of one fused step may span
#: across all the clients it stacks: 384 KiB, where an elementwise
#: kernel's per-element cost still sits at its floor (it rises from
#: ~128k elements as the step's temporaries outgrow a 2 MiB L2), and
#: the smallest budget that stacks 12 clients of ``w`` = 8,192 whole
#: (``benchmarks/stack_grid.py`` measures the rule by shape).
STACK_BUDGET = 3 * 2**15


def batch_eligible(client: LLMClient) -> bool:
    """Whether a client can join a stacked training group.

    Multi-stream sub-federation, silo execution plans and dropout RNG
    make a client's step sequence diverge from one stacked step; such a
    client trains solo inside the same wave.
    """
    return (
        client.silo is None
        and len(client.streams) == 1
        and client.model_config.dropout == 0.0
    )


def _retained_steps(client: LLMClient) -> int:
    """AdamW steps behind a client's retained moments (0: none)."""
    retained = client._retained_optimizer
    return 0 if retained is None else retained.t


def batch_group_key(client: LLMClient, round_info: RoundInfo):
    """Stacking key: clients in one group share every *shape* and every
    *shared scalar* of the fused step, the retained AdamW step count
    included.  Learning rates and proximal ``mu`` may differ per client
    (async waves mix pulled versions), so neither is part of the key."""
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
        _retained_steps(client),
    )


def widest_activation(client: LLMClient) -> int:
    """Float32 elements in the widest activation of one of ``client``'s
    steps: the MLP hidden ``B·T·expansion·d``, the attention scores
    ``B·H·T²`` or the logits ``B·T·V``, whichever is largest."""
    cfg, stream = client.model_config, client.streams[0]
    b, t = stream.batch_size, stream.seq_len
    return b * t * max(cfg.expansion_ratio * cfg.d_model, cfg.n_heads * t,
                       cfg.vocab_size)


def stack_limit(client: LLMClient) -> int:
    """The most clients of ``client``'s group one fused step stacks:
    ``STACK_BUDGET // widest_activation``, at least one."""
    return max(1, STACK_BUDGET // widest_activation(client))


def stack_chunks(clients: list[LLMClient],
                 round_infos: list[RoundInfo]) -> list[list[int]]:
    """The fused steps of a wave, as lists of client indices: eligible
    clients grouped by :func:`batch_group_key` in first-seen order,
    each group cut into chunks of at most :func:`stack_limit`, and
    every ineligible client a chunk of one."""
    groups: dict = {}
    for i, (client, info) in enumerate(zip(clients, round_infos)):
        key = batch_group_key(client, info) if batch_eligible(client) else i
        groups.setdefault(key, []).append(i)
    chunks = []
    for idxs in groups.values():
        limit = stack_limit(clients[idxs[0]])
        chunks += [idxs[s:s + limit] for s in range(0, len(idxs), limit)]
    return chunks


def local_step(model: DecoderLM, optimizer: AdamW, x: np.ndarray,
               y: np.ndarray, grad_clip: float, k: int = 1,
               proximal: list | None = None) -> np.ndarray:
    """One local step of the ``k`` models on the parameters' leading
    axis (none at ``k = 1``); returns the loss data (a scalar at
    ``k = 1``, else the ``(k,)`` per-model means).  ``proximal`` is
    :func:`_proximal`'s ``(param, anchor, rows, mu)`` list."""
    model.zero_grad()
    loss = model.loss(x, y)
    (loss if k == 1 else loss.sum()).backward()
    for param, anchor, rows, mu in proximal or ():
        if param.grad is not None:
            param.grad[rows] += mu * (param.data[rows] - anchor)
    clip_grad_norm(optimizer.params, grad_clip, k)
    optimizer.step()
    return loss.data


def _on_model_axis(arrays: list[np.ndarray], name: str,
                   copy: bool = False) -> np.ndarray:
    """One parameter (or moment) of K models on a leading model axis
    (layer_norm broadcasts its affine against ``(K, B, T, d)``); at
    K = 1 there is no axis: the array itself, or a copy."""
    if len(arrays) == 1:
        return arrays[0].copy() if copy else arrays[0]
    stacked = np.stack(arrays)
    return stacked[:, None, None, :] if name.endswith((".gamma", ".beta")) else stacked


def _proximal(model: DecoderLM, clients: list[LLMClient],
              global_states: list[StateDict]) -> list | None:
    """FedProx anchors (Section 6, [51, 52]): each step adds
    ``mu · (θ − θ_global)`` to the gradient of every model with
    ``mu > 0`` — the rows that pull, or all of them in place.  At K = 1
    the anchors are the broadcast arrays themselves, never written
    (a write would corrupt the global model for every client sharing
    the buffer)."""
    mu = np.array([c.proximal_mu for c in clients], dtype=np.float32)
    if not mu.any():
        return None
    rows = np.flatnonzero(mu)
    if len(rows) == len(clients):
        rows = ...
    pulled = [global_states[j] for j in np.arange(len(clients))[rows]]
    return [(param,
             _on_model_axis([np.asarray(s[name], dtype=np.float32) for s in pulled], name),
             rows, mu[rows].reshape((-1,) + (1,) * (param.data.ndim - 1)))
            for name, param in model.named_parameters()]


def run_local_steps(model: DecoderLM, optimizer: AdamW,
                    clients: list[LLMClient], streams: list[BatchStream],
                    global_states: list[StateDict], round_infos: list[RoundInfo],
                    engine=None) -> tuple[list[dict], list[int]]:
    """τ local steps of the K = ``len(clients)`` models on ``model``
    (loaded with ``global_states``), each client reading its own
    stream at its own point of the synchronized schedule.  ``engine``
    (a DDP/FSDP engine, K = 1) takes each step instead of
    :func:`local_step`.  Returns each client's training metrics and the
    tokens it read."""
    k = len(clients)
    grad_clip = clients[0].optim_config.grad_clip
    proximal = _proximal(model, clients, global_states)
    losses = np.empty((k, round_infos[0].local_steps), dtype=np.float64)
    tokens = [0] * k
    lrs = np.empty(k, dtype=np.float64)
    for i in range(losses.shape[1]):
        lrs[:] = [c.schedule(info.global_step_base + i)
                  for c, info in zip(clients, round_infos)]
        xs, ys = zip(*(stream.next_batch() for stream in streams))
        tokens = [n + x.size for n, x in zip(tokens, xs)]
        if k == 1:
            optimizer.lr, x, y = float(lrs[0]), xs[0], ys[0]
        else:
            optimizer.lr, x, y = lrs, np.stack(xs), np.stack(ys)
        losses[:, i] = (engine.step(x, y) if engine is not None else
                        local_step(model, optimizer, x, y, grad_clip, k, proximal))
    return [{
        "train_loss_mean": float(row.mean()),
        "train_loss_final": float(row[-1]),
        "lr_final": float(lr),
        # Steps actually trained this pull — under adaptive local
        # steps slow clients report fewer than the nominal τ.
        "local_steps": float(info.local_steps),
    } for row, lr, info in zip(losses, lrs, round_infos)], tokens


def train_clients_batched(clients: list[LLMClient],
                          global_states: list[StateDict],
                          round_infos: list[RoundInfo]) -> list[ClientUpdate]:
    """Train K stacked clients in one fused graph.

    Replicates :meth:`LLMClient.local_update` for every client —
    per-client data streams advance through their own RNG exactly as
    the sequential loop would, participation counters and retained
    AdamW moments are updated identically, and the returned raw deltas
    are bit-exact against client-by-client training.  Post-processing
    is the caller's (:meth:`LLMClient.finish`, in task order).
    Callers pass one chunk of :func:`stack_chunks`; per-client global
    states may differ (async waves stack clients that pulled different
    versions).
    """
    k = len(clients)
    if not (k == len(global_states) == len(round_infos)):
        raise ValueError("clients, states and round infos must align")
    steps = {_retained_steps(c) for c in clients}
    if len(steps) > 1:
        raise ValueError("stacked clients must share their retained AdamW "
                         f"step count (batch_group_key), got {sorted(steps)}")
    optim = clients[0].optim_config
    model = DecoderLM(clients[0].model_config)
    params = dict(model.named_parameters())
    for name, param in params.items():
        param.data = _on_model_axis([np.asarray(s[name], dtype=np.float32)
                                     for s in global_states], name, copy=True)
    optimizer = AdamW(model.parameters(), lr=optim.max_lr, betas=optim.betas,
                      eps=optim.eps, weight_decay=optim.weight_decay)
    retained = [c._retained_optimizer for c in clients]
    optimizer.t = steps.pop()
    if optimizer.t:  # every client holds moments of that many steps
        for key in ("m", "v"):
            setattr(optimizer, key, [
                _on_model_axis([getattr(r, key)[i] for r in retained], name, copy=True)
                for i, name in enumerate(params)])

    metrics, tokens = run_local_steps(
        model, optimizer, clients, [c.streams[0] for c in clients],
        global_states, round_infos)

    def unstack(array: np.ndarray, j: int, name: str) -> np.ndarray:
        return (array[j] if k > 1 else array).reshape(
            np.shape(global_states[j][name]))

    updates: list[ClientUpdate] = []
    for j, client in enumerate(clients):
        if not client.stateless:
            kept = client._optimizer = client._optimizer or client._new_optimizer()
            kept.t = optimizer.t
            for key in ("m", "v"):
                setattr(kept, key, [unstack(a, j, name).copy()
                                    for a, name in zip(getattr(optimizer, key), params)])
        # Views of the stacked workspace: ``tree_sub`` allocates the delta.
        local_state = {name: unstack(param.data, j, name)
                       for name, param in params.items()}
        updates.append(client._raw_update(global_states[j], local_state,
                                          metrics[j], tokens[j], round_infos[j]))
    return updates
