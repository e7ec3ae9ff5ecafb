"""Autograd bindings of the fused transformer ops.

Every op here is one graph node over a hand-derived forward/backward
pair of :mod:`repro.tensor.kernels` — the single numeric definition,
which inference calls as it stands — instead of a composition of
primitive ops: the graph stays shallow (our models run thousands of
steps per experiment) and the arithmetic stays inside vectorized NumPy
kernels.  A binding unpacks ``.data``, calls the forward and hands
:meth:`Tensor._make` a closure over the *named* backward; what is a
shape convention rather than arithmetic (the packed QKV split/merge,
``unbroadcast`` of broadcast affines, the model axis ``k``) lives
here.  Bindings call kernels, never each other, so no perf-ledger span
nests inside another.  (:func:`dropout` is the exception: one mask,
no kernel.)

:func:`linear`, :func:`causal_attention`, :func:`embedding` and
:func:`cross_entropy` are rank-polymorphic: the per-model work is the
same kernel on the same shapes, and an optional leading model axis
only adds an outer loop over it (or, for the lookup and the loss, a
per-model index).  There is one training decoder,
:class:`repro.nn.DecoderLM`; the stacked plane (``fed/batched.py``) is
that decoder over parameters that carry the model axis, so K stacked
clients call the *same* kernels as K sequential ones and come out
bit-identical.  ``batched_embedding`` / ``batched_cross_entropy`` are
second entry points to the same two bindings, kept for the perf
ledger's span table and the tests that call them by name.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .autograd import Tensor, unbroadcast

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "batched_cross_entropy",
    "layer_norm",
    "embedding",
    "batched_embedding",
    "dropout",
    "linear",
    "causal_attention",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    out = kernels.softmax_forward(x.data, axis)

    def backward(grad):
        return (kernels.softmax_backward(grad, out, axis),)

    return Tensor._make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    out = kernels.log_softmax_forward(x.data, axis)

    def backward(grad):
        return (kernels.log_softmax_backward(grad, out, axis),)

    return Tensor._make(out, (x,), backward)


def _cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int,
                   k: int | None) -> Tensor:
    """Mean token-level cross entropy of ``k`` stacked models, ``(k,)``;
    ``k=None`` is one model with no model axis and a scalar loss."""
    n = 1 if k is None else k
    loss, *saved = kernels.cross_entropy_forward(
        logits.data.reshape(n, -1, logits.shape[-1]),
        np.asarray(targets).reshape(n, -1), ignore_index)

    def backward(grad):
        # One seed per model.
        out = kernels.cross_entropy_backward(grad.reshape(n), *saved)
        return (out.reshape(logits.shape),)

    return Tensor._make(loss.reshape(() if k is None else (k,)), (logits,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -100,
                  k: int | None = None) -> Tensor:
    """Mean token-level cross entropy for causal language modelling.

    Parameters
    ----------
    logits:
        Float tensor of shape ``(..., vocab)``; leading axes are
        flattened internally (e.g. ``(batch, seq, vocab)``).
    targets:
        Integer array broadcastable to the leading axes of ``logits``.
    ignore_index:
        Target value to exclude from the loss (used for padding).
    k:
        Number of independent models stacked on the leading axis of
        ``logits`` and ``targets``; the result is then the ``(k,)``
        vector of per-model means instead of one scalar.
    """
    return _cross_entropy(logits, targets, ignore_index, k)


def batched_cross_entropy(logits: Tensor, targets: np.ndarray,
                          ignore_index: int = -100) -> Tensor:
    """:func:`cross_entropy` with ``k = logits.shape[0]``: per-model
    means of ``(K, ..., vocab)`` logits against ``(K, ...)`` targets.

    Summing the ``(K,)`` result and calling ``backward()`` seeds every
    model's loss with gradient 1.0 — the K sequential backward passes
    run at once.  (A separate entry point, not a call of
    :func:`cross_entropy`: the perf ledger wraps both names in one
    span and would count a nested call twice.)
    """
    return _cross_entropy(logits, targets, ignore_index, logits.shape[0])


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    out, x_hat, inv_std = kernels.layer_norm_forward(x.data, gamma.data, beta.data, eps)

    def backward(grad):
        dx, dgamma = kernels.layer_norm_backward(grad, x_hat, inv_std, gamma.data)
        return (dx, unbroadcast(dgamma, gamma.shape), unbroadcast(grad, beta.shape))

    return Tensor._make(out, (x, gamma, beta), backward)


def _embedding(weight: Tensor, indices: np.ndarray, k: int | None) -> Tensor:
    """Row lookup in ``k`` stacked ``(vocab, dim)`` tables, model ``j``
    of ``indices`` ``(k, ...)`` reading table ``j`` only; ``k=None`` is
    one table with no model axis."""
    vocab, dim = weight.shape[-2:]
    keys = np.asarray(indices) % vocab  # negative indices wrap, as in a lookup
    if k is not None:
        # Each model's keys are offset into its own rows of the flat table.
        keys = keys + vocab * np.arange(k).reshape((k,) + (1,) * (keys.ndim - 1))
    table = weight.data.reshape(-1, dim)

    def backward(grad):
        full = kernels.embedding_backward(grad, keys, len(table))
        return (full.reshape(weight.shape),)

    return Tensor._make(kernels.embedding_forward(table, keys), (weight,), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Lookup rows of ``weight`` at integer ``indices``.

    ``weight`` is ``(vocab, dim)``, or ``(K, vocab, dim)`` with a
    leading model axis that ``indices`` ``(K, ...)`` then shares.
    """
    return _embedding(weight, indices,
                      weight.shape[0] if weight.ndim == 3 else None)


def batched_embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """:func:`embedding` of ``K`` stacked tables ``(K, vocab, dim)``
    under its own name (a separate entry point for the same reason as
    :func:`batched_cross_entropy`)."""
    k, _, _ = weight.shape
    return _embedding(weight, indices, k)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    out_data = x.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(out_data, (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``x @ w + b`` as one node.

    ``w`` is ``(in, out)``, or ``(K, in, out)`` with a leading model
    axis that ``x`` ``(K, ..., in)`` and ``b`` ``(K, out)`` then share.
    """
    x_data, w_data = x.data, w.data
    parents = (x, w) if b is None else (x, w, b)

    def backward(grad):
        return kernels.linear_backward(grad, x_data, w_data)[:len(parents)]

    return Tensor._make(
        kernels.linear_forward(x_data, w_data, None if b is None else b.data),
        parents, backward)


def causal_attention(qkv: Tensor, n_heads: int, bias: np.ndarray,
                     scale: float) -> Tensor:
    """Multi-head attention over packed projections, as one node.

    ``qkv`` is ``(..., T, 3·D)`` — the fused query/key/value projection,
    every leading axis (batch, or model and batch) a batch axis.
    ``bias`` is added to the scaled scores and carries the causal mask
    (plus ALiBi); it must broadcast against ``(n_heads, T, T)``.
    Returns the ``(..., T, D)`` context, heads re-merged.
    """
    data = qkv.data
    lead, (seq, width) = data.shape[:-2], data.shape[-2:]
    d_model = width // 3
    head_dim = d_model // n_heads
    n = len(lead)
    heads = lead + (seq, n_heads, head_dim)
    packed = lead + (seq, 3, n_heads, head_dim)
    # (..., T, 3, H, hd) -> (3, ..., H, T, hd): q, k, v are views.
    perm = (n + 1, *range(n), n + 2, n, n + 3)
    q, k, v = data.reshape(packed).transpose(perm)
    context, weights = kernels.attention_forward(q, k, v, bias, scale)

    def backward(grad):
        gqkv = np.empty(packed, dtype=data.dtype)
        gq, gk, gv = gqkv.transpose(perm)
        gq[...], gk[...], gv[...] = kernels.attention_backward(
            grad.reshape(heads).swapaxes(-2, -3), q, k, v, weights, scale)
        return (gqkv.reshape(data.shape),)

    # (..., H, T, hd) -> (..., T, H·hd)
    return Tensor._make(context.swapaxes(-2, -3).reshape(lead + (seq, d_model)),
                        (qkv,), backward)
