"""Fused operations for the transformer hot path.

Each function here has a hand-derived backward pass instead of being a
composition of primitive ops.  This keeps the autograd graph shallow
(important: our models run thousands of steps per experiment) and keeps
all the arithmetic inside vectorized NumPy kernels.

:func:`linear`, :func:`causal_attention`, :func:`embedding` and
:func:`cross_entropy` are rank-polymorphic: the per-model work is the
same kernel on the same shapes, and an optional leading model axis
only adds an outer loop over it (or, for the lookup and the loss, a
per-model index).  There is one training decoder,
:class:`repro.nn.DecoderLM`; the stacked plane (``fed/batched.py``) is
that decoder over parameters that carry the model axis, so K stacked
clients call the *same* kernels as K sequential ones and come out
bit-identical.  ``batched_embedding`` / ``batched_cross_entropy`` are
second entry points to the same two bodies, kept for the perf
ledger's span table and the tests that call them by name.
"""

from __future__ import annotations

import numpy as np

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
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        # dL/dx = s * (g - sum(g * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor._make(out_data.astype(np.float32), (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data.astype(np.float32), (x,), backward)


def _cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int,
                   k: int | None) -> Tensor:
    """Mean token-level cross entropy of ``k`` stacked models, ``(k,)``;
    ``k=None`` is one model with no model axis and a scalar loss.

    Every reduction runs over one model's contiguous token axis, so a
    slice of the stacked result is what that model computes alone, bit
    for bit, and its backward never mixes models.
    """
    targets = np.asarray(targets)
    n = 1 if k is None else k
    vocab = logits.shape[-1]
    flat_logits = logits.data.reshape(n, -1, vocab)
    flat_targets = targets.reshape(n, -1)
    valid = flat_targets != ignore_index
    n_valid = valid.sum(axis=1)
    if not n_valid.all():
        raise ValueError("cross_entropy received no valid targets")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z

    models = np.arange(n)[:, None]
    rows = np.arange(flat_targets.shape[1])[None, :]
    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[models, rows, safe_targets]
    # A float32 count divides exactly like a weak python-int one.
    loss = -(picked * valid).sum(axis=1) / n_valid.astype(np.float32)

    def backward(grad):
        # One seed per model; softmax-minus-onehot, averaged over tokens.
        soft = np.exp(log_probs)
        soft[models, rows, safe_targets] -= 1.0
        soft *= (valid / n_valid[:, None])[:, :, None]
        out = grad.reshape(n, 1, 1) * soft
        return (out.reshape(logits.shape).astype(np.float32),)

    return Tensor._make(loss.astype(np.float32).reshape(() if k is None else (k,)),
                        (logits,), backward)


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
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out_data = x_hat * gamma.data + beta.data

    def backward(grad):
        dg = unbroadcast(grad * x_hat, gamma.shape)
        db = unbroadcast(grad, beta.shape)
        dxhat = grad * gamma.data
        # Standard layer-norm backward identity.
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - x_hat * (dxhat * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std
        return (dx.astype(np.float32), dg.astype(np.float32), db.astype(np.float32))

    return Tensor._make(out_data.astype(np.float32), (x, gamma, beta), backward)


def _scatter_rows(keys: np.ndarray, rows: np.ndarray, n_keys: int) -> np.ndarray:
    """``out[key] += row`` over ``(key, row)`` pairs with keys in
    ``[0, n_keys)``, as a sorted-segment reduction: a stable argsort
    groups equal keys in order of occurrence and ``np.add.reduceat``
    sums each run.  A run's sum depends only on the run, so stacked
    models (keys offset per model) reduce exactly as each would alone."""
    out = np.zeros((n_keys, rows.shape[-1]), dtype=np.float32)
    if keys.size == 0:
        return out
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    out[keys[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def _embedding(weight: Tensor, indices: np.ndarray, k: int | None) -> Tensor:
    """Row lookup in ``k`` stacked ``(vocab, dim)`` tables, model ``j``
    of ``indices`` ``(k, ...)`` reading table ``j`` only; ``k=None`` is
    one table with no model axis."""
    indices = np.asarray(indices)
    vocab, dim = weight.shape[-2:]
    if k is None:
        models, lookup = 0, indices
    else:
        models = np.arange(k).reshape((k,) + (1,) * (indices.ndim - 1))
        lookup = (models, indices)
    out_data = weight.data[lookup]

    def backward(grad):
        # Negative indices wrap, as they do in the lookup; each model's
        # keys are offset into its own range, so one segment reduction
        # sums every row exactly as that model would alone.
        keys = (indices % vocab + models * vocab).reshape(-1)
        full = _scatter_rows(keys, grad.reshape(-1, dim), weight.size // dim)
        return (full.reshape(weight.shape),)

    return Tensor._make(out_data, (weight,), backward)


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
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
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
    Every other axis of ``x`` is folded into one row dimension, so the
    forward, the input gradient and the weight gradient are each a
    single GEMM per model (no per-batch-row GEMM loop, no broadcast
    weight gradient summed afterwards) and the bias gradient is one
    row sum.
    """
    x_data, w_data = x.data, w.data
    rows = x_data.reshape(w_data.shape[:-2] + (-1, w_data.shape[-2]))
    out = rows @ w_data
    if b is not None:
        out += b.data[..., None, :]

    def backward(grad):
        grad = grad.reshape(out.shape)
        gx = (grad @ np.swapaxes(w_data, -1, -2)).reshape(x_data.shape)
        gw = np.swapaxes(rows, -1, -2) @ grad
        if b is None:
            return (gx, gw)
        return (gx, gw, grad.sum(axis=-2))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._make(out.reshape(x_data.shape[:-1] + out.shape[-1:]),
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

    weights = q @ k.swapaxes(-1, -2)  # (..., H, T, T)
    weights *= scale
    weights += bias
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    context = (weights @ v).swapaxes(-2, -3)  # (..., T, H, hd)

    def backward(grad):
        grad = grad.reshape(heads).swapaxes(-2, -3)  # (..., H, T, hd)
        gqkv = np.empty(packed, dtype=np.float32)
        gq, gk, gv = gqkv.transpose(perm)
        gv[...] = weights.swapaxes(-1, -2) @ grad
        # Softmax backward s * (g - sum(g * s)), then the score scale.
        gs = grad @ v.swapaxes(-1, -2)
        gs -= (gs * weights).sum(axis=-1, keepdims=True)
        gs *= weights
        gs *= scale
        gq[...] = gs @ k
        gk[...] = gs.swapaxes(-1, -2) @ q
        return (gqkv.reshape(data.shape),)

    return Tensor._make(context.reshape(lead + (seq, d_model)), (qkv,), backward)
