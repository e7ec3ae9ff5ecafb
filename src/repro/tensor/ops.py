"""Fused operations for the transformer hot path.

Each function here has a hand-derived backward pass instead of being a
composition of primitive ops.  This keeps the autograd graph shallow
(important: our models run thousands of steps per experiment) and keeps
all the arithmetic inside vectorized NumPy kernels.

:func:`linear` and :func:`causal_attention` are rank-polymorphic: the
per-model work is always the same BLAS call on the same shapes, and an
optional leading model axis only adds an outer loop over it.  The
sequential plane (``nn/``) and the stacked plane (``fed/batched.py``)
therefore call the *same* kernels, which is what makes K stacked
clients bit-identical to K sequential ones; :func:`batched_embedding`
and :func:`batched_cross_entropy` keep that property slice by slice.
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


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -100) -> Tensor:
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
    """
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy received no valid targets")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z

    rows = np.arange(flat_targets.shape[0])
    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[rows, safe_targets]
    loss = -(picked * valid).sum() / n_valid

    def backward(grad):
        # grad is a scalar; softmax-minus-onehot, averaged over tokens.
        soft = np.exp(log_probs)
        soft[rows, safe_targets] -= 1.0
        soft *= (valid / n_valid)[:, None]
        return ((grad * soft).reshape(logits.shape).astype(np.float32),)

    return Tensor._make(np.asarray(loss, dtype=np.float32), (logits,), backward)


def batched_cross_entropy(logits: Tensor, targets: np.ndarray,
                          ignore_index: int = -100) -> Tensor:
    """Per-model mean cross entropy for ``K`` stacked models.

    The leading axis of ``logits`` indexes independent models (the
    batched client plane stacks K clients' graphs); the result is a
    ``(K,)`` tensor of per-model mean losses.  Each slice computes
    exactly what :func:`cross_entropy` computes for that model alone —
    summing the ``(K,)`` vector and calling ``backward()`` seeds every
    model's loss with gradient 1.0, so the stacked backward pass is
    the K sequential backward passes run at once, with no gradient
    flow between models.

    Parameters
    ----------
    logits:
        Float tensor of shape ``(K, ..., vocab)``.
    targets:
        Integer array of shape ``(K, ...)`` matching the leading axes.
    """
    targets = np.asarray(targets)
    k = logits.shape[0]
    vocab = logits.shape[-1]
    flat_logits = logits.data.reshape(k, -1, vocab)
    flat_targets = targets.reshape(k, -1)
    valid = flat_targets != ignore_index
    n_valid = valid.sum(axis=1)
    if np.any(n_valid == 0):
        raise ValueError("batched_cross_entropy received a model with no "
                         "valid targets")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z

    models = np.arange(k)[:, None]
    rows = np.arange(flat_targets.shape[1])[None, :]
    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[models, rows, safe_targets]
    # Per-row reduction over the same contiguous token axis the scalar
    # op reduces, divided by a float32 count exactly like the scalar
    # op's weak-scalar division.
    loss = -(picked * valid).sum(axis=1) / n_valid.astype(np.float32)

    def backward(grad):
        soft = np.exp(log_probs)
        soft[models, rows, safe_targets] -= 1.0
        soft *= (valid / n_valid[:, None])[:, :, None]
        out = grad.reshape(k, 1, 1) * soft
        return (out.reshape(logits.shape).astype(np.float32),)

    return Tensor._make(loss.astype(np.float32), (logits,), backward)


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


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Lookup rows of ``weight`` at integer ``indices``."""
    indices = np.asarray(indices)
    out_data = weight.data[indices]
    vocab, dim = weight.shape

    def backward(grad):
        # Negative indices wrap, as they do in the lookup.
        return (_scatter_rows(indices.reshape(-1) % vocab,
                              grad.reshape(-1, dim), vocab),)

    return Tensor._make(out_data, (weight,), backward)


def batched_embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Per-model row lookup for ``K`` stacked embedding tables.

    ``weight`` has shape ``(K, vocab, dim)`` — one table per stacked
    model — and ``indices`` has shape ``(K, ...)``; model ``k`` gathers
    only from table ``k``, so gradients never mix between models.  The
    backward offsets each model's indices into its own key range and
    runs the scalar :func:`embedding`'s segment reduction once, so every
    row's sum is the one that model would compute alone.
    """
    indices = np.asarray(indices)
    k, vocab, dim = weight.shape
    model_idx = np.arange(k).reshape((k,) + (1,) * (indices.ndim - 1))
    out_data = weight.data[model_idx, indices]

    def backward(grad):
        keys = (indices % vocab + model_idx * vocab).reshape(-1)
        full = _scatter_rows(keys, grad.reshape(-1, dim), k * vocab)
        return (full.reshape(weight.shape),)

    return Tensor._make(out_data, (weight,), backward)


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
