"""The one numeric definition of every fused primitive.

Each primitive is a module-level ``<op>_forward`` / ``<op>_backward``
pair on plain NumPy arrays — no :class:`Tensor`, no graph — computing
in the dtype it is given.  The naming convention is the table: a
forward returns its output, followed by whatever its backward needs
that the caller does not already hold; a backward takes the output
gradient first and returns the input gradients.  No backward writes
the gradient it is handed.

Training binds each pair once (``tensor/ops.py``, :meth:`Tensor.gelu`);
the incremental decoder of ``nn/inference.py`` — the one forward behind
``InferenceEngine`` and the serving engine — and ``sample_token`` call
the same forwards as they stand, so training and
serving cannot disagree on the arithmetic.  Shape conventions that are
not arithmetic (packed QKV, the model axis, broadcast affines) belong
to the bindings.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gelu_forward", "gelu_backward",
    "layer_norm_forward", "layer_norm_backward",
    "softmax_forward", "softmax_backward",
    "log_softmax_forward", "log_softmax_backward",
    "attention_bias", "attention_forward", "attention_backward",
    "linear_forward", "linear_backward",
    "embedding_forward", "embedding_backward",
    "cross_entropy_forward", "cross_entropy_backward",
]

_C = math.sqrt(2.0 / math.pi)
_A = 0.044715
_MASKED = -1e9


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


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer normalization over the last axis: ``(out, x_hat, inv_std)``
    with ``x_hat = (x − mean)·inv_std`` and ``out = x_hat·gamma + beta``.

    The reductions are ``np.add.reduce(...) / width``: ``ndarray.mean``
    is the same sum and divide behind ~5 us of Python wrapper, which at
    decode shapes (a few rows of ``d_model``) is most of the call.
    """
    width = x.shape[-1]
    x_hat = x - np.add.reduce(x, axis=-1, keepdims=True) / width
    inv_std = np.add.reduce(x_hat * x_hat, axis=-1, keepdims=True)
    inv_std /= width
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    x_hat *= inv_std
    out = x_hat * gamma
    out += beta
    return out, x_hat, inv_std


def layer_norm_backward(grad: np.ndarray, x_hat: np.ndarray, inv_std: np.ndarray,
                        gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dx, grad·x_hat)``: the second is ``gamma``'s gradient (as
    ``grad`` itself is ``beta``'s) before the caller sums it over the
    axes the affine was broadcast along."""
    width = grad.shape[-1]
    dxhat = grad * gamma
    dx = dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / width
    dxhat *= x_hat
    dx -= x_hat * (np.add.reduce(dxhat, axis=-1, keepdims=True) / width)
    dx *= inv_std
    return dx, grad * x_hat


def softmax_forward(x: np.ndarray, axis: int = -1,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (``out=x`` runs it in
    place)."""
    out = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=axis, keepdims=True)
    return out


def softmax_backward(grad: np.ndarray, s: np.ndarray, axis: int = -1,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``s · (grad − Σ grad·s)`` from the forward's output ``s``
    (``out=grad`` only for a ``grad`` the caller owns)."""
    dot = np.add.reduce(grad * s, axis=axis, keepdims=True)
    out = np.subtract(grad, dot, out=out)
    out *= s
    return out


def log_softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``x − max − log Σ exp(x − max)`` along ``axis``."""
    out = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    out -= np.log(np.add.reduce(np.exp(out), axis=axis, keepdims=True))
    return out


def log_softmax_backward(grad: np.ndarray, log_s: np.ndarray,
                         axis: int = -1) -> np.ndarray:
    """``grad − softmax · Σ grad`` from the forward's output."""
    return grad - np.exp(log_s) * np.add.reduce(grad, axis=axis, keepdims=True)


def attention_bias(slopes: np.ndarray, q_pos: np.ndarray,
                   k_pos: np.ndarray) -> np.ndarray:
    """Causal mask plus ALiBi, ``(..., heads, t_q, t_k)``: ``slope·(k − q)``
    for a key at or before its query, ``-1e9`` for a later one.

    ``slopes`` is ``(heads, 1, 1)`` — a zero slope is no ALiBi, the
    causal mask alone; ``q_pos`` ``(..., t_q)`` and ``k_pos`` ``(t_k,)``
    are integer positions.
    """
    relative = k_pos - q_pos[..., None, :, None]
    return np.where(relative > 0, _MASKED, slopes * relative).astype(slopes.dtype)


def attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      bias: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """``softmax(q·kᵀ·scale + bias)·v`` for queries ``(..., t_q, hd)``
    over a key/value run ``(..., t_k, hd)``: ``(context, weights)``.

    ``bias`` carries every mask (causal, ALiBi, padding) and must
    broadcast against the ``(..., t_q, t_k)`` scores.
    """
    weights = q @ k.swapaxes(-1, -2)
    weights *= scale
    weights += bias
    softmax_forward(weights, out=weights)
    return weights @ v, weights


def attention_backward(grad: np.ndarray, q: np.ndarray, k: np.ndarray,
                       v: np.ndarray, weights: np.ndarray,
                       scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gq, gk, gv)`` from the context gradient."""
    gs = grad @ v.swapaxes(-1, -2)
    softmax_backward(gs, weights, out=gs)
    gs *= scale
    return gs @ k, gs.swapaxes(-1, -2) @ q, weights.swapaxes(-1, -2) @ grad


def _rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x`` with every axis between ``w``'s leading (model) axes and
    the feature axis folded into one row axis."""
    return x.reshape(w.shape[:-2] + (-1, w.shape[-2]))


def linear_forward(x: np.ndarray, w: np.ndarray,
                   b: np.ndarray | None = None) -> np.ndarray:
    """``x @ w + b`` for ``w`` ``(in, out)``, or ``(K, in, out)`` with a
    leading model axis that ``x`` ``(K, ..., in)`` and ``b`` ``(K, out)``
    then share: one GEMM per model over the folded rows."""
    out = _rows(x, w) @ w
    if b is not None:
        out += b[..., None, :]
    return out.reshape(x.shape[:-1] + w.shape[-1:])


def linear_backward(grad: np.ndarray, x: np.ndarray,
                    w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gx, gw, gb)``: one GEMM each for the input and the weight (no
    per-batch-row loop, no broadcast weight gradient summed afterwards)
    and one row sum for the bias."""
    rows = _rows(x, w)
    grad = grad.reshape(rows.shape[:-1] + w.shape[-1:])
    gx = (grad @ np.swapaxes(w, -1, -2)).reshape(x.shape)
    return gx, np.swapaxes(rows, -1, -2) @ grad, np.add.reduce(grad, axis=-2)


def embedding_forward(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Rows ``keys`` (any shape, each in ``[0, n_keys)``) of a
    ``(n_keys, dim)`` table."""
    return table[keys]


def embedding_backward(grad: np.ndarray, keys: np.ndarray, n_keys: int) -> np.ndarray:
    """``out[key] += row`` over the lookup's ``(key, row)`` pairs, as a
    sorted-segment reduction: a stable argsort groups equal keys in
    order of occurrence and ``np.add.reduceat`` sums each run.  A run's
    sum depends only on the run, so stacked models (keys offset per
    model) reduce exactly as each would alone."""
    rows = grad.reshape(-1, grad.shape[-1])
    out = np.zeros((n_keys, rows.shape[-1]), dtype=rows.dtype)
    if keys.size == 0:
        return out
    keys = keys.reshape(-1)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    out[keys[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def cross_entropy_forward(logits: np.ndarray, targets: np.ndarray,
                          ignore_index: int = -100) -> tuple:
    """Mean token cross entropy of ``n`` models, ``logits``
    ``(n, rows, vocab)`` against ``targets`` ``(n, rows)``:
    ``(loss (n,), log_probs, picks, weight)``.

    Every reduction runs over one model's contiguous token axis, so a
    slice of the stacked result is what that model computes alone, bit
    for bit.  ``weight`` is each token's share of its model's mean
    (zero where ``targets == ignore_index``), ``picks`` the index of
    each target's log-probability.
    """
    valid = targets != ignore_index
    n_valid = np.add.reduce(valid, axis=1)
    if not n_valid.all():
        raise ValueError("cross_entropy received no valid targets")
    log_probs = log_softmax_forward(logits)
    n, rows = targets.shape
    picks = (np.arange(n)[:, None], np.arange(rows), np.where(valid, targets, 0))
    # A float count divides exactly like a weak python-int one.
    loss = -np.add.reduce(log_probs[picks] * valid, axis=1) / n_valid.astype(logits.dtype)
    return loss, log_probs, picks, valid / n_valid[:, None]


def cross_entropy_backward(grad: np.ndarray, log_probs: np.ndarray, picks: tuple,
                           weight: np.ndarray) -> np.ndarray:
    """Softmax minus one-hot, times each token's weight and its model's
    seed ``grad`` ``(n,)``; models never mix."""
    soft = np.exp(log_probs)
    soft[picks] -= 1.0
    soft *= weight[:, :, None]
    soft *= grad[:, None, None]
    return soft
