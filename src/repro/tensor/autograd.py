"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the compute substrate of the reproduction: the paper
trains decoder-only transformers with PyTorch on H100s, while we train
scaled-down models on CPU.  The :class:`Tensor` class records a dynamic
computation graph and :meth:`Tensor.backward` walks it in reverse
topological order, accumulating gradients into ``Tensor.grad``.

Design notes
------------
* All data is kept as ``float32`` NumPy arrays (the paper trains in
  bfloat16; float32 is the closest dtype NumPy computes natively).
* Element-wise ops support full NumPy broadcasting; gradients are
  reduced back to operand shapes by :func:`unbroadcast`.
* Hot paths of the transformer (softmax, layer norm, cross entropy,
  embedding lookup, linear, attention, GELU) are fused ops rather than
  compositions, which keeps graphs small and the arithmetic vectorized
  per the NumPy performance guidance.  Their arithmetic is not here:
  each is a named ``<op>_forward`` / ``<op>_backward`` pair in
  :mod:`repro.tensor.kernels`, bound to the graph by ``tensor/ops.py``
  (and by :meth:`Tensor.gelu`) and called as it stands by inference.
* A module-level ``no_grad`` context disables taping for evaluation.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "unbroadcast",
    "tensor",
    "zeros",
    "ones",
    "concatenate",
    "stack",
    "where",
]

_GRAD_ENABLED: bool = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used for evaluation loops (perplexity, downstream tasks) where
    gradients are never needed, saving both memory and time.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast op.

    NumPy broadcasting may prepend axes and stretch size-1 axes; the
    adjoint of broadcasting is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == np.float32:
            return value
        return value.astype(np.float32)
    return np.asarray(value, dtype=np.float32)


class Tensor:
    """A NumPy array plus the bookkeeping required for backprop.

    Parameters
    ----------
    data:
        Anything convertible to a ``float32`` array.
    requires_grad:
        Whether gradients should flow to this tensor.  Leaf tensors
        with ``requires_grad=True`` receive accumulated gradients in
        ``.grad`` after :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), name: str | None = None):
        self.data: np.ndarray = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a non-leaf tensor, recording the op when taping is on."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=tuple(parents) if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` which requires this
            tensor to be a scalar (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without a seed gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.shape:
            raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")

        # Iterative topological sort (avoids recursion limits on deep
        # transformer graphs).  Leaves are not visited: they accumulate
        # as soon as a consumer's backward runs.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and id(parent) not in visited:
                    stack.append((parent, False))

        # Seed and propagate in reverse topological order.  Gradients
        # for intermediate nodes live in a side table so they can be
        # freed as soon as the node's backward has run.  A backward may
        # hand the same array (or views of one) to several parents, so
        # the engine never writes into an array it did not allocate:
        # a first contribution is held by reference, the second adds
        # out of place into a buffer the engine owns, later ones add
        # into that buffer in place.
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: set[int] = set()
        for node in reversed(topo):
            key = id(node)
            node_grad = grads.pop(key, None)
            if node_grad is None:
                continue
            owned.discard(key)
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if parent._backward is None:
                    parent._accumulate(pgrad)
                elif key not in grads:
                    grads[key] = pgrad.astype(np.float32, copy=False)
                elif key in owned:
                    grads[key] += pgrad
                else:
                    grads[key] = np.add(grads[key], pgrad, dtype=np.float32)
                    owned.add(key)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(grad):
            return (unbroadcast(grad, self.shape), unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other.data

        def backward(grad):
            return (unbroadcast(grad, self.shape), unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                unbroadcast(grad * other.data, self.shape),
                unbroadcast(grad * self.data, other.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other.data

        def backward(grad):
            return (
                unbroadcast(grad / other.data, self.shape),
                unbroadcast(-grad * self.data / (other.data**2), other.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix multiply (supports batched operands with broadcasting on
    # the leading axes, as required by attention heads).
    # ------------------------------------------------------------------
    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return (grad * b, grad * a)
            if a.ndim == 1:  # (k,) @ (..., k, n)
                ga = (b * grad[..., None, :]).sum(axis=-1)
                ga = unbroadcast(ga, a.shape)
                gb = a[:, None] * grad[..., None, :]
                return (ga, unbroadcast(gb, b.shape))
            if b.ndim == 1:  # (..., m, k) @ (k,)
                ga = grad[..., None] * b
                gb = (np.swapaxes(a, -1, -2) @ grad[..., None]).squeeze(-1)
                return (unbroadcast(ga, a.shape), unbroadcast(gb, b.shape))
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            return (unbroadcast(ga, a.shape), unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        original_shape = self.shape

        def backward(grad):
            full = np.zeros(original_shape, dtype=np.float32)
            # Ints, slices, ``...`` and ``None`` select each element at
            # most once; only integer/boolean arrays can repeat one.
            items = index if isinstance(index, tuple) else (index,)
            if all(item is None or item is Ellipsis
                   or isinstance(item, (int, np.integer, slice))
                   for item in items):
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        original = self.shape

        def backward(grad):
            if axis is None:
                return (np.broadcast_to(grad, original).astype(np.float32),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, original).astype(np.float32),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def gelu(self) -> "Tensor":
        """GELU with the tanh approximation used by MPT/GPT models."""
        x = self.data
        out_data, t = kernels.gelu_forward(x)

        def backward(grad):
            return (kernels.gelu_backward(grad, x, t),)

        return Tensor._make(out_data, (self,), backward)


class Parameter(Tensor):
    """A trainable leaf tensor; modules register these automatically."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)
        # Parameters must stay differentiable even when constructed
        # inside a ``no_grad`` block (e.g. model init during eval).
        self.requires_grad = True


# ----------------------------------------------------------------------
# Free functions / constructors
# ----------------------------------------------------------------------

def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, splits, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection with a constant boolean mask."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * cond, a.shape),
            unbroadcast(grad * ~cond, b.shape),
        )

    return Tensor._make(out_data, (a, b), backward)
