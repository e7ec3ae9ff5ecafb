"""Pure-NumPy reverse-mode autograd: the compute substrate.

See :mod:`repro.tensor.autograd` for the engine,
:mod:`repro.tensor.ops` for the fused transformer ops and
:mod:`repro.tensor.kernels` for the array-level kernels training and
inference share.
"""

from .autograd import (
    Parameter,
    Tensor,
    concatenate,
    no_grad,
    ones,
    stack,
    tensor,
    unbroadcast,
    where,
    zeros,
)
from .ops import cross_entropy, dropout, embedding, layer_norm, log_softmax, softmax

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
    "softmax",
    "log_softmax",
    "cross_entropy",
    "layer_norm",
    "embedding",
    "dropout",
]
