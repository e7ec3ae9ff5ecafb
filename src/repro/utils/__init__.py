"""Shared utilities: serialization, tree math, metrics, history."""

from .metrics import History, RoundRecord, aggregate_metrics
from .serialization import (
    PayloadError,
    decode_state,
    encode_state,
    pack_tree,
    state_bytes,
    state_to_vector,
    tree_add,
    tree_mean,
    tree_norm,
    tree_scale,
    tree_sub,
    tree_zeros_like,
    unpack_tree,
    vector_to_state,
)

__all__ = [
    "History",
    "RoundRecord",
    "aggregate_metrics",
    "state_to_vector",
    "vector_to_state",
    "state_bytes",
    "PayloadError",
    "pack_tree",
    "unpack_tree",
    "encode_state",
    "decode_state",
    "tree_add",
    "tree_sub",
    "tree_scale",
    "tree_mean",
    "tree_zeros_like",
    "tree_norm",
]
