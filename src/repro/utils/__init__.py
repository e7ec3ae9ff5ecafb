"""Shared utilities: serialization, tree math, metrics, history."""

from .metrics import History, RoundRecord, aggregate_metrics
from .serialization import (
    decode_state,
    encode_state,
    state_bytes,
    state_to_vector,
    tree_add,
    tree_map,
    tree_mean,
    tree_norm,
    tree_scale,
    tree_sub,
    tree_zeros_like,
    vector_to_state,
)

__all__ = [
    "History",
    "RoundRecord",
    "aggregate_metrics",
    "state_to_vector",
    "vector_to_state",
    "state_bytes",
    "encode_state",
    "decode_state",
    "tree_map",
    "tree_add",
    "tree_sub",
    "tree_scale",
    "tree_mean",
    "tree_zeros_like",
    "tree_norm",
]
