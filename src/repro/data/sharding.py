"""Shard-to-client assignment policies.

Section 5.1: C4 is split into 64 uniform shards and "N clients refer
to a subset of N shards".  These helpers make that assignment explicit
and testable, including the multi-shard-per-client variant used when
the population is smaller than the shard count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assign_shards"]


def assign_shards(num_shards: int, num_clients: int, seed: int = 0,
                  shuffle: bool = True) -> list[list[int]]:
    """Partition shard indices across clients as evenly as possible.

    Returns a list of ``num_clients`` disjoint index lists covering a
    prefix of the shards (one shard per client when
    ``num_clients <= num_shards``, matching the paper's setup).
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if num_clients > num_shards:
        raise ValueError(
            f"cannot assign {num_clients} clients to {num_shards} shards"
        )
    indices = np.arange(num_shards)
    if shuffle:
        indices = np.random.default_rng(seed).permutation(indices)
    per_client = num_shards // num_clients
    used = per_client * num_clients
    groups = indices[:used].reshape(num_clients, per_client)
    return [sorted(int(i) for i in group) for group in groups]

