"""Metric aggregation (Algorithm 1's ``AggMetrics``) and run history."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["aggregate_metrics", "RoundRecord", "History"]


def aggregate_metrics(metric_dicts: list[dict[str, float]],
                      weights: list[float] | None = None) -> dict[str, float]:
    """Weighted mean of per-client scalar metrics.

    Keys present in only some clients are averaged over the clients
    that reported them (weights renormalized accordingly).
    """
    if not metric_dicts:
        return {}
    if weights is None:
        weights = [1.0] * len(metric_dicts)
    # First-seen order, not a set's: the keys' order reaches the
    # history and the run-state bytes, and a set's follows the
    # interpreter's string-hash salt.
    keys = dict.fromkeys(key for d in metric_dicts for key in d)
    out: dict[str, float] = {}
    for key in keys:
        num, den = 0.0, 0.0
        for d, w in zip(metric_dicts, weights):
            if key in d:
                num += w * float(d[key])
                den += w
        out[key] = num / den if den > 0 else float("nan")
    return out


@dataclass
class RoundRecord:
    """Everything measured about one federated round."""

    round_idx: int
    val_perplexity: float
    train_loss: float
    clients: list[str]
    comm_bytes_up: int = 0
    comm_bytes_down: int = 0
    # Uncompressed (float32) volume of the same payloads — with a
    # lossy Link codec the wire counters above shrink while these
    # stay put, so raw/wire is the measured compression ratio.
    raw_bytes_up: int = 0
    raw_bytes_down: int = 0
    pseudo_grad_norm: float = 0.0
    client_metrics: dict[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    failed_clients: list[str] = field(default_factory=list)
    retries: int = 0
    # Deadline-policy accounting (async engine): work cancelled in the
    # flush window, late deltas admitted under ``admit_stale``, and
    # finished steps of cancelled cycles admitted under
    # ``admit_partial``.
    dropped_steps: int = 0
    dropped_bytes: int = 0
    deadline_misses: int = 0
    salvaged_steps: int = 0
    # Hierarchical federation (fed/edge.py): edge→root backhaul volume
    # and slowest-hop transfer time for this round's merge, plus crash
    # accounting for regional aggregators killed mid-round.  All zero
    # on the flat single-server path.
    backhaul_wire_bytes: int = 0
    backhaul_raw_bytes: int = 0
    backhaul_hop_s: float = 0.0
    edge_updates_lost: int = 0
    edge_crashes: int = 0

    @property
    def train_perplexity(self) -> float:
        return float(np.exp(self.train_loss))

    @property
    def compression_ratio(self) -> float:
        """Measured raw/wire byte ratio (1.0 when raw was not
        tracked, e.g. hand-built records)."""
        wire = self.comm_bytes_up + self.comm_bytes_down
        raw = self.raw_bytes_up + self.raw_bytes_down
        if wire <= 0 or raw <= 0:
            return 1.0
        return raw / wire


@dataclass
class History:
    """Round-by-round training history with convenience accessors."""

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def val_perplexities(self) -> list[float]:
        return [r.val_perplexity for r in self.records]

    @property
    def train_losses(self) -> list[float]:
        return [r.train_loss for r in self.records]

    @property
    def total_comm_bytes(self) -> int:
        return sum(r.comm_bytes_up + r.comm_bytes_down for r in self.records)

    @property
    def total_raw_bytes(self) -> int:
        return sum(r.raw_bytes_up + r.raw_bytes_down for r in self.records)

    def best_perplexity(self) -> float:
        if not self.records:
            raise ValueError("empty history")
        return min(self.val_perplexities)

    def rounds_to_target(self, target_ppl: float) -> int | None:
        """First round index whose validation perplexity is at or
        below ``target_ppl`` (None if never reached)."""
        for record in self.records:
            if record.val_perplexity <= target_ppl:
                return record.round_idx
        return None
