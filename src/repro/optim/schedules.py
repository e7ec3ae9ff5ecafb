"""Learning-rate schedules.

The paper's recipe (Section 5.1, Appendix C.1): linear warmup followed
by cosine decay to ``alpha * max_lr``.  The federated trick is to keep
the *small* hardware batch size but stretch the cosine period by
``B_centralized / B_small``, which :func:`federated_schedule_steps`
computes (paper Section 3, "Exploiting Small Batches and High Learning
Rates").
"""

from __future__ import annotations

import math

__all__ = [
    "LRSchedule",
    "ConstantLR",
    "WarmupCosine",
    "federated_schedule_steps",
    "linear_lr_scaling",
]


class LRSchedule:
    """Maps a global step index to a learning rate."""

    def lr_at(self, step: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        return self.lr_at(step)


class ConstantLR(LRSchedule):
    def __init__(self, lr: float):
        self.lr = lr

    def lr_at(self, step: int) -> float:
        return self.lr


class WarmupCosine(LRSchedule):
    """Linear warmup then cosine decay; flat at ``min_lr`` afterwards.

    Parameters
    ----------
    max_lr:
        Peak learning rate reached at the end of warmup.
    warmup_steps:
        Steps of linear ramp from 0 to ``max_lr``.
    total_steps:
        Cosine period T (Table 5); measured from step 0, so the decay
        phase spans ``total_steps - warmup_steps`` steps.
    alpha:
        ``min_lr = alpha * max_lr`` (Table 5 uses 0.1).
    """

    def __init__(self, max_lr: float, warmup_steps: int, total_steps: int, alpha: float = 0.1):
        if total_steps <= warmup_steps:
            raise ValueError(
                f"total_steps={total_steps} must exceed warmup_steps={warmup_steps}"
            )
        self.max_lr = max_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.alpha = alpha

    @property
    def min_lr(self) -> float:
        return self.alpha * self.max_lr

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.max_lr * (step + 1) / self.warmup_steps
        if step >= self.total_steps:
            return self.min_lr
        progress = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.max_lr - self.min_lr) * cosine


def federated_schedule_steps(centralized_steps: int, centralized_batch: int,
                             local_batch: int) -> int:
    """Stretch the cosine period for small-batch federated clients.

    Paper Section 3: "if centralized training uses a decay period T
    with batch size B, federated learning enables us to extend it to
    T × B / B_small".  Table 5's 125M row is an instance: 5 120
    centralized steps at batch 256 become 40 960 federated steps at
    batch 32.
    """
    if local_batch <= 0 or centralized_batch <= 0:
        raise ValueError("batch sizes must be positive")
    return int(round(centralized_steps * centralized_batch / local_batch))


def linear_lr_scaling(base_lr: float, base_batch: int, batch: int) -> float:
    """Linear LR scaling rule used by the centralized small-batch
    control runs (Appendix C.1: centralized training with small batches
    diverges "unless the maximal learning rate was reduced linearly
    w.r.t the batch size")."""
    return base_lr * batch / base_batch
