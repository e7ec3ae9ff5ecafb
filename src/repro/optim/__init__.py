"""Optimizers, LR schedules and gradient clipping."""

from .clip import clip_grad_norm, global_grad_norm
from .optimizers import SGD, AdamW, Optimizer
from .schedules import (
    ConstantLR,
    LRSchedule,
    WarmupCosine,
    federated_schedule_steps,
    linear_lr_scaling,
)

__all__ = [
    "Optimizer",
    "AdamW",
    "SGD",
    "LRSchedule",
    "ConstantLR",
    "WarmupCosine",
    "federated_schedule_steps",
    "linear_lr_scaling",
    "clip_grad_norm",
    "global_grad_norm",
]
