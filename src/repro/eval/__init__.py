"""Evaluation: perplexity and synthetic downstream tasks."""

from .downstream import (
    BigramTask,
    ClozeTask,
    CopyTask,
    DownstreamTask,
    HardBigramTask,
    InductionTask,
    TaskExample,
    default_suite,
    run_suite,
    score_task,
)
from .perplexity import evaluate_loss, evaluate_perplexity

__all__ = [
    "evaluate_loss",
    "evaluate_perplexity",
    "DownstreamTask",
    "TaskExample",
    "CopyTask",
    "InductionTask",
    "BigramTask",
    "HardBigramTask",
    "ClozeTask",
    "score_task",
    "run_suite",
    "default_suite",
]
