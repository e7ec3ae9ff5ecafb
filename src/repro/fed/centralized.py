"""Centralized baseline trainer (paper Algorithm 2).

Standard data-parallel pre-training: one model, one AdamW optimizer,
every batch synchronized (via the simulated DDP engine when
``n_workers > 1``).  This is the comparison target for Figures 3/4,
Table 2 and the Appendix C.1 small-batch stability study, so the
trainer also detects divergence (NaN or runaway loss) instead of
crashing — the paper *reports* centralized divergence at small batch
+ high LR, which the benchmarks reproduce.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig, OptimConfig
from ..data.stream import BatchStream
from ..eval.perplexity import evaluate_perplexity
from ..nn import DecoderLM
from ..optim import AdamW, LRSchedule, WarmupCosine
from ..parallel import DDPEngine
from ..utils.metrics import History, RoundRecord
from . import batched

__all__ = ["CentralizedTrainer", "CentralizedResult"]


class CentralizedResult:
    """Outcome of a centralized run: history plus divergence flag."""

    def __init__(self, history: History, diverged: bool, steps_done: int):
        self.history = history
        self.diverged = diverged
        self.steps_done = steps_done

    @property
    def final_perplexity(self) -> float:
        if not len(self.history):
            return float("nan")
        return self.history.records[-1].val_perplexity

    def best_perplexity(self) -> float:
        return self.history.best_perplexity()


class CentralizedTrainer:
    """Synchronized-every-step baseline."""

    #: Loss above which (or NaN) training counts as diverged.
    DIVERGENCE_LOSS = 50.0

    def __init__(self, model_config: ModelConfig, stream: BatchStream,
                 optim: OptimConfig, schedule: LRSchedule | None = None,
                 val_stream: BatchStream | None = None,
                 n_workers: int = 1, eval_batches: int = 4, seed: int = 0):
        self.model_config = model_config
        self.stream = stream
        self.optim_config = optim
        self.schedule = schedule or WarmupCosine(
            optim.max_lr, optim.warmup_steps, optim.schedule_steps, optim.alpha_min
        )
        self.val_stream = val_stream
        self.eval_batches = eval_batches
        self.model = DecoderLM(model_config, seed=seed)
        self.optimizer = AdamW(
            self.model.parameters(), lr=optim.max_lr, betas=optim.betas,
            eps=optim.eps, weight_decay=optim.weight_decay,
        )
        self.engine = (
            DDPEngine(self.model, self.optimizer, n_workers, grad_clip=optim.grad_clip)
            if n_workers > 1 else None
        )
        self.step_idx = 0

    # ------------------------------------------------------------------
    def _one_step(self) -> float:
        self.optimizer.lr = self.schedule(self.step_idx)
        x, y = self.stream.next_batch()
        if self.engine is not None:
            loss_value = self.engine.step(x, y)
        else:
            loss_value = float(batched.local_step(
                self.model, self.optimizer, x, y, self.optim_config.grad_clip))
        self.step_idx += 1
        return loss_value

    def evaluate(self) -> float:
        if self.val_stream is None:
            return float("nan")
        return evaluate_perplexity(self.model, self.val_stream, self.eval_batches)

    # ------------------------------------------------------------------
    def train(self, total_steps: int, eval_every: int = 50,
              target_perplexity: float | None = None) -> CentralizedResult:
        """Train for ``total_steps``, recording an evaluation point
        every ``eval_every`` steps (so histories are comparable to
        federated rounds of ``eval_every`` local steps)."""
        if total_steps < 1 or eval_every < 1:
            raise ValueError("total_steps and eval_every must be >= 1")
        history = History()
        diverged = False
        window: list[float] = []
        while self.step_idx < total_steps:
            loss_value = self._one_step()
            window.append(loss_value)
            if not np.isfinite(loss_value) or loss_value > self.DIVERGENCE_LOSS:
                diverged = True
                break
            if self.step_idx % eval_every == 0:
                record = RoundRecord(
                    round_idx=self.step_idx // eval_every - 1,
                    val_perplexity=self.evaluate(),
                    train_loss=float(np.mean(window)),
                    clients=["centralized"],
                )
                history.append(record)
                window.clear()
                if (target_perplexity is not None
                        and record.val_perplexity <= target_perplexity):
                    break
        return CentralizedResult(history, diverged, self.step_idx)
