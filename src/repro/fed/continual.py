"""Continual pre-training and per-client personalization (Section 6).

"A key advantage of using Photon for pre-training LLMs is improved
model convergence and performance, offering a stronger initialization
for continual pre-training or personalization" [57, 58, 59].

Two workflows are provided:

* **continual pre-training** — start a new federated run from an
  existing global checkpoint (``Photon(initial_state=...)`` uses the
  same machinery; :func:`continue_pretraining` packages it);
* **personalization** — fine-tune the global model on one client's
  private stream and report the local-perplexity improvement, with
  optional LoRA adapters so only a tiny delta is stored per client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ModelConfig, OptimConfig
from ..data.stream import BatchStream
from ..eval.perplexity import evaluate_perplexity
from ..nn import DecoderLM
from ..nn.lora import apply_lora, lora_parameters, lora_state_dict
from ..optim import AdamW, ConstantLR, LRSchedule
from ..utils.serialization import StateDict
from . import batched

__all__ = ["PersonalizationResult", "personalize", "continue_pretraining"]


@dataclass
class PersonalizationResult:
    """Outcome of fine-tuning the global model for one client."""

    client_id: str
    ppl_before: float
    ppl_after: float
    steps: int
    adapter_state: StateDict | None = None  # set when LoRA was used

    @property
    def improvement(self) -> float:
        """Relative perplexity reduction on the client's data."""
        if self.ppl_before <= 0:
            return 0.0
        return (self.ppl_before - self.ppl_after) / self.ppl_before


def personalize(global_state: StateDict, model_config: ModelConfig,
                stream: BatchStream, steps: int,
                optim: OptimConfig | None = None,
                schedule: LRSchedule | None = None,
                eval_stream: BatchStream | None = None,
                lora_rank: int | None = None,
                client_id: str = "client",
                seed: int = 0) -> PersonalizationResult:
    """Fine-tune the global model on one client's stream.

    With ``lora_rank`` set, the dense projections are frozen and only
    low-rank adapters train — the cross-device recipe of Section 6,
    whose per-client storage is the adapter state returned in the
    result.

    ``ppl_before`` and ``ppl_after`` are measured on **identical
    batches**: the eval stream's position is snapshotted before the
    first evaluation and restored before the second, so the reported
    ``improvement`` isolates the weight change.  (Without this, the
    default ``eval_stream = stream`` compared disjoint batches —
    training advanced the shared iterator between the two readings.)
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    optim = optim or OptimConfig(max_lr=1e-3, weight_decay=0.0)
    schedule = schedule or ConstantLR(optim.max_lr)
    eval_stream = eval_stream or stream
    if not hasattr(eval_stream, "state_dict"):
        raise TypeError(
            "eval stream must support the checkpoint protocol "
            "(state_dict/load_state_dict) so before/after perplexity "
            "is measured on the same batches"
        )
    eval_position = eval_stream.state_dict()

    model = DecoderLM(model_config, seed=seed)
    model.load_state_dict(global_state)
    ppl_before = evaluate_perplexity(model, eval_stream, n_batches=4)

    if lora_rank is not None:
        apply_lora(model, rank=lora_rank, seed=seed)
        trainable = lora_parameters(model)
    else:
        trainable = model.parameters()
    optimizer = AdamW(trainable, lr=optim.max_lr, betas=optim.betas,
                      eps=optim.eps, weight_decay=optim.weight_decay)

    for step in range(steps):
        optimizer.lr = schedule(step)
        x, y = stream.next_batch()
        batched.local_step(model, optimizer, x, y, optim.grad_clip)

    eval_stream.load_state_dict(eval_position)
    ppl_after = evaluate_perplexity(model, eval_stream, n_batches=4)
    return PersonalizationResult(
        client_id=client_id,
        ppl_before=ppl_before,
        ppl_after=ppl_after,
        steps=steps,
        adapter_state=lora_state_dict(model) if lora_rank is not None else None,
    )


def continue_pretraining(checkpoint_state: StateDict, model_config: ModelConfig,
                         fed_config, optim_config, rounds: int | None = None,
                         **photon_kwargs):
    """Resume federated pre-training from a global checkpoint.

    Thin wrapper over ``Photon(initial_state=checkpoint_state)`` that
    validates the checkpoint against the architecture before spending
    any compute.  Returns the trained :class:`~repro.fed.photon.Photon`
    instance.
    """
    template = DecoderLM(model_config, seed=0).state_dict()
    if template.keys() != checkpoint_state.keys():
        raise KeyError("checkpoint does not match the model architecture")
    for key, value in checkpoint_state.items():
        if np.asarray(value).shape != template[key].shape:
            raise ValueError(f"checkpoint shape mismatch for {key}")

    from .photon import Photon  # local import to avoid a cycle

    photon = Photon(model_config, fed_config, optim_config,
                    initial_state=checkpoint_state, **photon_kwargs)
    photon.train(rounds=rounds)
    return photon
