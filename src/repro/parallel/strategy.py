"""Optimal training-strategy selection (paper Section 4 heuristic).

Given a silo and a model, pick how the LLM-C should run its local
steps:

1. model + viable batch fits one GPU → ``single_gpu`` (one worker);
2. multi-GPU node, model fits per-GPU → ``ddp``;
3. multi-GPU node, model does NOT fit per-GPU → ``fsdp``;
4. multi-node with RDMA-class links → ``ddp``/``fsdp`` across nodes;
5. multi-node, slow links → ``sub_federation`` (a second level of
   LocalSGD inside the client, Algorithm 1 L.19–25).

A silo that cannot fit the model at batch 1 even sharded raises —
the paper's minimal requirement (b) is violated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ModelConfig
from .hardware import SiloSpec, calc_batch_size

__all__ = ["ExecutionPlan", "select_strategy"]


@dataclass(frozen=True)
class ExecutionPlan:
    """Resolved local execution strategy for one LLM-C."""

    strategy: str  # single_gpu | ddp | fsdp | sub_federation
    n_workers: int
    per_worker_batch: int


def _gpu_batch(model: ModelConfig, vram_bytes: int) -> int:
    return calc_batch_size(
        model_params=model.n_params,
        d_model=model.d_model,
        n_blocks=model.n_blocks,
        seq_len=model.seq_len,
        vram_bytes=vram_bytes,
    )


def select_strategy(silo: SiloSpec, model: ModelConfig,
                    target_batch: int | None = None) -> ExecutionPlan:
    """Resolve the execution plan for ``model`` on ``silo``.

    ``target_batch`` caps the per-worker batch (the federation-wide
    hardware-determined ``Bl``); without it the heuristic packs VRAM.
    """
    node = silo.nodes[0]
    per_gpu = _gpu_batch(model, node.gpus[0].vram_bytes)

    def cap(batch: int) -> int:
        return min(batch, target_batch) if target_batch else batch

    if silo.n_nodes == 1:
        if node.n_gpus == 1:
            if per_gpu < 1:
                raise ValueError(
                    f"model {model.name} does not fit on {node.gpus[0].name} "
                    "even at batch size 1; add GPUs for FSDP sharding"
                )
            return ExecutionPlan("single_gpu", 1, cap(per_gpu))
        if per_gpu >= 1:
            return ExecutionPlan("ddp", node.n_gpus, cap(per_gpu))
        sharded = _gpu_batch(
            model.scaled(name=model.name), node.total_vram_bytes
        )
        if sharded < 1:
            raise ValueError(
                f"model {model.name} does not fit in the node's combined VRAM"
            )
        return ExecutionPlan("fsdp", node.n_gpus, cap(max(1, sharded // node.n_gpus)))

    # Multi-node silo.
    if silo.has_rdma:
        if per_gpu >= 1:
            return ExecutionPlan("ddp", silo.n_gpus, cap(per_gpu))
        return ExecutionPlan("fsdp", silo.n_gpus, cap(1))
    # Slow inter-node links: sub-federate, one sub-worker per node.
    if per_gpu < 1:
        raise ValueError(
            f"model {model.name} does not fit per-node for sub-federation"
        )
    return ExecutionPlan("sub_federation", silo.n_nodes, cap(per_gpu))
