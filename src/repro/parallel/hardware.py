"""Hardware descriptors and the ``CalcBatchSize`` heuristic.

The paper's LLM-C inspects local hardware (Algorithm 1, ``GetNodes`` /
``HasRDMA`` / ``CalcBatchSize``) to pick an execution strategy.  We
model that hardware explicitly: GPUs with VRAM and peak FLOPs, nodes
with intra-node interconnects, and silos (clients) with inter-node
links.  The batch-size heuristic follows the DeepSpeed-AutoTuner-style
rule the paper cites [37, 38]: fill VRAM left after parameters,
gradients and optimizer state with the largest power-of-two batch.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GPUSpec",
    "NodeSpec",
    "SiloSpec",
    "H100",
    "A100_40GB",
    "calc_batch_size",
    "activation_bytes_per_sample",
]

#: Bandwidth (Gbit/s) above which a link counts as RDMA-class for the
#: strategy heuristic (RoCE/InfiniBand start around 100 Gbps; Section 2.4).
RDMA_THRESHOLD_GBPS = 100.0


@dataclass(frozen=True)
class GPUSpec:
    """A single accelerator."""

    name: str
    vram_gb: float
    bf16_tflops: float

    @property
    def vram_bytes(self) -> int:
        return int(self.vram_gb * 2**30)


H100 = GPUSpec("H100", vram_gb=80.0, bf16_tflops=989.0)
A100_40GB = GPUSpec("A100-40GB", vram_gb=40.0, bf16_tflops=312.0)


@dataclass(frozen=True)
class NodeSpec:
    """A server: one or more GPUs behind an intra-node interconnect."""

    gpus: tuple[GPUSpec, ...]
    intra_bw_gbps: float = 900.0  # NVLink-class by default

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ValueError("a node needs at least one GPU")

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    @property
    def total_vram_bytes(self) -> int:
        return sum(g.vram_bytes for g in self.gpus)


@dataclass(frozen=True)
class SiloSpec:
    """A federated client's compute silo: nodes plus inter-node links."""

    name: str
    nodes: tuple[NodeSpec, ...]
    inter_bw_gbps: float = 10.0

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a silo needs at least one node")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_gpus(self) -> int:
        return sum(n.n_gpus for n in self.nodes)

    @property
    def has_rdma(self) -> bool:
        """``HasRDMA`` from Algorithm 1 L.16: inter-node links fast
        enough for standard distributed training."""
        if self.n_nodes == 1:
            return True
        return self.inter_bw_gbps >= RDMA_THRESHOLD_GBPS

    @classmethod
    def single_gpu(cls, name: str = "silo", gpu: GPUSpec = H100) -> "SiloSpec":
        return cls(name, (NodeSpec((gpu,)),))

    @classmethod
    def multi_gpu(cls, n_gpus: int, name: str = "silo", gpu: GPUSpec = H100) -> "SiloSpec":
        return cls(name, (NodeSpec(tuple(gpu for _ in range(n_gpus))),))


def activation_bytes_per_sample(d_model: int, n_blocks: int, seq_len: int,
                                bytes_per_el: int = 2) -> int:
    """Rough activation footprint per sample (the dominant transient
    VRAM cost): ~16 activations of size (seq, d) per block."""
    return 16 * n_blocks * seq_len * d_model * bytes_per_el


def calc_batch_size(model_params: int, d_model: int, n_blocks: int, seq_len: int,
                    vram_bytes: int, bytes_per_param: int = 2,
                    optimizer_multiplier: int = 6, max_batch: int = 1024) -> int:
    """``CalcBatchSize``: largest power-of-two batch fitting in VRAM.

    VRAM budget = parameters + gradients + AdamW moments (the
    ``optimizer_multiplier`` covers params + grads + 2 fp32 moments at
    bf16 params → ≈ 6 × param bytes), remainder filled by activations.

    Returns 0 when even batch size 1 does not fit — the caller must
    then shard (FSDP) or reject the client (the paper's minimal
    requirement (b): memory for at least one sample).
    """
    static = optimizer_multiplier * model_params * bytes_per_param
    available = vram_bytes - static
    per_sample = activation_bytes_per_sample(d_model, n_blocks, seq_len)
    if available < per_sample:
        return 0
    batch = min(max_batch, available // per_sample)
    # Round down to a power of two for even tensor shapes.
    power = 1
    while power * 2 <= batch:
        power *= 2
    return int(power)
