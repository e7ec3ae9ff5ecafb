"""Hardware modelling and simulated intra-client parallelism."""

from .ddp import DDPEngine
from .fsdp import FSDPEngine, ShardLayout
from .hardware import (
    A100_40GB,
    H100,
    GPUSpec,
    NodeSpec,
    SiloSpec,
    activation_bytes_per_sample,
    calc_batch_size,
)
from .strategy import ExecutionPlan, select_strategy

__all__ = [
    "GPUSpec",
    "NodeSpec",
    "SiloSpec",
    "H100",
    "A100_40GB",
    "calc_batch_size",
    "activation_bytes_per_sample",
    "ExecutionPlan",
    "select_strategy",
    "DDPEngine",
    "FSDPEngine",
    "ShardLayout",
]
