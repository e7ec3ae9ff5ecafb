"""DiLoCo baseline (Douillard et al. [9]) on the Photon substrate.

DiLoCo is LocalSGD with:

* an **outer** SGD-with-Nesterov-momentum optimizer on the server
  (``ηs`` swept over {0.1, 0.3, 0.5, 0.7} in the paper's Figure 8,
  momentum fixed at 0.9);
* **stateful** inner AdamW — workers retain their optimizer momenta
  across rounds (they are dedicated, always-on workers);
* a constant-or-cosine inner LR tuned for the *large-batch* regime.

Photon differs by: FedAvg (server lr 1.0, no momentum), stateless
clients, small hardware batch with a stretched high-LR cosine.  This
module builds a DiLoCo run from the same client/data plumbing so the
Table 3 / Figure 8 comparisons differ only in the algorithm.
"""

from __future__ import annotations

from ..config import FedConfig, ModelConfig, OptimConfig
from ..data.stream import BatchStream
from ..optim import LRSchedule, WarmupCosine
from .client import LLMClient
from .engine import SyncAggregator
from .sampler import FullParticipation
from .server_opt import NesterovOuter

__all__ = ["build_diloco", "DILOCO_SERVER_LRS"]

#: The ηs sweep of Figure 8.
DILOCO_SERVER_LRS = (0.1, 0.3, 0.5, 0.7)


def build_diloco(model_config: ModelConfig,
                 client_streams: dict[str, BatchStream],
                 optim: OptimConfig,
                 fed: FedConfig,
                 val_stream: BatchStream | None = None,
                 server_lr: float = 0.1,
                 server_momentum: float = 0.9,
                 schedule: LRSchedule | None = None,
                 init_seed: int = 0) -> SyncAggregator:
    """Assemble a DiLoCo aggregator over the given client streams."""
    if not client_streams:
        raise ValueError("DiLoCo needs at least one client stream")
    schedule = schedule or WarmupCosine(
        optim.max_lr, optim.warmup_steps, optim.schedule_steps, optim.alpha_min
    )
    clients = {
        cid: LLMClient(
            client_id=cid,
            model_config=model_config,
            streams=stream,
            optim=optim,
            schedule=schedule,
            stateless=False,  # DiLoCo workers keep inner AdamW state
            seed=init_seed,
        )
        for cid, stream in client_streams.items()
    }
    return SyncAggregator(
        model_config=model_config,
        clients=clients,
        server_opt=NesterovOuter(lr=server_lr, momentum=server_momentum),
        sampler=FullParticipation(),
        val_stream=val_stream,
        init_seed=init_seed,
    )
