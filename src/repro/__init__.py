"""repro: a from-scratch reproduction of *Photon: Federated LLM
Pre-Training* (Sani et al., MLSys 2025).

The package builds every layer the paper depends on:

* :mod:`repro.tensor` — NumPy reverse-mode autograd (the PyTorch
  substitute);
* :mod:`repro.nn` — MPT-style decoder-only transformer with ALiBi;
* :mod:`repro.optim` — AdamW, Nesterov SGD, warmup-cosine schedules;
* :mod:`repro.data` — synthetic C4/Pile corpora, shards and streams;
* :mod:`repro.parallel` — hardware modelling, DDP/FSDP simulation,
  strategy selection;
* :mod:`repro.net` — federation topology, wall-time model,
  communication accounting;
* :mod:`repro.compress` — lossy update codecs (quantization,
  sparsification) with error feedback for the Link;
* :mod:`repro.fed` — Photon itself (aggregator, clients, Link,
  server optimizers) plus the centralized baseline; the DiLoCo
  baseline is a ``FedConfig`` preset (:func:`repro.fed.diloco`) that
  Photon runs;
* :mod:`repro.eval` — perplexity and synthetic downstream tasks.

Quickstart::

    from repro import Photon
    from repro.config import TINY_MODELS, FedConfig, OptimConfig

    photon = Photon(
        TINY_MODELS["tiny"],
        FedConfig(population=4, clients_per_round=4, local_steps=16, rounds=6),
        OptimConfig(max_lr=3e-3, warmup_steps=8, schedule_steps=128, batch_size=8),
    )
    history = photon.train()
    print(history.val_perplexities)
"""

from .config import (
    FedConfig,
    ModelConfig,
    OptimConfig,
    PAPER_MODELS,
    TINY_MODELS,
    WallTimeConfig,
    model_config,
)
from .fed import (
    Aggregator,
    CentralizedTrainer,
    LLMClient,
    Photon,
    PhotonResult,
    diloco,
)
from .nn import DecoderLM

__version__ = "1.0.0"

__all__ = [
    "Photon",
    "PhotonResult",
    "Aggregator",
    "LLMClient",
    "CentralizedTrainer",
    "diloco",
    "DecoderLM",
    "ModelConfig",
    "OptimConfig",
    "FedConfig",
    "WallTimeConfig",
    "PAPER_MODELS",
    "TINY_MODELS",
    "model_config",
    "__version__",
]
