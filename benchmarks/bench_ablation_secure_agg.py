"""Ablation — secure aggregation (Section 4: Link "supports secure
aggregation [36] for enhanced privacy, if needed").

Pairwise-mask secure aggregation must leave the *sum* of client
updates numerically unchanged while making every individual masked
update statistically useless.  This bench masks one real federated
round's pseudo-gradients and verifies both properties, plus measures
the float32 error the cancellation introduces on the aggregate.
"""

from __future__ import annotations

import numpy as np

from repro.config import FedConfig, OptimConfig
from repro.fed import Photon, SecureAggregator
from repro.fed.types import RoundInfo
from repro.utils import state_to_vector

from common import MICRO, print_table

N_CLIENTS = 4
LOCAL_STEPS = 8


def run_masked_round() -> dict:
    optim = OptimConfig(max_lr=4e-3, warmup_steps=2, schedule_steps=64,
                        batch_size=4, weight_decay=0.0)
    photon = Photon(
        MICRO,
        FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                  local_steps=LOCAL_STEPS, rounds=1),
        optim, data_seed=3,
    )
    agg = photon.aggregator
    info = RoundInfo(round_idx=0, local_steps=LOCAL_STEPS, global_step_base=0)
    updates = {
        cid: client.train(agg.global_state, info).delta
        for cid, client in agg.clients.items()
    }

    secure = SecureAggregator(list(updates), seed=7, mask_scale=1.0)
    masked = {cid: secure.mask(cid, delta) for cid, delta in updates.items()}

    true_sum = sum(state_to_vector(d) for d in updates.values())
    masked_sum = state_to_vector(SecureAggregator.unmasked_sum(list(masked.values())))

    distortion = {
        cid: float(np.abs(state_to_vector(masked[cid])
                          - state_to_vector(updates[cid])).mean())
        for cid in updates
    }
    return {
        "sum_error": float(np.abs(masked_sum - true_sum).max()),
        "sum_scale": float(np.abs(true_sum).max()),
        "distortion": distortion,
        "update_scale": float(np.abs(true_sum).mean() / N_CLIENTS),
    }


def test_ablation_secure_aggregation():
    result = run_masked_round()

    rows = [[cid, f"{d:.3f}"] for cid, d in result["distortion"].items()]
    print_table("Ablation: per-client masked-update distortion (mean |masked - raw|)",
                ["Client", "Distortion"], rows)
    print(f"aggregate max error after unmasking: {result['sum_error']:.2e} "
          f"(aggregate scale {result['sum_scale']:.3f})")

    # Masks cancel: the aggregate is exact up to float32 rounding.
    assert result["sum_error"] < 1e-2 * max(result["sum_scale"], 1.0)
    # Each individual update is hidden: the mask dwarfs the signal.
    for cid, distortion in result["distortion"].items():
        assert distortion > 10 * result["update_scale"], cid
