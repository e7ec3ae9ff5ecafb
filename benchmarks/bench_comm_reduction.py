"""Headline claim — "communicating 64×–512× less" (Abstract, §1, §2).

The factor is structural: DDP synchronizes gradients every optimizer
step (O(|θ|·T) traffic) while federated LocalSGD synchronizes once per
τ-step round (O(|θ|·T/τ)).  This bench verifies it both ways:

* analytically, with exact byte accounting for the paper's 125M model
  over τ ∈ {64, 128, 512} (the Table 6 local-step grid);
* empirically, by reading the Link's byte counters from a real
  federated run and comparing with the DDP volume for the same number
  of optimizer steps on the same (tiny) model.
"""

from __future__ import annotations

from repro.config import FedConfig, OptimConfig, PAPER_MODELS
from repro.fed import Photon
from repro.net import ddp_volume, federated_volume, reduction_factor

from common import MICRO, print_table

WORKERS = 8
ROUNDS_ANALYTIC = 20
TAUS = (64, 128, 512)

# Empirical run shape (tiny, fast).
EMP_CLIENTS = 2
EMP_TAU = 16
EMP_ROUNDS = 4


def run_accounting() -> dict:
    model_bytes = PAPER_MODELS["125M"].param_bytes
    analytic = {}
    for tau in TAUS:
        steps = ROUNDS_ANALYTIC * tau
        ddp = ddp_volume(model_bytes, steps, WORKERS)
        fed = federated_volume(model_bytes, ROUNDS_ANALYTIC, tau, WORKERS)
        analytic[tau] = {
            "ddp_gb": ddp.total_gb,
            "fed_gb": fed.total_gb,
            "factor": reduction_factor(model_bytes, steps, tau, WORKERS),
        }

    optim = OptimConfig(max_lr=4e-3, warmup_steps=2,
                        schedule_steps=EMP_ROUNDS * EMP_TAU,
                        batch_size=4, weight_decay=0.0)
    photon = Photon(
        MICRO,
        FedConfig(population=EMP_CLIENTS, clients_per_round=EMP_CLIENTS,
                  local_steps=EMP_TAU, rounds=EMP_ROUNDS),
        optim, data_seed=3,
    )
    photon.train()
    measured_fed = photon.history.total_comm_bytes
    # DDP on the same run shape: every one of the R*tau steps
    # all-reduces the raw float32 model across EMP_CLIENTS workers.
    # The Link counts every byte at BOTH endpoints (send + receive),
    # so the DDP volume is doubled for parity.
    model_bytes_tiny = 4 * MICRO.n_params
    ddp_total = 2 * EMP_CLIENTS * ddp_volume(
        model_bytes_tiny, EMP_ROUNDS * EMP_TAU, EMP_CLIENTS
    ).total_bytes
    return {
        "analytic": analytic,
        "measured_fed_bytes": measured_fed,
        "ddp_equiv_bytes": ddp_total,
        "measured_factor": ddp_total / measured_fed,
    }


def test_comm_reduction():
    result = run_accounting()

    rows = [[tau,
             f"{cell['ddp_gb']:.0f}",
             f"{cell['fed_gb']:.2f}",
             f"{cell['factor']:.0f}x"]
            for tau, cell in result["analytic"].items()]
    print_table(
        "Headline: per-worker traffic for the 125M model, "
        f"{ROUNDS_ANALYTIC} rounds x tau steps ({WORKERS} workers)",
        ["tau", "DDP (GB)", "Federated (GB)", "Reduction"],
        rows,
    )
    print(f"empirical tiny run: fed bytes={result['measured_fed_bytes']:,} "
          f"vs DDP-equivalent {result['ddp_equiv_bytes']:,} "
          f"({result['measured_factor']:.1f}x)")

    # The paper's band: the reduction factor tracks tau, spanning
    # ~64x-512x across the Table 6 grid (exactly tau*(K-1)/K).
    factors = [result["analytic"][tau]["factor"] for tau in TAUS]
    assert 50 < factors[0] < 70
    assert 100 < factors[1] < 130
    assert 400 < factors[2] < 520
    assert factors == sorted(factors)
    # The measured Link traffic of a real run shows the same
    # structural saving: ~tau * (K-1)/K, i.e. 8x for tau=16, K=2
    # (compression nudges it slightly higher).
    expected = EMP_TAU * (EMP_CLIENTS - 1) / EMP_CLIENTS
    assert result["measured_factor"] > 0.8 * expected
