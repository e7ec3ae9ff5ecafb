"""Photon vs DiLoCo head-to-head (the Table 3 / Figure 8 scenario).

Runs both algorithms on identical models, data shards and local
recipes, sweeping DiLoCo's outer learning rate: each arm is one
``Photon`` run, the DiLoCo arms under the ``diloco`` FedConfig preset
(Nesterov outer SGD at server lr ηs, stateful clients).  Photon needs
no outer-optimizer tuning (FedAvg, server lr 1.0) and converges
roughly twice as fast as the paper-selected DiLoCo(ηs = 0.1).

Run:
    python examples/diloco_comparison.py
"""

from __future__ import annotations

from repro import Photon
from repro.config import FedConfig, ModelConfig, OptimConfig
from repro.fed import DILOCO_SERVER_LRS, diloco

MODEL = ModelConfig("diloco-demo", n_blocks=1, d_model=16, n_heads=2,
                    vocab_size=32, seq_len=16)
N_CLIENTS = 4
LOCAL_STEPS = 8
ROUNDS = 10
TARGET = 6.0

OPTIM = OptimConfig(max_lr=4e-3, warmup_steps=4,
                    schedule_steps=ROUNDS * LOCAL_STEPS, batch_size=4,
                    weight_decay=0.0)
FED = FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                local_steps=LOCAL_STEPS, rounds=ROUNDS)


def main() -> None:
    curves: dict[str, list[float]] = {}

    photon = Photon(MODEL, FED, OPTIM, data_seed=3)
    curves["Photon (no outer tuning)"] = photon.train().val_perplexities

    for eta in DILOCO_SERVER_LRS:
        run = Photon(MODEL, diloco(FED, eta), OPTIM, data_seed=3)
        curves[f"DiLoCo eta_s={eta}"] = run.train().val_perplexities

    print("validation perplexity by round:")
    header = "round  " + "  ".join(f"{name:>24}" for name in curves)
    print(header)
    for r in range(ROUNDS):
        print(f"{r:>5}  " + "  ".join(f"{curves[name][r]:>24.2f}"
                                      for name in curves))

    print(f"\nrounds to reach perplexity {TARGET}:")
    for name, curve in curves.items():
        hit = next((r for r, p in enumerate(curve) if p <= TARGET), None)
        print(f"  {name:>24}: {'not reached' if hit is None else hit + 1}")


if __name__ == "__main__":
    main()
