"""Figure 8 — DiLoCo outer-LR sweep vs Photon.

The paper tunes DiLoCo's outer Nesterov SGD over
ηs ∈ {0.1, 0.3, 0.5, 0.7} (momentum 0.9) on a 125M model with N = 4
clients and Bg = 128: higher ηs accelerates early training but
destabilizes it, so 0.1 is the only setting that reaches the low
perplexity targets; Photon (FedAvg, server lr 1.0, no momentum)
converges without any outer tuning.

At miniature scale the same sweep shows the tuning-sensitivity shape:
DiLoCo's outcome varies strongly across ηs while Photon matches or
beats the *untuned median* DiLoCo run out of the box.
"""

from __future__ import annotations

from repro.config import FedConfig, OptimConfig
from repro.fed import DILOCO_SERVER_LRS, Photon, diloco

from common import MICRO, print_table

N_CLIENTS = 4
LOCAL_STEPS = 8
LOCAL_BATCH = 4
ROUNDS = 14


def run_sweep() -> dict[str, list[float]]:
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=ROUNDS * LOCAL_STEPS,
                        batch_size=LOCAL_BATCH, weight_decay=0.0)
    fed = FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                    local_steps=LOCAL_STEPS, rounds=ROUNDS)

    # Both arms train and evaluate on the same data: they differ only
    # in the three values the diloco preset sets.
    curves: dict[str, list[float]] = {}
    photon = Photon(MICRO, fed, optim, data_seed=3)
    curves["Photon"] = photon.train().val_perplexities

    for eta in DILOCO_SERVER_LRS:
        run = Photon(MICRO, diloco(fed, eta), optim, data_seed=3)
        curves[f"DiLoCo eta={eta}"] = run.train().val_perplexities
    return curves


def test_fig8_diloco_lr_sweep():
    curves = run_sweep()

    rows = [[name] + [f"{p:.2f}" for p in curve[::2]]
            for name, curve in curves.items()]
    print_table(
        "Figure 8: perplexity by round (every 2nd round)",
        ["Run"] + [f"r{r}" for r in range(0, ROUNDS, 2)],
        rows,
    )

    photon_final = curves["Photon"][-1]
    diloco_finals = {name: c[-1] for name, c in curves.items() if name != "Photon"}

    # Photon converges without outer tuning.
    assert photon_final < 0.4 * curves["Photon"][0]
    # DiLoCo's outcome is strongly eta-dependent: >1.5x spread between
    # its best and worst final perplexities across the sweep — the
    # tuning burden Photon avoids.  (On the paper's 125M/real-text
    # loss landscape, the high-eta runs diverge outright; on the
    # smooth synthetic loss they instead converge fast, so the sweep
    # spread — not divergence — is the transferable shape.  See
    # EXPERIMENTS.md.)
    finals = sorted(diloco_finals.values())
    assert finals[-1] / finals[0] > 1.5, diloco_finals
    # Photon beats the paper-selected DiLoCo(0.1) configuration
    # (Table 3's 2x speedup shows up as a lower curve everywhere).
    diloco_01 = curves["DiLoCo eta=0.1"]
    photon = curves["Photon"]
    assert photon_final < diloco_01[-1]
    assert all(p <= d * 1.05 for p, d in zip(photon, diloco_01))
