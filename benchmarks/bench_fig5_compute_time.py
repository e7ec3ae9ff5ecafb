"""Figure 5 — the compute-time trade-off.

The paper measures wall time to reach two target perplexities (42 and
35) as the global batch size Bg = N·Bl grows through N ∈ {1,…,16}
clients, for 64/128/512 local steps per round: more clients reach the
target in fewer rounds, with diminishing returns at the harder target
and heavier local work (McCandlish et al.'s critical-batch-size
effect).

The effect requires the noise-dominated training regime (client batch
below the critical batch size), so this bench uses the smallest
hardware batch Bl = 1 with a high constant LR — the miniature analogue
of the paper's Bl = 32 on C4 — over N ∈ {1, 4, 16} and τ ∈ {8, 32}.
Measured rounds-to-target are converted to wall time with the
Appendix B.1 model (ν = 2, RAR).
"""

from __future__ import annotations

from repro.config import FedConfig, OptimConfig
from repro.fed import Photon
from repro.optim import ConstantLR

from common import MICRO, TARGET_HIGH, TARGET_LOW, print_table, walltime_125m

CLIENT_COUNTS = [1, 4, 16]
LOCAL_STEP_GRID = [8, 32]
LOCAL_BATCH = 1
HIGH_LR = 0.02
MAX_ROUNDS = {8: 28, 32: 12}


def run_sweep() -> dict[tuple[int, int], dict]:
    results: dict[tuple[int, int], dict] = {}
    wt = walltime_125m("rar")
    for tau in LOCAL_STEP_GRID:
        for n in CLIENT_COUNTS:
            optim = OptimConfig(max_lr=HIGH_LR, warmup_steps=2,
                                schedule_steps=8192, batch_size=LOCAL_BATCH,
                                weight_decay=0.0, grad_clip=1e9)
            photon = Photon(
                MICRO,
                FedConfig(population=n, clients_per_round=n,
                          local_steps=tau, rounds=MAX_ROUNDS[tau]),
                optim, schedule=ConstantLR(HIGH_LR), data_seed=3,
            )
            history = photon.train(target_perplexity=TARGET_LOW)
            cell = {}
            for label, target in (("high", TARGET_HIGH), ("low", TARGET_LOW)):
                rounds = history.rounds_to_target(target)
                cell[label] = (
                    None if rounds is None
                    else wt.total_wall_time_s("rar", max(n, 2), tau, rounds + 1)
                )
            results[(n, tau)] = cell
    return results


def test_fig5_compute_time_tradeoff():
    results = run_sweep()

    for label, target in (("high", TARGET_HIGH), ("low", TARGET_LOW)):
        rows = []
        for n in CLIENT_COUNTS:
            row = [n * LOCAL_BATCH]
            for tau in LOCAL_STEP_GRID:
                wall = results[(n, tau)][label]
                row.append("—" if wall is None else f"{wall:.0f}")
            rows.append(row)
        print_table(
            f"Figure 5: simulated wall time (s) to PPL={target} "
            "(paper targets 42/35)",
            ["Global batch Bg"] + [f"tau={t}" for t in LOCAL_STEP_GRID],
            rows,
        )

    # Claim 1: at the smaller tau, scaling Bg strictly reduces wall
    # time to the easy target (the paper's clear tau=64 trend).
    tau = LOCAL_STEP_GRID[0]
    walls = [results[(n, tau)]["high"] for n in CLIENT_COUNTS]
    assert all(w is not None for w in walls)
    assert walls[0] > walls[1] > walls[2], walls

    # Claim 2: the hard target benefits from scale too — the largest
    # cohort reaches it while the single client does not (or is slower).
    tau_hard = LOCAL_STEP_GRID[0]
    single = results[(CLIENT_COUNTS[0], tau_hard)]["low"]
    largest = results[(CLIENT_COUNTS[-1], tau_hard)]["low"]
    assert largest is not None
    assert single is None or largest < single

    # Claim 3: whenever the hard target is reached, the easy target was
    # reached first.
    for cell in results.values():
        if cell["low"] is not None:
            assert cell["high"] is not None
            assert cell["high"] <= cell["low"]
