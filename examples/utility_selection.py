"""Utility-based client scheduling: predict stragglers, don't cancel them.

PR 2 handles a straggler *after* dispatch — wait out the deadline,
cancel, account the waste.  The ``ClientScheduler`` moves that
decision to selection time: the ``utility`` policy scores idle clients
by predicted cycle time, skips those whose pull+train+push cannot fit
the deadline, rotates waiting clients in via a recency bonus, and a
fairness floor guarantees even the deepest straggler is attempted at
least once per K server versions.  With ``jitter`` the clock is noisy
(borderline clients sometimes make it), and ``admit_partial`` means a
floor-forced attempt still contributes the steps it finished.

This walkthrough runs the same straggler-heavy federation (8 clients,
4 dispatch slots, 4x speed spread, jittered clock, 6 s deadline)
under three policies and prints what each one paid.

Run:
    python examples/utility_selection.py
"""

from __future__ import annotations

from repro import Photon
from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig

MODEL = ModelConfig("sched-demo", n_blocks=1, d_model=16, n_heads=2,
                    vocab_size=32, seq_len=16)
#: ~4 s nominal cycle (8 steps at 2 batches/s); slowdowns up to 4x.
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5,
                          model_mb=MODEL.param_bytes / 2**20)


def build(selection: str, drop_policy: str) -> Photon:
    fed = FedConfig(
        population=8, clients_per_round=4, buffer_size=3,
        local_steps=8, rounds=5, mode="async", staleness_alpha=0.5,
        deadline=6.0, drop_policy=drop_policy,
        selection=selection, jitter=0.1,
    )
    optim = OptimConfig(max_lr=5e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=4, weight_decay=0.0)
    return Photon(MODEL, fed, optim, num_shards=8, val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=4.0)


def main() -> None:
    scenarios = [
        ("random selection, drop after dispatch", "random", "drop"),
        ("utility selection, drop", "utility", "drop"),
        ("utility selection + admit_partial", "utility", "admit_partial"),
    ]
    print(f"{'scenario':<40} {'wall (s)':>9} {'dropped':>8} "
          f"{'salvaged':>9} {'final ppl':>10}")
    for title, selection, drop_policy in scenarios:
        photon = build(selection, drop_policy)
        photon.train()
        result = photon.result()
        print(f"{title:<40} {result.simulated_wall_time_s:>9.1f} "
              f"{result.dropped_steps:>8} {result.salvaged_steps:>9} "
              f"{result.final_perplexity:>10.2f}")
        # Who actually got the dispatch slots?
        sched = photon.aggregator.scheduler
        counts = ", ".join(
            f"{cid.removeprefix('client')}:{n}"
            for cid, n in zip(photon.population.ids, sched.selections) if n)
        print(f"  dispatches per client -> {counts}")
    print(
        "\nUtility selection reaches the same number of server updates in\n"
        "less simulated wall time because infeasible clients stop eating\n"
        "dispatch slots; the fairness floor still attempts every client,\n"
        "and admit_partial turns those attempts into salvaged steps."
    )


if __name__ == "__main__":
    main()
