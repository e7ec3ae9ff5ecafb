"""Selection ablation: predict stragglers instead of cancelling them.

PR 2's deadline policies *react* to stragglers — dispatch, wait, cancel
at the deadline — so every doomed request still burns a concurrency
slot for ``deadline`` simulated seconds and forces partial flushes.
The scheduler moves the decision before dispatch.  This bench trains
the same micro federation under a 4x compute/link spread with jittered
per-cycle durations, once per policy arm:

* ``drop-after-dispatch`` — PR-2 baseline: random selection, requests
  that outlive the deadline are cancelled;
* ``fastest`` — greedy shortest-predicted-cycle selection, same drop
  deadline;
* ``utility`` — Oort/REFL-style deadline-aware score (skip clients
  whose predicted pull+train+push exceeds the deadline, recency bonus,
  fairness floor), same drop deadline;
* ``utility + admit_partial`` — utility selection plus partial-work
  admission: a cycle the floor forces past the deadline uploads the
  steps it finished instead of discarding them.

Headline assertion (the PR's acceptance anchor): at the same number of
server updates, ``utility`` strictly beats ``drop-after-dispatch`` in
simulated wall time.  The run data is written to
``benchmarks/artifacts/selection_ablation.json``; CI compares it
against the committed baseline via ``check_regression.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import FedConfig, OptimConfig, WallTimeConfig
from repro.fed import Photon

from common import MICRO, NU_125M, P2P_BANDWIDTH_MBPS, print_table

POPULATION = 8
#: Concurrency below the population: dispatch slots are scarce, so
#: *who* gets them is the experiment (with full participation every
#: policy keeps everyone in flight and the arms collapse).
COHORT = 4
#: Flush on 3 arrivals — small enough that feasible clients can close
#: a window before the deadline forces a partial flush.
BUFFER = 3
LOCAL_STEPS = 8
ROUNDS = 5
SPREAD = 4.0
JITTER = 0.1
#: Nominal cycle ≈ LOCAL_STEPS / ν = 4 s compute + ~0 comm; the
#: deadline admits nominal clients and excludes the deep stragglers.
DEADLINE_S = 6.0

WALLTIME = WallTimeConfig(
    throughput=NU_125M, bandwidth_mbps=P2P_BANDWIDTH_MBPS,
    model_mb=MICRO.param_bytes / 2**20,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "selection_ablation.json"

ARMS = [
    ("drop-after-dispatch", "random", "drop"),
    ("fastest", "fastest", "drop"),
    ("utility", "utility", "drop"),
    ("utility + admit_partial", "utility", "admit_partial"),
]


def _photon(selection: str, drop_policy: str) -> Photon:
    fed = FedConfig(population=POPULATION, clients_per_round=COHORT,
                    buffer_size=BUFFER, local_steps=LOCAL_STEPS,
                    rounds=ROUNDS, mode="async", staleness_alpha=0.5,
                    deadline=DEADLINE_S, drop_policy=drop_policy,
                    selection=selection, jitter=JITTER)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=4, weight_decay=0.0)
    return Photon(MICRO, fed, optim, num_shards=POPULATION, val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=SPREAD)


def run_ablation() -> dict[str, dict]:
    results = {}
    for name, selection, drop_policy in ARMS:
        photon = _photon(selection, drop_policy)
        history = photon.train()
        result = photon.result()
        results[name] = {
            "selection": selection,
            "drop_policy": drop_policy,
            "server_updates": len(history),
            "wall_s": result.simulated_wall_time_s,
            "final_ppl": history.val_perplexities[-1],
            "dropped_steps": result.dropped_steps,
            "salvaged_steps": result.salvaged_steps,
            "deadline_misses": result.deadline_misses,
        }
    return results


def test_selection_ablation():
    results = run_ablation()

    rows = [[name, r["wall_s"], r["final_ppl"], r["dropped_steps"],
             r["salvaged_steps"]]
            for name, r in results.items()]
    print_table(
        f"Selection ablation: {ROUNDS} server updates, {POPULATION} clients "
        f"({COHORT} slots, buffer {BUFFER}), {SPREAD}x spread, "
        f"jitter {JITTER}, deadline {DEADLINE_S}s",
        ["Policy", "Sim wall (s)", "Final ppl", "Dropped steps", "Salvaged"],
        rows,
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {
            "population": POPULATION, "cohort": COHORT, "buffer": BUFFER,
            "local_steps": LOCAL_STEPS, "rounds": ROUNDS, "spread": SPREAD,
            "jitter": JITTER, "deadline_s": DEADLINE_S,
        },
        "results": results,
    }, indent=2))

    baseline, utility = results["drop-after-dispatch"], results["utility"]
    salvage = results["utility + admit_partial"]
    # Every arm applies the same number of server updates ...
    assert all(r["server_updates"] == ROUNDS for r in results.values())
    # ... and predicting stragglers strictly beats cancelling them
    # after dispatch (the acceptance anchor).
    assert utility["wall_s"] < baseline["wall_s"]
    # Deadline-aware selection wastes less dispatched work than
    # drop-after-dispatch.
    assert utility["dropped_steps"] <= baseline["dropped_steps"]
    # Partial-work admission converts would-be drops into salvage.
    assert salvage["salvaged_steps"] > 0
    # Every arm still trains.
    assert all(r["final_ppl"] < MICRO.vocab_size for r in results.values())
