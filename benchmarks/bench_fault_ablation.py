"""Fault ablation: deadline/drop policies under stragglers + crashes.

The async engine's deadline turns stragglers from a pacing problem
into a policy decision.  This bench trains the same micro federation
under a 4x compute/link spread, flaky uptime and random crashes, once
per drop policy:

* ``admit_stale`` — measure only: every delta is admitted with its
  staleness discount, so the server waits out the stragglers to fill
  its buffer (the FedBuff baseline);
* ``drop`` — enforce: requests that cannot finish inside the deadline
  are cancelled (client back to the idle pool) and a non-empty buffer
  is force-flushed at most ``deadline`` seconds after the previous
  flush;
* ``requeue`` — like ``drop``, but the cancelled client immediately
  re-pulls the current model;
* ``drop + adaptive`` — additionally shrinks slow clients' local
  steps so they fit under the deadline and contribute again.

Headline assertion (the PR's acceptance anchor): at the same number
of server updates, ``drop`` finishes in less simulated wall time than
``admit_stale``.  The run data is also written to
``benchmarks/artifacts/fault_ablation.json`` so CI can archive it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import FedConfig, OptimConfig, WallTimeConfig
from repro.fed import FailureModel, FaultPolicy, Photon

from common import MICRO, NU_125M, P2P_BANDWIDTH_MBPS, print_table

POPULATION = 6
LOCAL_STEPS = 8
ROUNDS = 5
SPREAD = 4.0
UPTIME = 0.7
CRASH_PROB = 0.05
#: Nominal cycle ≈ LOCAL_STEPS / ν = 4 s compute + ~0 comm; the
#: deadline admits nominal clients and cancels the deep stragglers.
DEADLINE_S = 6.0

WALLTIME = WallTimeConfig(
    throughput=NU_125M, bandwidth_mbps=P2P_BANDWIDTH_MBPS,
    model_mb=MICRO.param_bytes / 2**20,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "fault_ablation.json"


def _photon(drop_policy: str | None, adaptive: bool = False) -> Photon:
    fed = FedConfig(population=POPULATION, clients_per_round=POPULATION,
                    local_steps=LOCAL_STEPS, rounds=ROUNDS, mode="async",
                    staleness_alpha=0.5,
                    deadline=DEADLINE_S if drop_policy else None,
                    drop_policy=drop_policy,
                    adaptive_local_steps=adaptive)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=4, weight_decay=0.0)
    return Photon(MICRO, fed, optim, num_shards=POPULATION, val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=SPREAD,
                  uptime=UPTIME,
                  failure_model=FailureModel(crash_prob=CRASH_PROB, seed=7),
                  fault_policy=FaultPolicy(mode="retry_round", max_retries=1))


def run_ablation() -> dict[str, dict]:
    results = {}
    for name, policy, adaptive in [
        ("admit_stale", "admit_stale", False),
        ("drop", "drop", False),
        ("requeue", "requeue", False),
        ("drop + adaptive", "drop", True),
    ]:
        photon = _photon(policy, adaptive)
        history = photon.train()
        results[name] = {
            "policy": policy,
            "adaptive_local_steps": adaptive,
            "server_updates": len(history),
            "wall_s": photon.aggregator.simulated_wall_time_s,
            "final_ppl": history.val_perplexities[-1],
            "dropped_steps": sum(r.dropped_steps for r in history),
            "dropped_bytes": sum(r.dropped_bytes for r in history),
            "deadline_misses": sum(r.deadline_misses for r in history),
            "retries": sum(r.retries for r in history),
            "failed": sum(len(r.failed_clients) for r in history),
        }
    return results


def test_fault_ablation():
    results = run_ablation()

    rows = [[name, r["wall_s"], r["final_ppl"], r["dropped_steps"],
             r["deadline_misses"], r["retries"]]
            for name, r in results.items()]
    print_table(
        f"Deadline/drop ablation: {ROUNDS} server updates, {POPULATION} clients, "
        f"{SPREAD}x spread, uptime {UPTIME}, crash p={CRASH_PROB}, "
        f"deadline {DEADLINE_S}s",
        ["Policy", "Sim wall (s)", "Final ppl", "Dropped steps",
         "Late admits", "Retries"],
        rows,
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {
            "population": POPULATION, "local_steps": LOCAL_STEPS,
            "rounds": ROUNDS, "spread": SPREAD, "uptime": UPTIME,
            "crash_prob": CRASH_PROB, "deadline_s": DEADLINE_S,
        },
        "results": results,
    }, indent=2))

    stale, drop = results["admit_stale"], results["drop"]
    # Every arm applies the same number of server updates ...
    assert all(r["server_updates"] == ROUNDS for r in results.values())
    # ... but enforcing the deadline beats waiting out the stragglers.
    assert drop["wall_s"] < stale["wall_s"]
    # Enforcement is visible in the ledger; measurement in the misses.
    assert drop["dropped_steps"] > 0
    assert stale["deadline_misses"] > 0
    assert stale["dropped_steps"] == 0
    # Every arm still trains (the policies cost signal, not progress).
    assert all(r["final_ppl"] < MICRO.vocab_size for r in results.values())
