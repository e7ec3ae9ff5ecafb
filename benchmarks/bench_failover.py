"""Failover bench: server crashes vs replication, at equal updates.

Every arm drives the same micro federation through the same number of
server updates while scripted crashes kill a server mid-run — the root
(the failover controller's problem) or an edge aggregator (the
hierarchy's problem) — with 0, 1 or 2 standby replicas.  The paper's
operational claim is that federation survives infrastructure loss;
this bench quantifies the price:

* ``updates_lost_per_crash`` — server updates rolled back per crash.
  Deterministic given the seeds: a replicated root at cadence 1 loses
  exactly the round that died (≤ ``replicate_every``); an unreplicated
  root rolls back to the version-0 snapshot; an unreplicated edge
  drops its cohort instead.
* ``recovery_s`` — real promote/restore wall time (the only
  non-simulated clock here, a few ms).  Its row's threshold is 10.0:
  it gates only the order of magnitude, an accidental O(model) blow-up
  in the snapshot path, not runner noise.

Both are rows of ``benchmarks/gates.json``, checked against
``benchmarks/baselines/failover.json`` by ``check_regression.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import FedConfig, OptimConfig
from repro.fed import FailureModel, Photon

from common import MICRO, print_table

POPULATION = 6
LOCAL_STEPS = 4
ROUNDS = 6
TIERS = 3  # England (root site), Utah, Texas
REPLICATE_EVERY = 1

ROOT_CRASHES = {(2, "root"), (4, "root")}
EDGE_CRASHES = {(2, "edge:Utah"), (4, "edge:Texas")}

ARTIFACT = Path(__file__).parent / "artifacts" / "failover.json"


def _photon(mode: str, replicas: int, crashes: set) -> Photon:
    fed = FedConfig(
        population=POPULATION, clients_per_round=POPULATION,
        local_steps=LOCAL_STEPS, rounds=ROUNDS, mode=mode,
        **({"buffer_size": 3, "staleness_alpha": 0.5}
           if mode == "async" else {}),
        tiers=TIERS, tier_compression="int8", error_feedback=True,
        replicas=replicas, replicate_every=REPLICATE_EVERY)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=4, weight_decay=0.0)
    return Photon(MICRO, fed, optim, num_shards=POPULATION, val_batches=2,
                  server_failure_model=FailureModel(scripted=set(crashes)))


def run_failover() -> dict[str, dict]:
    results = {}
    arms = [(mode, target, replicas)
            for mode in ("sync", "async")
            for target, replicas in (("root", 0), ("root", 1), ("root", 2),
                                     ("edge", 0), ("edge", 1))]
    for mode, target, replicas in arms:
        crashes = ROOT_CRASHES if target == "root" else EDGE_CRASHES
        photon = _photon(mode, replicas, crashes)
        history = photon.train()
        result = photon.result()
        crash_count = result.server_crashes + result.edge_crashes
        lost = result.server_updates_lost + result.edge_updates_lost
        results[f"{mode}/{target}/r{replicas}"] = {
            "mode": mode, "target": target, "replicas": replicas,
            "server_updates": len(history),
            "crashes": crash_count,
            "updates_lost_per_crash": lost / crash_count if crash_count else 0.0,
            "recovery_s": result.recovery_s_total,
            "final_ppl": history.val_perplexities[-1],
            "backhaul_wire_bytes": result.backhaul_wire_bytes,
            "replication_wire_bytes": result.replication_wire_bytes,
        }
    return results


def test_failover():
    results = run_failover()

    rows = [[name, r["crashes"], r["updates_lost_per_crash"],
             r["recovery_s"], r["replication_wire_bytes"]]
            for name, r in results.items()]
    print_table(
        f"Failover: {ROUNDS} server updates, {TIERS}-region tree, "
        f"2 scripted crashes per arm, replicate_every={REPLICATE_EVERY}",
        ["Arm", "Crashes", "Lost/crash", "Recovery (s)", "Repl bytes"],
        rows,
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {
            "population": POPULATION, "local_steps": LOCAL_STEPS,
            "rounds": ROUNDS, "tiers": TIERS,
            "replicate_every": REPLICATE_EVERY,
            "root_crashes": sorted(map(list, ROOT_CRASHES)),
            "edge_crashes": sorted(map(list, EDGE_CRASHES)),
        },
        "results": results,
    }, indent=2))

    # Every arm absorbs both crashes and still completes its updates.
    assert all(r["server_updates"] == ROUNDS for r in results.values())
    assert all(r["crashes"] == 2 for r in results.values())
    for name, r in results.items():
        if r["target"] == "root" and r["replicas"] >= 1:
            # The headline bound: a dead root resumed from a replica
            # loses at most replicate_every server updates per crash.
            assert r["updates_lost_per_crash"] <= REPLICATE_EVERY, name
            assert r["replication_wire_bytes"] > 0, name
        if r["target"] == "root" and r["replicas"] == 0:
            # Cold restart rolls all the way back: strictly worse.
            assert r["updates_lost_per_crash"] > REPLICATE_EVERY, name
        if r["target"] == "edge":
            # Replicated edges re-forward (nothing lost, double hop);
            # unreplicated edges lose their cohort.
            if r["replicas"] >= 1:
                assert r["updates_lost_per_crash"] == 0, name
            else:
                assert r["updates_lost_per_crash"] > 0, name
        assert r["recovery_s"] >= 0
        assert r["final_ppl"] < MICRO.vocab_size, name
