"""Population scale: the vectorized control plane at fleet size.

The eager plane builds one ``LLMClient`` (model workspace + optimizer
+ streams) per member of the federation before the first round — at
a million clients that is hundreds of gigabytes of objects nobody
ever trains.  The vector plane (``client_plane="vector"``) keeps
per-client control state in numpy arrays keyed by client index and
materializes client objects lazily, bounded by ``max_live_clients``,
so memory scales with *cohorts + active clients* instead of the
population.

This bench runs a 100k-client async federation end to end (construction
included — that is where the eager plane dies) and reports two metrics:

* ``s_per_1k_cycles`` — wall seconds per 1000 dispatched client
  cycles, construction amortized in;
* ``peak_rss_mb`` — process peak RSS (``ru_maxrss``), the
  O(cohorts + active clients) memory claim.

The failure mode guarded is the plane silently falling back to
O(population) work or memory — a 10x cliff, not a 20% drift — and the
in-bench asserts catch it directly: peak RSS under 2 GiB, and only
dispatched clients ever materialized.  Neither metric is compared
against a baseline (the perf ledger's ``train_fleet`` workload
measures control-plane speed).  Run directly (``python benchmarks/bench_population_scale.py``)
for the ROADMAP demonstration: a 1M-client / 10k-server-update async
run on a laptop.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from repro.config import FedConfig, OptimConfig, WallTimeConfig
from repro.fed import Photon

from common import MICRO, NU_125M, P2P_BANDWIDTH_MBPS, print_table

POPULATION = 100_000
COHORT = 64          # concurrency: clients in flight at once
BUFFER = 16          # arrivals per server update
COHORTS = 64         # timing archetypes (O(cohorts) parameter memory)
LOCAL_STEPS = 2
ROUNDS = 8
SPREAD = 4.0

WALLTIME = WallTimeConfig(
    throughput=NU_125M, bandwidth_mbps=P2P_BANDWIDTH_MBPS,
    model_mb=MICRO.param_bytes / 2**20,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "population_scale.json"


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (ru_maxrss is KiB on Linux)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        peak_kb /= 1024
    return peak_kb / 1024


def _photon(population: int, rounds: int, buffer_size: int) -> Photon:
    fed = FedConfig(population=population, clients_per_round=COHORT,
                    buffer_size=buffer_size, local_steps=LOCAL_STEPS,
                    rounds=rounds, mode="async", staleness_alpha=0.5,
                    client_plane="vector", cohorts=COHORTS)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=4, weight_decay=0.0)
    # Pile: the only corpus whose per-client streams replicate lazily
    # at any population (C4 is capped by its shard count).
    return Photon(MICRO, fed, optim, corpus="pile", val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=SPREAD)


def run_scale(population: int = POPULATION, rounds: int = ROUNDS,
              buffer_size: int = BUFFER) -> dict:
    start = time.perf_counter()
    photon = _photon(population, rounds, buffer_size)
    built_s = time.perf_counter() - start
    history = photon.train()
    elapsed_s = time.perf_counter() - start
    pool = photon.clients
    cycles = photon.aggregator._seq  # every dispatched client cycle
    return {
        "population": population,
        "server_updates": len(history),
        "client_cycles": cycles,
        "build_s": round(built_s, 3),
        "elapsed_s": round(elapsed_s, 3),
        "s_per_1k_cycles": round(elapsed_s / (cycles / 1000), 3),
        "clients_per_s": round(cycles / elapsed_s, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "live_clients": pool.live_count(),
        "materialized": pool.materializations,
        "evicted": pool.evictions,
        "final_ppl": history.val_perplexities[-1],
    }


def test_population_scale():
    results = {"vector-100k": run_scale()}
    r = results["vector-100k"]

    print_table(
        f"Population scale: {r['population']:,} clients, {COHORT} in "
        f"flight, buffer {BUFFER}, {COHORTS} cohorts, {SPREAD}x spread",
        ["Arm", "Updates", "Cycles", "Build (s)", "Total (s)",
         "s/1k cycles", "Peak RSS (MB)", "Live", "Materialized"],
        [["vector-100k", r["server_updates"], r["client_cycles"],
          r["build_s"], r["elapsed_s"], r["s_per_1k_cycles"],
          r["peak_rss_mb"], r["live_clients"], r["materialized"]]],
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {
            "population": POPULATION, "cohort": COHORT, "buffer": BUFFER,
            "cohorts": COHORTS, "local_steps": LOCAL_STEPS,
            "rounds": ROUNDS, "spread": SPREAD,
        },
        "results": results,
    }, indent=2))

    assert r["server_updates"] == ROUNDS
    # The memory claim: O(cohorts + active clients), not O(population).
    # 100k eager micro clients would be ~15 GB of client objects alone;
    # the vector plane must stay within one laptop-sized budget.
    assert r["peak_rss_mb"] < 2048, r["peak_rss_mb"]
    # Laziness actually happened: only dispatched clients materialized.
    assert r["materialized"] <= r["client_cycles"] + COHORT
    assert r["live_clients"] <= max(64, 2 * COHORT) + 1
    # The run trains (perplexity below the uniform baseline).
    assert r["final_ppl"] < MICRO.vocab_size


if __name__ == "__main__":
    # ROADMAP demonstration: 1M clients, 10k server updates, buffer 1
    # (every completion is a server update), on a laptop.
    demo = run_scale(population=1_000_000, rounds=10_000, buffer_size=1)
    print(json.dumps(demo, indent=2))
