"""Local-training throughput: sequential vs batched vs procpool.

The pure-numpy autograd is python-bound at micro scale, so cohort wall
time scales linearly with cohort size on the sequential plane (a
thread pool bought nothing under the GIL — 0.5-0.7x of sequential in
every shape measured on a 2-core host — and was deleted; ROADMAP
item 8).  The two
other local planes attack that directly:

* ``batched`` stacks the cohort's homogeneous clients along a leading
  model axis and advances all of them through ONE fused forward/
  backward/AdamW step — every numpy kernel runs over K clients' worth
  of data per python op (≥2x on a single core, more as K grows);
* ``procpool`` trains clients truly in parallel on a persistent fork
  pool with the broadcast weights mapped read-only into shared memory
  (scales with cores; ≥4x on 8 cores).

This bench measures REAL wall time (no simulated clock) at
``bench_async_vs_sync`` scale, checks all three arms produce
bit-identical final weights, and records ``s_per_client`` — wall
seconds per trained client cycle — per arm.  The guarded failure mode
is a plane silently degrading to sequential throughput, a step cliff,
so the gates are the in-bench speedup floors (a ratio of arms in one
process), not a comparison against a baseline.  At this micro shape
the procpool arm's speedup on two cores is host noise (x0.76-1.65 over
five runs); its case is the wide shapes where the stack rule does not
stack (ROADMAP item 8).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.config import FedConfig, OptimConfig
from repro.fed import Photon

from common import MICRO, print_table

POPULATION = 16
COHORT = 16
LOCAL_STEPS = 16
ROUNDS = 2

ARTIFACT = Path(__file__).parent / "artifacts" / "local_plane.json"

CORES = os.cpu_count() or 1
PROC_WORKERS = min(8, max(2, CORES))


def _photon(plane: str, max_workers: int = 1) -> Photon:
    fed = FedConfig(population=POPULATION, clients_per_round=COHORT,
                    local_steps=LOCAL_STEPS, rounds=ROUNDS,
                    local_plane=plane)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=2, weight_decay=0.0)
    return Photon(MICRO, fed, optim, num_shards=POPULATION, val_batches=1,
                  max_workers=max_workers)


def run_planes() -> dict[str, dict]:
    results = {}
    finals = {}
    for name, plane, workers in [
        ("sequential", "sequential", 1),
        ("batched", "batched", 1),
        ("procpool", "procpool", PROC_WORKERS),
    ]:
        photon = _photon(plane, max_workers=workers)
        start = time.perf_counter()
        history = photon.train()
        elapsed = time.perf_counter() - start
        cycles = ROUNDS * COHORT
        results[name] = {
            "server_updates": len(history),
            "client_cycles": cycles,
            "workers": workers,
            "elapsed_s": round(elapsed, 3),
            "s_per_client": round(elapsed / cycles, 4),
            "clients_per_sec": round(cycles / elapsed, 2),
            "final_ppl": history.val_perplexities[-1],
        }
        finals[name] = photon.aggregator.global_state
    # The planes change throughput only: identical final weights.
    for name, state in finals.items():
        for key in finals["sequential"]:
            np.testing.assert_array_equal(
                state[key], finals["sequential"][key],
                err_msg=f"{name} diverged from sequential at {key}")
    for name in results:
        results[name]["speedup"] = round(
            results["sequential"]["elapsed_s"] / results[name]["elapsed_s"], 2)
    return results


def test_local_plane():
    results = run_planes()

    rows = [[name, r["workers"], r["elapsed_s"], r["s_per_client"],
             r["clients_per_sec"], f"{r['speedup']:.2f}x"]
            for name, r in results.items()]
    print_table(
        f"Local planes: {ROUNDS} rounds x {COHORT} clients x "
        f"{LOCAL_STEPS} local steps (micro model, {CORES} cores)",
        ["Plane", "Workers", "Wall (s)", "s/client", "Clients/s", "Speedup"],
        rows,
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {
            "population": POPULATION, "cohort": COHORT,
            "local_steps": LOCAL_STEPS, "rounds": ROUNDS,
            "cores": CORES, "procpool_workers": PROC_WORKERS,
        },
        "results": results,
    }, indent=2))

    # The headline single-core claim: one fused step over K stacked
    # clients amortizes the python overhead of the autograd across the
    # cohort.
    assert results["batched"]["speedup"] >= 2.0, results["batched"]
    # The procpool claim scales with the machine: ≥4x on 8 cores.  On
    # smaller boxes require proportionally less; on a single core the
    # plane is pure overhead and only correctness is asserted (above).
    if CORES >= 8:
        assert results["procpool"]["speedup"] >= 4.0, results["procpool"]
    elif CORES >= 4:
        assert results["procpool"]["speedup"] >= 1.5, results["procpool"]


if __name__ == "__main__":
    import sys

    results = run_planes()
    print(json.dumps(results, indent=2))
    sys.exit(0)
