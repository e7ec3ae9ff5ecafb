"""Async vs sync round engines under heterogeneous stragglers.

The synchronous Algorithm-1 barrier paces every round at the slowest
sampled client; the FedBuff-style :class:`AsyncAggregator` keeps all
clients busy and aggregates whenever ``buffer_size`` deltas arrive,
discounting stale ones by ``1/(1+s)^alpha``.  This bench trains the
same micro federation with both engines over the same heterogeneous
``WallTimeModel`` (log-uniform compute/link slowdowns up to 4x) and
compares simulated wall time and convergence:

* at equal *server-update* counts, async finishes in substantially
  less simulated wall time (it never waits for the straggler);
* with ``buffer_size == cohort`` and zero staleness penalty over an
  *equipollent* clock, the async trace equals the sync trace exactly
  (sanity anchor for the comparison).
"""

from __future__ import annotations

from repro.config import FedConfig, OptimConfig, WallTimeConfig
from repro.fed import Photon

from common import MICRO, NU_125M, P2P_BANDWIDTH_MBPS, print_table

POPULATION = 4
LOCAL_STEPS = 8
ROUNDS = 6
SPREAD = 4.0

WALLTIME = WallTimeConfig(
    throughput=NU_125M, bandwidth_mbps=P2P_BANDWIDTH_MBPS,
    model_mb=MICRO.param_bytes / 2**20,
)


def _photon(mode: str, spread: float, alpha: float = 0.5) -> Photon:
    fed = FedConfig(population=POPULATION, clients_per_round=POPULATION,
                    local_steps=LOCAL_STEPS, rounds=ROUNDS, mode=mode,
                    staleness_alpha=alpha if mode == "async" else None)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=4, weight_decay=0.0)
    return Photon(MICRO, fed, optim, num_shards=POPULATION, val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=spread)


def run_comparison() -> dict[str, dict]:
    results = {}
    for name, mode, spread, alpha in [
        ("sync, stragglers", "sync", SPREAD, 0.0),
        ("async, stragglers", "async", SPREAD, 0.5),
        ("sync, equipollent", "sync", 1.0, 0.0),
        ("async, equipollent", "async", 1.0, 0.0),
    ]:
        photon = _photon(mode, spread, alpha)
        history = photon.train()
        results[name] = {
            "wall_s": photon.aggregator.simulated_wall_time_s,
            "ppl": history.val_perplexities,
            "final": history.val_perplexities[-1],
        }
    return results


def test_async_vs_sync():
    results = run_comparison()

    rows = [[name, f"{r['wall_s']:.1f}", f"{r['final']:.2f}"]
            for name, r in results.items()]
    print_table(
        f"Async vs sync engines: {ROUNDS} server updates x {LOCAL_STEPS} local steps, "
        f"{POPULATION} clients, slowdown spread {SPREAD}x",
        ["Engine", "Sim wall (s)", "Final ppl"],
        rows,
    )

    sync_strag = results["sync, stragglers"]
    async_strag = results["async, stragglers"]
    # The headline claim: the buffered engine beats the barrier on
    # wall-clock under heterogeneity while still converging.
    assert async_strag["wall_s"] < sync_strag["wall_s"]
    assert async_strag["ppl"][-1] < async_strag["ppl"][0]

    # Sanity anchor: equipollent clock + full buffer + no staleness
    # penalty reproduces the synchronous trace exactly.
    sync_eq = results["sync, equipollent"]["ppl"]
    async_eq = results["async, equipollent"]["ppl"]
    assert sync_eq == async_eq
