"""Flight-recorder overhead: enabled tracing must stay within 5%.

The observability layer (``repro.obs``) promises two things: the
disabled path is a no-op singleton (bit-exactness is hypothesis-tested
in ``tests/test_obs.py``), and the *enabled* path is cheap enough to
leave on for real runs.  This bench measures the second claim on the
population-scale shape where the span volume is largest: a
vector-plane async federation with jitter, where every dispatched
client cycle emits a cycle span with two children and every server
update emits a flush span plus a meters sample.

Both arms run the identical federation (same seed, same math — the
histories are bit-identical by the tentpole guarantee); a run's wall
time excludes construction and includes trace export (the recorder is
not cheap if the flush isn't).  The arms run as ``PAIRS`` back-to-back
pairs in one process, the order alternating from pair to pair, and
``overhead_frac`` is the median over pairs of traced / untraced - 1:
each ratio compares two runs a fraction of a second apart, so host
drift cancels within a pair, and the median drops the pairs a burst
of host load hit.  The gate is the in-bench assert
``overhead_frac <= MAX_OVERHEAD``.  On a 2-core host the same harness
run untraced against untraced read -1.7 % to +0.7 % (6 runs), where
the earlier statistic, the ratio of the two arms' minimums over 5
pairs, read -21.5 % to +13.6 % (30 five-pair blocks).  The absolute
wall times (per-arm medians) are reported in the artifact but compared
against no baseline (the perf ledger measures host speed).
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

from repro.config import FedConfig, OptimConfig, WallTimeConfig
from repro.fed import Photon

from common import MICRO, NU_125M, P2P_BANDWIDTH_MBPS, print_table

POPULATION = 10_000
COHORT = 32
BUFFER = 8
COHORTS = 32
LOCAL_STEPS = 2
ROUNDS = 6
SPREAD = 4.0
JITTER = 0.2
PAIRS = 25
MAX_OVERHEAD = 0.05

WALLTIME = WallTimeConfig(
    throughput=NU_125M, bandwidth_mbps=P2P_BANDWIDTH_MBPS,
    model_mb=MICRO.param_bytes / 2**20,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "obs_overhead.json"


def _photon(trace_path: str | None) -> Photon:
    fed = FedConfig(population=POPULATION, clients_per_round=COHORT,
                    buffer_size=BUFFER, local_steps=LOCAL_STEPS,
                    rounds=ROUNDS, mode="async", staleness_alpha=0.5,
                    client_plane="vector", cohorts=COHORTS, jitter=JITTER,
                    trace_path=trace_path,
                    metrics_every=1 if trace_path else None)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=4, weight_decay=0.0)
    return Photon(MICRO, fed, optim, corpus="pile", val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=SPREAD)


def _train_s(trace_path: str | None) -> tuple[float, int]:
    """Wall seconds of one train() (construction excluded, trace
    export included) and the dispatched-cycle count."""
    photon = _photon(trace_path)
    start = time.perf_counter()
    photon.train()
    elapsed = time.perf_counter() - start
    return elapsed, photon.aggregator._seq


def run_overhead() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        # Warmup: data-generation caches and lazy imports warm on the
        # first run in a process; without this throwaway the second
        # arm of every pair would measure a warmer process.
        _train_s(None)
        untraced = []
        traced = []
        for pair in range(PAIRS):
            # Alternate pair order so slow drift (CPU frequency,
            # shared-box load) hits both arms symmetrically.
            arms = [(untraced, None),
                    (traced, str(Path(tmp) / f"trace_{pair}.json"))]
            for bucket, path in (arms if pair % 2 == 0 else arms[::-1]):
                bucket.append(_train_s(path))
    untraced_s = statistics.median(s for s, _ in untraced)
    traced_s = statistics.median(s for s, _ in traced)
    ratio = statistics.median(t / u for (u, _), (t, _) in zip(untraced, traced))
    return {
        "server_updates": ROUNDS,
        "client_cycles": untraced[0][1],
        "pairs": PAIRS,
        "untraced_s": round(untraced_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_s": round(traced_s - untraced_s, 4),
        "overhead_frac": round(ratio - 1.0, 4),
    }


def test_obs_overhead():
    r = run_overhead()
    results = {"async-10k": r}

    print_table(
        f"Flight-recorder overhead: {POPULATION:,} clients, {COHORT} in "
        f"flight, buffer {BUFFER}, jitter {JITTER}, median of {PAIRS} pairs",
        ["Arm", "Updates", "Cycles", "Untraced (s)", "Traced (s)",
         "Overhead"],
        [["async-10k", r["server_updates"], r["client_cycles"],
          r["untraced_s"], r["traced_s"],
          f"{r['overhead_frac']:+.1%}"]],
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {
            "population": POPULATION, "cohort": COHORT, "buffer": BUFFER,
            "cohorts": COHORTS, "local_steps": LOCAL_STEPS,
            "rounds": ROUNDS, "spread": SPREAD, "jitter": JITTER,
            "pairs": PAIRS,
        },
        "results": results,
    }, indent=2))

    assert r["server_updates"] == ROUNDS
    assert r["client_cycles"] > 0
    # The headline gate: enabled tracing costs at most 5% wall time.
    assert r["overhead_frac"] <= MAX_OVERHEAD, r


if __name__ == "__main__":
    print(json.dumps(run_overhead(), indent=2))
