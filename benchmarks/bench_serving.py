"""Multi-tenant serving: latency/throughput of the batched adapter engine.

The serving tentpole's perf claim: one batched base forward over K
concurrent streams beats K single-stream decodes, while the factored
per-request adapters keep the output bit-identical to sequential
merge-and-decode (the *correctness* half lives in
``tests/test_serving.py``; this bench re-asserts output equality
across arms so the perf numbers are never measuring divergent work).

Both arms replay the same seeded Zipf trace through the same cache
configuration; only the number of concurrent streams differs (8 slots,
each taking the next request the moment it frees, against one
request at a time).  ``p99_ms`` and ``tokens_per_s`` are host wall
clock, so they are reported (``benchmarks/artifacts/serving.json``)
but gated against no baseline: the perf ledger's ``serve_mixed``
workload measures serving speed.  The bench fails on what does not
depend on the host: output parity across arms, and batched throughput
falling below one-at-a-time serving.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.nn import DecoderLM, apply_lora, lora_state_dict
from repro.serve import (
    AdapterCache,
    MultiAdapterEngine,
    RequestReplayer,
    SyntheticTrace,
    synthetic_adapter,
)

from common import SMALL, print_table

REQUESTS = 48
USERS = 12
ZIPF_S = 1.1
PROMPT_LEN = (4, 8)
GEN_LEN = (8, 16)
CACHE_CAPACITY = 6
RANK = 4
BASE_VERSION = 1
REPS = 3

ARMS = {"batched-8": 8, "sequential-1": 1}

ARTIFACT = Path(__file__).parent / "artifacts" / "serving.json"


def _replay(model: DecoderLM, template: dict, batch_size: int):
    engine = MultiAdapterEngine(model, base_version=BASE_VERSION,
                                max_streams=batch_size)
    cache = AdapterCache(CACHE_CAPACITY)
    replayer = RequestReplayer(
        engine, cache,
        lambda user: synthetic_adapter(template, user, BASE_VERSION),
        batch_size=batch_size)
    trace = SyntheticTrace(REQUESTS, USERS, zipf_s=ZIPF_S,
                           prompt_len=PROMPT_LEN, gen_len=GEN_LEN,
                           vocab_size=SMALL.vocab_size, seed=0)
    return replayer.run(trace)


def run_serving() -> dict:
    model = DecoderLM(SMALL, seed=0)
    probe = DecoderLM(SMALL, seed=0)
    apply_lora(probe, rank=RANK)
    template = lora_state_dict(probe)

    results: dict[str, dict] = {}
    outputs: dict[str, dict] = {}
    for arm, batch_size in ARMS.items():
        _replay(model, template, batch_size)  # warmup (caches, imports)
        best = None
        for _ in range(REPS):
            result = _replay(model, template, batch_size)
            if best is None or result.wall_s < best.wall_s:
                best = result
        outputs[arm] = best.outputs
        results[arm] = {
            "requests": best.requests,
            "tokens_out": best.tokens_out,
            "wall_s": best.wall_s,
            "p50_ms": round(best.p50_ms, 3),
            "p99_ms": round(best.p99_ms, 3),
            "tokens_per_s": round(best.tokens_per_s, 1),
            "cache_hit_rate": round(best.cache_hit_rate, 4),
            "adapters_resident": best.adapters_resident,
            "adapter_bytes": best.adapter_bytes,
        }

    # Output parity across arms: the stream count is a scheduling
    # choice, not a numerics choice — per-request tokens must not
    # depend on it.
    reference = outputs["sequential-1"]
    for arm, out in outputs.items():
        assert out.keys() == reference.keys()
        for rid in reference:
            assert np.array_equal(out[rid], reference[rid]), (arm, rid)
    return results


def test_serving():
    results = run_serving()

    print_table(
        f"Multi-tenant serving: {REQUESTS} requests, {USERS} Zipf users, "
        f"cache {CACHE_CAPACITY}, rank {RANK}, best of {REPS}",
        ["Arm", "Tokens", "Tok/s", "p50 (ms)", "p99 (ms)", "Hit rate",
         "Resident"],
        [[arm, r["tokens_out"], r["tokens_per_s"], r["p50_ms"], r["p99_ms"],
          f"{r['cache_hit_rate']:.0%}", r["adapters_resident"]]
         for arm, r in results.items()],
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {
            "model": SMALL.name, "requests": REQUESTS, "users": USERS,
            "zipf_s": ZIPF_S, "prompt_len": PROMPT_LEN, "gen_len": GEN_LEN,
            "cache_capacity": CACHE_CAPACITY, "rank": RANK, "reps": REPS,
            "arms": ARMS,
        },
        "results": results,
    }, indent=2))

    batched = results["batched-8"]
    sequential = results["sequential-1"]
    assert batched["tokens_out"] == sequential["tokens_out"]
    assert batched["cache_hit_rate"] > 0
    # The headline shape: batching amortizes the base forward, so
    # batched throughput must at least match one-at-a-time serving.
    assert batched["tokens_per_s"] >= sequential["tokens_per_s"], results


if __name__ == "__main__":
    print(json.dumps(run_serving(), indent=2))
