"""Ablation — Link compression and quantization.

Section 4: "Link provides an extensible post-processing pipeline by
leveraging model compression ... By default, Photon uses lossless
compression techniques without pruning."  This ablation measures the
payload sizes and convergence impact of the three Link modes on the
same federated run:

* raw (no compression),
* zlib (the lossless default),
* the ``int8`` codec both ways + zlib (lossy, ~4x smaller).

Shape asserted: zlib <= raw payloads; int8 < half of raw; all three
runs converge, with the lossy run within 15% of the lossless one.
"""

from __future__ import annotations

from repro.compress import make_codec
from repro.config import FedConfig, OptimConfig
from repro.fed import Link, Photon

from common import MICRO, print_table

N_CLIENTS = 2
LOCAL_STEPS = 8
ROUNDS = 6

MODES = {
    "raw": lambda: Link(compress=False),
    "zlib": lambda: Link(compress=True),
    "int8+zlib": lambda: Link(uplink_codec=make_codec("int8"),
                              downlink_codec=make_codec("int8")),
}


def run_modes() -> dict[str, dict]:
    results = {}
    for name, make_link in MODES.items():
        optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                            schedule_steps=ROUNDS * LOCAL_STEPS,
                            batch_size=4, weight_decay=0.0)
        photon = Photon(
            MICRO,
            FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                      local_steps=LOCAL_STEPS, rounds=ROUNDS),
            optim, data_seed=3,
        )
        photon.aggregator.link = make_link()
        history = photon.train()
        results[name] = {
            "ppl": history.val_perplexities,
            "bytes": history.total_comm_bytes,
        }
    return results


def test_ablation_link_compression():
    results = run_modes()

    rows = [[name, f"{r['bytes']:,}", f"{r['ppl'][-1]:.2f}"]
            for name, r in results.items()]
    print_table("Ablation: Link payload modes",
                ["Mode", "Total bytes", "Final PPL"], rows)

    raw = results["raw"]["bytes"]
    assert results["zlib"]["bytes"] <= raw
    assert results["int8+zlib"]["bytes"] < raw / 2
    for name, r in results.items():
        assert r["ppl"][-1] < 0.5 * r["ppl"][0], name
    # Lossy quantization costs at most 15% final perplexity here.
    assert results["int8+zlib"]["ppl"][-1] <= results["zlib"]["ppl"][-1] * 1.15
