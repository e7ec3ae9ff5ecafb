"""Table 1 — regional compute resources and resolved client strategies.

Regenerates the resource table and, for each (model size, region)
entry, runs the Section 4 strategy heuristic over the corresponding
silo to show how each client would execute locally (single GPU / DDP /
FSDP).  The paper's Table 1 is configuration, so the checkable shape
is: 7B/3B clients need multi-GPU strategies, 125M clients run on a
single GPU each.
"""

from __future__ import annotations

from repro.config import PAPER_MODELS, PAPER_RESOURCES
from repro.parallel import H100, NodeSpec, SiloSpec, select_strategy

from common import print_table

#: Table 1 uses "1B" for the 1.3B architecture.
_SIZE_TO_MODEL = {"7B": "7B", "3B": "3B", "1B": "1.3B", "125M": "125M"}


def build_resource_table() -> list[list]:
    rows = []
    for size, regions in PAPER_RESOURCES.items():
        model = PAPER_MODELS[_SIZE_TO_MODEL[size]]
        for region, (n_clients, gpus_per_client) in regions.items():
            silo = SiloSpec(
                f"{region}-{size}",
                (NodeSpec(tuple(H100 for _ in range(gpus_per_client))),),
            )
            plan = select_strategy(silo, model)
            rows.append([size, region, f"{n_clients} x {gpus_per_client} H100",
                         plan.strategy, plan.n_workers])
    return rows


def test_table1_resources():
    rows = build_resource_table()
    print_table(
        "Table 1: regional resources and resolved local strategies",
        ["Size", "Region", "Clients x GPUs", "Strategy", "Workers"],
        rows,
    )

    by_size = {}
    for size, _, _, strategy, workers in rows:
        by_size.setdefault(size, []).append((strategy, workers))

    # 7B does not fit a single H100: every client shards across 8 GPUs.
    assert all(s == "fsdp" and w == 8 for s, w in by_size["7B"])
    # 3B fits per-GPU: 4-GPU clients run DDP.
    assert all(s == "ddp" and w == 4 for s, w in by_size["3B"])
    # 125M clients each hold one GPU.
    assert all(s == "single_gpu" and w == 1 for s, w in by_size["125M"])
    # Total federation GPU counts match the paper's table.
    gpu_total = {
        size: sum(c * g for c, g in PAPER_RESOURCES[size].values())
        for size in PAPER_RESOURCES
    }
    assert gpu_total["7B"] == 32
    assert gpu_total["3B"] == 16
    assert gpu_total["125M"] == 10
