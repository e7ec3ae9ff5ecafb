"""Table 2 — wall/compute/communication breakdown for billion-scale runs.

The paper computes these timings with its own analytic model
(Appendix B.1): centralized DDP synchronizes a full Ring-AllReduce
every optimizer step over a 10 Gbps link, while the federated run
communicates once per 500-step round.  We evaluate the same equations
with the paper's published throughputs ν and model sizes and compare
against the Table 2 numbers.

Shape asserted: federated wall < centralized wall; federated
communication ≈ 0.1% of its wall time; centralized wall is
communication-dominated.
"""

from __future__ import annotations

from repro.config import PAPER_MODELS, PAPER_THROUGHPUTS, WallTimeConfig
from repro.net import WallTimeModel, gbps_to_mbps

from common import print_table

#: (model, workers/clients K, centralized optimizer steps to the target
#: perplexity, paper wall hours (cent, fed), paper compute hours
#: (cent, fed), paper comm hours (cent, fed)).  The step counts are the
#: ones implied by the paper's own compute hours and throughputs
#: (hours × ν × 3600).
TABLE2_ROWS = [
    ("1.3B", 8, 19_630, (26.7, 18.02), (6.5, 18.0), (20.2, 0.02)),
    ("3B", 4, 22_890, (56.6, 25.2), (16.1, 25.1), (40.48, 0.05)),
    ("7B", 4, 21_900, (147.9, 95.6), (50.7, 95.5), (97.2, 0.1)),
]

LOCAL_STEPS = 500  # Table 6: 500 local steps per round
BANDWIDTH = gbps_to_mbps(10.0)  # "a fixed 10Gbps bandwidth for the slowest link"

#: Federated runs reach the same perplexity in ~half the optimizer
#: steps (the paper's 2x data-efficiency result, independently
#: reproduced in bench_table3_diloco at miniature scale).
FED_STEP_RATIO = 0.5


def compute_table2() -> list[dict]:
    results = []
    for name, workers, cent_steps, paper_wall, paper_compute, paper_comm in TABLE2_ROWS:
        cfg = PAPER_MODELS[name]
        model_mb = cfg.param_bytes / 2**20
        nu = PAPER_THROUGHPUTS[name]

        fed_model = WallTimeModel(WallTimeConfig(
            throughput=nu["federated"], bandwidth_mbps=BANDWIDTH, model_mb=model_mb))
        cent_model = WallTimeModel(WallTimeConfig(
            throughput=nu["centralized"], bandwidth_mbps=BANDWIDTH, model_mb=model_mb))

        fed_steps = int(cent_steps * FED_STEP_RATIO)
        rounds = fed_steps / LOCAL_STEPS
        fed = fed_model.round_timing("rar", workers, LOCAL_STEPS)
        fed_wall = rounds * fed.total_s / 3600
        fed_compute = rounds * fed.compute_s / 3600
        fed_comm = rounds * fed.comm_s / 3600

        cent = cent_model.centralized_timing(workers, cent_steps)
        results.append({
            "name": name,
            "workers": workers,
            "cent": (cent.total_s / 3600, cent.compute_s / 3600, cent.comm_s / 3600),
            "fed": (fed_wall, fed_compute, fed_comm),
            "paper_cent": (paper_wall[0], paper_compute[0], paper_comm[0]),
            "paper_fed": (paper_wall[1], paper_compute[1], paper_comm[1]),
        })
    return results


def test_table2_system_metrics():
    results = compute_table2()

    rows = []
    for r in results:
        for mode, key, paper_key in (("Cen", "cent", "paper_cent"),
                                     ("Fed", "fed", "paper_fed")):
            wall, compute, comm = r[key]
            p_wall, p_compute, p_comm = r[paper_key]
            rows.append([f"{mode}-{r['name']}",
                         f"{p_wall:.1f} / {wall:.1f}",
                         f"{p_compute:.1f} / {compute:.1f}",
                         f"{p_comm:.2f} / {comm:.2f}"])
    print_table(
        "Table 2: system metrics (paper / model), hours",
        ["Model", "Wall (p/m)", "Compute (p/m)", "Comm (p/m)"],
        rows,
    )

    for r in results:
        cent_wall, cent_compute, cent_comm = r["cent"]
        fed_wall, fed_compute, fed_comm = r["fed"]
        # Federated training finishes sooner on the same links.
        assert fed_wall < cent_wall, r["name"]
        # Federated communication is ~0.1% of wall time (paper: 0.001x).
        assert fed_comm / fed_wall < 0.005, r["name"]
        # Centralized wall time is communication-dominated at 10 Gbps.
        assert cent_comm > cent_compute, r["name"]
        # Federated compute exceeds centralized compute (fewer GPUs per
        # client => lower throughput), as in the paper's 1.6x-2.8x.
        assert fed_compute > cent_compute, r["name"]
        # Wall-time ratio in the paper's 0.45x-0.67x band (loose).
        ratio = fed_wall / cent_wall
        assert 0.2 < ratio < 0.9, (r["name"], ratio)
