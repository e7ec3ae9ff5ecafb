"""Ablation — stragglers, deadlines and communication overlap.

The analytic wall-time model assumes equipollent, always-on clients;
this ablation quantifies what the paper's design choices buy when that
assumption breaks, using the event-driven federation simulator:

* a single 4×-slower straggler inflates synchronous-round wall time
  toward the straggler's pace;
* a deadline policy (drop clients beyond 1.5× the median compute
  time) recovers most of the loss at the cost of partial aggregation;
* overlapping communication with compute (Appendix B.2) removes the
  comm term from the critical path.
"""

from __future__ import annotations

from repro.net import ClientProfile, FederationSimulator

from common import MODEL_125M_MB, NU_125M, P2P_BANDWIDTH_MBPS, print_table

ROUNDS = 20
LOCAL_STEPS = 64


def _profiles(straggler: bool) -> list[ClientProfile]:
    profiles = [ClientProfile(f"c{i}", throughput=NU_125M, jitter=0.05)
                for i in range(7)]
    last = (ClientProfile("straggler", throughput=NU_125M / 4, jitter=0.05)
            if straggler else ClientProfile("c7", throughput=NU_125M, jitter=0.05))
    return profiles + [last]


def run_scenarios() -> dict[str, dict]:
    scenarios = {
        "homogeneous": dict(profiles=_profiles(False)),
        "straggler, wait-all": dict(profiles=_profiles(True)),
        "straggler, deadline 1.5x": dict(profiles=_profiles(True),
                                         deadline_factor=1.5),
        "straggler, deadline + overlap": dict(profiles=_profiles(True),
                                              deadline_factor=1.5, overlap=True),
    }
    results = {}
    for name, spec in scenarios.items():
        sim = FederationSimulator(
            spec["profiles"], model_mb=MODEL_125M_MB,
            bandwidth_mbps=P2P_BANDWIDTH_MBPS, topology="rar",
            deadline_factor=spec.get("deadline_factor"),
            overlap=spec.get("overlap", False), seed=7,
        )
        report = sim.simulate(rounds=ROUNDS, local_steps=LOCAL_STEPS)
        drops = report.drop_counts()
        results[name] = {
            "wall_s": report.total_wall_s,
            "drops": sum(drops.values()),
            "min_util": min(report.utilization().values()),
        }
    return results


def test_ablation_stragglers():
    results = run_scenarios()

    rows = [[name, f"{r['wall_s']:.0f}", r["drops"], f"{r['min_util']:.2f}"]
            for name, r in results.items()]
    print_table(
        f"Ablation: stragglers over {ROUNDS} rounds x {LOCAL_STEPS} steps",
        ["Scenario", "Wall (s)", "Client-drops", "Min utilization"],
        rows,
    )

    homogeneous = results["homogeneous"]["wall_s"]
    wait_all = results["straggler, wait-all"]["wall_s"]
    deadline = results["straggler, deadline 1.5x"]["wall_s"]
    overlapped = results["straggler, deadline + overlap"]["wall_s"]

    # A 4x straggler under wait-all semantics costs ~4x wall time.
    assert wait_all > 3.0 * homogeneous
    # The deadline policy recovers most of it by dropping the straggler.
    assert deadline < 1.3 * homogeneous
    assert results["straggler, deadline 1.5x"]["drops"] == ROUNDS
    # Overlap removes the communication term from the critical path.
    assert overlapped <= deadline
    # Fast clients stay well utilized under wait-all? No — that's the
    # cost: their utilization collapses while they wait.
    assert results["straggler, wait-all"]["min_util"] < 0.5
