"""Figure 2 — federation map, link bandwidths and aggregation bottlenecks.

Rebuilds the five-region topology with the paper's link speeds and
verifies the two observations printed in the figure caption:

* "The slowest link in the RAR topology, between Maharashtra and
  Quebec, acts as a bottleneck." (0.8 Gbps)
* "In the PS topology, the connection speed to England limits each
  update's communication."
"""

from __future__ import annotations

from repro.net import paper_topology

from common import print_table

PAPER_RING = ["England", "Utah", "Texas", "Quebec", "Maharashtra"]


def analyze_topology() -> dict:
    topo = paper_topology()
    ring_link, ring_bw = topo.ring_bottleneck(PAPER_RING)
    ps_region, ps_bw = topo.ps_bottleneck("England")
    best_ring, best_ring_bw = topo.best_ring()
    best_host, best_host_bw = topo.best_ps_host()
    return {
        "topology": topo,
        "ring_link": ring_link,
        "ring_bw": ring_bw,
        "ps_region": ps_region,
        "ps_bw": ps_bw,
        "best_ring": best_ring,
        "best_ring_bw": best_ring_bw,
        "best_host": best_host,
        "best_host_bw": best_host_bw,
    }


def test_fig2_topology():
    result = analyze_topology()
    topo = result["topology"]

    rows = [[a, b, topo.bandwidth(a, b)]
            for a, b in topo.graph.edges]
    print_table("Figure 2: inter-region link bandwidths (Gbps)",
                ["Region A", "Region B", "Gbps"], rows)
    print_table(
        "Figure 2: aggregation bottlenecks",
        ["Quantity", "Paper", "Measured"],
        [
            ["RAR bottleneck link", "Maharashtra–Quebec @ 0.8",
             f"{'–'.join(sorted(result['ring_link']))} @ {result['ring_bw']}"],
            ["PS bottleneck (England host)", "England uplink",
             f"{result['ps_region']} @ {result['ps_bw']}"],
            ["Best Hamiltonian ring bottleneck", "n/a",
             f"{result['best_ring_bw']}"],
            ["Best PS host", "n/a",
             f"{result['best_host']} @ {result['best_host_bw']}"],
        ],
    )

    assert set(result["ring_link"]) == {"Maharashtra", "Quebec"}
    assert result["ring_bw"] == 0.8
    assert result["ps_region"] == "Maharashtra"
    assert result["ps_bw"] == 1.2
    # A better ring than the paper's geographic one exists or ties.
    assert result["best_ring_bw"] >= result["ring_bw"]
