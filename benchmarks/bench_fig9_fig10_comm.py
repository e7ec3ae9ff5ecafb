"""Figures 9 and 10 — communication share at 64 and 128 local steps.

Same model as Figure 6 but with less local work per round: halving τ
halves the compute denominator, so the communication share roughly
doubles — "reducing communication frequency by half significantly
lowers the communication burden" in reverse.  The paper's annotated
percentages are reproduced and the τ-scaling law is asserted.
"""

from __future__ import annotations

from bench_fig6_topology import compute_shares
from common import print_table

#: Paper Fig. 9 (tau=64) shares (%): (RAR, AR, PS).
PAPER_FIG9 = {
    2: (2.4, 2.4, 9.1),
    4: (3.6, 7.0, 16.7),
    8: (4.2, 14.9, 28.6),
    16: (4.5, 27.3, 44.4),
}

#: Paper Fig. 10 (tau=128) shares (%).
PAPER_FIG10 = {
    2: (1.2, 1.2, 4.8),
    4: (1.8, 3.6, 9.1),
    8: (2.1, 8.0, 16.7),
    16: (2.3, 15.8, 28.6),
}


def compute_both() -> dict[int, dict]:
    return {64: compute_shares(64), 128: compute_shares(128)}


def test_fig9_fig10_comm_share():
    measured = compute_both()

    for tau, paper in ((64, PAPER_FIG9), (128, PAPER_FIG10)):
        rows = []
        for clients, (p_rar, p_ar, p_ps) in paper.items():
            m = measured[tau][clients]
            rows.append([
                clients,
                f"{p_rar:.1f} / {m['rar'][0]:.1f}",
                f"{p_ar:.1f} / {m['ar'][0]:.1f}",
                f"{p_ps:.1f} / {m['ps'][0]:.1f}",
            ])
        print_table(
            f"Figure {9 if tau == 64 else 10}: comm share % (paper / model), tau={tau}",
            ["Clients", "RAR %", "AR %", "PS %"],
            rows,
        )

    for tau, paper in ((64, PAPER_FIG9), (128, PAPER_FIG10)):
        for clients, expected in paper.items():
            m = measured[tau][clients]
            for topo, p in zip(("rar", "ar", "ps"), expected):
                assert abs(m[topo][0] - p) < 3.0, (tau, clients, topo)

    # Scaling law: share at tau=64 exceeds share at tau=128 exceeds
    # the Figure 6 share at tau=512, for every cell.
    from bench_fig6_topology import LOCAL_STEPS, compute_shares as fig6_shares

    tau512 = fig6_shares(LOCAL_STEPS)
    for clients in PAPER_FIG9:
        for topo in ("rar", "ar", "ps"):
            assert (measured[64][clients][topo][0]
                    > measured[128][clients][topo][0]
                    > tau512[clients][topo][0])
