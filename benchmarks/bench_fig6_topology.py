"""Figure 6 — wall time by aggregation topology (512 local steps).

Evaluates the Appendix B.1 model for the paper's 125M configuration:
τ = 512 local steps at ν = 2 batches/s, PS behind England's 1.2 Gbps
uplink, AR/RAR at the 2.5 Gbps federation average.  The paper's
communication shares (top of each bar in Fig. 6) are reproduced to
within a fraction of a percentage point.
"""

from __future__ import annotations

from common import print_table, walltime_125m

#: Paper Fig. 6 communication share (%) per client count: (RAR, AR, PS).
PAPER_SHARES = {
    2: (0.3, 0.3, 1.2),
    4: (0.5, 0.9, 2.4),
    8: (0.5, 2.1, 4.8),
    16: (0.6, 4.5, 9.1),
}

LOCAL_STEPS = 512


def compute_shares(local_steps: int) -> dict[int, dict[str, tuple[float, float]]]:
    """Per-client-count comm share (%) and round wall time (s)."""
    out: dict[int, dict[str, tuple[float, float]]] = {}
    for clients in PAPER_SHARES:
        row = {}
        for topo in ("rar", "ar", "ps"):
            timing = walltime_125m(topo).round_timing(topo, clients, local_steps)
            row[topo] = (100.0 * timing.comm_fraction, timing.total_s)
        out[clients] = row
    return out


def test_fig6_topology_walltime():
    shares = compute_shares(LOCAL_STEPS)

    rows = []
    for clients, (p_rar, p_ar, p_ps) in PAPER_SHARES.items():
        m = shares[clients]
        rows.append([
            clients,
            f"{p_rar:.1f} / {m['rar'][0]:.1f}",
            f"{p_ar:.1f} / {m['ar'][0]:.1f}",
            f"{p_ps:.1f} / {m['ps'][0]:.1f}",
            f"{m['rar'][1]:.0f}",
        ])
    print_table(
        f"Figure 6: comm share % (paper / model), tau={LOCAL_STEPS}",
        ["Clients", "RAR %", "AR %", "PS %", "RAR round (s)"],
        rows,
    )

    for clients, (p_rar, p_ar, p_ps) in PAPER_SHARES.items():
        m_rar, m_ar, m_ps = (shares[clients][t][0] for t in ("rar", "ar", "ps"))
        # Ordering: RAR <= AR <= PS everywhere (Fig. 6's visual claim).
        assert m_rar <= m_ar <= m_ps
        # Quantitative match within 1.5 percentage points of the paper.
        assert abs(m_rar - p_rar) < 1.5, (clients, "rar")
        assert abs(m_ar - p_ar) < 1.5, (clients, "ar")
        assert abs(m_ps - p_ps) < 1.5, (clients, "ps")
    # Comm share grows with cohort size for PS and AR.
    ps_shares = [shares[c]["ps"][0] for c in sorted(PAPER_SHARES)]
    assert ps_shares == sorted(ps_shares)
    # RAR stays nearly flat (bounded by 2S/B).
    rar_shares = [shares[c]["rar"][0] for c in sorted(PAPER_SHARES)]
    assert max(rar_shares) - min(rar_shares) < 1.0
