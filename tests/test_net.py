"""Topology analysis, wall-time model equations, communication volume."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WallTimeConfig
from repro.net import (
    FederationTopology,
    WallTimeModel,
    ddp_volume,
    federated_volume,
    gbps_to_mbps,
    paper_topology,
    reduction_factor,
)


class TestTopology:
    def test_paper_regions(self):
        topo = paper_topology()
        assert set(topo.regions) == {"England", "Utah", "Texas", "Quebec", "Maharashtra"}

    def test_paper_link_values(self):
        topo = paper_topology()
        assert topo.bandwidth("Quebec", "Maharashtra") == 0.8
        assert topo.bandwidth("England", "Quebec") == 8.0

    def test_links_symmetric(self):
        topo = paper_topology()
        assert topo.bandwidth("England", "Utah") == topo.bandwidth("Utah", "England")

    def test_ring_bottleneck_is_maharashtra_quebec(self):
        """Fig. 2: 'The slowest link in the RAR topology, between
        Maharashtra and Quebec, acts as a bottleneck.'"""
        topo = paper_topology()
        ring = ["England", "Utah", "Texas", "Quebec", "Maharashtra"]
        link, bw = topo.ring_bottleneck(ring)
        assert set(link) == {"Quebec", "Maharashtra"}
        assert bw == 0.8

    def test_best_ring_at_least_paper_ring(self):
        topo = paper_topology()
        _, best_bw = topo.best_ring()
        assert best_bw >= 0.8

    def test_ps_bottleneck_england(self):
        topo = paper_topology()
        region, bw = topo.ps_bottleneck("England")
        # England's slowest direct client link is Maharashtra at 1.2.
        assert region == "Maharashtra"
        assert bw == 1.2

    def test_best_ps_host(self):
        topo = paper_topology()
        host, bw = topo.best_ps_host()
        assert host in topo.regions
        assert bw > 0

    def test_missing_link_raises(self):
        topo = FederationTopology(("a", "b", "c"), {("a", "b"): 1.0})
        with pytest.raises(KeyError):
            topo.bandwidth("a", "c")

    def test_widest_path(self):
        topo = FederationTopology(
            ("a", "b", "c"), {("a", "b"): 1.0, ("b", "c"): 5.0, ("a", "c"): 0.5}
        )
        # Direct a-c is 0.5; via b the bottleneck is 1.0.
        assert topo.widest_path_bandwidth("a", "c") == 1.0

    def test_no_path_raises(self):
        topo = FederationTopology(("a", "b", "c"), {("a", "b"): 1.0})
        with pytest.raises(nx.NetworkXNoPath):
            topo.widest_path_bandwidth("a", "c")

    def test_validation(self):
        with pytest.raises(ValueError):
            FederationTopology(("a", "a"), {})
        with pytest.raises(KeyError):
            FederationTopology(("a",), {("a", "zz"): 1.0})
        with pytest.raises(ValueError):
            FederationTopology(("a", "b"), {("a", "b"): 0.0})


class TestWallTimeEquations:
    """Exact checks of Appendix B.1, Eqs. 1–7."""

    def make_model(self, nu=2.0, bw=1250.0, size_mb=250.0):
        return WallTimeModel(WallTimeConfig(throughput=nu, bandwidth_mbps=bw,
                                            model_mb=size_mb))

    def test_eq1_local_compute(self):
        model = self.make_model(nu=2.0)
        assert model.local_compute_s(512) == pytest.approx(256.0)

    def test_eq2_parameter_server(self):
        model = self.make_model(bw=100.0, size_mb=50.0)
        assert model.comm_s("ps", 4) == pytest.approx(4 * 50 / 100)

    def test_eq3_allreduce(self):
        model = self.make_model(bw=100.0, size_mb=50.0)
        assert model.comm_s("ar", 4) == pytest.approx(3 * 50 / 100)

    def test_eq4_ring_allreduce(self):
        model = self.make_model(bw=100.0, size_mb=50.0)
        assert model.comm_s("rar", 4) == pytest.approx(2 * 50 * 3 / (4 * 100))

    def test_single_client_no_comm(self):
        model = self.make_model()
        for topo in ("ps", "ar", "rar"):
            assert model.comm_s(topo, 1) == 0.0

    def test_eq5_eq6_totals(self):
        model = self.make_model(nu=2.0, bw=100.0, size_mb=50.0)
        timing = model.round_timing("rar", 4, 512)
        assert timing.total_s == pytest.approx(timing.compute_s + timing.comm_s)
        total = model.total_wall_time_s("rar", 4, 512, rounds=10)
        assert total == pytest.approx(10 * timing.total_s)

    def test_rar_fastest_ar_middle_ps_slowest(self):
        """Section 5.4 ordering at fixed K, B."""
        model = self.make_model(bw=100.0, size_mb=50.0)
        for k in (2, 4, 8, 16):
            ps = model.comm_s("ps", k)
            ar = model.comm_s("ar", k)
            rar = model.comm_s("rar", k)
            assert rar <= ar <= ps

    def test_rar_bounded_as_k_grows(self):
        """RAR per-worker cost approaches 2S/B regardless of K."""
        model = self.make_model(bw=100.0, size_mb=50.0)
        assert model.comm_s("rar", 1000) < 2 * 50 / 100 * 1.01

    def test_congestion_scaling_above_threshold(self):
        config = WallTimeConfig(throughput=1.0, bandwidth_mbps=100.0,
                                model_mb=10.0, channel_threshold=4)
        model = WallTimeModel(config)
        # 8 clients > threshold 4: the PS fan-in bandwidth halves.
        assert model.comm_s("ps", 8) == pytest.approx(8 * 10 / (100 * 4 / 8))
        # RAR only ever uses two channels: no congestion at any K.
        assert model.comm_s("rar", 100) == pytest.approx(2 * 10 * 99 / (100 * 100))

    def test_comm_fraction(self):
        model = self.make_model(nu=2.0, bw=100.0, size_mb=50.0)
        timing = model.round_timing("ps", 16, 64)
        assert 0 < timing.comm_fraction < 1

    def test_centralized_timing_comm_dominates(self):
        """Table 2: centralized wall time is communication-dominated at
        10 Gbps while federated comm is ~0.1%."""
        model = self.make_model(nu=0.12, bw=gbps_to_mbps(10.0), size_mb=14000.0)
        cent = model.centralized_timing(workers=4, steps=1000)
        assert cent.comm_s > cent.compute_s
        fed = model.round_timing("rar", 4, 500)
        # Build the same step count out of rounds.
        assert fed.comm_fraction < 0.05

    def test_validation(self):
        model = self.make_model()
        with pytest.raises(ValueError):
            model.comm_s("mesh", 4)
        with pytest.raises(ValueError):
            model.comm_s("ps", 0)
        with pytest.raises(ValueError):
            model.local_compute_s(-1)
        with pytest.raises(ValueError):
            WallTimeModel(WallTimeConfig(throughput=0, bandwidth_mbps=1, model_mb=1))

    def test_gbps_to_mbps(self):
        assert gbps_to_mbps(8.0) == pytest.approx(1000.0)


class TestCommVolume:
    def test_reduction_factor_equals_local_steps(self):
        """Section 1's headline: 64×–512× less communication —
        exactly the local step count."""
        model_bytes = 250 * 2**20
        for tau in (64, 128, 512):
            factor = reduction_factor(model_bytes, total_steps=tau * 10,
                                      local_steps=tau, workers=8)
            # DDP RAR moves slightly <2S per step; fed moves exactly 2S
            # per round, so the factor is tau * (K-1)/K.
            assert factor == pytest.approx(tau * 7 / 8, rel=1e-6)

    def test_ddp_volume_scaling(self):
        vol = ddp_volume(model_bytes=100, steps=10, workers=4)
        assert vol.total_bytes == 10 * (2 * 100 * 3 // 4)

    def test_federated_volume(self):
        vol = federated_volume(model_bytes=100, rounds=5, local_steps=64, workers=4)
        assert vol.total_bytes == 5 * 200

    def test_total_gb(self):
        vol = federated_volume(model_bytes=2**30, rounds=1, local_steps=1, workers=1)
        assert vol.total_gb == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ddp_volume(0, 1, 1)
        with pytest.raises(ValueError):
            federated_volume(100, -1, 64, 4)
        with pytest.raises(ValueError):
            reduction_factor(100, 65, 64, 4)

    @given(st.integers(2, 512), st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_reduction_grows_with_local_steps(self, tau, workers):
        """The reduction factor is independent of run length and
        monotone in the local step count."""
        model_bytes = 10**6
        smaller_tau = max(1, tau // 2)
        factor = reduction_factor(model_bytes, tau * 4, tau, workers)
        smaller = reduction_factor(model_bytes, smaller_tau * 4, smaller_tau, workers)
        assert factor >= smaller
