"""Hierarchical multi-tier federation (ROADMAP item 3).

The load-bearing regression: a 1-region *identity tier* (root site
only, loopback backhaul) must reproduce the flat engines bit-exactly —
same RoundRecords, final weights, Link byte meters and drop ledger —
in both modes.  On top of that: multi-tier backhaul byte/hop metering,
per-hop error-feedback conservation across the edge→root
recompression, tiered checkpoint/resume, and the config surface.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import ErrorFeedback, make_codec
from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import EdgeTier, Photon, Region, paper_regions, round_robin_assign
from repro.fed.link import Link
from repro.net.walltime import hop_seconds
from repro.utils.serialization import tree_add, tree_sub

from helpers import assert_bit_exact_resume, assert_states_equal, run_crash_resume

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5, model_mb=0.05)


def make_photon(mode="sync", rounds=3, seed=0, **overrides):
    fed_kwargs = dict(population=4, clients_per_round=4, local_steps=2,
                      rounds=rounds, mode=mode, seed=seed)
    if mode == "async":
        fed_kwargs.update(buffer_size=2, staleness_alpha=0.5)
    fed_kwargs.update(overrides)
    photon_kwargs = {k: fed_kwargs.pop(k) for k in
                     ("walltime_config",) if k in fed_kwargs}
    fed = FedConfig(**fed_kwargs)
    return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                  **photon_kwargs)


def assert_runs_bit_exact(flat, tiered):
    """Full-surface equality: records, weights, ledger, byte meters."""
    assert_bit_exact_resume(flat, tiered)
    fa, fb = flat.aggregator.link, tiered.aggregator.link
    assert (fa.uplink_wire_bytes, fa.uplink_raw_bytes,
            fa.downlink_wire_bytes, fa.downlink_raw_bytes,
            fa.messages_sent) == \
           (fb.uplink_wire_bytes, fb.uplink_raw_bytes,
            fb.downlink_wire_bytes, fb.downlink_raw_bytes,
            fb.messages_sent)


class TestIdentityTier:
    """tiers=1 with the root-site region is the flat engine, bit for
    bit — the anchor every hierarchy feature is regression-tested
    against."""

    def test_sync_bit_exact_vs_flat(self):
        flat = make_photon()
        tiered = make_photon(tiers=1)
        flat.train()
        tiered.train()
        assert_runs_bit_exact(flat, tiered)
        # The identity tier never touches the backhaul.
        for record in tiered.history:
            assert record.backhaul_wire_bytes == 0
            assert record.backhaul_hop_s == 0.0

    def test_async_bit_exact_vs_flat(self):
        flat = make_photon(mode="async")
        tiered = make_photon(mode="async", tiers=1)
        flat.train()
        tiered.train()
        assert_runs_bit_exact(flat, tiered)

    @given(mode=st.sampled_from(["sync", "async"]),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_identity_tier_is_bit_exact_property(self, mode, seed):
        flat = make_photon(mode=mode, rounds=2, seed=seed)
        tiered = make_photon(mode=mode, rounds=2, seed=seed, tiers=1)
        flat.train()
        tiered.train()
        assert_runs_bit_exact(flat, tiered)

    def test_identity_tier_with_walltime_adds_no_hop(self):
        flat = make_photon(walltime_config=WALLTIME)
        tiered = make_photon(tiers=1, walltime_config=WALLTIME)
        flat.train()
        tiered.train()
        for ra, rb in zip(flat.history, tiered.history):
            assert ra.wall_time_s == rb.wall_time_s


class TestMultiTier:
    def test_backhaul_is_metered_and_compressed(self):
        photon = make_photon(tiers=3, tier_compression="int8",
                             error_feedback=True)
        photon.train()
        for record in photon.history:
            assert record.backhaul_wire_bytes > 0
            assert record.backhaul_raw_bytes > record.backhaul_wire_bytes
        result = photon.result()
        assert result.backhaul_wire_bytes == sum(
            r.backhaul_wire_bytes for r in photon.history)
        assert result.backhaul_raw_bytes > result.backhaul_wire_bytes
        # Backhaul bytes are the tier Link's, not the client Link's.
        tier_link = photon.aggregator.edge_tier.backhaul
        assert tier_link is not photon.aggregator.link
        assert result.backhaul_wire_bytes == tier_link.uplink_wire_bytes

    def test_backhaul_hop_extends_round_walltime(self):
        flat = make_photon(walltime_config=WALLTIME)
        tiered = make_photon(tiers=2, walltime_config=WALLTIME)
        flat.train()
        tiered.train()
        for ra, rb in zip(flat.history, tiered.history):
            assert rb.backhaul_hop_s > 0
            assert rb.wall_time_s == pytest.approx(
                ra.wall_time_s + rb.backhaul_hop_s)

    def test_async_multi_tier_runs(self):
        photon = make_photon(mode="async", tiers=2, tier_compression="int8",
                             error_feedback=True)
        history = photon.train()
        assert len(history) == 3
        assert sum(r.backhaul_wire_bytes for r in history) > 0

    def test_multi_tier_lossless_matches_flat_weights(self):
        """With equal cohort sizes a lossless backhaul's mean-of-means
        equals the flat mean up to float reordering — check after one
        merge, before training chaos amplifies the reorder noise."""
        flat = make_photon(rounds=1)
        tiered = make_photon(rounds=1, tiers=2)
        flat.train()
        tiered.train()
        for key, val in flat.aggregator.global_state.items():
            np.testing.assert_allclose(
                tiered.aggregator.global_state[key], val,
                atol=1e-6, err_msg=key)

    def test_rerun_is_bit_identical(self):
        a = make_photon(tiers=3, tier_compression="int8", error_feedback=True)
        b = make_photon(tiers=3, tier_compression="int8", error_feedback=True)
        a.train()
        b.train()
        assert_runs_bit_exact(a, b)


class TestPerHopErrorFeedback:
    """The backhaul EF obeys the same conservation invariant as the
    client uplink EF, independently per region channel."""

    @staticmethod
    def _delta(seed):
        rng = np.random.default_rng(seed)
        return {"w": rng.normal(size=(24, 16)).astype(np.float32),
                "b": rng.normal(size=(17,)).astype(np.float32)}

    def _tier(self):
        codec = make_codec("int8", seed=11)
        ef = ErrorFeedback()
        tier = EdgeTier(
            [Region("England", None), Region("Utah", 1.0)],
            assign=lambda cid: 0 if cid == "c0" else 1,
            backhaul=Link(uplink_codec=codec),
            error_feedback=ef)
        return tier, ef

    def test_residual_matches_wire_loss_exactly(self):
        """residual' == sent − decoded, with sent = delta + residual —
        verified by replaying the deterministic codec stream."""
        tier, ef = self._tier()
        shadow = make_codec("int8", seed=11)  # same per-channel stream
        residual = None
        for version in range(3):
            delta = self._delta(version)
            tier.aggregate(["c0", "c1"], [self._delta(100 + version), delta],
                           weights=None, version=version)
            sent = delta if residual is None else tree_add(delta, residual)
            decoded = shadow.roundtrip(sent, "edge:Utah", "root")
            residual = tree_sub(sent, decoded)
            assert_states_equal(ef.snapshot()["residual"]["edge:Utah"],
                                residual)

    def test_conservation_telescopes_over_rounds(self):
        """Everything the codec dropped lives in the final residual:
        sum(decoded) + residual_N == sum(delta)."""
        tier, ef = self._tier()
        shadow = make_codec("int8", seed=11)
        delta_sum, decoded_sum, residual = None, None, None
        for version in range(4):
            delta = self._delta(version)
            tier.aggregate(["c0", "c1"], [self._delta(100 + version), delta],
                           weights=None, version=version)
            sent = delta if residual is None else tree_add(delta, residual)
            decoded = shadow.roundtrip(sent, "edge:Utah", "root")
            residual = tree_sub(sent, decoded)
            delta_sum = delta if delta_sum is None else tree_add(delta_sum, delta)
            decoded_sum = (decoded if decoded_sum is None
                           else tree_add(decoded_sum, decoded))
        closed = tree_add(decoded_sum, residual)
        for key in delta_sum:
            np.testing.assert_allclose(closed[key], delta_sum[key],
                                       rtol=1e-5, atol=1e-6, err_msg=key)

    def test_root_site_channel_has_no_residual(self):
        tier, ef = self._tier()
        tier.aggregate(["c0", "c1"], [self._delta(0), self._delta(1)],
                       weights=None, version=0)
        assert set(ef.snapshot()["residual"]) == {"edge:Utah"}


class TestTieredCheckpointResume:
    def test_tiered_lossy_backhaul_resume_is_bit_exact(self):
        full, resumed = run_crash_resume(
            lambda **kw: make_photon(rounds=4, tiers=2,
                                     tier_compression="int8",
                                     error_feedback=True, **kw),
            rounds=4, kill_at=2)
        assert_bit_exact_resume(full, resumed)
        # The backhaul meters and per-hop residuals survived too.
        ta = full.aggregator.edge_tier
        tb = resumed.aggregator.edge_tier
        assert ta.backhaul.uplink_wire_bytes == tb.backhaul.uplink_wire_bytes
        assert_states_equal(
            ta.error_feedback.snapshot()["residual"]["edge:Utah"],
            tb.error_feedback.snapshot()["residual"]["edge:Utah"])

    def test_async_tiered_resume_is_bit_exact(self):
        full, resumed = run_crash_resume(
            lambda **kw: make_photon(mode="async", rounds=4, tiers=2,
                                     tier_compression="int8",
                                     error_feedback=True, **kw),
            rounds=4, kill_at=2)
        assert_bit_exact_resume(full, resumed)


class TestEdgeUnits:
    def test_paper_regions_shape(self):
        regions = paper_regions(7)
        assert regions[0].name == "England" and regions[0].gbps is None
        assert all(r.gbps > 0 for r in regions[1:])
        assert len({r.name for r in regions}) == 7  # suffixing keeps unique
        with pytest.raises(ValueError):
            paper_regions(0)

    def test_round_robin_assign_is_sorted_and_balanced(self):
        assign = round_robin_assign(["c2", "c0", "c1", "c3"], 2)
        assert [assign(f"c{i}") for i in range(4)] == [0, 1, 0, 1]

    def test_hop_seconds(self):
        assert hop_seconds(10**9, 1.0) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            hop_seconds(1, 0.0)

    def test_region_and_tier_validation(self):
        with pytest.raises(ValueError):
            Region("X", gbps=0.0)
        with pytest.raises(ValueError, match="at least one region"):
            EdgeTier([], assign=lambda c: 0)
        with pytest.raises(ValueError, match="duplicate"):
            EdgeTier([Region("A"), Region("A")], assign=lambda c: 0)
        with pytest.raises(ValueError, match="backhaul"):
            EdgeTier([Region("A", 1.0)], assign=lambda c: 0)

    def test_out_of_range_assignment_raises(self):
        tier = EdgeTier([Region("England", None)], assign=lambda c: 5)
        with pytest.raises(ValueError, match="assigned to region 5"):
            tier.aggregate(["c0"], [{"w": np.zeros(2, np.float32)}],
                           weights=None, version=0)


class TestHierarchyConfig:
    @pytest.mark.parametrize("bad", [
        dict(tiers=0),
        dict(tier_compression="int8"),          # needs tiers
        dict(tiers=2, tier_compression="bogus"),
        dict(replicas=-1),
        dict(server_crash_prob=1.0),
        dict(server_crash_prob=-0.1),
        dict(replicate_every=0),
        dict(replicate_every=2),                # needs replicas >= 1
    ])
    def test_invalid_configs_raise(self, bad):
        with pytest.raises(ValueError):
            FedConfig(population=4, clients_per_round=2, local_steps=1,
                      rounds=1, **bad)

    def test_defaults_are_flat_and_unreplicated(self):
        fed = FedConfig(population=4, clients_per_round=2, local_steps=1,
                        rounds=1)
        assert fed.tiers is None and fed.replicas == 0
        photon = make_photon()
        assert photon.aggregator.edge_tier is None
        assert photon.failover is None

    def test_record_roundtrips_through_asdict(self):
        photon = make_photon(tiers=2, tier_compression="int8",
                             error_feedback=True)
        photon.train()
        record = asdict(photon.history.records[0])
        assert record["backhaul_wire_bytes"] > 0
        assert record["edge_crashes"] == 0
