"""Fault injection, dropout policies, the federation simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, OptimConfig
from repro.data import CachedTokenStream, SyntheticC4
from repro.fed import (
    Aggregator,
    ClientFailure,
    FailureModel,
    FaultPolicy,
    LLMClient,
)
from repro.net import ClientProfile, FederationSimulator
from repro.optim import ConstantLR

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32, seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64, batch_size=4,
                    weight_decay=0.0)


def make_stream(shard=0, batch=4, seed=0):
    c4 = SyntheticC4(num_shards=4, vocab=CFG.vocab_size, seed=1)
    return CachedTokenStream(c4.shard(shard), batch_size=batch, seq_len=CFG.seq_len,
                             cache_tokens=2048, seed=seed)


def make_aggregator(n_clients=3, **kwargs):
    clients = {
        f"c{i}": LLMClient(f"c{i}", CFG, make_stream(shard=i, seed=i),
                           OPTIM, ConstantLR(3e-3))
        for i in range(n_clients)
    }
    c4 = SyntheticC4(num_shards=4, vocab=CFG.vocab_size, seed=1)
    val = CachedTokenStream(c4.validation(), batch_size=4, seq_len=CFG.seq_len,
                            cache_tokens=2048, seed=99)
    return Aggregator(CFG, clients, val_stream=val, **kwargs)


class TestFailureModel:
    def test_scripted_failure_fires_once(self):
        model = FailureModel(scripted={(0, "c1")})
        assert model.should_fail("c1", 0)
        assert not model.should_fail("c1", 1)
        assert not model.should_fail("c0", 0)

    def test_max_failures_cap(self):
        model = FailureModel(crash_prob=0.999, max_failures=2, seed=0)
        fails = sum(model.should_fail(f"c{i}", 0) for i in range(10))
        assert fails == 2

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FailureModel(crash_prob=1.0)

    def test_random_rate_approximates_probability(self):
        model = FailureModel(crash_prob=0.3, seed=0)
        rate = np.mean([model.should_fail("c", r) for r in range(500)])
        assert 0.2 < rate < 0.4


class TestFaultPolicy:
    def test_topology_defaults(self):
        assert FaultPolicy.for_topology("ps").mode == "partial"
        assert FaultPolicy.for_topology("ar").mode == "partial"
        assert FaultPolicy.for_topology("rar").mode == "retry_round"
        with pytest.raises(ValueError):
            FaultPolicy.for_topology("mesh")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(mode="ignore")
        with pytest.raises(ValueError):
            FaultPolicy(min_survivors=0)


class TestAggregatorFaults:
    def test_partial_aggregates_survivors(self):
        agg = make_aggregator(
            failure_model=FailureModel(scripted={(0, "c1")}),
            fault_policy=FaultPolicy(mode="partial"),
        )
        record = agg.run_round(0, 2)
        assert record.failed_clients == ["c1"]
        assert set(record.clients) == {"c0", "c2"}
        assert record.retries == 0

    def test_retry_round_reruns_cohort(self):
        # c1 fails only in the first attempt (scripted on round 0,
        # fires once), so the retry succeeds with everyone.
        agg = make_aggregator(
            failure_model=FailureModel(scripted={(0, "c1")}),
            fault_policy=FaultPolicy(mode="retry_round", max_retries=2),
        )
        record = agg.run_round(0, 1)
        assert record.retries == 1
        assert set(record.clients) == {"c0", "c1", "c2"}
        assert record.failed_clients == []

    def test_strict_raises(self):
        agg = make_aggregator(
            failure_model=FailureModel(scripted={(0, "c0")}),
            fault_policy=FaultPolicy(mode="strict"),
        )
        with pytest.raises(ClientFailure):
            agg.run_round(0, 1)

    def test_min_survivors_forces_retry(self):
        # Both non-failing rounds need >= 3 survivors; first attempt
        # loses c1, triggering a retry that succeeds.
        agg = make_aggregator(
            failure_model=FailureModel(scripted={(0, "c1")}),
            fault_policy=FaultPolicy(mode="partial", min_survivors=3,
                                     max_retries=2),
        )
        record = agg.run_round(0, 1)
        assert record.retries == 1
        assert len(record.clients) == 3

    def test_retry_walltime_penalty(self):
        from repro.config import WallTimeConfig
        from repro.net import WallTimeModel

        wt = WallTimeModel(WallTimeConfig(throughput=2.0, bandwidth_mbps=1000.0,
                                          model_mb=0.1))
        agg = make_aggregator(
            failure_model=FailureModel(scripted={(0, "c1")}),
            fault_policy=FaultPolicy(mode="retry_round", max_retries=2),
            walltime=wt,
        )
        record = agg.run_round(0, 2)
        single = wt.round_timing("rar", 3, 2).total_s
        assert record.wall_time_s == pytest.approx(2 * single)

    def test_training_converges_through_failures(self):
        agg = make_aggregator(
            failure_model=FailureModel(crash_prob=0.2, seed=3),
            fault_policy=FaultPolicy(mode="partial"),
        )
        history = agg.run(rounds=4, local_steps=8)
        assert history.val_perplexities[-1] < history.val_perplexities[0]


class TestFederationSimulator:
    def profiles(self, n=4, nu=2.0, jitter=0.0):
        return [ClientProfile(f"c{i}", throughput=nu, jitter=jitter)
                for i in range(n)]

    def test_homogeneous_matches_analytic(self):
        sim = FederationSimulator(self.profiles(), model_mb=100.0,
                                  bandwidth_mbps=100.0, topology="rar")
        report = sim.simulate(rounds=5, local_steps=64)
        from repro.config import WallTimeConfig
        from repro.net import WallTimeModel

        wt = WallTimeModel(WallTimeConfig(throughput=2.0, bandwidth_mbps=100.0,
                                          model_mb=100.0))
        expected = wt.total_wall_time_s("rar", 4, 64, rounds=5)
        assert report.total_wall_s == pytest.approx(expected)

    def test_straggler_slows_rounds(self):
        fast = FederationSimulator(self.profiles(), 10.0, 100.0)
        slow_profiles = self.profiles()[:3] + [ClientProfile("slow", throughput=0.5)]
        slow = FederationSimulator(slow_profiles, 10.0, 100.0)
        assert (slow.simulate(3, 32).total_wall_s
                > fast.simulate(3, 32).total_wall_s * 2)

    def test_deadline_drops_stragglers(self):
        profiles = self.profiles()[:3] + [ClientProfile("slow", throughput=0.1)]
        sim = FederationSimulator(profiles, 10.0, 100.0, deadline_factor=1.5)
        report = sim.simulate(rounds=4, local_steps=32)
        assert report.drop_counts().get("slow", 0) == 4
        # Rounds barrier on the fast cohort, not the straggler.
        assert all(e.barrier_s < 32 / 0.1 for e in report.events)

    def test_deadline_keeps_at_least_one(self):
        profiles = [ClientProfile("a", 1.0), ClientProfile("b", 100.0)]
        sim = FederationSimulator(profiles, 10.0, 100.0, deadline_factor=1.0)
        report = sim.simulate(rounds=2, local_steps=16)
        assert all(e.participants for e in report.events)

    def test_overlap_reduces_wall_time(self):
        plain = FederationSimulator(self.profiles(), 1000.0, 10.0)
        overlapped = FederationSimulator(self.profiles(), 1000.0, 10.0,
                                         overlap=True)
        assert (overlapped.simulate(3, 16).total_wall_s
                < plain.simulate(3, 16).total_wall_s)

    def test_utilization_bounded(self):
        sim = FederationSimulator(self.profiles(jitter=0.3), 10.0, 100.0, seed=1)
        report = sim.simulate(rounds=5, local_steps=32)
        for value in report.utilization().values():
            assert 0.0 < value <= 1.0

    def test_uptime_drops_clients(self):
        profiles = [ClientProfile(f"c{i}", 2.0, uptime=0.5) for i in range(4)]
        sim = FederationSimulator(profiles, 10.0, 100.0, seed=0)
        report = sim.simulate(rounds=20, local_steps=8)
        sizes = [len(e.participants) for e in report.events]
        assert min(sizes) >= 1
        assert np.mean(sizes) < 4

    def test_validation(self):
        with pytest.raises(ValueError):
            FederationSimulator([], 10.0, 100.0)
        with pytest.raises(ValueError):
            ClientProfile("x", throughput=0.0)
        with pytest.raises(ValueError):
            FederationSimulator(self.profiles(), 10.0, 100.0, deadline_factor=0.5)
        sim = FederationSimulator(self.profiles(), 10.0, 100.0)
        with pytest.raises(ValueError):
            sim.simulate(0, 1)
