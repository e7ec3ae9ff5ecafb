"""Server failover: versioned replication over the Link, seeded server
crashes, bounded staleness.

The headline guarantee mirrors PR 5's disk story but over the wire: a
run whose root server dies and promotes a replica finishes with the
**same history** as the uninterrupted run — the crash costs replayed
rounds (``updates_lost ≤ replicate_every``) and recovery wall time,
never correctness.  Edge-server crashes are the lossy counterpart:
unreplicated regions drop their cohort's updates, replicated ones pay
the backhaul hop twice.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.config import FedConfig, ModelConfig, OptimConfig
from repro.fed import FailureModel, Photon, ReplicaSet
from repro.fed.link import Link

from repro.utils import pack_tree, unpack_tree

from helpers import assert_bit_exact_resume, assert_states_equal

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)


def make_photon(mode="sync", rounds=4, seed=0, crashes=None, **overrides):
    """``crashes`` is a set of scripted ``(round, server_id)`` keys;
    server ids are ``"root"``, ``"edge:<name>"``, ``"root/replica<i>"``."""
    fed_kwargs = dict(population=4, clients_per_round=4, local_steps=2,
                      rounds=rounds, mode=mode, seed=seed)
    if mode == "async":
        fed_kwargs.update(buffer_size=2, staleness_alpha=0.5)
    fed_kwargs.update(overrides)
    fed = FedConfig(**fed_kwargs)
    fm = FailureModel(scripted=set(crashes)) if crashes else None
    return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                  server_failure_model=fm)


class TestRepeatedTrain:
    """One round loop: a second ``train()`` continues the numbering
    whether or not the failover controller wraps the engine."""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("replicas", [0, 1])
    def test_second_call_continues_round_indices(self, tmp_path, mode, replicas):
        photon = make_photon(mode, replicas=replicas,
                             checkpoint_dir=str(tmp_path))
        photon.train(2)
        photon.train(2)
        assert [r.round_idx for r in photon.history] == [0, 1, 2, 3]
        # Both calls' run-state checkpoints (steps count completed
        # updates) live inside the keep budget of 3: the second call
        # continues at step 3 instead of overwriting steps 1 and 2.
        assert photon.run_checkpointer.manager.list_checkpoints() == [2, 3, 4]


class TestSerializeTree:
    """What a replica holds: the tree container behind zlib."""

    def test_dtypes_survive_the_wire(self):
        rng = np.random.default_rng(0)
        tree = {
            "weights": {"w": rng.normal(size=(8, 4)).astype(np.float32)},
            "counters": np.arange(5, dtype=np.int64),
            "pool": rng.integers(0, 256, size=16, dtype=np.uint8),
        }
        back = unpack_tree(zlib.compress(pack_tree(tree), 1))
        assert_states_equal(back["weights"], tree["weights"])
        for key in ("counters", "pool"):
            np.testing.assert_array_equal(back[key], tree[key])
            assert back[key].dtype == tree[key].dtype

    def test_deserialized_tree_shares_no_memory(self):
        tree = {"w": np.zeros(4, dtype=np.float32)}
        back = unpack_tree(pack_tree(tree))
        tree["w"][:] = 7.0
        np.testing.assert_array_equal(back["w"], np.zeros(4))


class TestReplicaSet:
    @staticmethod
    def _tree(tag):
        return {"w": np.full(64, float(tag), dtype=np.float32)}

    def test_promote_returns_newest_surviving(self):
        rs = ReplicaSet("root", 2, Link())
        rs.replicate(1, self._tree(1))
        rs.replicate(3, self._tree(3))
        assert rs.held_versions == [3, 3]
        version, tree = rs.promote(None, at_version=4)
        assert version == 3
        np.testing.assert_array_equal(tree["w"], self._tree(3)["w"])

    def test_correlated_failure_falls_back_or_cold(self):
        rs = ReplicaSet("root", 2, Link())
        rs.replicate(2, self._tree(2))
        # The crash that killed the primary also took replica 0.
        fm = FailureModel(scripted={(2, "root/replica0")})
        version, _ = rs.promote(fm, at_version=2)
        assert version == 2  # replica 1 still holds it
        assert rs.held_versions == [None, 2]
        both = FailureModel(scripted={(3, "root/replica0"),
                                      (3, "root/replica1")})
        assert rs.promote(both, at_version=3) is None

    def test_replication_is_metered(self):
        link = Link()
        rs = ReplicaSet("root", 2, link)
        rs.replicate(1, self._tree(1))
        assert link.bytes_sent > 0
        assert link.raw_bytes_sent > link.bytes_sent  # zlib wins on fills
        assert link.messages_sent == 2

    def test_zero_replicas_is_inert(self):
        rs = ReplicaSet("root", 0, Link())
        rs.replicate(1, self._tree(1))
        assert rs.promote(None, at_version=1) is None


@pytest.mark.parametrize("mode", ["sync", "async"])
class TestRootFailover:
    def test_promoted_run_matches_uninterrupted(self, mode):
        """Dead root, surviving replica: ≤1 update lost at cadence 1,
        and the replay converges to the exact uninterrupted history."""
        clean = make_photon(mode=mode)
        crashed = make_photon(mode=mode, crashes={(1, "root")}, replicas=1)
        clean.train()
        crashed.train()
        assert_bit_exact_resume(clean, crashed)
        report = crashed.failover.report()
        assert report["crashes"] == 1
        assert report["updates_lost"] == [1]
        assert report["updates_lost_per_crash"] == 1.0
        assert report["replication_wire_bytes"] > 0
        assert len(report["recovery_s"]) == 1 and report["recovery_s"][0] > 0

    def test_cold_restart_without_replicas(self, mode):
        """No replicas: the crash rolls back to the version-0 snapshot
        and the whole prefix replays — slower, still bit-exact."""
        clean = make_photon(mode=mode)
        crashed = make_photon(mode=mode, crashes={(2, "root")})
        clean.train()
        crashed.train()
        assert_bit_exact_resume(clean, crashed)
        assert crashed.failover.updates_lost == [3]

    def test_staleness_bounded_by_replicate_every(self, mode):
        clean = make_photon(mode=mode)
        crashed = make_photon(mode=mode, crashes={(2, "root")},
                              replicas=2, replicate_every=2)
        clean.train()
        crashed.train()
        assert_bit_exact_resume(clean, crashed)
        assert crashed.failover.crashes == 1
        assert crashed.failover.updates_lost[0] <= 2

    def test_scripted_crash_fires_exactly_once(self, mode):
        """The crash stream is environment, not state: restoring a
        pre-crash snapshot must not rewind the scripted set, or the
        promoted server would replay its own death forever."""
        crashed = make_photon(mode=mode, crashes={(1, "root")}, replicas=1)
        history = crashed.train()
        assert crashed.failover.crashes == 1
        assert len(history) == 4

    def test_result_surfaces_failover_metrics(self, mode):
        crashed = make_photon(mode=mode, crashes={(1, "root")}, replicas=1)
        crashed.train()
        result = crashed.result()
        assert result.server_crashes == 1
        assert result.server_updates_lost == 1
        assert result.recovery_s_total > 0
        assert result.replication_wire_bytes > 0


class TestEdgeCrash:
    def test_unreplicated_edge_crash_drops_cohort(self):
        photon = make_photon(tiers=2, crashes={(1, "edge:Utah")})
        history = photon.train()
        crashed_round = history.records[1]
        assert crashed_round.edge_crashes == 1
        assert crashed_round.edge_updates_lost == 2  # Utah's cohort of 2
        assert crashed_round.backhaul_wire_bytes == 0  # nothing shipped
        result = photon.result()
        assert result.edge_crashes == 1
        assert result.edge_updates_lost == 2
        assert result.server_crashes == 0

    def test_replicated_edge_crash_reforwards(self):
        clean = make_photon(tiers=2)
        crashed = make_photon(tiers=2, crashes={(1, "edge:Utah")}, replicas=1)
        clean.train()
        crashed.train()
        record = crashed.history.records[1]
        assert record.edge_crashes == 1
        assert record.edge_updates_lost == 0
        # The replica re-forwards the buffered delta: hop paid twice.
        assert record.backhaul_wire_bytes == \
            2 * clean.history.records[1].backhaul_wire_bytes
        assert crashed.aggregator.edge_tier.total_recoveries == 1

    def test_all_regions_crashed_floor(self):
        """Every participating region dead and unreplicated: like the
        AvailabilityModel floor, the tier admits the last casualty
        rather than hand the server an empty merge."""
        from repro.fed import EdgeTier, Region

        tier = EdgeTier(
            [Region("A", 1.0), Region("B", 1.0)],
            assign=lambda cid: 0 if cid < "c2" else 1,
            backhaul=Link(),
            failure_model=FailureModel(scripted={(0, "edge:A"),
                                                 (0, "edge:B")}))
        deltas = [{"w": np.full(4, float(i), dtype=np.float32)}
                  for i in range(4)]
        merged = tier.aggregate(["c0", "c1", "c2", "c3"], deltas,
                                weights=None, version=0)
        report = tier.pop_report()
        assert report.crashes == 2
        assert report.updates_lost == 2  # the admitted cohort is refunded
        np.testing.assert_array_equal(merged["w"], np.full(4, 2.5))


@pytest.mark.slow
class TestCrashMatrix:
    """Nightly kill-at-every-boundary sweep over the multi-tier tree:
    whichever server dies at whichever update, under either async drop
    policy, the run always completes all its server updates with
    staleness inside the replication bound."""

    ROUNDS = 4

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("drop_policy", ["requeue", "admit_stale"])
    @pytest.mark.parametrize("target", ["root", "edge:Utah"])
    @pytest.mark.parametrize("kill_at", range(ROUNDS))
    def test_kill_at_every_boundary(self, kill_at, target, drop_policy, seed):
        photon = make_photon(
            mode="async", rounds=self.ROUNDS, seed=seed, tiers=2,
            crashes={(kill_at, target)}, replicas=1,
            deadline=2.0, drop_policy=drop_policy)
        history = photon.train()
        assert len(history) == self.ROUNDS
        result = photon.result()
        if target == "root":
            assert result.server_crashes == 1
            assert result.server_updates_lost <= 1  # replicate_every=1
            assert result.edge_crashes == 0
        else:
            assert result.edge_crashes == 1
            assert result.edge_updates_lost == 0  # replicated tier
            assert result.server_crashes == 0
