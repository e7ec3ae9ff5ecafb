"""Client scheduling: selection policies, jittered clocks and
partial-work admission.

The load-bearing regressions: the default ``random`` policy with zero
jitter reproduces the pre-scheduler async trace bit-exactly, ranked
policies stay deterministic for any ``max_workers``, the utility
fairness floor prevents starvation, and ``admit_partial`` conserves
cancelled work (dropped + salvaged = planned steps of every cancelled
cycle).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import (
    SELECTION_POLICIES,
    ClientPopulation,
    ClientScheduler,
    Photon,
)
from repro.net import JitterModel

from helpers import per_client, select_ids

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5, model_mb=0.05)


def make_photon(*, population=4, rounds=2, local_steps=2, spread=4.0,
                staleness_alpha=0.5, walltime_config=WALLTIME, **kwargs):
    fed_keys = ("deadline", "drop_policy", "adaptive_local_steps",
                "buffer_size", "seed", "selection", "jitter", "exploration",
                "stat_utility_weight", "local_plane")
    fed_kwargs = {k: kwargs.pop(k) for k in fed_keys if k in kwargs}
    fed = FedConfig(population=population, clients_per_round=population,
                    local_steps=local_steps, rounds=rounds, mode="async",
                    staleness_alpha=staleness_alpha, **fed_kwargs)
    if walltime_config is None:
        spread = 1.0
    return Photon(CFG, fed, OPTIM, num_shards=population, val_batches=2,
                  walltime_config=walltime_config, client_speed_spread=spread,
                  **kwargs)


def scheduler_over(ids, policy, **kwargs):
    """A scheduler over a population of exactly ``ids``, and the
    ``durations_of`` adapter for a per-client duration function."""
    population = ClientPopulation(ids)
    return (ClientScheduler(population, policy, **kwargs),
            lambda fn: per_client(fn, population))


def trace(history):
    return (history.val_perplexities, history.train_losses,
            [r.pseudo_grad_norm for r in history],
            [tuple(r.clients) for r in history])


class TestJitterModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            JitterModel(scale=-0.1)

    def test_scale_zero_is_exact_identity(self):
        """Scale 0 returns exactly 1.0 *without consuming RNG state* —
        the bit-exactness anchor for unjittered runs."""
        jm = JitterModel(scale=0.0, seed=3)
        assert [jm.factor() for _ in range(5)] == [1.0] * 5
        # The underlying stream was never touched.
        assert jm._rng.bit_generator.state == \
            np.random.default_rng(3).bit_generator.state

    def test_seeded_reproducibility(self):
        a = [JitterModel(0.3, seed=7).factor() for _ in range(1)]
        b = [JitterModel(0.3, seed=7).factor() for _ in range(1)]
        assert a == b
        assert JitterModel(0.3, seed=8).factor() != a[0]

    def test_lognormal_positive_median_one(self):
        jm = JitterModel(scale=0.5, seed=0)
        draws = np.array([jm.factor() for _ in range(2000)])
        assert (draws > 0).all()
        assert abs(np.median(np.log(draws))) < 0.05  # median factor ~ 1


class TestSchedulerPolicies:
    def test_validation(self):
        pop = ClientPopulation(2)
        with pytest.raises(ValueError):
            ClientScheduler(pop, "banana")
        with pytest.raises(ValueError):
            ClientScheduler(pop, "utility", deadline_s=0.0)
        with pytest.raises(ValueError):
            ClientScheduler(pop, "utility", exploration=-1.0)
        with pytest.raises(ValueError):
            ClientScheduler(pop, "utility", fairness_every_k=0)
        assert set(SELECTION_POLICIES) == {"random", "fastest", "utility"}

    def test_random_replays_fifo_rotation(self):
        """The legacy idle-pool semantics, bit for bit: reachable
        clients dispatch in queue order, unreachable ones rotate to
        the back, the scan stops when the slots are filled."""
        sched, timed = scheduler_over("abcd", "random")
        dispatch, leftover = select_ids(
            sched, ["a", "b", "c", "d"], {"a", "c", "d"}, 2, 0,
            timed(lambda c: 1.0))
        assert dispatch == ["a", "c"]
        assert leftover == ["d", "b"]

    def test_random_all_unreachable_keeps_queue(self):
        sched, timed = scheduler_over("ab", "random")
        dispatch, leftover = select_ids(
            sched, ["a", "b"], set(), 2, 0, timed(lambda c: 1.0))
        assert dispatch == []
        assert leftover == ["a", "b"]

    def test_fastest_ranks_by_predicted_cycle(self):
        durations = {"slow": 9.0, "mid": 3.0, "quick": 1.0}
        sched, timed = scheduler_over(durations, "fastest")
        dispatch, leftover = select_ids(
            sched, ["slow", "mid", "quick"], {"slow", "mid", "quick"}, 2, 0,
            timed(durations.__getitem__))
        assert dispatch == ["quick", "mid"]
        assert leftover == ["slow"]

    def test_utility_skips_deadline_infeasible(self):
        """A client whose predicted cycle exceeds the deadline is not
        dispatched while a feasible alternative exists."""
        durations = {"doomed": 9.0, "fits": 4.0, "quick": 1.0}
        sched, timed = scheduler_over(durations, "utility", deadline_s=5.0,
                                      exploration=0.0)
        dispatch, _ = select_ids(
            sched, ["doomed", "fits", "quick"], set(durations), 2, 0,
            timed(durations.__getitem__))
        assert dispatch == ["quick", "fits"]
        # With no feasible alternative, the infeasible client still runs
        # (the federation must not stall).
        dispatch, _ = select_ids(
            sched, ["doomed"], {"doomed"}, 1, 0, timed(durations.__getitem__))
        assert dispatch == ["doomed"]

    def test_exploration_rotates_slow_clients_in(self):
        """The recency bonus eventually outweighs the speed gap."""
        durations = {"slow": 4.0, "quick": 1.0}
        sched, timed = scheduler_over(durations, "utility", exploration=5.0,
                                      fairness_every_k=None)
        fn = timed(durations.__getitem__)
        # Fresh state: the quick client wins the single slot.
        dispatch, _ = select_ids(sched, ["slow", "quick"], set(durations),
                                 1, 0, fn)
        assert dispatch == ["quick"]
        sched.note_selected("quick", 0)
        # As versions pass, the waiting slow client's recency bonus
        # accumulates until it outranks the 4x-faster one.
        chosen = []
        for version in range(1, 7):
            dispatch, _ = select_ids(sched, ["slow", "quick"],
                                     set(durations), 1, version, fn)
            sched.note_selected(dispatch[0], version)
            chosen.append(dispatch[0])
        assert "slow" in chosen
        # Without exploration the slow client never wins on score.
        greedy, _ = scheduler_over(durations, "utility", exploration=0.0,
                                   fairness_every_k=None)
        greedy.note_selected("quick", 0)
        for version in range(1, 7):
            dispatch, _ = select_ids(greedy, ["slow", "quick"],
                                     set(durations), 1, version, fn)
            greedy.note_selected(dispatch[0], version)
            assert dispatch == ["quick"]

    def test_fairness_floor_jumps_the_queue(self):
        """A client unselected for K versions is due and outranks even
        an infeasible prediction."""
        durations = {"doomed": 9.0, "quick": 1.0}
        sched, timed = scheduler_over(durations, "utility", deadline_s=5.0,
                                      exploration=0.0, fairness_every_k=2)
        fn = timed(durations.__getitem__)
        sched.note_selected("quick", 0)
        sched.note_selected("doomed", 0)
        # version 3: doomed has waited 3 >= K=2 -> due, selected first.
        dispatch, _ = select_ids(sched, ["doomed", "quick"], set(durations),
                                 1, 3, fn)
        assert dispatch == ["doomed"]

    def test_cohort_selection_random_returns_default(self):
        sched, timed = scheduler_over(["c1", "c2", "c3"], "random")
        default = ["c1", "c3"]
        assert sched.select_cohort(["c1", "c2", "c3"], 0, default,
                                   timed(lambda c: 1.0)) == default

    def test_cohort_selection_fastest_keeps_size(self):
        durations = {"a": 3.0, "b": 1.0, "c": 2.0}
        sched, timed = scheduler_over(durations, "fastest")
        cohort = sched.select_cohort(["a", "b", "c"], 0, ["a", "c"],
                                     timed(durations.__getitem__))
        assert cohort == ["b", "c"]


class TestEngineIntegration:
    def test_random_zero_jitter_is_the_legacy_trace(self):
        """The PR acceptance anchor: explicit selection='random' with
        jitter=0 reproduces the default (PR-2) async trace bit-exactly."""
        legacy = make_photon()
        explicit = make_photon(selection="random", jitter=0.0)
        assert trace(legacy.train()) == trace(explicit.train())

    # Tier-2: each policy's training path is exercised in tier-1 by
    # the legacy-trace, determinism and sync-cohort tests.
    @pytest.mark.slow
    def test_policies_change_dispatch_not_correctness(self):
        """Every policy still trains the federation to a finite,
        improving perplexity."""
        for policy in SELECTION_POLICIES:
            photon = make_photon(selection=policy, rounds=1)
            history = photon.train()
            assert len(history) == 1
            assert np.isfinite(history.val_perplexities).all()

    def test_utility_deterministic_across_max_workers(self):
        serial = make_photon(selection="utility", deadline=6.0,
                             drop_policy="drop", jitter=0.1, max_workers=1)
        pooled = make_photon(selection="utility", deadline=6.0,
                             drop_policy="drop", jitter=0.1,
                             local_plane="procpool", max_workers=2)
        assert trace(serial.train()) == trace(pooled.train())

    # Tier-2: the tier-1 jitter-zero anchor plus the hypothesis sweep
    # below cover the identity path; this pair of full engine runs
    # only re-verifies seeded rerun identity of a jittered clock.
    @pytest.mark.slow
    def test_jitter_reruns_identical_but_clock_moves(self):
        """Jittered runs are seeded (rerun-identical) yet tick a
        different simulated clock than the deterministic one."""
        base = make_photon()
        a = make_photon(jitter=0.5)
        b = make_photon(jitter=0.5)
        base.train()
        assert trace(a.train()) == trace(b.train())
        assert (base.aggregator.simulated_wall_time_s
                != a.aggregator.simulated_wall_time_s)

    # Tier-2: the tier-1 anchor test_random_zero_jitter_is_the_legacy_trace
    # covers the fixed-seed case; this sweeps seeds nightly.
    @pytest.mark.slow
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_zero_jitter_bit_exact_property(self, seed):
        """Hypothesis property: for any federation seed, jitter scale 0
        reproduces the unjittered trace bit-exactly."""
        plain = make_photon(population=2, rounds=2, seed=seed)
        zero = make_photon(population=2, rounds=2, seed=seed, jitter=0.0)
        assert trace(plain.train()) == trace(zero.train())

    def test_fairness_floor_prevents_starvation(self):
        """With the floor disabled, utility selection starves the
        deadline-infeasible straggler (a partial cohort means real
        competition for slots); with it, the straggler is attempted
        at least once per K flushes."""
        K = 3

        def run(fairness_every_k):
            fed = FedConfig(population=4, clients_per_round=2,
                            local_steps=2, rounds=10, mode="async",
                            staleness_alpha=0.5, deadline=2.0,
                            drop_policy="drop", selection="utility",
                            exploration=0.0)
            photon = Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                            walltime_config=WALLTIME,
                            client_speed_spread=4.0)
            photon.aggregator.scheduler = ClientScheduler(
                photon.population, "utility", deadline_s=2.0,
                exploration=0.0, fairness_every_k=fairness_every_k)
            photon.train()
            return photon

        starved = run(None)
        wt = starved.aggregator.walltime
        slowest = max((f"client{i}" for i in range(4)),
                      key=lambda c: wt.client_timing(c, 2).total_s)
        assert wt.client_timing(slowest, 2).total_s > 2.0  # infeasible
        fair = run(K)
        fair_sched = fair.aggregator.scheduler
        starved_sched = starved.aggregator.scheduler
        # The floor produces strictly more attempts for the straggler.
        slowest_idx = fair.population.index_of(slowest)
        assert (fair_sched.selections[slowest_idx]
                > starved_sched.selections[slowest_idx])
        # Once active, no client waits much past K versions between
        # selections (small slack for slot contention: a due client is
        # picked at the next refill, not instantaneously).
        by_client: dict[str, list[int]] = {}
        for version, cid in fair_sched.selection_log:
            by_client.setdefault(cid, []).append(version)
        assert set(by_client) == {f"client{i}" for i in range(4)}
        for versions in by_client.values():
            gaps = np.diff(versions)
            if len(gaps):
                assert gaps.max() <= K + 2

    def test_admit_partial_salvages_and_conserves(self):
        """Partial-work admission: cancelled cycles upload their
        finished prefix, and the ledger conserves every cancelled
        step (dropped + salvaged = cycles * planned steps)."""
        photon = make_photon(local_steps=8, rounds=4, deadline=5.0,
                             drop_policy="admit_partial")
        history = photon.train()
        ledger = photon.aggregator.drop_ledger
        assert ledger.total_salvaged_steps > 0
        # Every cancelled cycle planned the nominal 8 local steps.
        assert (ledger.total_dropped_steps + ledger.total_salvaged_steps
                == ledger.total_cancelled_cycles * 8)
        # Salvaged steps surface per flush record and in the result.
        assert sum(r.salvaged_steps for r in history) \
            == ledger.total_salvaged_steps
        result = photon.result()
        assert result.salvaged_steps == ledger.total_salvaged_steps
        assert result.dropped_steps == ledger.total_dropped_steps

    @pytest.mark.slow  # comparative run; conservation stays tier-1
    def test_admit_partial_beats_drop_on_admitted_steps(self):
        """Salvage means strictly more trained-and-admitted steps than
        dropping the same cancelled cycles."""
        salvage = make_photon(local_steps=8, rounds=4, deadline=5.0,
                              drop_policy="admit_partial")
        drop = make_photon(local_steps=8, rounds=4, deadline=5.0,
                           drop_policy="drop")
        salvage.train()
        drop.train()
        assert salvage.aggregator.drop_ledger.total_dropped_steps < \
            drop.aggregator.drop_ledger.total_dropped_steps

    def test_sync_engine_routes_selection(self):
        """The sync engine's cohort honors the policy too: fastest
        selection picks the k fastest clients of the population."""
        fed = FedConfig(population=4, clients_per_round=2, local_steps=2,
                        rounds=2, selection="fastest")
        photon = Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                        walltime_config=WALLTIME, client_speed_spread=4.0)
        history = photon.train()
        wt = photon.aggregator.walltime
        expected = sorted(
            sorted(f"client{i}" for i in range(4)),
            key=lambda c: (wt.client_timing(c, 2).total_s, c))[:2]
        for record in history:
            assert sorted(record.clients) == sorted(expected)

    def test_sync_random_selection_unchanged(self):
        fed_default = FedConfig(population=4, clients_per_round=2,
                                local_steps=2, rounds=2)
        fed_explicit = FedConfig(population=4, clients_per_round=2,
                                 local_steps=2, rounds=2, selection="random")
        a = Photon(CFG, fed_default, OPTIM, num_shards=4, val_batches=2)
        b = Photon(CFG, fed_explicit, OPTIM, num_shards=4, val_batches=2)
        assert trace(a.train()) == trace(b.train())


class TestConfigAndCLI:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FedConfig(selection="slowest")
        with pytest.raises(ValueError):
            FedConfig(jitter=-0.5, mode="async")
        with pytest.raises(ValueError):
            FedConfig(jitter=0.1)  # sync mode has no per-cycle clock
        with pytest.raises(ValueError):
            FedConfig(exploration=-1.0)
        with pytest.raises(ValueError):
            FedConfig(mode="async", deadline=2.0, drop_policy="admit_half")
        # admit_partial is a legal drop policy now.
        FedConfig(mode="async", deadline=2.0, drop_policy="admit_partial")

    def test_parser_accepts_scheduling_flags(self):
        args = build_parser().parse_args(
            ["train", "--mode", "async", "--selection", "utility",
             "--jitter", "0.2", "--exploration", "0.5",
             "--deadline", "6", "--drop-policy", "admit_partial"])
        assert args.selection == "utility"
        assert args.jitter == 0.2
        assert args.exploration == 0.5
        assert args.drop_policy == "admit_partial"

    def test_parser_rejects_unknown_selection(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--selection", "slowest"])

    def test_cli_rejects_sync_jitter_as_usage_error(self, capsys):
        assert main(["train", "--jitter", "0.5"]) == 2
        assert "jitter" in capsys.readouterr().err

    @pytest.mark.slow
    def test_cli_utility_selection_end_to_end(self, capsys):
        assert main(["train", "--model", "tiny", "--clients", "2",
                     "--local-steps", "2", "--rounds", "2",
                     "--batch-size", "2", "--mode", "async",
                     "--walltime", "--straggler-spread", "3.0",
                     "--selection", "utility", "--jitter", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "selection=utility" in out


class TestSchedulerAwareRequeue:
    """PR 4 satellite: a deadline-cancelled cycle's freed slot goes
    back through the selection policy instead of being unconditionally
    re-issued to the same client."""

    def make_requeue_photon(self, selection, jitter=0.0, **kwargs):
        # Scarce slots (3 of 6) + a deadline only nominal clients meet:
        # under random selection the seed-0 draw pins every slot on an
        # infeasible client, which the legacy unconditional requeue can
        # never unpin.
        fed = FedConfig(population=6, clients_per_round=3, local_steps=4,
                        rounds=2, mode="async", staleness_alpha=0.5,
                        buffer_size=2, deadline=3.0, drop_policy="requeue",
                        selection=selection, jitter=jitter)
        return Photon(CFG, fed, OPTIM, num_shards=6, val_batches=2,
                      walltime_config=WALLTIME, client_speed_spread=4.0,
                      **kwargs)

    def test_random_requeue_livelock_fails_fast(self):
        """The legacy semantics can pin every slot on an over-deadline
        client; the engine now raises a config error instead of
        spinning forever."""
        photon = self.make_requeue_photon("random")
        with pytest.raises(ValueError, match="requeue"):
            photon.train()

    def test_livelock_check_sees_through_jitter_mapping(self):
        """Per-client jitter on clients that *fit* the deadline (or a
        zero scale on one that does not) cannot rescue the pinned
        over-deadline slots — the guard must still fire instead of
        hanging."""
        probe = self.make_requeue_photon("random").aggregator
        clients = sorted(probe.clients)
        cycle_s = dict(zip(clients, probe._predict_cycles(clients, 4)))
        feasible = [c for c in clients if cycle_s[c] <= 3.0]
        doomed = [c for c in clients if cycle_s[c] > 3.0]
        assert feasible and doomed  # the scenario needs both kinds
        photon = self.make_requeue_photon(
            "random", jitter={feasible[0]: 0.5, doomed[0]: 0.0})
        with pytest.raises(ValueError, match="requeue"):
            photon.train()

    def test_utility_requeue_skips_availability_deferred_idles(self):
        """The freed slot is only contested by idle clients the last
        availability draw found reachable (no extra RNG draws)."""
        photon = self.make_requeue_photon("utility", uptime=0.6)
        history = photon.train()
        assert len(history) == 2
        deferred = photon.aggregator._deferred_ids
        assert set(deferred) <= set(photon.clients)

    def test_utility_requeue_recontests_the_slot(self):
        """Ranked policies hand the freed slot to the best candidate
        from the idle pool — the same federation completes with zero
        dropped work."""
        photon = self.make_requeue_photon("utility")
        history = photon.train()
        assert len(history) == 2
        assert photon.result().dropped_steps == 0

    def test_full_participation_requeue_unchanged(self):
        """With every client in flight the ranked requeue degenerates
        to the legacy immediate re-issue (pool of one)."""
        a = make_photon(population=4, deadline=3.0, drop_policy="requeue",
                        selection="utility", rounds=2)
        h = a.train()
        assert len(h) == 2


class TestStatUtility:
    """PR 4 satellite: recent loss improvement in the utility score."""

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientScheduler(ClientPopulation(2), "utility",
                            stat_utility_weight=-0.1)
        with pytest.raises(ValueError):
            FedConfig(stat_utility_weight=-1.0)

    def test_note_result_tracks_improvement(self):
        sched, _ = scheduler_over(["b", "a"], "utility",
                                  stat_utility_weight=1.0)
        sched.note_result("a", 3.0)
        assert sched.loss_improvement.tolist() == [0.0, 0.0]  # needs two reports
        sched.note_result("a", 2.5)
        assert sched.loss_improvement.tolist() == [0.0, pytest.approx(0.5)]
        sched.note_result("a", None)  # missing metric is ignored
        assert sched.loss_improvement.tolist() == [0.0, pytest.approx(0.5)]

    def test_stat_term_reorders_selection(self):
        """Equal predicted cycles: weight 0 breaks the tie by id,
        a positive weight prefers the client whose loss improved."""
        picks = {}
        for weight in (0.0, 2.0):
            sched, timed = scheduler_over("abc", "utility", exploration=0.0,
                                          stat_utility_weight=weight)
            for cid, losses in (("a", (3.0, 2.99)), ("b", (3.0, 2.0))):
                for loss in losses:
                    sched.note_result(cid, loss)
            picks[weight], _ = select_ids(
                sched, ["a", "b", "c"], {"a", "b", "c"}, 1, 0,
                timed(lambda c: 1.0))
        assert picks[0.0] == ["a"]
        assert picks[2.0] == ["b"]

    def test_weight_zero_is_bit_exact(self):
        """The default keeps utility selection untouched — the engines
        feed note_result either way, so the score must not move."""
        base = make_photon(selection="utility")
        explicit = make_photon(selection="utility", stat_utility_weight=0.0)
        assert trace(base.train()) == trace(explicit.train())
        # Feedback was recorded even at weight 0 (pure bookkeeping).
        assert not np.isnan(base.aggregator.scheduler.last_loss).all()


class TestPerClientJitter:
    """PR 4 satellite: per-client jitter scales (hot devices are
    noisier than racked ones); the scalar path is untouched."""

    def test_mapping_validation(self):
        with pytest.raises(ValueError):
            JitterModel({"a": -0.1})
        with pytest.raises(ValueError):
            FedConfig(mode="async", jitter={"client0": -1.0})
        with pytest.raises(ValueError):
            FedConfig(jitter={"client0": 0.5})  # sync barrier, no clock

    def test_scale_for_lookup(self):
        model = JitterModel({"hot": 0.5}, seed=3)
        assert model.scale_for("hot") == 0.5
        assert model.scale_for("cold") == 0.0
        assert model.scale_for(None) == 0.0
        assert JitterModel(0.3).scale_for("anyone") == 0.3

    def test_unlisted_clients_consume_no_rng(self):
        """A noiseless client inside a mixed federation is the exact
        identity — the stream is only touched by noisy clients, so
        adding quiet clients cannot shift anyone else's draws."""
        model = JitterModel({"hot": 0.5}, seed=3)
        pristine = np.random.default_rng(3).bit_generator.state
        assert model.factor("cold") == 1.0
        assert model.factor(None) == 1.0
        assert model._rng.bit_generator.state == pristine
        assert model.factor("hot") != 1.0
        assert model._rng.bit_generator.state != pristine

    def test_jitter_active_config(self):
        assert not FedConfig(mode="async", jitter={}).jitter_active
        assert not FedConfig(mode="async",
                             jitter={"client0": 0.0}).jitter_active
        assert FedConfig(mode="async", jitter={"client0": 0.4}).jitter_active
        assert FedConfig(mode="async", jitter=0.1).jitter_active

    def test_all_zero_mapping_builds_no_jitter_model(self):
        """An all-quiet mapping takes the bit-exact jitter=None path."""
        photon = make_photon(jitter={"client0": 0.0})
        assert photon.aggregator.jitter is None

    @pytest.mark.slow
    def test_mapped_jitter_runs_deterministically(self):
        a = make_photon(jitter={"client0": 0.5, "client2": 0.1})
        b = make_photon(jitter={"client0": 0.5, "client2": 0.1})
        assert trace(a.train()) == trace(b.train())
