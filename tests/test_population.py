"""The client control plane (repro.fed.population, repro.fed.scheduler):
the array scheduler must rank exactly like its per-client scalar
definition (``helpers.reference_rank``), and building clients up front
or lazily with eviction must not change a run — same selections,
jitter draws, drop ledgers and round histories — while the plane
scales to million-client federations in O(cohorts + active clients)
memory."""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compress import ErrorFeedback
from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import (
    ClientFailure,
    ClientPopulation,
    ClientScheduler,
    LazyClientPool,
    Photon,
    normal_quantile,
)
from repro.net.walltime import JitterModel, WallTimeModel, slowdown_factors

from helpers import (
    assert_bit_exact_resume,
    per_client,
    rank_ids,
    reference_rank,
    run_crash_resume,
    select_ids,
)

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5, model_mb=0.05)


#: Ids the way users write them: mixed length, digits, spaces,
#: non-ASCII and astral-plane characters, a trailing NUL, the empty
#: string — and, from so small an alphabet, ids that are prefixes of
#: one another in most draws.
_ID_ALPHABET = "ab01 -é\u03a9\U0001d518\x00"


@st.composite
def client_ids(draw):
    """Three to ten of them."""
    ids = draw(st.lists(st.text(_ID_ALPHABET, max_size=5), unique=True,
                        min_size=2, max_size=9))
    # Always at least one id that is a proper prefix of another.
    longer = ids[0] + draw(st.text(_ID_ALPHABET, min_size=1, max_size=2))
    return ids + [longer] if longer not in ids else ids + [ids[0] + "\x00z"]


# ----------------------------------------------------------------------
# ClientPopulation: the indexed id space + factor arrays
# ----------------------------------------------------------------------
class TestClientPopulation:
    def test_ids_and_index_roundtrip(self):
        pop = ClientPopulation(12)
        assert len(pop) == 12
        for i, cid in enumerate(pop.ids):
            assert cid == f"client{i}"
            assert pop.index_of(cid) == i
        assert pop.sorted_ids == sorted(pop.ids)
        # lex_rank inverts the sorted order.
        for rank, cid in enumerate(pop.sorted_ids):
            assert pop.lex_rank[pop.index_of(cid)] == rank

    @pytest.mark.parametrize("bad", [
        "client007", "client-1", "clientx", "client99", "other3", "",
        "client\uff11",  # full-width digit: isdigit() is true
        " client3", "client3 ", "client12", "client12000", "Client3",
        3, None, 3.0, pytest.param(b"client3", id="bytes"),
        pytest.param(("client3",), id="tuple"),
        pytest.param(["client3"], id="unhashable"),
    ])
    def test_malformed_or_foreign_ids_rejected(self, bad):
        pop = ClientPopulation(12)
        with pytest.raises(KeyError):
            pop.index_of(bad)
        # One bad id fails the whole batch, before anything is returned
        # (an unhashable one as the TypeError of the table lookup).
        with pytest.raises((KeyError, TypeError)):
            pop.indices_of(["client3", bad, "client4"])
        pool = LazyClientPool(pop, factory=lambda cid: None)
        assert bad not in pool
        assert "client3" in pool

    def test_rank_is_python_str_order_not_numpys(self):
        """A numpy unicode array drops trailing NULs, so ranking ids
        through ``np.argsort(np.array(ids))`` put ``"a\\x00"`` and
        ``"a"`` in the order they were given; ``sorted`` does not."""
        pop = ClientPopulation(["a\x00", "a", ""])
        assert pop.sorted_ids == ["", "a", "a\x00"]
        assert pop.lex_rank.tolist() == [2, 1, 0]
        with pytest.raises(ValueError, match="unique"):
            ClientPopulation(["a", "b", "a"])
        with pytest.raises(ValueError, match=">= 1"):
            ClientPopulation([])

    @given(ids=client_ids())
    @settings(max_examples=60, deadline=None)
    def test_any_unique_strings_are_a_population(self, ids):
        pop = ClientPopulation(ids)
        assert pop.ids == ids and len(pop) == len(ids)
        assert pop.sorted_ids == sorted(ids)
        assert [ids[i] for i in np.argsort(pop.lex_rank)] == sorted(ids)
        assert [pop.index_of(cid) for cid in ids] == list(range(len(ids)))
        assert pop.indices_of(ids[::-1]).tolist() == list(range(len(ids)))[::-1]

    def test_heterogeneous_matches_eager_walltime_draws(self):
        """The population's factor draws are the one straggler draw
        (``slowdown_factors``, compute then bandwidth from one seeded
        stream) dealt over sorted ids — the order the federation has
        always drawn in."""
        n, spread, seed = 11, 5.0, 7
        pop = ClientPopulation.heterogeneous(
            n, compute_spread=spread, bandwidth_spread=spread, seed=seed)
        rng = np.random.default_rng(seed)
        compute = dict(zip(pop.sorted_ids, slowdown_factors(rng, spread, n)))
        bandwidth = dict(zip(pop.sorted_ids, slowdown_factors(rng, spread, n)))
        for cid in pop.ids:
            i = pop.index_of(cid)
            assert pop.compute_factors[i] == compute[cid]
            assert pop.bandwidth_factors[i] == bandwidth[cid]

    def test_population_walltime_matches_eager_model(self):
        """The array clock equals the scalar one, client by client."""
        n, spread, seed = 9, 4.0, 3
        pop = ClientPopulation.heterogeneous(
            n, compute_spread=spread, bandwidth_spread=spread, seed=seed)
        model = WallTimeModel(WALLTIME, pop)
        ids = pop.sorted_ids
        for handles in (ids, pop.indices_of(ids)):
            arr = np.add(*model.client_compute_comm_arrays(handles, 16))
            steps = model.adaptive_steps_array(handles, 16)
            for j, cid in enumerate(ids):
                assert arr[j] == model.client_timing(cid, 16).total_s
                assert steps[j] == model.adaptive_local_steps(cid, 16)
        # No population: every client nominal, whoever is asked about.
        nominal = WallTimeModel(WALLTIME)
        assert (np.add(*nominal.client_compute_comm_arrays(ids, 16))
                == nominal.client_timing("anyone", 16).total_s).all()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -2.0])
    def test_factors_must_be_finite_and_positive(self, bad):
        for field in ("compute_factors", "bandwidth_factors"):
            with pytest.raises(ValueError, match="finite and > 0"):
                ClientPopulation(3, **{field: [1.0, bad, 2.0]})

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["throughput", "bandwidth_mbps",
                                       "model_mb"])
    def test_walltime_rates_must_be_finite_and_positive(self, field, bad):
        with pytest.raises(ValueError,
                           match=f"WallTimeConfig.{field} must be finite"):
            WallTimeModel(replace(WALLTIME, **{field: bad}))

    def test_checkpoint_factors_obey_the_population_rule(self):
        pop = ClientPopulation(3)
        model = WallTimeModel(WALLTIME, pop)
        for key in ("compute_factors", "bandwidth_factors"):
            state = model.state_dict()
            state[key] = np.array([1.0, -3.0, np.nan])
            with pytest.raises(ValueError,
                               match=f"checkpoint {key} must be finite"):
                model.load_state_dict(state)
            assert (getattr(pop, key) == 1.0).all()  # nothing installed

    def test_cohorts_share_archetypes(self):
        pop = ClientPopulation.cohorts(20, 4, compute_spread=8.0, seed=1)
        assert len(set(np.round(pop.compute_factors, 12))) <= 4
        for i in range(20):
            assert pop.compute_factors[i] == pop.compute_factors[i % 4]
            assert pop.cohort_of[i] == i % 4

    def test_cohorts_validation(self):
        with pytest.raises(ValueError):
            ClientPopulation.cohorts(4, 0)
        with pytest.raises(ValueError):
            ClientPopulation.cohorts(4, 5)


# ----------------------------------------------------------------------
# S2: jitter-aware feasibility margin
# ----------------------------------------------------------------------
class TestFeasibilityMargin:
    def test_normal_quantile_accuracy(self):
        # Reference values (scipy.stats.norm.ppf); Acklam's
        # approximation is good to ~1e-9 relative error.
        for p, z in ((0.5, 0.0), (0.95, 1.6448536269514722),
                     (0.975, 1.959963984540054), (0.99, 2.3263478740408408),
                     (0.05, -1.6448536269514722)):
            assert normal_quantile(p) == pytest.approx(z, abs=1e-8)
        # Symmetry across the tail branches.
        for p in (0.001, 0.01, 0.2, 0.4):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p),
                                                       abs=1e-12)

    def test_margin_flips_borderline_feasibility(self):
        """A client whose mean cycle fits the deadline but whose
        95th-percentile cycle does not must lose the slot once the
        quantile margin is active."""
        durations = {"a": 9.5, "b": 9.9}
        jitter = JitterModel({"a": 0.5, "b": 0.0}, seed=0)
        pop = ClientPopulation(["a", "b"])

        def rank(fq):
            sched = ClientScheduler(pop, "utility", deadline_s=10.0,
                                    feasibility_quantile=fq, jitter=jitter)
            return rank_ids(sched, ["a", "b"], 0,
                            per_client(durations.__getitem__, pop), 10.0)

        assert rank(None) == ["a", "b"]   # a is faster, both feasible
        assert rank(0.95) == ["b", "a"]   # a's q95 cycle misses the deadline

    def test_margin_requires_quantile_in_unit_interval(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ClientScheduler(ClientPopulation(2), "fastest",
                                feasibility_quantile=bad)

    def test_no_jitter_means_no_margin(self):
        """A quantile without a jitter model has no scales to inflate
        by: the ranking is the plain one."""
        pop = ClientPopulation(["a", "b"])
        sched = ClientScheduler(pop, "fastest", feasibility_quantile=0.95)
        durations = {"a": 1.0, "b": 1.0 + 1e-9}
        assert rank_ids(sched, ["b", "a"], 0,
                        per_client(durations.__getitem__, pop),
                        None) == ["a", "b"]


# ----------------------------------------------------------------------
# S4: the array scheduler == its scalar definition, property-tested
# ----------------------------------------------------------------------
def _build(ids, policy, seed, fairness, exploration, stat_w, fq):
    """A scheduler over ``ids`` with a drawn selection/result history,
    and a per-client duration table."""
    pop = ClientPopulation(ids)
    n = pop.n
    rng = np.random.default_rng(seed)
    jitter = None
    if fq is not None:
        jitter = JitterModel(
            0.4 if seed % 2 else {c: float(rng.choice([0.0, 0.2, 0.6]))
                                  for c in ids}, seed=seed)
    scheduler = ClientScheduler(
        pop, policy, fairness_every_k=fairness, exploration=exploration,
        stat_utility_weight=stat_w, feasibility_quantile=fq, jitter=jitter)
    # Few distinct durations, so ties (broken by id) are common.
    durations = rng.choice(rng.uniform(0.5, 20.0, size=4), size=n)
    dur = dict(zip(pop.ids, durations.tolist()))
    for version in range(int(rng.integers(0, 6))):
        for i in rng.choice(n, size=rng.integers(1, n), replace=False):
            scheduler.note_selected(pop.ids[i], version)
            scheduler.note_result(pop.ids[i], float(rng.uniform(1.0, 5.0)))
    return pop, scheduler, per_client(dur.__getitem__, pop), rng


@given(
    ids=client_ids(),
    policy=st.sampled_from(["random", "fastest", "utility"]),
    seed=st.integers(0, 10_000),
    fairness=st.sampled_from([None, 2, 8]),
    exploration=st.sampled_from([0.0, 1.0]),
    stat_w=st.sampled_from([0.0, 0.5]),
    fq=st.sampled_from([None, 0.95]),
    everyone=st.booleans(),
    winners=st.sampled_from(["one", "slots", "all", None]),
)
@settings(max_examples=60, deadline=None)
def test_select_async_vector_equals_scalar(ids, policy, seed, fairness,
                                           exploration, stat_w, fq,
                                           everyone, winners):
    pop, scheduler, durations_of, rng = _build(
        ids, policy, seed, fairness, exploration, stat_w, fq)
    n = pop.n
    idle = [pop.ids[i] for i in rng.permutation(n)]
    reachable = {pop.ids[i]
                 for i in rng.choice(n, size=rng.integers(1, n), replace=False)}
    slots = int(rng.integers(1, n + 1))
    version = int(rng.integers(0, 10))
    deadline = float(rng.uniform(2.0, 25.0)) if rng.random() < 0.7 else None

    if policy != "random":
        ranked = rank_ids(scheduler, idle, version, durations_of, deadline)
        assert ranked == reference_rank(scheduler, idle, version,
                                        durations_of, deadline)
        assert sorted(ranked) == sorted(idle)
        # Asking for the k best is asking for everyone and keeping k.
        k = {"one": 1, "slots": slots, "all": n, None: None}[winners]
        assert rank_ids(scheduler, idle, version, durations_of, deadline,
                        k) == ranked[:k]
    if everyone:
        # reachable=None means the whole idle pool.
        assert (select_ids(scheduler, idle, None, slots, version,
                           durations_of, deadline_s=deadline)
                == select_ids(scheduler, idle, set(idle), slots, version,
                              durations_of, deadline_s=deadline))
        reachable = None
    dispatch, leftover = select_ids(
        scheduler, idle, reachable, slots, version, durations_of,
        deadline_s=deadline)
    candidates = [c for c in idle if reachable is None or c in reachable]
    if policy == "random":
        # FIFO: the first reachable clients in queue order; whoever
        # the scan passed over as unreachable rotates to the back.
        assert dispatch == candidates[:slots]
        scanned = len(idle) if len(dispatch) < slots else (
            idle.index(dispatch[-1]) + 1)
        assert leftover == idle[scanned:] + [
            c for c in idle[:scanned] if c not in dispatch]
    else:
        assert dispatch == reference_rank(scheduler, candidates, version,
                                          durations_of, deadline, slots)
        assert leftover == [c for c in idle if c not in dispatch]


def test_select_async_resolves_each_candidate_once():
    """A ranking resolves no id at all: the idle pool is population
    indices, and the clock behind ``durations_of`` is asked by them."""
    calls = []

    class CountingPopulation(ClientPopulation):
        def indices_of(self, client_ids):
            calls.append(len(client_ids))
            return super().indices_of(client_ids)

    pop = CountingPopulation(2_000)
    walltime = WallTimeModel(WALLTIME, pop)
    scheduler = ClientScheduler(pop, "utility")
    idle = pop.indices_of(pop.sorted_ids[:1_990])
    calls.clear()
    dispatch, leftover = scheduler.select_async(
        idle, None, 8, 0,
        lambda handles: np.add(
            *walltime.client_compute_comm_arrays(handles, 16)))
    assert len(dispatch) == 8 and len(leftover) == 1_982
    assert sorted(dispatch.tolist() + leftover.tolist()) == sorted(idle.tolist())
    assert calls == []


def _tied_fleet(durations, last_selected, fairness, exploration=1.0):
    """A ``utility`` scheduler over ``len(durations)`` clients whose
    selection clock reads ``last_selected``, and its ``durations_of``."""
    pop = ClientPopulation(len(durations))
    scheduler = ClientScheduler(pop, "utility", exploration=exploration,
                                fairness_every_k=fairness)
    scheduler.last_selected[:] = last_selected
    table = dict(zip(pop.ids, np.asarray(durations, dtype=float).tolist()))
    return pop, scheduler, per_client(table.__getitem__, pop)


@pytest.mark.parametrize("due", [False, True], ids=["no-due", "due"])
@pytest.mark.parametrize("k", [1, 16, 64, 2_000])
def test_rank_head_ties_at_the_cut(due, k):
    """The partition head keeps every tie at the cut.  2,000 clients
    over three cycle times and no exploration score in three 667-way
    ties, so the first 1, 16 or 64 are cut out of the fastest tie; with
    the fairness floor on, 40 clients have waited 11 versions and 40
    waited 9, and the cut falls inside one of those ties instead."""
    n, version = 2_000, 10
    durations = np.array([1.0, 2.5, 6.0])[np.arange(n) % 3]
    last_selected = np.full(n, 7)
    if due:
        last_selected[::50] = -1   # waited 11
        last_selected[25::50] = 1  # waited 9
    pop, scheduler, durations_of = _tied_fleet(
        durations, last_selected, 8 if due else None, exploration=0.0)
    candidates = [pop.ids[i] for i in np.random.default_rng(k).permutation(n)]
    assert rank_ids(scheduler, candidates, version, durations_of, 3.0, k) \
        == reference_rank(scheduler, candidates, version, durations_of,
                          3.0)[:k]


@pytest.mark.slow
@pytest.mark.parametrize("deadline", [None, 3.0])
@pytest.mark.parametrize("fairness", [None, 2, 8])
def test_rank_head_equals_full_sort_at_fleet_size(fairness, deadline):
    """Oracle of the partition head at ``train_fleet`` scale: fleets of
    2k–12k clients over three cycle times and five selection versions,
    so every key is heavily tied, ranked for k in {1, 16, 64, all}."""
    rng = np.random.default_rng(fairness or 0)
    for _ in range(3):
        n = int(rng.integers(2_000, 12_001))
        pop, scheduler, durations_of = _tied_fleet(
            np.array([1.0, 2.5, 6.0])[rng.integers(0, 3, n)],
            rng.choice([-1, 1, 7, 8, 9], size=n,
                       p=[0.02, 0.03, 0.3, 0.35, 0.3]),
            fairness)
        candidates = [pop.ids[i] for i in rng.permutation(n)[:n - 7]]
        expected = reference_rank(scheduler, candidates, 10, durations_of,
                                  deadline)
        for k in (1, 16, 64, None):
            assert rank_ids(scheduler, candidates, 10, durations_of,
                            deadline, k) == expected[:k]


def test_async_run_resolves_ids_only_at_the_edges(monkeypatch):
    """A 2,000-client async ``utility`` run resolves at most one id per
    client and one per dispatched cycle in total: the idle pool and
    every ranking over it are population indices."""
    resolved = []
    indices_of = ClientPopulation.indices_of

    def counting(self, client_ids):
        resolved.append(len(client_ids))
        return indices_of(self, client_ids)

    monkeypatch.setattr(ClientPopulation, "indices_of", counting)
    photon = vector_photon(population=2_000, rounds=3)
    photon.train()
    dispatched = int(photon.aggregator.scheduler.selections.sum())
    assert len(photon.history) == 3 and dispatched > 0
    assert sum(resolved) <= 2_000 + dispatched


@given(
    ids=client_ids(),
    policy=st.sampled_from(["random", "fastest", "utility"]),
    seed=st.integers(0, 10_000),
    fq=st.sampled_from([None, 0.9]),
)
@settings(max_examples=40, deadline=None)
def test_select_cohort_vector_equals_scalar(ids, policy, seed, fq):
    pop, scheduler, durations_of, rng = _build(
        ids, policy, seed, 8, 1.0, 0.0, fq)
    n = pop.n
    default = sorted(pop.ids[i] for i in rng.choice(
        n, size=rng.integers(1, n), replace=False))
    round_idx = int(rng.integers(0, 10))
    expected = default if policy == "random" else sorted(reference_rank(
        scheduler, pop.sorted_ids, round_idx, durations_of, None,
        len(default)))
    logged = len(scheduler.selection_log)
    assert scheduler.select_cohort(pop.sorted_ids, round_idx, default,
                                   durations_of) == expected
    assert list(scheduler.selection_log)[logged:] == [
        (round_idx, cid) for cid in expected]


def test_vector_scheduler_state_roundtrip():
    pop = ClientPopulation(["", "a", "a\x00", "ab", "\U0001d518", "client10"])
    a = ClientScheduler(pop, "utility")
    for v, cid in enumerate(pop.ids[:4]):
        a.note_selected(cid, v)
        a.note_result(cid, 3.0)
        a.note_result(cid, 3.0 - 0.1 * v)
    b = ClientScheduler(pop, "utility")
    b.load_state_dict(a.state_dict())
    np.testing.assert_array_equal(a.last_selected, b.last_selected)
    np.testing.assert_array_equal(a.selections, b.selections)
    np.testing.assert_array_equal(a.last_loss, b.last_loss)
    np.testing.assert_array_equal(a.loss_improvement, b.loss_improvement)
    assert list(a.selection_log) == list(b.selection_log)
    unit = per_client(lambda c: 1.0, pop)
    assert (rank_ids(b, pop.ids, 5, unit, None)
            == rank_ids(a, pop.ids, 5, unit, None))
    # A checkpoint of another population size is refused whole.
    with pytest.raises(ValueError, match="shape"):
        ClientScheduler(ClientPopulation(5), "utility").load_state_dict(
            a.state_dict())


# ----------------------------------------------------------------------
# Jitter draws: batch == sequential scalar draws
# ----------------------------------------------------------------------
class TestJitterFactors:
    def test_factors_match_scalar_stream(self):
        ids = [f"client{i}" for i in range(7)]
        scales = {cid: (0.0 if i % 3 == 0 else 0.1 * (i + 1))
                  for i, cid in enumerate(ids)}
        a = JitterModel(dict(scales), seed=5)
        b = JitterModel(dict(scales), seed=5)
        batch = a.factors(ids)
        scalar = np.array([b.factor(cid) for cid in ids])
        np.testing.assert_array_equal(batch, scalar)
        # End RNG state identical: the next draw agrees too.
        assert a.factor("client1") == b.factor("client1")

    def test_zero_scale_consumes_no_rng(self):
        a = JitterModel(0.0, seed=9)
        assert list(a.factors([f"c{i}" for i in range(4)])) == [1.0] * 4


# ----------------------------------------------------------------------
# S1: staleness-aware error feedback
# ----------------------------------------------------------------------
def _sd(*values):
    return {"w": np.array(values, dtype=np.float32)}


class TestStalenessErrorFeedback:
    def test_gamma_validation(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ErrorFeedback(staleness_gamma=bad)

    def test_decayed_conservation(self):
        """decoded + residual' == delta + gamma**s * residual, exactly."""
        gamma, banked_at, now = 0.5, 3, 7
        ef = ErrorFeedback(staleness_gamma=gamma)
        ef.record("c", _sd(1.0, -2.0, 0.5), _sd(0.25, -1.0, 0.0),
                  version=banked_at)
        residual = {k: v.copy() for k, v in ef.residual("c").items()}
        delta = _sd(0.1, 0.2, -0.3)
        sent = ef.apply("c", delta, version=now)
        decoded = _sd(0.0, 0.1, -0.25)  # what a lossy wire kept
        ef.record("c", sent, decoded, version=now)
        factor = np.float32(gamma ** (now - banked_at))
        lhs = decoded["w"] + ef.residual("c")["w"]
        rhs = delta["w"] + factor * residual["w"]
        np.testing.assert_array_equal(lhs, rhs)

    def test_gamma_one_is_legacy_bit_exact(self):
        legacy = ErrorFeedback()
        decayed = ErrorFeedback(staleness_gamma=1.0)
        for ef in (legacy, decayed):
            ef.record("c", _sd(1.0, 2.0), _sd(0.5, 1.5), version=0)
        a = legacy.apply("c", _sd(0.3, 0.4), version=9)
        b = decayed.apply("c", _sd(0.3, 0.4), version=9)
        np.testing.assert_array_equal(a["w"], b["w"])

    def test_zero_staleness_no_decay(self):
        ef = ErrorFeedback(staleness_gamma=0.5)
        ef.record("c", _sd(1.0), _sd(0.25), version=4)
        sent = ef.apply("c", _sd(0.0), version=4)
        np.testing.assert_array_equal(sent["w"], np.array([0.75],
                                                          dtype=np.float32))

    def test_snapshot_restore_keeps_banked_versions(self):
        ef = ErrorFeedback(staleness_gamma=0.9)
        ef.record("c", _sd(1.0), _sd(0.5), version=2)
        snap = ef.snapshot()
        ef.record("c", _sd(3.0), _sd(2.0), version=6)
        ef.restore(snap)
        assert ef._banked_version["c"] == 2
        np.testing.assert_array_equal(ef.residual("c")["w"],
                                      np.array([0.5], dtype=np.float32))

    def test_state_dict_roundtrip(self):
        a = ErrorFeedback(staleness_gamma=0.8)
        a.record("c", _sd(1.0), _sd(0.25), version=5)
        b = ErrorFeedback(staleness_gamma=0.8)
        b.load_state_dict(a.state_dict())
        assert b._banked_version == {"c": 5}
        sent_a = a.apply("c", _sd(0.1), version=8)
        sent_b = b.apply("c", _sd(0.1), version=8)
        np.testing.assert_array_equal(sent_a["w"], sent_b["w"])


# ----------------------------------------------------------------------
# LazyClientPool: bounded materialization, bit-exact eviction
# ----------------------------------------------------------------------
class TestLazyClientPool:
    def test_mapping_protocol(self):
        pop = ClientPopulation(5)
        pool = LazyClientPool(pop, lambda cid: object(), max_live=2)
        assert len(pool) == 5
        assert sorted(pool) == pop.sorted_ids
        assert "client3" in pool and "client9" not in pool
        assert pool.live_count() == 0  # nothing materialized yet

    def test_eviction_respects_cap_and_leases(self):
        pop = ClientPopulation(4)

        class FakeClient:
            def __init__(self):
                self.tokens_processed = 0
                self.loaded = None

            def state_dict(self):
                return {"tokens_processed": self.tokens_processed}

            def load_state_dict(self, state):
                self.loaded = state
                self.tokens_processed = int(state["tokens_processed"])

        pool = LazyClientPool(pop, lambda cid: FakeClient(), max_live=2)
        pool["client0"].tokens_processed = 10
        pool["client1"].tokens_processed = 20
        assert pool.live_count() == 2
        with pool.lease("client0") as c0:
            assert c0.tokens_processed == 10
            pool["client2"]  # evicts client1 (LRU, unleased)
            pool["client3"]  # over cap, but client0 is pinned
            assert pool.live_count() >= 2
        # Rematerialization restores the parked counters exactly.
        assert pool["client1"].tokens_processed == 20
        assert pool.total_tokens_processed() == 30
        assert pool.evictions > 0

    def test_state_dict_only_touched_clients(self):
        pop = ClientPopulation(100)

        class FakeClient:
            tokens_processed = 0

            def state_dict(self):
                return {"tokens_processed": 0}

            def load_state_dict(self, state):
                pass

        pool = LazyClientPool(pop, lambda cid: FakeClient(), max_live=3)
        for cid in ("client5", "client17"):
            pool[cid]
        assert set(pool.state_dict()["touched"]) == {"client5", "client17"}
        with pytest.raises(KeyError):
            pool.load_state_dict({"touched": {"stranger1": {}}})

    def test_rematerializations_count_rebuilds_of_parked_clients(self):
        """One live slot, two clients leased alternately: after the two
        first builds, every lease rebuilds the client the last one
        parked — counted apart from the first builds."""
        class FakeClient:
            def state_dict(self):
                return {"tokens_processed": 0}

            def load_state_dict(self, state):
                pass

        pool = LazyClientPool(ClientPopulation(2), lambda cid: FakeClient(),
                              max_live=1)
        for cid in ["client0", "client1"] * 3:
            with pool.lease(cid):
                pass
        assert pool.materializations == 6
        assert pool.rematerializations == 4
        assert pool.evictions == 5


# ----------------------------------------------------------------------
# End-to-end: eager plane == vector plane at small N
# ----------------------------------------------------------------------
def vector_photon(population=8, rounds=2, plane="vector", mode="async",
                  selection="utility", seed=3, **overrides):
    fed_kwargs = dict(population=population, clients_per_round=4,
                      local_steps=2, rounds=rounds, mode=mode,
                      selection=selection, seed=seed,
                      client_plane=plane)
    if mode == "async":
        fed_kwargs.update(buffer_size=2, deadline=60.0,
                          drop_policy="requeue", jitter=0.3,
                          feasibility_quantile=(0.95 if selection != "random"
                                                else None))
    fed_kwargs.update(overrides)
    fed = FedConfig(**fed_kwargs)
    return Photon(CFG, fed, OPTIM, corpus="pile", val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=4.0,
                  uptime=0.9)


def _assert_same_run(pe, pv):
    assert [asdict(r) for r in pe.history] == [asdict(r) for r in pv.history]
    assert (list(pe.aggregator.scheduler.selection_log)
            == list(pv.aggregator.scheduler.selection_log))
    assert pe.result().tokens_processed == pv.result().tokens_processed
    ledger_e = getattr(pe.aggregator, "drop_ledger", None)
    if ledger_e is not None:
        assert ledger_e.state_dict() == pv.aggregator.drop_ledger.state_dict()


class TestEagerVectorEquivalence:
    def test_async_utility_full_stack(self):
        """The headline anchor: deadline + requeue + jitter + quantile
        margin + availability + heterogeneous clock, utility policy."""
        pe = vector_photon(plane="eager")
        pv = vector_photon(plane="vector")
        # The one difference: every client built up front, or none yet.
        assert (pe.clients.live_count(), pv.clients.live_count()) == (8, 0)
        pe.train()
        pv.train()
        _assert_same_run(pe, pv)
        assert pe.clients.materializations == 8 and pe.clients.evictions == 0

    def test_async_random_legacy_anchor(self):
        pe = vector_photon(plane="eager", selection="random")
        pv = vector_photon(plane="vector", selection="random")
        pe.train()
        pv.train()
        _assert_same_run(pe, pv)

    def test_sync_fastest(self):
        pe = vector_photon(plane="eager", mode="sync", selection="fastest")
        pv = vector_photon(plane="vector", mode="sync", selection="fastest")
        pe.train()
        pv.train()
        _assert_same_run(pe, pv)

    def test_max_live_does_not_change_history(self):
        """Eviction is bit-exact: a pool squeezed to 2 live clients
        replays the unconstrained run identically."""
        tight = vector_photon(max_live_clients=2)
        roomy = vector_photon(max_live_clients=64)
        tight.train()
        roomy.train()
        _assert_same_run(tight, roomy)
        assert tight.clients.evictions > 0
        assert tight.clients.live_count() <= 2 + 1  # leased overshoot

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("tier_compression", ["none", "int8"])
    @pytest.mark.parametrize("population", [12, 16])
    def test_tiers_deal_regions_identically(self, population,
                                            tier_compression, mode):
        """Past ten clients numeric and lexicographic id order part
        ways (``client10`` sorts before ``client2``), so a plane that
        dealt regions by client index put clients behind different
        backhaul links than the eager plane's sorted-id deal: other
        backhaul bytes and hop time always, and with a lossy backhaul
        other weights.  Regions have one definition now."""
        pe, pv = (vector_photon(plane=plane, population=population, mode=mode,
                                tiers=3, tier_compression=tier_compression)
                  for plane in ("eager", "vector"))
        pe.train()
        pv.train()
        _assert_same_run(pe, pv)
        assert any(r.backhaul_wire_bytes for r in pv.history)

    @pytest.mark.slow
    def test_equivalence_sweep(self):
        for mode in ("sync", "async"):
            for selection in ("random", "fastest", "utility"):
                for seed in (0, 3):
                    pe = vector_photon(plane="eager", mode=mode,
                                       selection=selection, seed=seed)
                    pv = vector_photon(plane="vector", mode=mode,
                                       selection=selection, seed=seed)
                    pe.train()
                    pv.train()
                    _assert_same_run(pe, pv)


# ----------------------------------------------------------------------
# The plane axis of the guarantee lattice (ROADMAP 3a, minimal slice):
# client_plane against every other axis at once, instead of the
# hand-picked cells above.
# ----------------------------------------------------------------------
@st.composite
def lattice_cells(draw):
    """One valid federation, as ``(FedConfig kwargs, Photon kwargs)``
    without the plane: async-only knobs are drawn only under async, a
    backhaul codec only with tiers."""
    def pick(*values):
        return draw(st.sampled_from(values))

    compression, error_feedback = pick(
        ("none", False), ("int8", False), ("int8", True), ("topk:0.25", True))
    fed = dict(mode=pick("sync", "async"), population=pick(4, 8, 12, 16),
               clients_per_round=pick(2, 4), local_steps=2, rounds=2,
               seed=pick(0, 3), selection=pick("random", "fastest", "utility"),
               compression=compression, error_feedback=error_feedback,
               tiers=pick(None, 1, 3))
    if fed["tiers"] is not None:
        fed["tier_compression"] = pick("none", "int8")
    if fed["mode"] == "async":
        fed.update(buffer_size=pick(None, 2), jitter=pick(0.0, 0.3),
                   adaptive_local_steps=pick(False, True))
        drop_policy = pick(None, "drop", "requeue", "admit_partial",
                           "admit_stale")
        if drop_policy is not None:
            # Nominal cycle is 1 s (one unit without a wall-time model):
            # impossible, borderline and loose.
            fed.update(drop_policy=drop_policy, deadline=pick(0.5, 1.5, 60.0))
    walltime, spread = pick((None, 1.0), (WALLTIME, 1.0), (WALLTIME, 4.0))
    photon = dict(corpus=pick("c4", "pile"), uptime=pick(1.0, 0.8),
                  walltime_config=walltime, client_speed_spread=spread)
    return fed, photon


def _run_plane(plane, fed, photon):
    """The finished run, or the error the federation was refused or
    aborted with."""
    try:
        run = Photon(CFG, FedConfig(client_plane=plane, **fed), OPTIM,
                     num_shards=fed["population"], val_batches=2, **photon)
        run.train()
    except (ValueError, ClientFailure) as err:
        return type(err), str(err)
    return run


def _assert_planes_agree(cell):
    eager, vector = (_run_plane(plane, *cell) for plane in ("eager", "vector"))
    if isinstance(eager, tuple) or isinstance(vector, tuple):
        assert eager == vector
    else:
        _assert_same_run(eager, vector)


_LATTICE = dict(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@given(cell=lattice_cells())
@settings(max_examples=15, **_LATTICE)
def test_plane_lattice(cell):
    """Eager ≡ vector on any cell of mode × selection × codec/EF ×
    tiers × deadline policy × jitter × adaptive steps × corpus ×
    population × uptime × clock: both planes refuse the federation
    with the same error, or both run it to the same history, selection
    log and drop ledger."""
    _assert_planes_agree(cell)


@pytest.mark.slow
@given(cell=lattice_cells())
@settings(max_examples=150, **_LATTICE)
def test_plane_lattice_deep(cell):
    _assert_planes_agree(cell)


class TestVectorPlaneCheckpointResume:
    def test_vector_kill_and_resume_bit_exact(self):
        full, resumed = run_crash_resume(
            lambda **kw: vector_photon(rounds=4, **kw), rounds=4, kill_at=2)
        assert_bit_exact_resume(full, resumed)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("planes", [("eager", "vector"),
                                        ("vector", "eager")])
    def test_checkpoint_crosses_planes(self, planes, mode):
        """One checkpoint layout: a run checkpointed while building
        clients up front resumes bit-exactly building them on demand,
        and the other way round (utility selection, int8 + EF)."""
        written, resumed_under = planes

        def build(checkpoint_dir=None, resume=False, **overrides):
            plane = (resumed_under if resume
                     else written if checkpoint_dir else "eager")
            return vector_photon(
                rounds=4, mode=mode, plane=plane, compression="int8",
                error_feedback=True, checkpoint_dir=checkpoint_dir,
                resume=resume, max_live_clients=(3 if plane == "vector"
                                                 else None), **overrides)

        full, resumed = run_crash_resume(build, rounds=4, kill_at=2)
        assert resumed.fed_config.client_plane == resumed_under
        assert_bit_exact_resume(full, resumed)
        assert (list(full.aggregator.scheduler.selection_log)
                == list(resumed.aggregator.scheduler.selection_log))


class TestVectorPlaneConfig:
    def test_vector_plane_rejects_stream_dict(self):
        streams = {"clientX": object()}
        fed = FedConfig(population=1, clients_per_round=1, local_steps=1,
                        rounds=1, client_plane="vector")
        with pytest.raises(ValueError, match="vector"):
            Photon(CFG, fed, OPTIM, corpus=streams)

    def test_cohorts_requires_vector_plane(self):
        with pytest.raises(ValueError):
            FedConfig(population=4, clients_per_round=2, local_steps=1,
                      rounds=1, cohorts=2)

    def test_cohort_photon_runs(self):
        p = vector_photon(cohorts=2, rounds=2)
        p.train()
        assert len(p.history) == 2
        assert p.population.cohort_of is not None
