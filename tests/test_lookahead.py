"""Async look-ahead: in-flight cycles trained stacked before they arrive.

On the batched plane the async engine trains an arrival whose raw
update is not cached together with the earliest in-flight cycles of
its group, caches each raw update with the client's state after
training, and puts every client back to the state it had before.  The
contract under test: nothing observable moves before a cycle arrives —
history, wire and raw bytes per flush, the drop ledger, tokens
processed, the DP noise stream, the run state a checkpoint writes —
so an async batched run is the sequential plane's run, under crashes,
every drop policy, jitter, any pool cap and a random post-processor,
and a kill at any flush boundary resumes bit-exactly.  The lazy pool's
cap holds while a chunk trains, and no fallback is silent.  The sync
barrier's batched waves go through the same single-pass chunker: they
replay the sequential plane too, and build no client more often.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import FedConfig
from repro.data import CachedTokenStream, SyntheticPile
from repro.fed import FailureModel, Photon
from repro.fed import batched as batched_module
from repro.fed import engine as engine_module
from repro.fed.engine import SyncAggregator
from repro.fed.link import Link, Message
from repro.obs import Tracer
from repro.obs.observer import engine_observer
from repro.utils.serialization import state_bytes

from helpers import assert_bit_exact_resume
from test_local_plane import (
    CFG,
    OPTIM,
    WALLTIME,
    assert_same_run,
    budget_for,
    dp_post,
    make_clients,
)


def fleet(plane, *, rounds=4, seed=0, population=8, concurrency=6,
          buffer_size=2, crash_prob=0.0, drop_policy="requeue", jitter=0.3,
          max_live=None, dp=False, stateless=True, tracer=None, **overrides):
    """An async vector-plane federation on heterogeneous clocks, so a
    wave is one arrival and only the look-ahead stacks.  The deadline
    (2.0 s) cancels or salvages some cycles under the enforcing
    policies; ``admit_stale`` only counts the misses."""
    fed = FedConfig(
        population=population, clients_per_round=concurrency, local_steps=2,
        rounds=rounds, mode="async", buffer_size=buffer_size,
        staleness_alpha=0.5, deadline=2.0, drop_policy=drop_policy,
        jitter=jitter, seed=seed, local_plane=plane, client_plane="vector",
        max_live_clients=max_live, stateless_clients=stateless, **overrides)
    photon = Photon(CFG, fed, OPTIM, corpus="pile", val_batches=2,
                    walltime_config=WALLTIME, client_speed_spread=3.0,
                    failure_model=(FailureModel(crash_prob=crash_prob,
                                                seed=seed + 1)
                                   if crash_prob else None),
                    post_process=dp_post() if dp else None)
    if tracer is not None:
        trace(photon, tracer)
    return photon


def trace(photon, tracer):
    """Record ``photon``'s meters on ``tracer`` (the observer is how the
    engine publishes them)."""
    photon.aggregator.tracer = tracer
    photon.aggregator.observer = engine_observer(tracer)


def meters(tracer) -> dict:
    return tracer.meters.snapshot()


def assert_same_fleet(ref, run):
    assert_same_run(ref, run)
    assert ref.result().tokens_processed == run.result().tokens_processed


# ----------------------------------------------------------------------
# The property: async batched (look-ahead) == sequential
# ----------------------------------------------------------------------

_CELLS = dict(
    crash_prob=st.sampled_from([0.0, 0.1, 0.3]),
    drop_policy=st.sampled_from(["drop", "requeue", "admit_partial",
                                 "admit_stale"]),
    jitter=st.sampled_from([0.0, 0.3]),
    max_live=st.sampled_from([1, 2, None]),  # None: the whole population
    buffer_size=st.sampled_from([1, 2, 3]),
    dp=st.booleans(),
    seed=st.integers(min_value=0, max_value=3),
)
_PROPERTY = dict(deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


def _assert_lookahead_is_sequential(crash_prob, drop_policy, jitter, max_live,
                                    buffer_size, dp, seed):
    cell = dict(crash_prob=crash_prob, drop_policy=drop_policy, jitter=jitter,
                max_live=max_live, buffer_size=buffer_size, dp=dp, seed=seed)
    ref = fleet("sequential", **cell)
    ref.train()
    tracer = Tracer()
    run = fleet("batched", tracer=tracer, **cell)
    run.train()
    assert_same_fleet(ref, run)
    if max_live != 1:  # a cap of one stacks nothing
        assert meters(tracer)["lookahead/trained"] > 0


@given(**_CELLS)
@settings(max_examples=8, **_PROPERTY)
@example(crash_prob=0.3, drop_policy="admit_partial", jitter=0.3, max_live=2,
         buffer_size=2, dp=True, seed=0)
@example(crash_prob=0.1, drop_policy="drop", jitter=0.0, max_live=None,
         buffer_size=1, dp=False, seed=1)
def test_property_lookahead_equals_sequential(crash_prob, drop_policy, jitter,
                                              max_live, buffer_size, dp, seed):
    """Crash probability × drop policy × jitter × pool cap × buffer
    size × a DP post-processor: the look-ahead replays the sequential
    plane's history, weights, per-flush bytes, drop ledger and token
    count."""
    _assert_lookahead_is_sequential(crash_prob, drop_policy, jitter, max_live,
                                    buffer_size, dp, seed)


@pytest.mark.slow
@given(**_CELLS)
@settings(max_examples=80, **_PROPERTY)
def test_property_lookahead_equals_sequential_deep(crash_prob, drop_policy,
                                                   jitter, max_live,
                                                   buffer_size, dp, seed):
    _assert_lookahead_is_sequential(crash_prob, drop_policy, jitter, max_live,
                                    buffer_size, dp, seed)


# ----------------------------------------------------------------------
# The barrier wave on a lazy pool: sync batched == sequential, and no
# client is built more often than on the sequential plane
# ----------------------------------------------------------------------

def barrier(plane, *, cohort=8, max_live=None, stateless=True, rounds=2):
    """A sync vector-plane federation of 32 clients over a lazy pool
    of ``max_live`` (None: the whole population)."""
    fed = FedConfig(population=32, clients_per_round=cohort, local_steps=2,
                    rounds=rounds, client_plane="vector",
                    max_live_clients=max_live, local_plane=plane,
                    stateless_clients=stateless)
    return Photon(CFG, fed, OPTIM, corpus="pile", val_batches=2)


def _assert_barrier_is_sequential(budget, **cell):
    """``budget`` is a ``STACK_BUDGET``, None for the module's own."""
    ref = barrier("sequential", **cell)
    ref.train()
    run = barrier("batched", **cell)
    with patch.object(batched_module, "STACK_BUDGET",
                      budget or batched_module.STACK_BUDGET):
        run.train()
    assert_same_fleet(ref, run)
    assert run.clients.materializations <= ref.clients.materializations


@pytest.mark.parametrize("stateless", [True, False],
                         ids=["stateless", "stateful"])
@pytest.mark.parametrize("budget", [1, None], ids=["solo", "default"])
@pytest.mark.parametrize("max_live", [1, 3])
def test_barrier_wave_builds_no_client_more_often(max_live, budget, stateless):
    """Population 32, cohort 8: a wave in which every client trains
    solo (a budget of one) builds each client once, under the lease
    that read its stack plan, as does a stacked wave."""
    _assert_barrier_is_sequential(budget, max_live=max_live,
                                  stateless=stateless)


_BARRIER_CELLS = dict(
    max_live=st.sampled_from([1, 3, None]),
    limit=st.sampled_from([1, 3, None]),  # a stack of one, of three, the default
    stateless=st.booleans(),
    cohort=st.sampled_from([4, 8]),
)


def _assert_barrier_cell(max_live, limit, stateless, cohort):
    budget = limit and budget_for(limit, make_clients(CFG, OPTIM, 1)[0])
    _assert_barrier_is_sequential(budget, max_live=max_live,
                                  stateless=stateless, cohort=cohort,
                                  rounds=3)


@given(**_BARRIER_CELLS)
@settings(max_examples=8, **_PROPERTY)
@example(max_live=1, limit=3, stateless=False, cohort=8)
def test_property_barrier_equals_sequential(max_live, limit, stateless, cohort):
    """Pool cap × stack limit × stateful clients (a later wave can mix
    retained step counts: two groups) × cohort: the batched barrier
    replays the sequential history and builds no client more often."""
    _assert_barrier_cell(max_live, limit, stateless, cohort)


@pytest.mark.slow
@given(**_BARRIER_CELLS)
@settings(max_examples=40, **_PROPERTY)
def test_property_barrier_equals_sequential_deep(max_live, limit, stateless,
                                                 cohort):
    _assert_barrier_cell(max_live, limit, stateless, cohort)


# ----------------------------------------------------------------------
# The hazards, one test each
# ----------------------------------------------------------------------

class TestHazards:
    def test_early_decode_does_not_meter(self, monkeypatch):
        """A broadcast decoded ahead is metered when its cycle arrives:
        a chunk that trains cycles ahead moves the Link's counters by
        its arrivals' broadcasts alone, and every flush bills the bytes
        the sequential plane bills it."""
        run = fleet("batched")
        link = run.aggregator.link
        moved = []
        train_chunk = engine_module.RoundEngine._train_chunk

        def watched(engine, chunk):
            before = (link.bytes_received, link.raw_bytes_received)
            raw = train_chunk(engine, chunk)
            arrivals = [message for (_, message, _), _, slot in chunk
                        if slot is not None]
            if len(arrivals) < len(chunk):  # cycles trained ahead
                overhead = Link.METADATA_OVERHEAD
                metered = (sum(m.nbytes + overhead for m in arrivals),
                           len(arrivals) * (state_bytes(engine.global_state)
                                            + overhead))
                moved.append((link.bytes_received - before[0],
                              link.raw_bytes_received - before[1]) != metered)
            return raw
        monkeypatch.setattr(engine_module.RoundEngine, "_train_chunk", watched)
        run.train()
        assert moved and not any(moved)
        ref = fleet("sequential")
        ref.train()
        assert_same_run(ref, run)

    def test_lossy_links_decode_early_and_upload_at_arrival(self):
        """A compressed broadcast decodes the same bytes whenever it is
        decoded; the int8 uplink and its error-feedback residuals run at
        arrival, against the version the server holds then."""
        lossy = dict(compression="int8", error_feedback=True,
                     compress_broadcast=True, crash_prob=0.1)
        tracer = Tracer()
        run = fleet("batched", tracer=tracer, **lossy)
        run.train()
        ref = fleet("sequential", **lossy)
        ref.train()
        assert_same_fleet(ref, run)
        assert meters(tracer)["lookahead/trained"] > 0

    def test_entry_of_another_dispatch_is_never_read(self):
        """The cache is keyed by dispatch: an entry left by an earlier
        dispatch of the same client (a crash re-dispatched under
        ``retry_round``) is discarded and the arrival trains again."""
        tracer = Tracer()
        run = fleet("batched", tracer=tracer, rounds=1)
        run.train()
        engine = run.aggregator
        client_id, ahead = next(iter(engine._ahead.items()))
        dispatch = engine._inflight[client_id].message
        assert engine._trained_ahead((client_id, dispatch, None))
        engine._ahead[client_id] = ahead._replace(
            message=Message("agg", client_id, dispatch.payload, {}))
        assert not engine._trained_ahead((client_id, dispatch, None))
        assert client_id not in engine._ahead
        assert meters(tracer)["lookahead/discarded"] == 1

    def test_crashed_cycles_drop_their_entries(self, monkeypatch):
        """Crash draws run at arrival: a cycle trained ahead that then
        crashes leaves no trace (rolled back, entry discarded) and the
        retried dispatch trains again — the run is the sequential one."""
        pop_batch = engine_module.AsyncAggregator._pop_batch

        def checked(engine):
            # Every cached entry belongs to a dispatch still in flight.
            assert all(engine._inflight[client_id].message is ahead.message
                       for client_id, ahead in engine._ahead.items())
            return pop_batch(engine)
        monkeypatch.setattr(engine_module.AsyncAggregator, "_pop_batch", checked)
        tracer = Tracer()
        run = fleet("batched", tracer=tracer, crash_prob=0.3, rounds=5)
        run.train()
        ref = fleet("sequential", crash_prob=0.3, rounds=5)
        ref.train()
        assert_same_fleet(ref, run)
        assert meters(tracer)["lookahead/discarded"] > 0
        assert sum(r.retries for r in run.history) > 0

    def test_cancelled_cycles_never_train_ahead(self, monkeypatch):
        """A cycle the deadline cancels never trains: the look-ahead
        skips it, as arrival would."""
        trained = []
        train_chunk = engine_module.RoundEngine._train_chunk

        def watched(engine, chunk):
            for (client_id, _, _), _, slot in chunk:
                if slot is None:  # trained ahead
                    entry = engine._inflight.get(client_id)
                    trained.append(entry is None or entry.timed_out)
            return train_chunk(engine, chunk)
        monkeypatch.setattr(engine_module.RoundEngine, "_train_chunk", watched)
        run = fleet("batched", drop_policy="drop", rounds=5)
        run.train()
        assert trained and not any(trained)
        assert run.aggregator.drop_ledger.total_cancelled_cycles > 0

    def test_looked_ahead_clients_hold_their_state_before_training(self):
        """Until a cycle arrives, its client is as it was: a checkpoint
        taken now writes the untrained client and the untrained token
        count."""
        run = fleet("batched", rounds=1)
        ref = fleet("sequential", rounds=1)
        run.train()
        ref.train()
        engine = run.aggregator
        assert engine._ahead
        assert run.result().tokens_processed == ref.result().tokens_processed
        for client_id, ahead in engine._ahead.items():
            state = engine.clients[client_id].state_dict()
            assert state["tokens_processed"] < ahead.state["tokens_processed"]
            assert state["rounds_participated"] + 1 == ahead.state["rounds_participated"]


# ----------------------------------------------------------------------
# Kill and resume while cached entries are live
# ----------------------------------------------------------------------

class TestResumeWithLiveEntries:
    ROUNDS = 6
    #: Twelve clients, eight in flight, a cap of three: entries are
    #: cached at each of the five boundaries, stateless or stateful.
    SHAPE = dict(population=12, concurrency=8, max_live=3, crash_prob=0.1,
                 dp=True)

    @pytest.mark.parametrize("stateless", [True, False],
                             ids=["stateless", "stateful"])
    def test_kill_at_every_flush_boundary(self, stateless):
        """Each flush boundary of a run whose look-ahead holds cached
        updates: the checkpoint writes rolled-back clients, and the
        resumed run trains the same updates again.  Stateful clients
        carry AdamW moments, which the rollback must take away from a
        client that had none."""
        def build(**kw):
            return fleet("batched", rounds=self.ROUNDS, stateless=stateless,
                         **self.SHAPE, **kw)
        full = build()
        full.train()
        for kill_at in range(1, self.ROUNDS):
            with tempfile.TemporaryDirectory() as tmp:
                interrupted = build(checkpoint_dir=tmp)
                interrupted.train(rounds=kill_at)
                assert interrupted.aggregator._ahead, kill_at
                del interrupted
                resumed = build(checkpoint_dir=tmp, resume=True)
                assert resumed.resumed_from_round == kill_at
                resumed.train(rounds=self.ROUNDS)
            assert_bit_exact_resume(full, resumed)
        ref = fleet("sequential", rounds=self.ROUNDS, stateless=stateless,
                    **self.SHAPE)
        ref.train()
        assert_same_fleet(ref, full)

    def test_restore_discards_the_cache(self):
        """Loading run state replaces every in-flight dispatch, so the
        entries cached for the old ones go."""
        tracer = Tracer()
        run = fleet("batched", tracer=tracer, rounds=1)
        run.train()
        engine = run.aggregator
        cached = len(engine._ahead)
        assert cached
        engine.load_state_dict(engine.state_dict())
        assert not engine._ahead
        assert meters(tracer)["lookahead/discarded"] == cached


# ----------------------------------------------------------------------
# The pool cap holds while a chunk trains
# ----------------------------------------------------------------------

class _Steps(list):
    """``(live clients, stacked K)`` of ``pool`` at every step, once a
    pool is being watched."""

    pool = None


class TestPoolCapDuringSteps:
    @pytest.fixture
    def live_during_steps(self, monkeypatch):
        seen = _Steps()
        step = batched_module.local_step

        def counted(model, optimizer, x, y, grad_clip, k=1, proximal=None):
            if seen.pool is not None:
                seen.append((seen.pool.live_count(), k))
            return step(model, optimizer, x, y, grad_clip, k, proximal)
        monkeypatch.setattr(batched_module, "local_step", counted)
        return seen

    @pytest.mark.parametrize("cap", [1, 3])
    def test_sync_wave_leases_one_chunk_at_a_time(self, live_during_steps, cap):
        """Population 32, cohort 8: a stacked wave holds at most
        ``max(cap, chunk)`` live clients in every step, builds each
        client as often as the sequential plane does (once a lease),
        and the history is the sequential plane's."""
        def build(plane):
            fed = FedConfig(population=32, clients_per_round=8, local_steps=2,
                            rounds=2, client_plane="vector",
                            max_live_clients=cap, local_plane=plane)
            return Photon(CFG, fed, OPTIM, corpus="pile", val_batches=2)
        ref = build("sequential")
        ref.train()
        run = build("batched")
        live_during_steps.pool = run.clients
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batched_module, "STACK_BUDGET",
                       3 * batched_module.widest_activation(
                           run.clients["client0"]))
            run.train()
        assert live_during_steps
        assert all(live <= max(cap, k) for live, k in live_during_steps)
        assert max(k for _, k in live_during_steps) == 3
        assert run.clients.materializations == ref.clients.materializations
        assert_same_run(ref, run)

    @pytest.mark.parametrize("cap", [2, 3])
    def test_lookahead_obeys_the_cap(self, live_during_steps, cap):
        run = fleet("batched", max_live=cap, rounds=3)
        live_during_steps.pool = run.clients
        run.train()
        stacked = [(live, k) for live, k in live_during_steps if k > 1]
        assert stacked
        assert all(k <= cap and live <= cap for live, k in stacked)
        ref = fleet("sequential", max_live=cap, rounds=3)
        ref.train()
        assert_same_fleet(ref, run)


# ----------------------------------------------------------------------
# No silent fallbacks
# ----------------------------------------------------------------------

class TestMeters:
    def test_unstacked_waves_count_the_one_at_a_time_path(self):
        """A sync wave of one, and an async arrival nothing stacks with
        (a pool cap of one), take the sequential path — counted."""
        tracer = Tracer()
        engine = SyncAggregator(CFG, {"c0": make_clients(CFG, OPTIM, 1)[0]},
                                local_plane="batched", tracer=tracer)
        engine.run(rounds=2, local_steps=2)
        assert meters(tracer)["batched/unstacked_waves"] == 2

        tracer = Tracer()
        run = fleet("batched", tracer=tracer, max_live=1, rounds=2)
        run.train()
        counted = meters(tracer)
        assert counted["batched/unstacked_waves"] > 0
        assert "lookahead/trained" not in counted

    def test_lookahead_meters_move_and_change_nothing(self, monkeypatch):
        """``lookahead/trained`` and ``lookahead/discarded`` move on a
        faulty run, and the traced run is the untraced one.  Every
        cycle trained ahead is accounted for: served from the cache at
        its arrival, discarded, or still cached when the run ends."""
        served = []
        arrive = engine_module.RoundEngine._arrive
        monkeypatch.setattr(engine_module.RoundEngine, "_arrive",
                            lambda engine, task: served.append(task[0])
                            or arrive(engine, task))
        tracer = Tracer()
        traced = fleet("batched", tracer=tracer, crash_prob=0.3, rounds=5)
        traced.train()
        counted = meters(tracer)
        assert counted["lookahead/trained"] == (
            len(served) + counted["lookahead/discarded"]
            + len(traced.aggregator._ahead))
        assert 0 < counted["lookahead/trained"] < counted["batched/stacked_clients"]
        assert counted["lookahead/discarded"] > 0
        untraced = fleet("batched", crash_prob=0.3, rounds=5)
        untraced.train()
        assert_same_fleet(untraced, traced)


# ----------------------------------------------------------------------
# The one-byte token cache
# ----------------------------------------------------------------------

class TestNarrowTokenCache:
    @pytest.mark.parametrize("vocab, itemsize", [(32, 1), (256, 1), (257, 2)])
    def test_cache_is_the_narrowest_unsigned_dtype(self, vocab, itemsize):
        source = SyntheticPile(vocab=vocab, seed=0).client_source(0, 4)
        stream = CachedTokenStream(source, batch_size=2, seq_len=8, seed=0)
        cache = stream.cache
        assert cache.dtype.kind == "u" and cache.itemsize == itemsize
        assert int(cache.max()) < vocab
        x, y = stream.next_batch()
        assert x.dtype == y.dtype == np.int64
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])


# ----------------------------------------------------------------------
# Lazy cache windows
# ----------------------------------------------------------------------

class TestLazyClientStreams:
    def test_on_demand_clients_read_lazy_windows(self):
        """A client built on demand trains on lazy windows: the run
        serves their batches as windows, and a build walks no cache."""
        photon = fleet("batched", population=12, concurrency=8,
                       max_live=3, rounds=4)
        photon.train()
        # Clients 0, 3, 6 and 9 are parts of the four Pile sources.
        streams = [photon.clients[f"client{i}"].streams[0]
                   for i in (0, 3, 6, 9)]
        assert all(stream._cache is None for stream in streams)
        assert sum(stream.source.walk_stats["windows_lazy"]
                   for stream in streams) > 0

    @pytest.mark.parametrize("plane", ["sequential", "batched"])
    def test_lazy_streams_replay_walked_ones(self, plane):
        """Client streams that walk their cache at construction give
        the same run: histories, selection logs, wire bytes and tokens
        processed."""
        init = CachedTokenStream.__init__

        def walking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.cache

        def run():
            photon = fleet(plane, population=12, concurrency=8, max_live=3,
                           rounds=4, crash_prob=0.1)
            photon.train()
            return photon

        lazy = run()
        with patch.object(CachedTokenStream, "__init__", walking_init):
            walked = run()
        assert_same_fleet(walked, lazy)
        assert ([asdict(r) for r in walked.history]
                == [asdict(r) for r in lazy.history])
        assert (list(walked.aggregator.scheduler.selection_log)
                == list(lazy.aggregator.scheduler.selection_log))
        for side in ("uplink", "downlink"):
            assert (getattr(walked.aggregator.link, f"{side}_wire_bytes")
                    == getattr(lazy.aggregator.link, f"{side}_wire_bytes"))
