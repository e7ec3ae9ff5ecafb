"""Parallel local planes (batched stepping + procpool) and the
persistent fork pool.

The contract under test: ``local_plane`` changes *throughput only*.
Batched stepping of K stacked clients is bit-exact against K
sequential ``client.train`` calls (property-tested across cohort
sizes, shapes, optimizer configs, proximal ``mu`` and retained
moments), the procpool plane reproduces the single-process run —
final weights, history and drop ledger — exactly, a post-processor
that draws randomness draws the same noise on every plane and across
a resume, and every plane stays crash-consistent under checkpoint/
resume.  Every training path steps through the one ``local_step``;
one fork pool per run and the read-only proximal anchors ride along.
``batched`` is the default plane; it stacks a group in chunks sized
from each client's widest activation, decodes a chunk's broadcasts just
before the chunk trains, and trains a client that stacks with nobody
solo.  The references below pin ``sequential`` explicitly.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.data import CachedTokenStream, SyntheticC4
from repro.fed import (
    CentralizedTrainer,
    ClipUpdate,
    Compose,
    DPGaussianNoise,
    FailureModel,
    LLMClient,
    Photon,
    personalize,
)
from repro.fed import batched as batched_module
from repro.fed import engine as engine_module
from repro.fed.batched import (
    batch_eligible,
    batch_group_key,
    train_clients_batched,
    widest_activation,
)
from repro.fed.engine import SyncAggregator
from repro.fed.types import RoundInfo
from repro.nn import DecoderLM
from repro.obs import Tracer
from repro.optim import ConstantLR, WarmupCosine
from repro.tensor import Tensor, ops

from helpers import (
    assert_bit_exact_resume,
    assert_states_equal,
    check_gradients,
    run_crash_resume,
)

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5, model_mb=0.05)


def make_stream(cfg, shard=0, seed=0, batch=2):
    c4 = SyntheticC4(num_shards=8, vocab=cfg.vocab_size, seed=1)
    return CachedTokenStream(c4.shard(shard), batch_size=batch,
                             seq_len=cfg.seq_len, cache_tokens=1024, seed=seed)


def make_clients(cfg, optim, n, **kwargs):
    return [
        LLMClient(f"c{i}", cfg, make_stream(cfg, shard=i, seed=i,
                                            batch=optim.batch_size),
                  optim, ConstantLR(optim.max_lr), **kwargs)
        for i in range(n)
    ]


def dropout_client(client_id="d", shard=0, **kwargs):
    """A client the stacked step cannot take: its dropout draws come
    from its own model's RNG."""
    cfg = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2,
                      vocab_size=32, seq_len=16, dropout=0.1)
    return LLMClient(client_id, cfg, make_stream(cfg, shard=shard, seed=shard),
                     OPTIM, ConstantLR(OPTIM.max_lr), **kwargs)


def dp_post(seed=3):
    """A post-processor that draws randomness: clip, then DP noise."""
    return Compose([ClipUpdate(5.0),
                    DPGaussianNoise(clip_norm=5.0, noise_multiplier=0.5,
                                    seed=seed)])


def train_sequential(clients, global_state, infos):
    return [
        client.train({k: v.copy() for k, v in global_state.items()}, info)
        for client, info in zip(clients, infos)
    ]


# ----------------------------------------------------------------------
# Fused batched ops: finite-difference gradient checks
# ----------------------------------------------------------------------

class TestBatchedOps:
    def test_batched_embedding_gradients(self, rng):
        indices = rng.integers(0, 5, size=(3, 2, 4))
        weight = rng.normal(size=(3, 5, 6)).astype(np.float32)
        check_gradients(lambda w: ops.batched_embedding(w, indices), [weight])

    def test_batched_cross_entropy_gradients(self, rng):
        logits = rng.normal(size=(2, 3, 4, 7)).astype(np.float32)
        targets = rng.integers(0, 7, size=(2, 3, 4))
        targets[0, 0, 1] = -100  # exercise the ignore_index mask
        check_gradients(
            lambda lg: ops.batched_cross_entropy(lg, targets), [logits])

    def test_batched_ops_match_scalar_slices(self, rng):
        """Forward values: slice k of the batched op == the scalar op
        on that slice, bitwise."""
        weight = rng.normal(size=(3, 5, 6)).astype(np.float32)
        indices = rng.integers(0, 5, size=(3, 2, 4))
        batched = ops.batched_embedding(Tensor(weight), indices)
        for k in range(3):
            np.testing.assert_array_equal(
                batched.data[k], ops.embedding(Tensor(weight[k]),
                                               indices[k]).data)
        logits = rng.normal(size=(3, 2, 4, 7)).astype(np.float32)
        targets = rng.integers(0, 7, size=(3, 2, 4))
        losses = ops.batched_cross_entropy(Tensor(logits), targets)
        for k in range(3):
            np.testing.assert_array_equal(
                losses.data[k],
                ops.cross_entropy(Tensor(logits[k]), targets[k]).data)


# ----------------------------------------------------------------------
# Batched == sequential: the hypothesis property
# ----------------------------------------------------------------------

def train_wave(clients, global_state, infos):
    """The batched plane's wave, through the engine's chunker
    (``RoundEngine._train_states_batched``) on an engine over
    ``clients``: each client's broadcast goes over the engine's Link,
    with its own ``RoundInfo``.  Returns the raw updates in task order
    and the chunk sizes (each fused call, then one per solo)."""
    tracer = Tracer()
    engine = SyncAggregator(clients[0].model_config,
                            {c.client_id: c for c in clients},
                            local_plane="batched", tracer=tracer)
    tasks = [(c.client_id,
              engine.link.send_state(global_state, sender="agg",
                                     receiver=c.client_id),
              info)
             for c, info in zip(clients, infos)]
    fused = []
    stacked = engine_module.train_clients_batched
    with patch.object(engine_module, "train_clients_batched",
                      lambda chunk, *args: fused.append(len(chunk))
                      or stacked(chunk, *args)):
        updates, _ = engine._train_states_batched(tasks)
    solos = tracer.meters.snapshot().get("batched/solo_fallbacks", 0)
    return updates, fused + [1] * solos


def budget_for(limit, client):
    """A ``STACK_BUDGET`` under which ``client``'s group stacks at most
    ``limit`` clients a step."""
    return limit * widest_activation(client)


class TestBatchedEqualsSequential:
    @settings(max_examples=8, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=4),
        n_blocks=st.integers(min_value=1, max_value=2),
        d_model=st.sampled_from([8, 16]),
        vocab=st.sampled_from([17, 32]),
        tied=st.booleans(),
        steps=st.integers(min_value=1, max_value=3),
        weight_decay=st.sampled_from([0.0, 0.1]),
        grad_clip=st.sampled_from([0.05, 1.0]),
        stagger=st.booleans(),
        mus=st.lists(st.sampled_from([0.0, 0.05, 0.5]), min_size=4,
                     max_size=4),
        stateful=st.booleans(),
        limit=st.integers(min_value=1, max_value=4),
    )
    @example(k=4, n_blocks=1, d_model=8, vocab=17, tied=False, steps=2,
             weight_decay=0.1, grad_clip=0.05, stagger=True,
             mus=[0.0, 0.5, 0.0, 0.05], stateful=True, limit=4)
    @example(k=3, n_blocks=2, d_model=16, vocab=32, tied=True, steps=1,
             weight_decay=0.0, grad_clip=1.0, stagger=False,
             mus=[0.05, 0.5, 0.05, 0.0], stateful=False, limit=4)
    @example(k=4, n_blocks=1, d_model=16, vocab=32, tied=False, steps=2,
             weight_decay=0.1, grad_clip=0.05, stagger=True,
             mus=[0.5, 0.0, 0.05, 0.0], stateful=False, limit=3)
    def test_property_batched_equals_k_sequential(
            self, k, n_blocks, d_model, vocab, tied, steps, weight_decay,
            grad_clip, stagger, mus, stateful, limit):
        """Stacked training of K clients is bit-exact against K
        sequential ``client.train`` calls — deltas, losses, metrics —
        across cohort sizes, layer shapes, optimizer configs and
        (``stagger``) heterogeneous LR step bases, with a proximal
        ``mu`` per client (zero included) and, over two rounds,
        stateful clients whose retained moments stack in and out.  In
        the first round a stateful client trains one step more than its
        neighbour, so the second wave holds two retained step counts:
        two groups.  ``grad_clip=0.05`` forces the per-client clip
        branch to actually fire.  With a stack limit of ``limit``
        clients, a group of n trains in ceil(n / limit) fused calls."""
        cfg = ModelConfig("prop", n_blocks=n_blocks, d_model=d_model,
                          n_heads=2, vocab_size=vocab, seq_len=8,
                          tie_embeddings=tied)
        optim = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                            batch_size=2, weight_decay=weight_decay,
                            grad_clip=grad_clip)

        def build():
            return [LLMClient(f"c{i}", cfg, make_stream(cfg, shard=i, seed=i),
                              optim, WarmupCosine(3e-3, 2, 64),
                              stateless=not stateful, proximal_mu=mus[i])
                    for i in range(k)]

        seq_clients, bat_clients = build(), build()
        assert all(batch_eligible(c) for c in bat_clients)
        for round_idx, seed in enumerate((7, 8)):
            global_state = DecoderLM(cfg, seed=seed).state_dict()
            infos = [
                RoundInfo(round_idx=round_idx,
                          local_steps=steps + int(stateful and round_idx == 0
                                                  and i % 2 == 1),
                          global_step_base=(11 * i if stagger else 0) + 4 * round_idx)
                for i in range(k)
            ]
            seq = train_sequential(seq_clients, global_state, infos)
            groups = Counter(batch_group_key(c, info)
                             for c, info in zip(bat_clients, infos)).values()
            with patch.object(batched_module, "STACK_BUDGET",
                              budget_for(limit, bat_clients[0])):
                bat, chunks = train_wave(bat_clients, global_state, infos)
            assert len(chunks) == sum(-(-n // limit) for n in groups)
            assert max(chunks) <= limit
            if round_idx == 1:
                assert len(groups) == (2 if stateful and k > 1 else 1)
            for s, b in zip(seq, bat):
                assert s.client_id == b.client_id
                assert s.num_tokens == b.num_tokens
                assert s.num_steps == b.num_steps
                assert s.metrics == b.metrics
                assert_states_equal(s.delta, b.delta)

    def test_counters_advance_like_sequential(self):
        info = RoundInfo(round_idx=0, local_steps=2, global_step_base=0)
        clients = make_clients(CFG, OPTIM, 2)
        state = DecoderLM(CFG, seed=7).state_dict()
        train_clients_batched(clients, [state, dict(state)], [info, info])
        for client in clients:
            assert client.rounds_participated == 1
            assert client.tokens_processed == 2 * OPTIM.batch_size * CFG.seq_len

    def test_eligibility_gate(self):
        """Proximal anchors, retained moments and post-processing stack
        (or run after the stack); dropout RNG does not."""
        eligible = make_clients(CFG, OPTIM, 1)[0]
        assert batch_eligible(eligible)
        proximal = make_clients(CFG, OPTIM, 1, proximal_mu=0.1)[0]
        stateful = make_clients(CFG, OPTIM, 1, stateless=False)[0]
        noisy = make_clients(CFG, OPTIM, 1, post_process=dp_post())[0]
        assert batch_eligible(proximal)
        assert batch_eligible(stateful)
        assert batch_eligible(noisy)
        assert not batch_eligible(dropout_client())

    def test_group_key_separates_heterogeneous_configs(self):
        info = RoundInfo(round_idx=0, local_steps=2, global_step_base=0)
        a = make_clients(CFG, OPTIM, 1)[0]
        other_optim = OptimConfig(max_lr=3e-3, warmup_steps=2,
                                  schedule_steps=64, batch_size=2,
                                  weight_decay=0.1)
        b = LLMClient("b", CFG, make_stream(CFG), other_optim,
                      ConstantLR(3e-3))
        assert batch_group_key(a, info) != batch_group_key(b, info)
        # Different pulled versions (async) still stack: the LR base is
        # per-client, not part of the key.
        later = RoundInfo(round_idx=3, local_steps=2, global_step_base=6)
        assert batch_group_key(a, info) == batch_group_key(a, later)

    def test_equal_but_distinct_model_configs_stack(self):
        """The key holds the ``ModelConfig`` *value*: user-built clients
        whose configs are equal but not the same object form one
        stacked group instead of silently training solo."""
        def build(plane, tracer=None):
            clients = {}
            for i in range(2):
                cfg = ModelConfig(**vars(CFG))
                assert cfg == CFG and cfg is not CFG
                clients[f"c{i}"] = LLMClient(
                    f"c{i}", cfg, make_stream(cfg, shard=i, seed=i), OPTIM,
                    ConstantLR(OPTIM.max_lr))
            engine = SyncAggregator(CFG, clients, local_plane=plane,
                                    tracer=tracer)
            engine.run(rounds=2, local_steps=2)
            return engine
        tracer = Tracer()
        ref, bat = build("sequential"), build("batched", tracer)
        assert_states_equal(ref.global_state, bat.global_state)
        assert tracer.meters.snapshot()["batched/stacked_clients"] == 4
        assert "batched/solo_fallbacks" not in tracer.meters.snapshot()

    @pytest.mark.parametrize("bad_id", [-1, CFG.vocab_size])
    def test_out_of_range_token_id_raises_like_sequential(self, bad_id):
        """One decoder, one range check: a stacked wave refuses the id
        ``Embedding.forward`` refuses (a negative one used to wrap)."""
        info = RoundInfo(round_idx=0, local_steps=1, global_step_base=0)
        state = DecoderLM(CFG, seed=7).state_dict()

        def poisoned():
            clients = make_clients(CFG, OPTIM, 2)
            x, y = clients[1].streams[0].next_batch()
            x[0, 3] = bad_id
            clients[1].streams[0].next_batch = lambda: (x, y)
            return clients

        with pytest.raises(IndexError, match="token id out of range") as seq:
            train_sequential(poisoned(), state, [info, info])
        with pytest.raises(IndexError) as bat:
            train_clients_batched(poisoned(), [state, dict(state)], [info, info])
        assert str(bat.value) == str(seq.value)


# ----------------------------------------------------------------------
# One step body: every single-node path calls batched.local_step
# ----------------------------------------------------------------------

class TestOneStepBody:
    """Each training path's steps are ``batched.local_step`` calls: a
    path that grows its own zero_grad/loss/backward/clip/AdamW loop
    back stops calling it and fails here."""

    STEPS = 3

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        step = batched_module.local_step

        def counted(model, optimizer, x, y, grad_clip, k=1, proximal=None):
            calls.append(k)
            return step(model, optimizer, x, y, grad_clip, k, proximal)

        monkeypatch.setattr(batched_module, "local_step", counted)
        return calls

    def test_sequential_plane(self, calls):
        client = make_clients(CFG, OPTIM, 1, proximal_mu=0.1)[0]
        client.train(DecoderLM(CFG, seed=7).state_dict(),
                     RoundInfo(round_idx=0, local_steps=self.STEPS,
                               global_step_base=0))
        assert calls == [1] * self.STEPS

    def test_batched_plane(self, calls):
        state = DecoderLM(CFG, seed=7).state_dict()
        info = RoundInfo(round_idx=0, local_steps=self.STEPS, global_step_base=0)
        train_clients_batched(make_clients(CFG, OPTIM, 2, stateless=False),
                              [state, state], [info, info])
        assert calls == [2] * self.STEPS

    def test_centralized_trainer(self, calls):
        trainer = CentralizedTrainer(CFG, make_stream(CFG), OPTIM)
        trainer.train(total_steps=self.STEPS, eval_every=self.STEPS)
        assert calls == [1] * self.STEPS

    def test_personalize(self, calls):
        personalize(DecoderLM(CFG, seed=7).state_dict(), CFG, make_stream(CFG),
                    steps=self.STEPS, lora_rank=2)
        assert calls == [1] * self.STEPS


# ----------------------------------------------------------------------
# Engine equivalence: each plane replays the sequential run exactly
# ----------------------------------------------------------------------

def sync_photon(rounds=2, seed=0, post_process=None, **overrides):
    """Sync with crashes and uptime; the sequential plane unless the
    caller names another."""
    fed_kwargs = dict(population=4, clients_per_round=3, local_steps=2,
                      rounds=rounds, server_opt="fedadam", server_lr=0.02,
                      seed=seed, local_plane="sequential")
    fed_kwargs.update(overrides)
    max_workers = fed_kwargs.pop("max_workers", 1)
    fed = FedConfig(**fed_kwargs)
    return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                  max_workers=max_workers, uptime=0.9,
                  failure_model=FailureModel(crash_prob=0.1, seed=seed + 1),
                  post_process=post_process)


def async_photon(rounds=3, seed=0, post_process=None, **overrides):
    """Async with the fault stack live: deadline + requeue, jitter,
    heterogeneous clock, crash injection, lossy int8 uplink with EF;
    the sequential plane unless the caller names another."""
    fed_kwargs = dict(population=4, clients_per_round=3, local_steps=2,
                      rounds=rounds, mode="async", buffer_size=2,
                      staleness_alpha=0.5, deadline=2.0,
                      drop_policy="requeue", jitter=0.3, compression="int8",
                      error_feedback=True, server_opt="fedmom",
                      server_momentum=0.9, seed=seed, local_plane="sequential")
    fed_kwargs.update(overrides)
    max_workers = fed_kwargs.pop("max_workers", 1)
    spread = fed_kwargs.pop("client_speed_spread", 3.0)
    fed = FedConfig(**fed_kwargs)
    return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=spread,
                  max_workers=max_workers, uptime=0.9,
                  failure_model=FailureModel(crash_prob=0.1, seed=seed + 1),
                  post_process=post_process)


def assert_same_run(a, b):
    """Two Photon runs are indistinguishable: history, weights, wire
    accounting and (when present) the drop ledger."""
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra.clients == rb.clients
        assert ra.val_perplexity == rb.val_perplexity
        assert ra.train_loss == rb.train_loss
        assert ra.comm_bytes_up == rb.comm_bytes_up
        assert ra.raw_bytes_up == rb.raw_bytes_up
    assert_states_equal(a.aggregator.global_state, b.aggregator.global_state)
    ledger_a = getattr(a.aggregator, "drop_ledger", None)
    if ledger_a is not None:
        assert ledger_a.state_dict() == b.aggregator.drop_ledger.state_dict()


class TestEnginePlaneEquivalence:
    def test_references_are_sequential_and_the_default_is_batched(self):
        """Every ``*_matches_sequential`` test compares against the
        sequential plane, whatever the default: a batched reference
        would compare batched with batched and prove nothing."""
        assert FedConfig().local_plane == "batched"
        for build in (sync_photon, async_photon):
            assert build(rounds=1).aggregator.local_plane == "sequential"

    def test_sync_batched_matches_sequential(self):
        ref = sync_photon(local_plane="sequential")
        ref.train()
        run = sync_photon(local_plane="batched")
        run.train()
        assert_same_run(ref, run)

    def test_async_batched_matches_sequential_with_fault_stack(self):
        """Waves mix pulled versions, deadlines cancel cycles, EF banks
        int8 residuals — the batched plane must replay all of it."""
        ref = async_photon(local_plane="sequential")
        ref.train()
        run = async_photon(local_plane="batched")
        run.train()
        assert_same_run(ref, run)
        assert ref.aggregator.drop_ledger.total_cancelled_cycles > 0

    def test_sync_procpool_matches_sequential(self):
        ref = sync_photon(local_plane="sequential")
        ref.train()
        run = sync_photon(local_plane="procpool", max_workers=2)
        run.train()
        assert_same_run(ref, run)

    def test_async_procpool_matches_sequential(self):
        ref = async_photon(local_plane="sequential")
        ref.train()
        run = async_photon(local_plane="procpool", max_workers=2)
        run.train()
        assert_same_run(ref, run)

    def test_mixed_wave_falls_back_per_client(self, monkeypatch):
        """An ineligible (dropout) client inside a batched wave trains
        solo while the rest stack, in chunks of at most the stack
        limit — same result."""
        calls = []
        stacked = engine_module.train_clients_batched
        monkeypatch.setattr(engine_module, "train_clients_batched",
                            lambda clients, *args: calls.append(len(clients))
                            or stacked(clients, *args))

        def build(plane, tracer=None):
            clients = make_clients(CFG, OPTIM, 3)
            clients.append(dropout_client("p", shard=3))
            engine = SyncAggregator(
                CFG, {c.client_id: c for c in clients}, local_plane=plane,
                tracer=tracer)
            engine.run(rounds=2, local_steps=2)
            return engine
        ref = build("sequential")
        whole = budget_for(3, make_clients(CFG, OPTIM, 1)[0])
        for budget, fused, solos in (
                (batched_module.STACK_BUDGET, [3, 3], 2),  # the default
                (whole - 1, [2, 2], 4),  # ceil(3 / 2): a stack of 2 and a solo
                (1, [], 8)):  # nothing stacks: 4 solos x 2 rounds
            calls.clear()
            tracer = Tracer()
            with patch.object(batched_module, "STACK_BUDGET", budget):
                bat = build("batched", tracer)
                assert calls == fused
                # No silent fallback (ROADMAP 7(c)): both outcomes are
                # counted, and counting them changes nothing (untraced
                # batched == traced).
                assert_states_equal(build("batched").global_state,
                                    bat.global_state)
            assert_states_equal(ref.global_state, bat.global_state)
            meters = tracer.meters.snapshot()
            assert meters.get("batched/solo_fallbacks", 0) == solos
            assert meters.get("batched/stacked_clients", 0) == sum(fused)

    @pytest.mark.parametrize("limit", [1, 2])
    def test_wave_decodes_one_chunk_at_a_time(self, monkeypatch, limit):
        """A chunk's broadcasts are decoded just before it trains: a
        wave of four holds one chunk's decoded states when each chunk
        trains — one when every step is too wide to stack (a wave of
        solos, as on the sequential plane), two in chunks of two."""
        monkeypatch.setattr(batched_module, "STACK_BUDGET",
                            budget_for(limit, make_clients(CFG, OPTIM, 1)[0]))
        clients = make_clients(CFG, OPTIM, 4)
        engine = SyncAggregator(CFG, {c.client_id: c for c in clients},
                                local_plane="batched")
        decoded = []
        recv = engine.link.recv_state

        class Decoded(dict):  # a dict that takes a weak reference
            pass

        def tracked(message):
            state, metadata = recv(message)
            if message.sender == "agg":
                state = Decoded(state)
                decoded.append(weakref.ref(state))
            return state, metadata
        engine.link.recv_state = tracked
        alive = []

        def counted(train):
            def wrapper(*args):
                gc.collect()
                alive.append(sum(ref() is not None for ref in decoded))
                return train(*args)
            return wrapper
        monkeypatch.setattr(engine_module, "train_clients_batched",
                            counted(engine_module.train_clients_batched))
        for client in clients:
            client.local_update = counted(client.local_update)
        engine.run(rounds=2, local_steps=1)
        assert alive == [limit] * (8 // limit)

        ref = SyncAggregator(CFG, {c.client_id: c for c in make_clients(CFG, OPTIM, 4)},
                             local_plane="sequential")
        ref.run(rounds=2, local_steps=1)
        assert_states_equal(ref.global_state, engine.global_state)

    def test_wave_of_one_trains_like_sequential(self, monkeypatch):
        """A batched wave of one has nothing to stack: its client
        trains solo through ``local_update`` once a round, counted as a
        solo fallback and as a wave in which nothing stacked, and the
        history is the sequential plane's."""
        calls = []
        local_update = LLMClient.local_update
        monkeypatch.setattr(LLMClient, "local_update", lambda client, *args:
                            calls.append(client.client_id)
                            or local_update(client, *args))

        def build(plane, tracer=None):
            engine = SyncAggregator(
                CFG, {"c0": make_clients(CFG, OPTIM, 1)[0]}, local_plane=plane,
                val_stream=make_stream(CFG, shard=7, seed=99), tracer=tracer)
            engine.run(rounds=2, local_steps=2)
            return engine
        tracer = Tracer()
        engine = build("batched", tracer)
        assert calls == ["c0", "c0"]
        meters = tracer.meters.snapshot()
        assert meters["batched/solo_fallbacks"] == 2
        assert meters["batched/unstacked_waves"] == 2
        assert "batched/stacked_clients" not in meters
        ref = build("sequential")
        np.testing.assert_array_equal(ref.history.val_perplexities,
                                      engine.history.val_perplexities)
        assert ([r.train_loss for r in ref.history]
                == [r.train_loss for r in engine.history])
        assert_states_equal(ref.global_state, engine.global_state)

    def test_engine_and_photon_share_the_declared_default(self):
        """One default plane: an engine built directly trains the way
        one built by ``Photon`` from a default ``FedConfig`` does."""
        clients = {c.client_id: c for c in make_clients(CFG, OPTIM, 2)}
        photon = Photon(CFG, FedConfig(population=2, clients_per_round=2),
                        OPTIM, num_shards=2, val_batches=1)
        assert (SyncAggregator(CFG, clients).local_plane
                == photon.aggregator.local_plane == FedConfig().local_plane)

    @pytest.mark.parametrize("build", [sync_photon, async_photon],
                             ids=["sync", "async"])
    def test_random_post_processor_is_plane_independent(self, build):
        """One DP post-processor shared by every client draws one noise
        sequence, in task order, whichever plane trains the wave (a
        forked worker once drew from its own copy of the RNG)."""
        ref = build(post_process=dp_post(), local_plane="sequential")
        ref.train()
        for plane, workers in (("batched", 1), ("procpool", 2)):
            run = build(post_process=dp_post(), local_plane=plane,
                        max_workers=workers)
            run.train()
            np.testing.assert_array_equal(ref.history.val_perplexities,
                                          run.history.val_perplexities)
            assert_same_run(ref, run)

    def test_post_processing_follows_task_order_in_a_mixed_wave(self):
        """A solo client between two stacked ones: the solo trains
        when the wave's pass reads it, before the stacked chunk, yet
        the shared noise stream is drawn a, b, c."""
        def build(plane, tracer=None):
            post = dp_post()
            a, c = (LLMClient(cid, CFG, make_stream(CFG, shard=i, seed=i),
                              OPTIM, ConstantLR(OPTIM.max_lr),
                              post_process=post)
                    for i, cid in ((0, "a"), (2, "c")))
            b = dropout_client("b", shard=1, post_process=post)
            engine = SyncAggregator(
                CFG, {"a": a, "b": b, "c": c}, local_plane=plane,
                val_stream=make_stream(CFG, shard=7, seed=99), tracer=tracer)
            engine.run(rounds=2, local_steps=2)
            return engine
        tracer = Tracer()
        ref, bat = build("sequential"), build("batched", tracer)
        np.testing.assert_array_equal(ref.history.val_perplexities,
                                      bat.history.val_perplexities)
        assert_states_equal(ref.global_state, bat.global_state)
        meters = tracer.meters.snapshot()
        assert meters["batched/stacked_clients"] == 4
        assert meters["batched/solo_fallbacks"] == 2

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_stateful_federation_async_matches_sync_on_batched_plane(self, mode):
        """DiLoCo-style clients keep their AdamW moments across rounds;
        stacked, they replay the sequential run, and the full-buffer,
        zero-staleness async engine replays the sync one."""
        def run(mode, plane):
            fed = FedConfig(population=3, clients_per_round=3, local_steps=2,
                            rounds=3, mode=mode, stateless_clients=False,
                            staleness_alpha=0.0 if mode == "async" else None,
                            local_plane=plane)
            photon = Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2)
            photon.train()
            return photon
        ref = run("sync", "sequential")
        bat = run(mode, "batched")
        np.testing.assert_array_equal(ref.history.val_perplexities,
                                      bat.history.val_perplexities)
        assert ref.history.train_losses == bat.history.train_losses
        assert_states_equal(ref.aggregator.global_state,
                            bat.aggregator.global_state)

    def test_vector_client_plane_composes_with_batched(self):
        ref = sync_photon(client_plane="vector", cohorts=2,
                          local_plane="sequential")
        ref.train()
        run = sync_photon(client_plane="vector", cohorts=2,
                          local_plane="batched")
        run.train()
        assert_same_run(ref, run)


# ----------------------------------------------------------------------
# Satellite: one persistent worker pool per run (no per-flush churn)
# ----------------------------------------------------------------------

class _CountingPool(engine_module.ProcPool):
    instances = 0

    def __init__(self, *args, **kwargs):
        type(self).instances += 1
        super().__init__(*args, **kwargs)


class TestPersistentExecutor:
    """The only worker pool is the procpool plane's fork pool (the
    thread-pool wave path is gone): one per run, reused by every wave
    and released when the run ends."""

    def test_threads_reused_across_flushes(self, monkeypatch):
        monkeypatch.setattr(engine_module, "ProcPool", _CountingPool)
        _CountingPool.instances = 0
        photon = sync_photon(rounds=3, local_plane="procpool", max_workers=2)
        photon.train()
        assert _CountingPool.instances == 1
        # ... and the run's finally-block released it.
        assert photon.aggregator._procpool is None

    def test_async_threads_reused_across_flushes(self, monkeypatch):
        monkeypatch.setattr(engine_module, "ProcPool", _CountingPool)
        _CountingPool.instances = 0
        # Equipollent clients (no spread, no jitter, no deadline) make
        # completions tie, so batches of >1 survivors share the pool.
        photon = async_photon(rounds=3, local_plane="procpool", max_workers=2,
                              compression="none", error_feedback=False,
                              jitter=0.0, deadline=None, drop_policy=None,
                              client_speed_spread=1.0)
        photon.train()
        assert _CountingPool.instances == 1
        assert photon.aggregator._procpool is None

    def test_state_dict_shuts_workers_down(self):
        engine = sync_photon(rounds=1, local_plane="procpool",
                             max_workers=2).aggregator
        engine._procpool = engine_module.ProcPool(engine.clients, 2)
        engine._procpool._ensure()
        engine.state_dict()
        assert engine._procpool is None


# ----------------------------------------------------------------------
# Satellite: the broadcast state is never aliased or mutated
# ----------------------------------------------------------------------

class TestGlobalStateAliasing:
    @pytest.mark.parametrize("proximal_mu", [0.0, 0.1])
    def test_train_never_mutates_global_state(self, proximal_mu):
        client = make_clients(CFG, OPTIM, 1, proximal_mu=proximal_mu)[0]
        global_state = DecoderLM(CFG, seed=7).state_dict()
        snapshot = {k: v.copy() for k, v in global_state.items()}
        info = RoundInfo(round_idx=0, local_steps=2, global_step_base=0)
        client.train(global_state, info)
        assert_states_equal(global_state, snapshot)
        # The trained workspace must not alias the broadcast buffers.
        for name, param in client.model.named_parameters():
            assert not np.shares_memory(param.data, global_state[name])

    def test_proximal_anchors_are_views_not_copies(self):
        """The no-personalization path reads the global state through
        read-only views — zero copies of the full model per round."""
        client = make_clients(CFG, OPTIM, 1, proximal_mu=0.1)[0]
        global_state = DecoderLM(CFG, seed=7).state_dict()
        info = RoundInfo(round_idx=0, local_steps=1, global_step_base=0)
        # Read-only broadcast buffers must be accepted as-is: a write
        # anywhere in the training path would raise.
        for arr in global_state.values():
            arr.flags.writeable = False
        client.train(global_state, info)


# ----------------------------------------------------------------------
# Crash-consistent checkpoint/resume under the new planes
# ----------------------------------------------------------------------

class TestPlaneCheckpointResume:
    def test_sync_batched_kill_and_resume(self):
        full, resumed = run_crash_resume(
            lambda **kw: sync_photon(local_plane="batched", **kw),
            rounds=2, kill_at=1)
        assert_bit_exact_resume(full, resumed)

    def test_async_batched_kill_and_resume(self):
        full, resumed = run_crash_resume(
            lambda **kw: async_photon(local_plane="batched", **kw),
            rounds=3, kill_at=2)
        assert_bit_exact_resume(full, resumed)

    def test_sync_procpool_kill_and_resume(self):
        full, resumed = run_crash_resume(
            lambda **kw: sync_photon(local_plane="procpool", max_workers=2,
                                     **kw),
            rounds=2, kill_at=1)
        assert_bit_exact_resume(full, resumed)

    @pytest.mark.parametrize("build", [
        lambda **kw: sync_photon(rounds=3, post_process=dp_post(), **kw),
        lambda **kw: async_photon(post_process=dp_post(), local_plane="batched",
                                  **kw),
        lambda **kw: sync_photon(rounds=3, post_process=dp_post(),
                                 client_plane="vector", max_live_clients=2,
                                 **kw),
    ], ids=["sync", "async-batched", "sync-evicting-pool"])
    def test_kill_and_resume_with_random_post_processor(self, build):
        """The DP noise RNG is run state: written once however many
        clients share the processor (an evicting pool included), and
        restored, so the resumed run draws the noise the uninterrupted
        one drew."""
        full, resumed = run_crash_resume(build, rounds=3, kill_at=1)
        assert_bit_exact_resume(full, resumed)

    def test_resume_crosses_planes(self):
        """A sequential checkpoint restores into a batched engine (and
        vice versa): the plane is execution strategy, not state."""
        full, resumed = run_crash_resume(
            lambda **kw: sync_photon(
                local_plane="batched" if kw.get("resume") else "sequential",
                **kw),
            rounds=2, kill_at=1)
        assert_bit_exact_resume(full, resumed)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

class TestPlaneValidation:
    @pytest.mark.parametrize("grad_clip", [0.0, -1.0, float("nan"), float("inf")])
    def test_optim_config_rejects_a_clip_that_is_not_positive(self, grad_clip):
        """A zero limit zeroes gradients and a negative one flips them;
        ``sequential`` used to raise mid-round and ``batched`` to train.
        Every plane now refuses the config before a stream is built."""
        with pytest.raises(ValueError, match="grad_clip must be positive"):
            OptimConfig(grad_clip=grad_clip)

    def test_fed_config_rejects_unknown_plane(self):
        with pytest.raises(ValueError, match="local_plane"):
            FedConfig(local_plane="vectorized")

    def test_fed_config_rejects_procpool_with_compressed_broadcast(self):
        with pytest.raises(ValueError, match="compress_broadcast"):
            FedConfig(local_plane="procpool", compression="int8",
                      compress_broadcast=True)

    def test_engine_rejects_unknown_plane(self):
        clients = {c.client_id: c for c in make_clients(CFG, OPTIM, 1)}
        with pytest.raises(ValueError, match="local_plane"):
            SyncAggregator(CFG, clients, local_plane="bogus")
