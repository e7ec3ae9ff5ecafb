"""LLM client and aggregator behaviour (the Algorithm 1 pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, OptimConfig, WallTimeConfig
from repro.data import CachedTokenStream, SyntheticC4, partition_stream
from repro.fed import (
    Aggregator,
    AvailabilityModel,
    CheckpointManager,
    ClientPopulation,
    ClientScheduler,
    ClipUpdate,
    FedAvg,
    LazyClientPool,
    LLMClient,
    RunStateCheckpointer,
    UniformSampler,
)
from repro.fed.types import RoundInfo
from repro.net.walltime import WallTimeModel
from repro.nn import DecoderLM
from repro.optim import ConstantLR
from repro.parallel import H100, NodeSpec, SiloSpec
from repro.utils import state_to_vector, tree_norm


CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32, seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64, batch_size=4,
                    weight_decay=0.0)


def make_stream(shard=0, batch=4, seed=0):
    c4 = SyntheticC4(num_shards=4, vocab=CFG.vocab_size, seed=1)
    return CachedTokenStream(c4.shard(shard), batch_size=batch, seq_len=CFG.seq_len,
                             cache_tokens=2048, seed=seed)


def make_client(client_id="c0", **kwargs):
    defaults = dict(
        client_id=client_id, model_config=CFG, streams=make_stream(),
        optim=OPTIM, schedule=ConstantLR(3e-3),
    )
    defaults.update(kwargs)
    return LLMClient(**defaults)


def val_stream():
    c4 = SyntheticC4(num_shards=4, vocab=CFG.vocab_size, seed=1)
    return CachedTokenStream(c4.validation(), batch_size=4, seq_len=CFG.seq_len,
                             cache_tokens=2048, seed=99)


class TestLLMClient:
    def test_update_delta_sign(self):
        """Δ = θ_global − θ_local: applying FedAvg(lr=1) to a single
        client's delta must recover that client's trained weights."""
        client = make_client()
        global_state = DecoderLM(CFG, seed=7).state_dict()
        info = RoundInfo(round_idx=0, local_steps=3, global_step_base=0)
        update = client.train(global_state, info)
        recovered = FedAvg(lr=1.0).step(global_state, update.delta)
        np.testing.assert_allclose(
            state_to_vector(recovered),
            state_to_vector(client.model.state_dict()),
            rtol=1e-4, atol=1e-6,
        )

    def test_update_metadata(self):
        client = make_client()
        info = RoundInfo(0, 3, 0)
        update = client.train(DecoderLM(CFG, seed=0).state_dict(), info)
        assert update.num_steps == 3
        assert update.num_tokens == 3 * 4 * CFG.seq_len
        assert "train_loss_mean" in update.metrics
        assert np.isfinite(update.metrics["train_loss_mean"])

    def test_stateless_resets_momenta(self):
        client = make_client(stateless=True)
        global_state = DecoderLM(CFG, seed=0).state_dict()
        client.train(global_state, RoundInfo(0, 2, 0))
        t_after_first = client._optimizer.t
        client.train(global_state, RoundInfo(1, 2, 2))
        # Stateless: optimizer step counter restarted for round 2.
        assert client._optimizer.t == t_after_first

    def test_stateful_keeps_momenta(self):
        client = make_client(stateless=False)
        global_state = DecoderLM(CFG, seed=0).state_dict()
        client.train(global_state, RoundInfo(0, 2, 0))
        client.train(global_state, RoundInfo(1, 2, 2))
        assert client._optimizer.t == 4

    def test_deterministic_given_seeds(self):
        a = make_client()
        b = make_client()
        global_state = DecoderLM(CFG, seed=0).state_dict()
        ua = a.train(global_state, RoundInfo(0, 2, 0))
        ub = b.train(global_state, RoundInfo(0, 2, 0))
        np.testing.assert_allclose(
            state_to_vector(ua.delta), state_to_vector(ub.delta), atol=1e-6
        )

    def test_post_processing_applied(self):
        client = make_client(post_process=ClipUpdate(max_norm=1e-6))
        update = client.train(DecoderLM(CFG, seed=0).state_dict(), RoundInfo(0, 2, 0))
        assert tree_norm(update.delta) <= 1e-6 * 1.01

    def test_schedule_followed_across_rounds(self):
        from repro.optim import WarmupCosine

        schedule = WarmupCosine(1e-2, warmup_steps=4, total_steps=16)
        client = make_client(schedule=schedule)
        global_state = DecoderLM(CFG, seed=0).state_dict()
        update = client.train(global_state, RoundInfo(0, 4, 0))
        assert update.metrics["lr_final"] == pytest.approx(schedule(3))
        update = client.train(global_state, RoundInfo(1, 4, 4))
        assert update.metrics["lr_final"] == pytest.approx(schedule(7))

    def test_no_stream_rejected(self):
        with pytest.raises(ValueError):
            make_client(streams=[])

    def test_default_plan_single_worker(self):
        plan = make_client().execution_plan()
        assert plan.strategy == "single_gpu"
        assert plan.n_workers == 1

    def test_silo_plan_resolved(self):
        client = make_client(silo=SiloSpec.multi_gpu(2))
        assert client.execution_plan().strategy == "ddp"

    def test_tokens_accumulate(self):
        client = make_client()
        global_state = DecoderLM(CFG, seed=0).state_dict()
        client.train(global_state, RoundInfo(0, 2, 0))
        client.train(global_state, RoundInfo(1, 2, 2))
        assert client.tokens_processed == 2 * 2 * 4 * CFG.seq_len
        assert client.rounds_participated == 2


class TestSubFederation:
    def test_sub_federated_client_averages_nodes(self):
        c4 = SyntheticC4(num_shards=1, vocab=CFG.vocab_size, seed=1)
        streams = partition_stream(c4.shard(0), 2, batch_size=4,
                                   seq_len=CFG.seq_len, seed=0)
        silo = SiloSpec("campus", (NodeSpec((H100,)), NodeSpec((H100,))),
                        inter_bw_gbps=1.0)
        client = LLMClient("subfed", CFG, streams, OPTIM, ConstantLR(3e-3), silo=silo)
        assert client.execution_plan().strategy == "sub_federation"
        update = client.train(DecoderLM(CFG, seed=0).state_dict(), RoundInfo(0, 2, 0))
        assert update.metrics["sub_nodes"] == 2.0
        assert np.isfinite(state_to_vector(update.delta)).all()


class TestAggregator:
    def make_aggregator(self, n_clients=2, **kwargs):
        clients = {
            f"c{i}": make_client(f"c{i}", streams=make_stream(shard=i, seed=i))
            for i in range(n_clients)
        }
        defaults = dict(model_config=CFG, clients=clients, val_stream=val_stream())
        defaults.update(kwargs)
        return Aggregator(**defaults)

    def test_single_client_round_adopts_client_model(self):
        """With one client and FedAvg(lr=1) the new global model IS
        the client's trained model — federated == local training."""
        agg = self.make_aggregator(n_clients=1)
        client = agg.clients["c0"]
        initial = {k: v.copy() for k, v in agg.global_state.items()}
        agg.run_round(0, local_steps=3)
        np.testing.assert_allclose(
            state_to_vector(agg.global_state),
            state_to_vector(client.model.state_dict()),
            rtol=1e-4, atol=1e-6,
        )
        assert not np.allclose(state_to_vector(agg.global_state),
                               state_to_vector(initial))

    def test_two_identical_clients_equal_one(self):
        """Two clients with identical data/seed produce identical
        deltas; their average equals either one."""
        stream_kwargs = dict(shard=0, seed=5)
        clients = {
            "a": make_client("a", streams=make_stream(**stream_kwargs)),
            "b": make_client("b", streams=make_stream(**stream_kwargs)),
        }
        agg = Aggregator(CFG, clients, val_stream=val_stream())
        solo = self.make_aggregator(n_clients=1)
        solo.clients["c0"].streams = [make_stream(**stream_kwargs)]
        agg.run_round(0, 2)
        solo.run_round(0, 2)
        np.testing.assert_allclose(
            state_to_vector(agg.global_state),
            state_to_vector(solo.global_state), rtol=1e-4, atol=1e-6,
        )

    def test_history_and_comm_accounting(self):
        agg = self.make_aggregator()
        record = agg.run_round(0, 2)
        assert record.comm_bytes_down > 0
        assert record.comm_bytes_up > 0
        assert record.clients == ["c0", "c1"]
        assert len(agg.history) == 1
        assert np.isfinite(record.val_perplexity)

    def test_run_multiple_rounds_improves(self):
        agg = self.make_aggregator()
        history = agg.run(rounds=4, local_steps=8)
        assert history.val_perplexities[-1] < history.val_perplexities[0]

    def test_target_perplexity_stops_early(self):
        agg = self.make_aggregator()
        history = agg.run(rounds=50, local_steps=8, target_perplexity=1e9)
        assert len(history) == 1

    def test_partial_participation_sampler(self):
        agg = self.make_aggregator(n_clients=4, sampler=UniformSampler(2, seed=0))
        record = agg.run_round(0, 2)
        assert len(record.clients) == 2

    def test_availability_filters_population(self):
        agg = self.make_aggregator(
            n_clients=4, availability=AvailabilityModel(uptime=0.5, seed=3)
        )
        sizes = [len(agg.run_round(r, 1).clients) for r in range(5)]
        assert min(sizes) >= 1
        assert any(s < 4 for s in sizes)

    def test_checkpointing_each_round(self, tmp_path):
        """The engine's one checkpoint path is the run state: one
        artifact per completed update, holding the global weights and
        the history of who trained."""
        checkpointer = RunStateCheckpointer(tmp_path, keep=10)
        agg = self.make_aggregator(run_checkpointer=checkpointer)
        agg.run(rounds=3, local_steps=1)
        assert checkpointer.manager.list_checkpoints() == [1, 2, 3]
        step, tree = checkpointer.load_tree()
        assert step == 3
        assert set(tree["global_state"]) == set(agg.global_state)
        assert tree["history"][-1]["clients"] == ["c0", "c1"]

    def test_resume_from_checkpoint_state(self, tmp_path):
        checkpointer = RunStateCheckpointer(tmp_path)
        agg = self.make_aggregator(run_checkpointer=checkpointer)
        agg.run(rounds=2, local_steps=1)
        resumed = self.make_aggregator()
        assert checkpointer.restore(resumed) == 2
        for key, value in agg.global_state.items():
            np.testing.assert_array_equal(resumed.global_state[key], value)

    def test_walltime_accrues(self):
        wt = WallTimeModel(WallTimeConfig(throughput=2.0, bandwidth_mbps=1250.0,
                                          model_mb=0.1))
        agg = self.make_aggregator(walltime=wt, comm_topology="rar")
        agg.run(rounds=2, local_steps=4)
        assert agg.simulated_wall_time_s == pytest.approx(2 * (4 / 2.0 + wt.comm_s("rar", 2)))

    def test_weighted_aggregation(self):
        clients = {
            "small": make_client("small", streams=make_stream(shard=0, batch=4, seed=0)),
            "large": make_client("large", streams=make_stream(shard=1, batch=8, seed=1)),
        }
        agg = Aggregator(CFG, clients, val_stream=val_stream(), weighted=True)
        record = agg.run_round(0, 2)
        assert np.isfinite(record.val_perplexity)

    def test_built_clients_are_a_full_pool(self):
        """A plain dict of clients is a pool with nothing to build and
        nothing to evict, over a population of the dict's own names;
        a foreign checkpoint is refused naming the stranger."""
        agg = self.make_aggregator(n_clients=3)
        pool = agg.clients
        assert isinstance(pool, LazyClientPool)
        assert list(pool) == pool.population.ids == ["c0", "c1", "c2"]
        agg.run_round(0, 1)
        assert (pool.live_count(), pool.materializations, pool.evictions) \
            == (3, 0, 0)
        state = agg.state_dict()
        state["clients"]["touched"]["c7"] = {}
        with pytest.raises(KeyError, match="'c7' is not in this federation"):
            agg.load_state_dict(state)

    def test_one_population_per_engine(self):
        """The scheduler and a heterogeneous wall-time model must be
        built over the population of the engine's own clients."""
        agg = self.make_aggregator()
        ours, theirs = agg.clients.population, ClientPopulation(["c0", "c1"])
        WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=1250.0,
                                  model_mb=0.05)
        self.make_aggregator(clients=agg.clients,
                             scheduler=ClientScheduler(ours, "fastest"),
                             walltime=WallTimeModel(WALLTIME, ours))
        for kwargs in (dict(scheduler=ClientScheduler(theirs)),
                       dict(walltime=WallTimeModel(WALLTIME, theirs))):
            with pytest.raises(ValueError, match="population"):
                self.make_aggregator(clients=agg.clients, **kwargs)

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            Aggregator(CFG, {})

    def test_invalid_rounds(self):
        agg = self.make_aggregator()
        with pytest.raises(ValueError):
            agg.run(rounds=0, local_steps=1)


class TestClientCheckpointing:
    def test_client_level_checkpointer_retired(self, tmp_path):
        """The weights-only per-client checkpointer is gone: RunState
        (PR 5) snapshots the entire federation crash-consistently, and
        the dual path could silently resurrect stale weights on
        resume.  Engine-level checkpointing (``Aggregator`` /
        ``RunStateCheckpointer``) is the one remaining path."""
        with pytest.raises(TypeError):
            make_client(checkpointer=CheckpointManager(tmp_path))

    def test_client_state_survives_roundtrip(self):
        """What RunState persists per client — counters, stream RNG
        position — restores a twin to the same durable state (the
        model workspace is overwritten by every broadcast)."""
        client = make_client()
        global_state = DecoderLM(CFG, seed=0).state_dict()
        client.train(global_state, RoundInfo(0, 3, 0))
        twin = make_client()
        twin.load_state_dict(client.state_dict())
        assert twin.tokens_processed == client.tokens_processed
        assert twin.rounds_participated == client.rounds_participated
        ua = client.train(global_state, RoundInfo(1, 2, 3))
        ub = twin.train(global_state, RoundInfo(1, 2, 3))
        np.testing.assert_allclose(
            state_to_vector(ua.delta), state_to_vector(ub.delta), atol=1e-6
        )
