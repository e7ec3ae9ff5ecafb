"""Photon: the end-to-end federated LLM pre-training system.

This facade assembles the full stack described in the paper —
synthetic data sources, sharding, LLM clients, Link, sampler,
ServerOpt, aggregator, wall-time accounting — behind one class:

>>> from repro import Photon
>>> from repro.config import TINY_MODELS, FedConfig, OptimConfig
>>> run = Photon(TINY_MODELS["tiny"], FedConfig(population=4,
...              clients_per_round=4, local_steps=16, rounds=4),
...              OptimConfig(max_lr=3e-3, warmup_steps=8,
...                          schedule_steps=128, batch_size=8))
>>> history = run.train()
>>> history.val_perplexities[-1] < history.val_perplexities[0]
True
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compress import ErrorFeedback, make_codec
from ..config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from ..data.sharding import assign_shards
from ..data.stream import BatchStream, CachedTokenStream, MixedStream
from ..data.synthetic import SyntheticC4, SyntheticPile
from ..net.comm import federated_volume, reduction_factor
from ..net.walltime import JitterModel, WallTimeModel
from ..obs import NULL_TRACER, MetricsSink, Tracer
from ..optim import LRSchedule, WarmupCosine
from ..utils.metrics import History
from .edge import EdgeTier, paper_regions, round_robin_assign
from .engine import (
    AsyncAggregator,
    RoundEngine,
    SyncAggregator,
    check_deadline_feasible,
)
from .client import LLMClient
from .failover import FailoverController
from .faults import DeadlinePolicy, FailureModel, FaultPolicy
from .link import Link
from .population import ClientPopulation, LazyClientPool
from .postprocess import PostProcessor
from .procpool import check_max_workers
from .runstate import RunStateCheckpointer
from .sampler import AvailabilityModel, FullParticipation, UniformSampler
from .scheduler import ClientScheduler
from .server_opt import make_server_opt

__all__ = ["Photon", "PhotonResult"]


@dataclass
class PhotonResult:
    """Summary of a completed Photon run.

    The deadline ledger (dropped/salvaged work, late admits) is
    surfaced here so callers don't have to walk the round records;
    all four fields are 0 for runs without a deadline policy.
    """

    history: History
    total_comm_bytes: int
    simulated_wall_time_s: float
    tokens_processed: int
    final_perplexity: float
    best_perplexity: float
    dropped_steps: int = 0
    dropped_bytes: int = 0
    deadline_misses: int = 0
    salvaged_steps: int = 0
    # Update-compression accounting: the uncompressed fp32 volume of
    # every payload vs what actually hit the wire, and their ratio
    # (1.0 for the lossless default).
    total_raw_bytes: int = 0
    compression_ratio: float = 1.0
    # Crash recovery: the server update the run was restored from
    # (None for a run that started fresh).
    resumed_from_round: "int | None" = None
    # Hierarchical federation: edge→root backhaul volume and edge-
    # server crash losses (all 0 on the flat single-server path).
    backhaul_wire_bytes: int = 0
    backhaul_raw_bytes: int = 0
    edge_crashes: int = 0
    edge_updates_lost: int = 0
    # Server failover (FailoverController): root crashes survived,
    # server updates rolled back across them, and the real wall time
    # spent promoting replicas / cold-restarting.
    server_crashes: int = 0
    server_updates_lost: int = 0
    recovery_s_total: float = 0.0
    replication_wire_bytes: int = 0


class Photon:
    """Configure and run a federated pre-training job.

    Parameters
    ----------
    model_config / fed_config / optim_config:
        Architecture, federation shape and local recipe.  If
        ``optim_config.schedule_steps`` is left at a value shorter
        than the run, the cosine floor simply holds — matching the
        paper's fixed decay periods.
    corpus:
        ``"c4"`` (uniform 64-shard IID split), ``"pile"``
        (four heterogeneous sources), or a prebuilt mapping of
        client id → :class:`~repro.data.stream.BatchStream`.
    heterogeneity:
        For the Pile corpus: 0 collapses all sources onto one kernel
        (IID control), 1 keeps them fully distinct.
    walltime_config / comm_topology:
        Optional analytic wall-clock accounting (Appendix B.1).
    uptime:
        Client availability probability per round (1.0 = always on).
    failure_model / fault_policy:
        Crash injection and the aggregator's reaction to it (see
        :mod:`repro.fed.faults`); both engines honor them — the async
        engine retries, drops or aborts per completion event.  The
        async deadline/drop knobs ride on ``fed_config``
        (``deadline``, ``drop_policy``, ``adaptive_local_steps``).
    client_speed_spread:
        Per-client hardware/link heterogeneity: each client's compute
        and bandwidth slowdown is drawn log-uniformly from
        ``[1, spread]`` (requires ``walltime_config``; 1.0 keeps the
        federation equipollent).  This is what makes the async engine's
        event clock interesting — stragglers no longer pace a barrier.

    server_failure_model:
        The seeded crash model of the root and edge servers (``None``:
        servers never crash); with it, or with ``fed_config.replicas``,
        the run is wrapped in a
        :class:`~repro.fed.failover.FailoverController`.
        ``repro train --server-crash-prob P`` builds
        ``FailureModel(crash_prob=P, seed=seed + 7919)``.

    Scheduling, update compression, hierarchy and replication all ride
    on ``fed_config``; :class:`~repro.config.FedConfig` documents each
    knob.
    """

    def __init__(self, model_config: ModelConfig, fed_config: FedConfig,
                 optim_config: OptimConfig | None = None, *,
                 corpus: str | dict[str, BatchStream] = "c4",
                 heterogeneity: float = 1.0,
                 num_shards: int = 64,
                 val_batches: int = 4,
                 schedule: LRSchedule | None = None,
                 walltime_config: WallTimeConfig | None = None,
                 comm_topology: str = "rar",
                 uptime: float = 1.0,
                 post_process: PostProcessor | None = None,
                 failure_model: FailureModel | None = None,
                 fault_policy: FaultPolicy | None = None,
                 weighted: bool = False,
                 initial_state=None,
                 max_workers: int = 1,
                 client_speed_spread: float = 1.0,
                 data_seed: int = 1234,
                 init_seed: int = 0,
                 server_failure_model: FailureModel | None = None):
        check_max_workers(max_workers, fed_config.local_plane)
        if not 0.0 < uptime <= 1.0:
            raise ValueError(f"uptime must be in (0, 1], got {uptime}")
        if client_speed_spread < 1.0:
            raise ValueError(
                f"client_speed_spread must be >= 1, got {client_speed_spread}"
            )
        if client_speed_spread > 1.0 and walltime_config is None:
            raise ValueError(
                "client_speed_spread needs a walltime_config to build the "
                "heterogeneous simulated clock"
            )
        self.model_config = model_config
        self.fed_config = fed_config
        self.optim_config = optim_config or OptimConfig()
        self.schedule = schedule or WarmupCosine(
            self.optim_config.max_lr,
            self.optim_config.warmup_steps,
            self.optim_config.schedule_steps,
            self.optim_config.alpha_min,
        )

        # The one thing client_plane decides: whether every client is
        # built here, up front, or each on its first use.
        build_up_front = fed_config.client_plane == "eager"
        if not build_up_front and isinstance(corpus, dict):
            raise ValueError(
                "client_plane='vector' needs a named corpus ('c4' or "
                "'pile'); a prebuilt stream dict is inherently eager"
            )
        # Client identity is fixed by the corpus shape — client ``i``
        # of a named corpus is ``client{i}``, a stream dict brings its
        # own names — so the population, the wall-time model and the
        # deadline feasibility check can run *before* the (much more
        # expensive) data build: an impossible deadline fails in
        # milliseconds, not after caching every shard stream.
        ids = list(corpus) if isinstance(corpus, dict) else fed_config.population
        spreads = dict(compute_spread=client_speed_spread,
                       bandwidth_spread=client_speed_spread,
                       seed=fed_config.seed)
        self.population = (
            ClientPopulation.heterogeneous(ids, **spreads)
            if fed_config.cohorts is None
            else ClientPopulation.cohorts(ids, fed_config.cohorts, **spreads)
        )
        walltime = (WallTimeModel(walltime_config, self.population)
                    if walltime_config is not None else None)
        deadline = None
        if fed_config.mode == "async" and fed_config.deadline is not None:
            deadline = DeadlinePolicy(
                deadline_s=fed_config.deadline,
                drop_policy=fed_config.drop_policy or "drop",
            )
            check_deadline_feasible(deadline, walltime, self.population.ids,
                                    fed_config.local_steps,
                                    fed_config.adaptive_local_steps)

        # Crash-consistent run-state checkpoints (repro.fed.runstate):
        # the whole federation — weights, ServerOpt moments, event
        # queue, scheduler counters, RNG streams — is snapshot every
        # checkpoint_every server updates; resume restores the latest.
        # Like the deadline pre-flight above, a resume pointed at an
        # empty directory fails here in milliseconds, before the
        # (much more expensive) data build.
        # Flight recorder (repro.obs): built once and shared by the
        # engine, procpool, checkpointer and failover controller.
        # Without trace_path this is the no-op NULL_TRACER singleton —
        # zero RNG draws, bit-exact histories.
        self.tracer = NULL_TRACER
        if fed_config.trace_path is not None:
            from pathlib import Path

            trace_path = Path(fed_config.trace_path)
            sink = (
                MetricsSink(trace_path.with_suffix(".metrics.jsonl"))
                if fed_config.metrics_every else None
            )
            self.tracer = Tracer(trace_path,
                                 metrics_every=fed_config.metrics_every or 0,
                                 sink=sink)

        self.run_checkpointer = None
        self.resumed_from_round: int | None = None
        if fed_config.checkpoint_dir is not None:
            self.run_checkpointer = RunStateCheckpointer(
                fed_config.checkpoint_dir,
                codec=fed_config.checkpoint_codec,
                seed=fed_config.seed,
                tracer=self.tracer,
            )
            if fed_config.resume and self.run_checkpointer.latest_step() is None:
                raise FileNotFoundError(
                    f"no checkpoints under {fed_config.checkpoint_dir} "
                    "to resume from"
                )

        stream_of, val_stream = self._build_data(
            corpus, heterogeneity, num_shards, data_seed
        )

        def make_client(cid: str) -> LLMClient:
            return LLMClient(
                client_id=cid,
                model_config=model_config,
                streams=stream_of(cid),
                optim=self.optim_config,
                schedule=self.schedule,
                stateless=fed_config.stateless_clients,
                post_process=post_process,
                seed=init_seed,
            )

        clients = LazyClientPool(
            self.population, make_client,
            max_live=(len(self.population) if build_up_front
                      else fed_config.max_live_clients
                      or max(64, 2 * fed_config.clients_per_round)),
        )
        sampler = (
            FullParticipation()
            if fed_config.clients_per_round >= fed_config.population
            else UniformSampler(fed_config.clients_per_round, seed=fed_config.seed)
        )
        availability = (
            AvailabilityModel(uptime, seed=fed_config.seed) if uptime < 1.0 else None
        )
        # Per-dispatch cycle noise: the async engine's alone (a sync
        # FedConfig refuses jitter), so the draw stream stays
        # engine-only.
        jitter_model = (
            JitterModel(fed_config.jitter, seed=fed_config.seed)
            if fed_config.jitter_active else None
        )
        scheduler = ClientScheduler(self.population, fed_config.selection,
                                    deadline_s=fed_config.deadline)
        # Lossy update transport (repro.compress): uploads ride the
        # codec, the broadcast stays lossless; "none" keeps the legacy
        # lossless Link byte-exactly (codec is None).
        codec = make_codec(fed_config.compression, seed=fed_config.seed)
        error_feedback = (ErrorFeedback()
                          if fed_config.error_feedback and codec is not None else None)
        # ONE seeded server-crash model shared by the edge tier and the
        # failover controller, so root, edge and replica draws all come
        # from a single deterministic stream.  Crash keys are namespaced
        # by server id ("root", "edge:<region>", "root/replica<i>"), so
        # sharing never aliases two servers' draws.
        self.server_failure_model = server_failure_model
        # Hierarchical edge tier (repro.fed.edge): region 0 is the
        # root site (loopback); further regions pay the paper
        # topology's England backhaul through their own codec channel.
        edge_tier = None
        if fed_config.tiers is not None:
            tier_codec = make_codec(fed_config.tier_compression,
                                    seed=fed_config.seed + 1)
            edge_tier = EdgeTier(
                paper_regions(fed_config.tiers),
                # Regions are dealt over lexicographic id order.
                round_robin_assign(self.population.sorted_ids,
                                   fed_config.tiers),
                backhaul=Link(uplink_codec=tier_codec),
                error_feedback=(ErrorFeedback()
                                if fed_config.error_feedback and tier_codec is not None
                                else None),
                failure_model=self.server_failure_model,
                replicated=fed_config.replicas > 0,
            )
        engine_kwargs = dict(
            model_config=model_config,
            clients=clients,
            server_opt=make_server_opt(
                fed_config.server_opt, fed_config.server_lr, fed_config.server_momentum
            ),
            sampler=sampler,
            val_stream=val_stream,
            link=Link(uplink_codec=codec),
            availability=availability,
            walltime=walltime,
            comm_topology=comm_topology,
            eval_batches=val_batches,
            weighted=weighted,
            initial_state=initial_state,
            max_workers=max_workers,
            failure_model=failure_model,
            fault_policy=fault_policy,
            scheduler=scheduler,
            error_feedback=error_feedback,
            run_checkpointer=self.run_checkpointer,
            checkpoint_every=fed_config.checkpoint_every or 1,
            init_seed=init_seed,
            local_plane=fed_config.local_plane,
            edge_tier=edge_tier,
            tracer=self.tracer,
        )
        self.aggregator: RoundEngine
        if fed_config.mode == "async":
            # Unset knobs fall through to the engine's own defaults.
            if fed_config.staleness_alpha is not None:
                engine_kwargs["staleness_alpha"] = fed_config.staleness_alpha
            self.aggregator = AsyncAggregator(
                buffer_size=fed_config.buffer_size or fed_config.clients_per_round,
                deadline=deadline,
                adaptive_local_steps=fed_config.adaptive_local_steps,
                jitter=jitter_model,
                **engine_kwargs,
            )
        else:
            self.aggregator = SyncAggregator(**engine_kwargs)
        if fed_config.resume:
            self.resumed_from_round = self.run_checkpointer.restore(
                self.aggregator
            )
        if build_up_front:
            # After the restore, so a resumed client is built once,
            # straight into its checkpointed state.
            for cid in self.population.ids:
                clients[cid]
        # Failover wrapper (repro.fed.failover): replicates the full
        # RunState to standbys over its own metered Link and survives
        # root crashes by promoting the newest surviving snapshot.
        self.failover: FailoverController | None = None
        if fed_config.replicas > 0 or self.server_failure_model is not None:
            self.failover = FailoverController(
                self.aggregator,
                failure_model=self.server_failure_model,
                replicas=fed_config.replicas,
                replicate_every=fed_config.replicate_every,
                tracer=self.tracer,
            )

    # ------------------------------------------------------------------
    def _build_data(self, corpus, heterogeneity: float, num_shards: int,
                    data_seed: int):
        """``(stream_of, val_stream)``: ``stream_of(client_id)`` builds
        that client's training stream when the client is built — up
        front or on first use, the sources and seeds are the same, and
        a client never built costs no memory."""
        vocab = self.model_config.vocab_size
        population = self.fed_config.population
        index_of = self.population.index_of

        def cached(source, seed: int) -> CachedTokenStream:
            return CachedTokenStream(source, self.optim_config.batch_size,
                                     self.model_config.seq_len, seed=seed)

        if isinstance(corpus, dict):
            if len(corpus) != population:
                raise ValueError(
                    f"corpus provides {len(corpus)} streams for a population of {population}"
                )
            # Validation falls back to a fresh C4-style stream.
            val_source = SyntheticC4(num_shards=1, vocab=vocab, seed=data_seed).validation()
            return dict(corpus).__getitem__, cached(val_source, data_seed)

        if corpus == "c4":
            c4 = SyntheticC4(num_shards=num_shards, vocab=vocab, seed=data_seed)
            groups = assign_shards(num_shards, population, seed=data_seed)

            def stream_of(cid: str) -> BatchStream:
                i = index_of(cid)
                components = [cached(c4.shard(s), data_seed + s)
                              for s in groups[i]]
                return (components[0] if len(components) == 1
                        else MixedStream(components, seed=data_seed + i))

            return stream_of, cached(c4.validation(), data_seed - 1)

        if corpus == "pile":
            pile = SyntheticPile(vocab=vocab, seed=data_seed, heterogeneity=heterogeneity)
            # Reject a population the recipe cannot split here, not at
            # a lazy client's first build.
            pile.splits(population)

            def stream_of(cid: str) -> BatchStream:
                i = index_of(cid)
                return cached(pile.client_source(i, population), data_seed + i)

            return stream_of, cached(pile.validation(), data_seed - 1)

        raise ValueError(f"unknown corpus {corpus!r}; use 'c4', 'pile' or a stream dict")

    # ------------------------------------------------------------------
    @property
    def clients(self) -> LazyClientPool:
        return self.aggregator.clients

    @property
    def history(self) -> History:
        return self.aggregator.history

    def train(self, rounds: int | None = None,
              target_perplexity: float | None = None) -> History:
        """Run the federated job; returns the round history.

        On a resumed run (``FedConfig(resume=True)``) ``rounds`` is
        the *total* target: the restored server updates count toward
        it and only the remainder executes — so crash + resume ends at
        exactly the same round the uninterrupted run would have.
        """
        rounds = rounds if rounds is not None else self.fed_config.rounds
        try:
            if self.resumed_from_round is not None:
                rounds -= len(self.history)
                if rounds < 1:
                    return self.history
            runner = self.failover if self.failover is not None else self.aggregator
            return runner.run(rounds, self.fed_config.local_steps,
                              target_perplexity=target_perplexity)
        finally:
            # Export the trace (and the metrics summary line) even on
            # a crashed run — that is when a flight recorder matters.
            self.tracer.finish()

    def result(self) -> PhotonResult:
        """Summarize the run so far."""
        history = self.aggregator.history
        ppls = history.val_perplexities
        wire, raw = history.total_comm_bytes, history.total_raw_bytes
        return PhotonResult(
            history=history,
            total_comm_bytes=wire,
            simulated_wall_time_s=self.aggregator.simulated_wall_time_s,
            tokens_processed=self.clients.total_tokens_processed(),
            final_perplexity=ppls[-1] if ppls else float("nan"),
            best_perplexity=min(ppls) if ppls else float("nan"),
            dropped_steps=sum(r.dropped_steps for r in history),
            dropped_bytes=sum(r.dropped_bytes for r in history),
            deadline_misses=sum(r.deadline_misses for r in history),
            salvaged_steps=sum(r.salvaged_steps for r in history),
            total_raw_bytes=raw,
            compression_ratio=(raw / wire if wire and raw else 1.0),
            resumed_from_round=self.resumed_from_round,
            backhaul_wire_bytes=sum(r.backhaul_wire_bytes for r in history),
            backhaul_raw_bytes=sum(r.backhaul_raw_bytes for r in history),
            edge_crashes=(
                self.aggregator.edge_tier.total_crashes
                if self.aggregator.edge_tier is not None else 0
            ),
            edge_updates_lost=(
                self.aggregator.edge_tier.total_updates_lost
                if self.aggregator.edge_tier is not None else 0
            ),
            server_crashes=(
                self.failover.crashes if self.failover is not None else 0
            ),
            server_updates_lost=(
                sum(self.failover.updates_lost)
                if self.failover is not None else 0
            ),
            recovery_s_total=(
                sum(self.failover.recovery_s)
                if self.failover is not None else 0.0
            ),
            replication_wire_bytes=(
                self.failover.link.bytes_sent
                if self.failover is not None else 0
            ),
        )

    # ------------------------------------------------------------------
    def communication_summary(self, local_steps: int | None = None) -> dict[str, float]:
        """Measured + analytic communication statistics."""
        local_steps = local_steps or self.fed_config.local_steps
        rounds = len(self.aggregator.history)
        model_bytes = self.model_config.param_bytes
        analytic = federated_volume(
            model_bytes, rounds, local_steps, self.fed_config.clients_per_round
        )
        return {
            "measured_bytes": float(self.aggregator.history.total_comm_bytes),
            "analytic_bytes_per_client": float(analytic.total_bytes),
            "reduction_vs_ddp": reduction_factor(
                model_bytes, max(rounds, 1) * local_steps, local_steps,
                self.fed_config.clients_per_round,
            ) if rounds else float(local_steps),
        }
