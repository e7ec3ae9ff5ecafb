"""Round engines: how the federation executes rounds.

The paper's Algorithm 1 is a dozen lines — sample, broadcast, τ local
steps, average, ``ServerOpt``, checkpoint.  This module runs it with
one split: :class:`RoundEngine` owns every *mechanism* exactly once,
its two subclasses own *policy* only.

Mechanisms (``RoundEngine``):

* **one wave path** — :meth:`RoundEngine._train_wave` is the only
  place clients train: decode the broadcast, run the configured local
  plane (``batched`` by default, ``sequential`` or ``procpool``, all
  bit-exact against each other), move the delta back over the Link
  with error feedback;
* **one server-update path** — :meth:`RoundEngine._server_update`
  merges, steps ``ServerOpt``, saves the weights checkpoint, builds
  the one :class:`~repro.utils.metrics.RoundRecord` (Link byte window,
  deadline ledger window, edge-tier report, simulated wall time) and
  appends it to the history;
* **one round loop** — :meth:`RoundEngine.run` numbers rounds from the
  history length, snapshots the run state at update boundaries and
  takes the failover controller's crash/replicate step as its
  boundary hook;
* **collaborators, not branches** — tracing goes through one
  :class:`~repro.obs.observer.EngineObserver` called unconditionally
  (a shared null object when tracing is off), and clients are held
  in one registry (:class:`~repro.fed.population.LazyClientPool`)
  whose population the scheduler and the wall-time model share.

Policies:

* :class:`SyncAggregator` — the paper's barrier (Algorithm 1 L.3–11):
  who is in the cohort, what a client crash does to the round
  (partial aggregation or a full redo with the error-feedback
  residuals rewound), how long the barrier took;
* :class:`AsyncAggregator` — a FedBuff-style buffered event loop:
  clients train continuously against whatever global version they
  last pulled, the server flushes as soon as ``buffer_size`` updates
  arrive (or a deadline closes the window), and stale deltas are
  down-weighted by a staleness function (default ``1 / (1 + s)^alpha``).

The async engine is event-driven: a priority queue orders simulated
client-completion events, with per-client durations supplied by a
:class:`~repro.net.walltime.WallTimeModel` (optionally heterogeneous —
stragglers, slow links).  All completions sharing a timestamp are
processed before any new work is issued at that instant, so with
equipollent clients, ``buffer_size == cohort`` and no staleness
penalty the async engine reproduces the synchronous trace exactly.

Fault tolerance is first-class: in-flight crashes surface as
completion events handled per :class:`~repro.fed.faults.FaultPolicy`
(``retry_round`` re-issues the request immediately, ``partial`` drops
the client back to the idle pool, ``strict`` aborts), a
:class:`~repro.fed.faults.DeadlinePolicy` cancels or measures cycles
that outlive a simulated wall-time deadline (with per-flush
dropped-work accounting in a :class:`~repro.fed.faults.DropLedger`),
and ``adaptive_local_steps`` lets slow clients train proportionally
fewer steps per pull, normalized in the aggregation weighting.

Selection is *predictive* rather than reactive: both engines route
client selection through a :class:`~repro.fed.scheduler.ClientScheduler`
(``random`` keeps the legacy behavior bit-exactly; ``fastest`` and
``utility`` rank clients by predicted cycle time, deadline
feasibility, recency and a fairness floor), per-cycle durations can
carry seeded lognormal noise (:class:`~repro.net.walltime.JitterModel`)
so borderline clients are probabilistically rather than permanently
dropped, and ``drop_policy="admit_partial"`` salvages the steps a
deadline-cancelled client did finish instead of discarding them.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import ExitStack
from typing import NamedTuple

import numpy as np

from ..compress.error_feedback import ErrorFeedback
from ..config import LOCAL_PLANES, FedConfig, ModelConfig, check_choice
from ..data.stream import BatchStream
from ..eval.perplexity import evaluate_perplexity
from ..net.walltime import JitterModel, WallTimeModel, steps_by_deadline
from ..nn import DecoderLM
from ..obs.observer import engine_observer
from ..obs.trace import NULL_TRACER
from ..utils.durable import (
    BOOL, COMPONENT, FLOAT, INT, MEMBER, MODEL_TREE, PAYLOAD, SAME,
    Durable, Either, Field, List, Map, Opt, Record, Row)
from ..utils.metrics import History, RoundRecord, aggregate_metrics
from ..utils.serialization import StateDict, tree_mean, tree_norm
from .batched import stack_chunks, train_clients_batched
from .checkpoint import CheckpointManager
from .client import LLMClient
from .faults import ClientFailure, DeadlinePolicy, DropLedger, FailureModel, FaultPolicy
from .link import Link, Message
from .population import LazyClientPool
from .procpool import ProcPool, check_max_workers, share_state
from .sampler import AvailabilityModel, ClientSampler, FullParticipation
from .scheduler import ClientScheduler
from .server_opt import FedAvg, ServerOpt
from .types import ClientUpdate, RoundInfo

__all__ = [
    "RoundEngine",
    "SyncAggregator",
    "AsyncAggregator",
    "PolynomialStaleness",
    "adaptive_step_weights",
    "check_deadline_feasible",
]


def _plan_cycles(walltime: WallTimeModel | None,
                 client_ids: "list[str] | np.ndarray",
                 local_steps: int, adaptive_local_steps: bool = False
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clock of each client's next pull–train–push cycle, as
    ``(planned steps, compute_s, comm_s)`` arrays: nominal steps (or
    ``τ / slowdown`` under ``adaptive_local_steps``) and their
    unjittered Eq. 1 / ``2·S/B_i`` split.  ``compute_s + comm_s`` is
    the cycle time selection ranks on and a dispatch is planned from
    (``client_ids`` is whatever handle the wall-time model resolves:
    rankings and dispatch waves pass population indices).  Without
    a wall-time model every cycle is one indivisible time unit."""
    planned = np.full(len(client_ids), local_steps, dtype=np.int64)
    if walltime is None:
        return planned, np.ones(len(planned)), np.zeros(len(planned))
    if adaptive_local_steps:
        planned = walltime.adaptive_steps_array(client_ids, local_steps)
    return (planned,
            *walltime.client_compute_comm_arrays(client_ids, planned))


def check_deadline_feasible(deadline: DeadlinePolicy | None,
                            walltime: WallTimeModel | None,
                            client_ids: "list[str] | np.ndarray",
                            local_steps: int,
                            adaptive_local_steps: bool = False) -> None:
    """Fail fast on a deadline nobody can meet: every request would be
    cancelled and the federation could never flush.  Uses base
    (unjittered) durations — jitter can rescue a borderline cycle, but
    a federation that needs luck to flush is still a config error, and
    the check must not consume RNG.  Under ``admit_partial`` the run
    is viable as long as *some* client can salvage at least one step
    (which takes a wall-time model: a unit cycle has no steps to cut).
    """
    if deadline is None or not deadline.enforcing:
        return
    planned, compute, comm = _plan_cycles(walltime, client_ids, local_steps,
                                          adaptive_local_steps)
    durations = compute + comm
    done = steps_by_deadline(planned, compute, comm, durations,
                             deadline.deadline_s)
    salvage = deadline.drop_policy == "admit_partial" and walltime is not None
    if not (done >= (1 if salvage else planned)).any():
        raise ValueError(
            f"deadline_s={deadline.deadline_s} is shorter than the "
            f"fastest client cycle ({durations.min():.3g}s): no "
            "update could ever be admitted"
        )


def adaptive_step_weights(steps: list[int]) -> list[float]:
    """Aggregation weights for deltas trained with unequal local steps.

    A delta from ``s_i`` local steps weighs ``s_i / Σ_j s_j`` — the
    weights always sum to 1, and when every client trained the same
    number of steps they reduce to the uniform ``1/n`` mean, which is
    what keeps the sync==async equivalence anchor intact when
    ``adaptive_local_steps`` is on over a homogeneous federation.
    """
    if not steps:
        raise ValueError("adaptive_step_weights needs at least one entry")
    if any(s < 1 for s in steps):
        raise ValueError(f"local step counts must be >= 1, got {steps}")
    total = float(sum(steps))
    return [s / total for s in steps]


# ----------------------------------------------------------------------
# What the async event loop holds between server updates, as records
# the RunState declarations write.  Message payloads are opaque bytes
# (already Link-encoded), so an in-flight broadcast resumes without
# re-encoding — the client will decode exactly the bytes the crashed
# run put on the wire.
# ----------------------------------------------------------------------

class _InFlight(NamedTuple):
    """Server-side state of one dispatched pull–train–push cycle."""

    message: Message
    version: int  # global version the client pulled
    steps: int  # local steps this cycle actually trains
    planned: int  # local steps the request originally asked for
    late: bool  # cycle outlives the deadline (any drop policy)
    timed_out: bool  # cancelled at the deadline instead of completing
    salvaged: bool  # admit_partial: cancelled, but finished steps admitted


class _Delivery(NamedTuple):
    """A trained arrival awaiting buffer admission."""

    version: int  # global version the client pulled
    update: ClientUpdate


class _Crash(NamedTuple):
    """An arrival that crashed: ``(client id, pulled version)``."""

    failure: tuple[str, int]


_UPDATE = Record(ClientUpdate)
_INFLIGHT = Record(_InFlight, message=Record(
    Message, payload=PAYLOAD, metadata=Map(INT)))
_ARRIVAL = Either(Record(_Crash, failure=Row(MEMBER, INT)),
                  Record(_Delivery, update=_UPDATE))


class _IdleQueue:
    """The async engine's idle pool: a FIFO of population indices in
    one preallocated ring of population capacity.  A client is idle at
    most once, so the ring never overflows, and :meth:`append` and
    :meth:`popleft` are O(1) — growing an array instead would copy the
    whole pool on every arrival."""

    def __init__(self, capacity: int):
        self._ring = np.empty(capacity, dtype=np.int64)
        self._head = self._len = 0

    def __len__(self) -> int:
        return self._len

    def indices(self) -> np.ndarray:
        """The pool in queue order (a copy)."""
        end = self._head + self._len
        if end <= len(self._ring):
            return self._ring[self._head:end].copy()
        return np.concatenate([self._ring[self._head:],
                               self._ring[:end - len(self._ring)]])

    def replace(self, indices: np.ndarray) -> None:
        """Make ``indices`` the whole pool, in that order."""
        self._ring[:len(indices)] = indices
        self._head, self._len = 0, len(indices)

    def append(self, index: int) -> None:
        if self._len == len(self._ring):
            raise RuntimeError(f"client {index} is already idle")
        self._ring[(self._head + self._len) % len(self._ring)] = index
        self._len += 1

    def popleft(self, k: int = 1) -> np.ndarray:
        """Remove and return the first ``k`` clients."""
        out = self._ring.take(np.arange(self._head, self._head + k),
                              mode="wrap")
        self._head = (self._head + k) % len(self._ring)
        self._len -= k
        return out


#: ``RoundRecord`` byte field, the Link counter it windows, and the
#: engine attribute holding the counter's value at the window's start.
_LINK_WINDOW = (
    ("comm_bytes_up", "bytes_received", "_bytes_up_mark"),
    ("comm_bytes_down", "bytes_sent", "_bytes_down_mark"),
    ("raw_bytes_up", "raw_bytes_received", "_raw_up_mark"),
    ("raw_bytes_down", "raw_bytes_sent", "_raw_down_mark"),
)


class PolynomialStaleness:
    """``w(s) = 1 / (1 + s)^alpha`` — FedBuff/FedAsync-style polynomial
    staleness discount.  ``alpha = 0`` weights every delta equally."""

    def __init__(self, alpha: float = 0.5):
        if alpha < 0:
            raise ValueError(f"staleness alpha must be non-negative, got {alpha}")
        self.alpha = alpha

    def __call__(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError(f"staleness must be non-negative, got {staleness}")
        if self.alpha == 0.0:
            return 1.0
        return float(1.0 / (1.0 + staleness) ** self.alpha)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PolynomialStaleness(alpha={self.alpha})"



class RoundEngine(Durable):
    """The mechanisms of a federated run, each implemented once.

    Owns the global model state, evaluation workspace, Link, sampler,
    fault machinery and run history, and the three things every
    engine does the same way: train a wave of clients
    (:meth:`_train_wave`), turn client updates into a global step and
    a :class:`RoundRecord` (:meth:`_server_update`), and loop over
    rounds (:meth:`run`).  Subclasses decide *who* trains and *when*
    updates are folded in by implementing :meth:`run_round`.

    Parameters
    ----------
    model_config:
        Global model architecture; the initial state comes from a
        seeded :class:`~repro.nn.DecoderLM` (Algorithm 1 L.2,
        ``InitModel``) unless ``initial_state`` warm-starts it.
    clients:
        The training population keyed by client id: a
        :class:`~repro.fed.population.LazyClientPool`, or a plain
        mapping of built clients (a pool that is already full).  Its
        population is the engine's: a ``scheduler`` or a heterogeneous
        ``walltime`` built over another is refused.
    server_opt:
        Aggregation policy (default FedAvg, server lr 1.0).
    sampler / scheduler / availability:
        Cohort size, selection policy (default ``random`` reproduces
        the sampler's draw bit-exactly) and per-round reachability.
    val_stream / eval_batches:
        Held-out stream for global-model perplexity.
    link:
        Wire transport with byte accounting; ``error_feedback`` keeps
        per-client compression residuals and engages only when the
        Link runs a lossy uplink codec, so a lossless run stays
        bit-exact.
    walltime / comm_topology:
        Optional analytic wall-time accounting per server update.
    weighted:
        Weight client updates by token counts instead of the paper's
        uniform mean.
    max_workers / local_plane:
        How a wave of local training executes: stacked homogeneous
        clients per fused step, in chunks sized by
        :func:`~repro.fed.batched.stack_limit` (``batched``, the
        default declared by :class:`~repro.config.FedConfig`),
        client-by-client (``sequential``, the bit-exact anchor), or a
        persistent fork pool of ``max_workers`` processes with
        shared-memory broadcast buffers (``procpool``, the only plane
        that takes more than one worker).  All three produce identical
        results — they differ only in throughput and memory.
    failure_model / fault_policy:
        Client crash injection and the reaction to it.
    checkpointer:
        Weights-only :class:`CheckpointManager`, saved every update.
    run_checkpointer / checkpoint_every:
        Full-run durability (:mod:`repro.fed.runstate`): the ENTIRE
        federation — weights, ServerOpt moments, event queue,
        scheduler counters, EF residuals, RNG streams — is snapshot
        every ``checkpoint_every`` server updates, at the boundary.
    edge_tier:
        Hierarchical federation (:mod:`repro.fed.edge`): the merge
        runs region-by-region with an edge→root backhaul hop per
        region instead of one flat ``tree_mean``.
    tracer:
        Flight recorder (:mod:`repro.obs`).  The default
        ``NULL_TRACER`` consumes no RNG and adds no branches to the
        math, so traced and untraced runs produce bit-exact histories;
        trace state is diagnostic and never enters ``state_dict()``.
    """

    #: Discriminator written into checkpoints so a sync artifact
    #: cannot be restored into an async engine (or vice versa).
    mode = "sync"

    #: The run state (:mod:`repro.fed.runstate`): everything a
    #: bit-exact resume needs — the global weights (dtypes preserved),
    #: ServerOpt moments, scheduler counters, sampler / availability /
    #: failure RNG streams, Link meters and codec streams, EF
    #: residuals, every touched client's data-stream position, the
    #: validation stream, and the run history.  A collaborator the
    #: engine runs without is written as None.
    _STATE = (
        Field("mode", SAME), Field("global_state", MODEL_TREE),
        Field("total_steps_done", INT), Field("simulated_wall_time_s", FLOAT),
        *(Field(key, COMPONENT) for key in (
            "server_opt", "scheduler", "sampler", "link", "availability",
            "failure_model", "error_feedback", "walltime", "edge_tier",
            "clients", "val_stream")),
        Field("history", List(Record(RoundRecord)), decode=History),
    )

    def __init__(self, model_config: ModelConfig, clients: dict[str, LLMClient],
                 server_opt: ServerOpt | None = None,
                 sampler: ClientSampler | None = None,
                 val_stream: BatchStream | None = None,
                 link: Link | None = None,
                 availability: AvailabilityModel | None = None,
                 checkpointer: CheckpointManager | None = None,
                 walltime: WallTimeModel | None = None,
                 comm_topology: str = "rar",
                 eval_batches: int = 4,
                 weighted: bool = False,
                 max_workers: int = 1,
                 failure_model: FailureModel | None = None,
                 fault_policy: FaultPolicy | None = None,
                 initial_state: StateDict | None = None,
                 scheduler: ClientScheduler | None = None,
                 error_feedback: ErrorFeedback | None = None,
                 run_checkpointer=None,
                 checkpoint_every: int = 1,
                 init_seed: int = 0,
                 local_plane: str = FedConfig.local_plane,
                 edge_tier=None,
                 tracer=None):
        if not clients:
            raise ValueError("the federation needs at least one client")
        self.model_config = model_config
        self.clients = LazyClientPool.of(clients)
        population = self.clients.population
        self.server_opt = server_opt or FedAvg(lr=1.0)
        self.sampler = sampler or FullParticipation()
        self.scheduler = scheduler or ClientScheduler(population)
        # One population per engine.  (A wall-time model without one is
        # nominal for whoever it is asked about.)
        if self.scheduler.population is not population or (
                walltime is not None
                and walltime.population not in (None, population)):
            raise ValueError(
                "the scheduler and the wall-time model must be built over "
                "the population of the engine's clients"
            )
        self.val_stream = val_stream
        self.link = link or Link()
        self.availability = availability
        self.checkpointer = checkpointer
        self.walltime = walltime
        self.comm_topology = comm_topology
        self.eval_batches = eval_batches
        self.weighted = weighted
        check_choice("local_plane", local_plane, LOCAL_PLANES)
        check_max_workers(max_workers, local_plane)
        self.max_workers = max_workers
        self.local_plane = local_plane
        # The fork pool is created lazily on first use and torn down on
        # run completion / state_dict().
        self._procpool: ProcPool | None = None
        self.failure_model = failure_model
        self.fault_policy = fault_policy or FaultPolicy.for_topology(comm_topology)
        self.edge_tier = edge_tier
        self.error_feedback = error_feedback
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.run_checkpointer = run_checkpointer
        self.checkpoint_every = checkpoint_every
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.observer = engine_observer(self.tracer)
        # Deadline accounting and the simulated event clock: only the
        # async policy keeps a ledger or advances the clock, but the
        # server-update path and the observer read both.
        self.drop_ledger: DropLedger | None = None
        self.clock_s = 0.0

        # Algorithm 1 L.2: initialize fresh, or warm-start from a
        # provided state (continual pre-training, Section 6).
        state = DecoderLM(model_config, seed=init_seed).state_dict()
        if initial_state is not None:
            if state.keys() != initial_state.keys():
                raise KeyError("initial_state keys do not match the model")
            # Copied: the caller's arrays stay theirs, and writable.
            state = {k: np.array(v, dtype=np.float32)
                     for k, v in initial_state.items()}
        self.global_state = state
        # Evaluation workspace reused across rounds.
        self._eval_model = DecoderLM(model_config, seed=init_seed)
        self.history = History()
        self.total_steps_done = 0
        self.simulated_wall_time_s = 0.0
        self._open_link_window()

    # ------------------------------------------------------------------
    @property
    def global_state(self) -> StateDict:
        """The current global model.  Every server update, restore and
        warm start assigns a fresh dict and the arrays are read-only
        from then on: the Link encodes a lossless broadcast once per
        state object (:meth:`Link.send_state`), which is only sound if
        a broadcast state is never written in place."""
        return self._global_state

    @global_state.setter
    def global_state(self, state: StateDict) -> None:
        for value in state.values():
            value.flags.writeable = False
        self._global_state = state

    #: Whether slow clients plan proportionally fewer local steps (an
    #: async-policy knob; the barrier trains everyone the same τ).
    adaptive_local_steps = False

    def _predict_cycles(self, client_ids: list[str],
                        local_steps: int) -> np.ndarray:
        """Predicted pull+train+push seconds of each client's next
        cycle (planned steps, no jitter) — what selection policies
        rank on, read off the same plan a dispatch is made from."""
        _, compute, comm = _plan_cycles(self.walltime, client_ids, local_steps,
                                        self.adaptive_local_steps)
        return compute + comm

    def evaluate(self) -> float:
        """Validation perplexity of the current global model."""
        if self.val_stream is None:
            return float("nan")
        self._eval_model.load_state_dict(self.global_state)
        return evaluate_perplexity(self._eval_model, self.val_stream, self.eval_batches)

    def _ef_version(self) -> int:
        """The global version error-feedback residuals are banked
        against (staleness decay's clock).  The sync barrier advances
        once per round; the async engine overrides with its server
        version."""
        return len(self.history)

    # ------------------------------------------------------------------
    # The wave path: the only place clients train
    # ------------------------------------------------------------------
    def _train_wave(self, tasks: list[tuple[str, Message, RoundInfo]]
                    ) -> list[ClientUpdate]:
        """Train a wave of (client, broadcast, round-info) tasks
        through the configured local plane; updates come back in task
        order (L.6–7).

        Every plane decodes each broadcast, trains, post-processes
        each raw delta in the parent in task order
        (:meth:`~repro.fed.client.LLMClient.finish`), then moves it over
        the Link (:meth:`_finish_update`).  The Link's codec streams and
        the EF residuals are per client channel, so the wire phase is
        byte-identical whether a wave trains client by client, stacked,
        or across processes.  A batched wave with nothing to stack — a
        wave of one (an async wave whose arrival times differ), or
        steps too wide to stack — trains as the sequential plane does.
        """
        if not tasks:
            return []
        with self.tracer.host_span("engine", f"wave[{self.local_plane}]",
                                   jobs=len(tasks)):
            if self.local_plane == "sequential" or (
                    self.local_plane == "batched" and len(tasks) == 1):
                return [self._train_task(task) for task in tasks]
            with ExitStack() as stack:
                # Leased for the whole wave: LRU eviction must not park a
                # lazily-materialized client mid-step.
                clients = [stack.enter_context(self.clients.lease(client_id))
                           for client_id, _, _ in tasks]
                if self.local_plane == "procpool":
                    raw = self._train_states_procpool(tasks, clients)
                else:
                    chunks = stack_chunks(clients, [info for _, _, info in tasks])
                    if len(chunks) == len(tasks):
                        return [self._train_task(task) for task in tasks]
                    raw = self._train_states_batched(tasks, clients, chunks)
                return [self._finish_update(client.client_id, client.finish(update))
                        for client, update in zip(clients, raw)]

    def _train_task(self, task: tuple[str, Message, RoundInfo]) -> ClientUpdate:
        """One client's whole exchange, client by client.  The
        broadcast is decoded here, not up front: one decoded state is
        alive at a time, however large the wave."""
        client_id, message, round_info = task
        state, _ = self.link.recv_state(message)
        # Leased so LRU eviction cannot park a lazily-materialized
        # client mid-step.
        with self.clients.lease(client_id) as client:
            update = client.train(state, round_info)
        return self._finish_update(client_id, update)

    def _finish_update(self, client_id: str,
                       update: ClientUpdate) -> ClientUpdate:
        """Move a trained delta back over the Link.  The delta the
        server folds in is what came *off the wire* — with a lossy
        uplink codec that is the reconstruction, and error feedback
        (when configured) adds the client's banked residual before
        encoding and banks whatever this cycle's encode lost."""
        outbound = update.delta
        ef = (self.error_feedback
              if self.link.uplink_codec is not None else None)
        version = self._ef_version()
        if ef is not None:
            outbound = ef.apply(client_id, outbound, version=version)
        reply = self.link.send_state(
            outbound, sender=client_id, receiver="agg",
            metadata=update.metrics,
        )
        delta, _ = self.link.recv_state(reply)
        if ef is not None:
            ef.record(client_id, outbound, delta, version=version)
        update.delta = delta
        return update

    def _train_states_batched(self, tasks, clients, chunks) -> list[ClientUpdate]:
        """Raw updates of a wave, one fused stacked step per chunk of
        :func:`~repro.fed.batched.stack_chunks`; a chunk of one (an
        ineligible client, a group of one, or a step too wide to stack)
        trains solo through ``local_update``, counted on
        ``batched/solo_fallbacks`` beside ``batched/stacked_clients``."""
        updates: list[ClientUpdate | None] = [None] * len(tasks)
        for chunk in chunks:
            for i, update in zip(chunk, self._train_chunk(tasks, clients, chunk)):
                updates[i] = update
        return updates

    def _train_chunk(self, tasks, clients, chunk: list[int]) -> list[ClientUpdate]:
        """Raw updates of one chunk.  Its broadcasts are decoded here,
        just before it trains, and released when it returns: a wave
        holds one chunk's decoded states at a time."""
        states = [self.link.recv_state(tasks[i][1])[0] for i in chunk]
        meters = self.tracer.meters
        if len(chunk) == 1:
            meters.counter("batched/solo_fallbacks").inc()
            return [clients[chunk[0]].local_update(states[0], tasks[chunk[0]][2])]
        meters.counter("batched/stacked_clients").inc(len(chunk))
        return train_clients_batched([clients[i] for i in chunk], states,
                                     [tasks[i][2] for i in chunk])

    def _train_states_procpool(self, tasks, clients) -> list[ClientUpdate]:
        """Raw updates of a wave, fanned out across the persistent fork
        pool.

        Global weights travel once per distinct broadcast payload as a
        shared-memory segment (clients pulling the same version map
        the same read-only buffer); durable client state ships with
        the job and back with the result, so the parent stays
        authoritative and results do not depend on worker assignment.
        """
        if self._procpool is None:
            self._procpool = ProcPool(self.clients, self.max_workers,
                                      tracer=self.tracer)
        states = [self.link.recv_state(message)[0] for _, message, _ in tasks]
        segments: dict = {}
        jobs = []
        for (client_id, message, round_info), client, state in zip(tasks, clients, states):
            # One segment per distinct broadcast payload: a lossless
            # broadcast is one payload per global state, a lossy
            # downlink codec makes each client's its own.
            key = message.payload
            if key not in segments:
                segments[key] = share_state(state)
            shm, layout = segments[key]
            jobs.append((client_id, client.state_dict(), round_info, shm.name, layout))
        try:
            results = self._procpool.train(jobs)
        finally:
            for shm, _ in segments.values():
                shm.close()
                shm.unlink()
        for client, (_, new_state) in zip(clients, results):
            # Fold the worker's durable state (stream RNG positions,
            # counters, retained momenta) back into the parent client.
            client.load_state_dict(new_state)
        return [update for update, _ in results]

    def _shutdown_workers(self) -> None:
        """Tear down the lazy fork pool.  Called when a run completes
        and before serializing engine state — a checkpoint must never
        capture live pool handles, and a procpool fork must be re-taken
        after a resume mutates the parent's clients."""
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None

    _quiesce = _shutdown_workers  # before the run state is read

    # ------------------------------------------------------------------
    # The server-update path: the only place a RoundRecord is built
    # ------------------------------------------------------------------
    def _open_link_window(self) -> None:
        """Mark the Link's byte counters: everything the Link moves
        from here on is billed to the next server update."""
        for _, counter, mark in _LINK_WINDOW:
            setattr(self, mark, getattr(self.link, counter))

    def _close_link_window(self) -> dict[str, int]:
        """Bytes moved since the mark, per ``RoundRecord`` field; the
        next window opens where this one closes."""
        window = {field: getattr(self.link, counter) - getattr(self, mark)
                  for field, counter, mark in _LINK_WINDOW}
        self._open_link_window()
        return window

    def _server_update(self, round_idx: int, updates: list[ClientUpdate],
                       local_steps: int, *, elapsed_s: float,
                       failed, retries: int,
                       deltas: list[StateDict] | None = None,
                       weights: list[float] | None = None,
                       metrics: list[dict] | None = None,
                       cohort: list[str] | None = None) -> RoundRecord:
        """Fold client updates into the global model and record the
        round (Algorithm 1 L.8–11): merge, ``ServerOpt``, weights
        checkpoint, the ``RoundRecord``, history.

        The policy supplies what only it knows: ``deltas`` override
        the updates' own (the async engine passes staleness-scaled
        copies), explicit ``weights`` take precedence over token
        weighting (unequal local steps), ``metrics`` are the per-update
        dicts to aggregate, ``failed``/``retries`` the crash outcome,
        ``elapsed_s`` the simulated time the update waited for clients
        and ``cohort`` everyone a barrier round asked to train.
        """
        if deltas is None:
            deltas = [u.delta for u in updates]
        if weights is None and self.weighted:
            weights = [float(u.num_tokens) for u in updates]
        clients = [u.client_id for u in updates]
        if self.edge_tier is not None:
            pseudo_grad = self.edge_tier.aggregate(
                clients, deltas, weights, version=self._ef_version())
        else:
            pseudo_grad = tree_mean(deltas, weights)
        self.global_state = self.server_opt.step(self.global_state, pseudo_grad)
        self.total_steps_done += local_steps
        if self.checkpointer is not None:
            self.checkpointer.save(
                round_idx, self.global_state,
                metadata={"clients": clients if cohort is None else cohort})

        record = RoundRecord(
            round_idx=round_idx,
            val_perplexity=self.evaluate(),
            train_loss=float(np.mean([u.metrics["train_loss_mean"] for u in updates])),
            clients=clients,
            pseudo_grad_norm=tree_norm(pseudo_grad),
            client_metrics=aggregate_metrics(
                metrics if metrics is not None else [u.metrics for u in updates]),
            failed_clients=sorted(set(failed)),
            retries=retries,
            **self._close_link_window(),
            **(self.drop_ledger.flush() if self.drop_ledger is not None else {}),
        )
        if self.edge_tier is not None:
            # Backhaul volume, slowest hop and crash losses of the
            # hierarchical merge above.
            report = self.edge_tier.pop_report()
            record.backhaul_wire_bytes = report.wire_bytes
            record.backhaul_raw_bytes = report.raw_bytes
            record.backhaul_hop_s = report.hop_s
            record.edge_updates_lost = report.updates_lost
            record.edge_crashes = report.crashes
            self.observer.edge_merged(report, self.simulated_wall_time_s)
        # Without a wall-time model the clocks tick placeholder units;
        # leave the public timing fields at 0.0 rather than reporting
        # fake seconds.  With one, the update additionally waits for
        # the slowest edge→root backhaul hop (zero on the flat path).
        if self.walltime is not None:
            record.wall_time_s = elapsed_s + record.backhaul_hop_s
            self.simulated_wall_time_s += record.wall_time_s
        self.history.append(record)
        self.observer.server_update(self, record, elapsed_s, cohort, local_steps)
        return record

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def run_round(self, round_idx: int, local_steps: int) -> RoundRecord:
        """Advance the federation by one server update."""
        raise NotImplementedError

    def run(self, rounds: int, local_steps: int,
            target_perplexity: float | None = None,
            boundary=None) -> History:
        """Run ``rounds`` more server updates; optionally stop early
        once the validation perplexity reaches ``target_perplexity``.

        Rounds are numbered from the history length, so a resumed run
        — or a second ``run`` call — continues the indices (and the
        failure/availability draws and checkpoint steps keyed on them)
        where the history stops.  ``boundary(completed) -> bool`` is
        called after every update; returning True means it rolled the
        engine back (a server crash recovered from a replica,
        :class:`~repro.fed.failover.FailoverController`) and the loop
        replays from the restored history.
        """
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        target = len(self.history) + rounds
        try:
            while len(self.history) < target:
                t = len(self.history)
                with self.tracer.host_span("engine", f"round {t}"):
                    record = self.run_round(t, local_steps)
                if boundary is not None and boundary(len(self.history)):
                    continue
                self._maybe_checkpoint()
                if (target_perplexity is not None
                        and record.val_perplexity <= target_perplexity):
                    break
        finally:
            self._shutdown_workers()
        return self.history

    def _maybe_checkpoint(self) -> None:
        """Snapshot the full run state at a server-update boundary."""
        if self.run_checkpointer is None:
            return
        completed = len(self.history)
        if completed % self.checkpoint_every == 0:
            self.run_checkpointer.save(self, completed)

    # ------------------------------------------------------------------
    # Checkpoint protocol (repro.fed.runstate)
    # ------------------------------------------------------------------
    def _scope(self) -> dict:
        """What a load checks against: the model tree (moments,
        residuals, deltas, in-flight payloads) and the clients every
        id must name."""
        return {"model": self.global_state, "clients": self.clients,
                "payload": lambda payload: self.link.decode("agg", payload)}


class SyncAggregator(RoundEngine):
    """Synchronous barrier policy — Algorithm 1 exactly as published.

    Per round: sample a cohort, broadcast the global model, wait for
    *every* survivor, average, apply ``ServerOpt``.  Fault handling
    follows :class:`~repro.fed.faults.FaultPolicy` (PS/AR aggregate
    partial updates; RAR redoes the round).
    """

    def _run_cohort(self, cohort: list[str], round_info: RoundInfo
                    ) -> tuple[list[ClientUpdate], list[str]]:
        """One attempt at the round: broadcast to and train everyone
        who does not crash; returns ``(survivors' updates, crashed
        ids)``, both in cohort order."""
        # Failure draws happen serially, in cohort order, so the
        # FailureModel's RNG stream is consumed identically on every
        # local plane and for any max_workers.
        doomed = {
            cid for cid in cohort
            if self.failure_model is not None
            and self.failure_model.should_fail(cid, round_info.round_idx)
        }
        # Broadcasts go out serially in cohort order (L.5–6); the
        # survivors then train as one wave (L.7).
        tasks = [
            (cid,
             self.link.send_state(
                 self.global_state, sender="agg", receiver=cid,
                 metadata={"round": round_info.round_idx,
                           "local_steps": round_info.local_steps}),
             round_info)
            for cid in cohort if cid not in doomed
        ]
        return self._train_wave(tasks), [cid for cid in cohort if cid in doomed]

    def run_round(self, round_idx: int, local_steps: int) -> RoundRecord:
        """Execute one federated round (Algorithm 1 L.3–11)."""
        population = list(self.clients.population.sorted_ids)
        if self.availability is not None:
            population = self.availability.available(population, round_idx)
        # Selection routes through the scheduler: ``random`` returns
        # the sampler's draw untouched; ranked policies keep its size
        # but pick the members (the barrier is paced by the slowest).
        selected = self.scheduler.select_cohort(
            population, round_idx,
            default=self.sampler.sample(population, round_idx),
            durations_of=lambda ids: self._predict_cycles(ids, local_steps),
        )
        self.observer.cohort(len(selected))
        self._open_link_window()
        round_info = RoundInfo(
            round_idx=round_idx,
            local_steps=local_steps,
            global_step_base=self.total_steps_done,
        )

        # Execute with the configured fault policy (Section 4: PS/AR
        # aggregate partial updates; RAR must redo the round).  A
        # retried attempt discards its survivors' decoded deltas, so
        # the error-feedback residuals those exchanges consumed and
        # re-banked must be rewound — otherwise the mass "delivered"
        # into a delta the server never applies is silently lost.
        ef = (self.error_feedback
              if self.link.uplink_codec is not None else None)
        ef_snapshot = ef.snapshot() if ef is not None else None
        retries = 0
        updates, failed = self._run_cohort(selected, round_info)
        while failed:
            if self.fault_policy.mode == "strict":
                raise ClientFailure(failed[0], round_idx)
            needs_retry = (
                self.fault_policy.mode == "retry_round"
                or len(updates) < self.fault_policy.min_survivors
            )
            if not needs_retry:
                break
            if retries >= self.fault_policy.max_retries:
                if updates and self.fault_policy.mode != "retry_round":
                    break
                raise ClientFailure(failed[0], round_idx)
            retries += 1
            if ef is not None:
                ef.restore(ef_snapshot)
            updates, failed = self._run_cohort(selected, round_info)

        # Scheduler feedback for the stat-utility term (serial, in
        # cohort completion order — a no-op at weight 0).
        for update in updates:
            self.scheduler.note_result(
                update.client_id, update.metrics.get("train_loss_mean"))

        # The barrier is timed over everyone *asked* to train — failed
        # clients consumed barrier time before dropping out — and a
        # redone round (RAR dropout semantics) costs full wall time per
        # attempt.
        elapsed_s = 0.0
        if self.walltime is not None:
            elapsed_s = (1 + retries) * self.walltime.cohort_timing(
                self.comm_topology, selected, local_steps).total_s
        return self._server_update(
            round_idx, updates, local_steps, elapsed_s=elapsed_s,
            failed=failed, retries=retries, cohort=selected)


class AsyncAggregator(RoundEngine):
    """Buffered asynchronous engine (FedBuff-style).

    Clients pull the current global model, train ``local_steps`` and
    push their delta; the server folds deltas into a buffer and applies
    ``ServerOpt`` to the staleness-weighted mean once ``buffer_size``
    updates have arrived — one "round" of the run history per flush.
    Finished clients immediately pull the *current* global model and
    keep training, so nobody ever waits on a barrier; a slow client
    simply contributes staler (down-weighted) deltas less often.

    Parameters (beyond :class:`RoundEngine`)
    ----------
    buffer_size:
        Updates per server step; defaults to the initial cohort size.
    staleness_fn:
        Maps an integer staleness (server versions elapsed between a
        client's pull and its delta's aggregation) to a weight;
        default :class:`PolynomialStaleness`.
    staleness_alpha:
        Convenience for the default staleness function's exponent.
    concurrency:
        Number of clients training at any moment; defaults to the
        cohort the sampler picks at round 0.  The population beyond
        the concurrency limit is cycled round-robin, so every client
        eventually participates.
    deadline:
        Optional :class:`~repro.fed.faults.DeadlinePolicy`.  Under an
        *enforcing* policy (``drop``/``requeue``/``admit_partial``) a
        request whose simulated cycle would outlive ``deadline_s`` is
        cancelled at the deadline — the abandoned steps and broadcast
        bytes land in :attr:`drop_ledger` and the flush record — and
        the server force-flushes a non-empty buffer at most
        ``deadline_s`` after the previous flush instead of waiting for
        ``buffer_size`` arrivals.  ``admit_partial`` additionally
        salvages a cancelled cycle: the client uploads the whole local
        steps it finished before the deadline, the partial delta is
        merged with steps-proportional weights, and the ledger splits
        the cycle into salvaged and dropped steps (a cycle too slow to
        finish even one step degrades to a plain drop).
        ``admit_stale`` cancels nothing: late deltas arrive with their
        usual staleness discount and only the miss count is recorded.
    adaptive_local_steps:
        Slow clients (per the wall-time model's compute factors) train
        ``τ / slowdown`` steps per pull, and deltas are merged with
        steps-proportional weights (:func:`adaptive_step_weights`).
        Without a wall-time model this is a no-op.
    jitter:
        Optional :class:`~repro.net.walltime.JitterModel`: every
        dispatched cycle's duration is scaled by a seeded lognormal
        factor, so borderline clients are probabilistically — not
        permanently — cancelled by a deadline.  ``None`` (or scale 0)
        keeps the deterministic clock bit-exactly.
    scheduler:
        :class:`~repro.fed.scheduler.ClientScheduler` the idle pool is
        refilled through.  The default ``random`` policy replays the
        legacy FIFO rotation; ``utility`` prefers clients whose
        *predicted* cycle fits the deadline (with recency/exploration
        terms and a fairness floor), turning stragglers from a
        cancel-after-dispatch cost into a selection-time decision.

    Crash handling (``failure_model``/``fault_policy``): failure draws
    are serialized in completion-batch order, so histories are
    rerun-identical for any ``max_workers``.  ``retry_round`` re-issues
    a crashed client's request immediately against the current model
    (up to ``max_retries`` consecutive times), ``partial`` returns the
    client to the idle pool, ``strict`` aborts the run.

    The simulated clock comes from the engine's ``walltime`` model via
    :meth:`~repro.net.walltime.WallTimeModel.client_timing` (per-client
    compute/link heterogeneity); without a wall-time model every client
    takes one simulated time unit, so completions tie — the buffer is
    still honored (arrivals are drained one at a time, flushing
    whenever it fills), the staleness pattern just becomes periodic.
    """

    mode = "async"

    #: Beyond the base run state, everything the event loop holds
    #: between two server updates: the priority queue, in-flight
    #: broadcasts (as the exact wire bytes), the staleness buffer,
    #: queued arrivals, the idle pool, retry streaks, the jitter stream
    #: and the drop ledger — a resume replays the next event as if the
    #: crash never happened.
    _STATE = RoundEngine._STATE + (
        Field("buffer_size", Opt(INT)), Field("concurrency", Opt(INT)),
        Field("version", INT), Field("clock_s", FLOAT), Field("seq", INT, "_seq"),
        Field("events", List(Row(FLOAT, INT, MEMBER)), "_events",
              decode=lambda events: heapq.heapify(events) or events),
        Field("inflight", Map(_INFLIGHT, keys=MEMBER), "_inflight"),
        Field("buffer", List(Row(INT, _UPDATE)), "_buffer"),
        Field("idle", List(MEMBER), "_idle_ids"),
        Field("availability_deferred", List(MEMBER), "_deferred_ids"),
        Field("failure_streak", Map(INT, keys=MEMBER), "_failure_streak"),
        Field("window_retries", INT, "_window_retries"),
        Field("arrivals", List(Row(MEMBER, _ARRIVAL)), "_arrivals",
              decode=deque),
        Field("failed_pending", List(MEMBER), "_failed_pending"),
        Field("local_steps", Opt(INT), "_local_steps"),
        Field("last_flush_clock", FLOAT, "_last_flush_clock"),
        *(Field(f"{mark}_mark", INT, f"_{mark}_mark")
          for mark in ("bytes_up", "bytes_down", "raw_up", "raw_down")),
        Field("started", BOOL, "_started"),
        Field("jitter", COMPONENT), Field("drop_ledger", COMPONENT),
    )

    def __init__(self, *args, buffer_size: int | None = None,
                 staleness_fn=None, staleness_alpha: float = 0.5,
                 concurrency: int | None = None,
                 deadline: DeadlinePolicy | None = None,
                 adaptive_local_steps: bool = False,
                 jitter: JitterModel | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        if buffer_size is not None and buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        if concurrency is not None and concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.buffer_size = buffer_size
        self.concurrency = concurrency
        self.staleness_fn = staleness_fn or PolynomialStaleness(staleness_alpha)
        self.deadline = deadline
        self.adaptive_local_steps = adaptive_local_steps
        self.jitter = jitter
        self.drop_ledger = DropLedger()

        self.version = 0  # server updates applied so far
        self._events: list[tuple[float, int, str]] = []  # (time, seq, client)
        self._seq = 0
        self._inflight: dict[str, _InFlight] = {}
        self._buffer: list[tuple[int, ClientUpdate]] = []  # (pull version, update)
        # Idle clients as population indices; ids are formatted only
        # where a client leaves the loop (link, observer, scheduler
        # log, history, checkpoint).
        self._idle = _IdleQueue(self.clients.population.n)
        # Idle clients the most recent availability draw found
        # unreachable: deferred until the next draw, and meanwhile not
        # eligible for a requeue's freed slot either.
        self._availability_deferred = np.empty(0, dtype=np.int64)
        # retry_round bookkeeping: consecutive crashes per client (the
        # retry budget) and retries issued since the last flush.
        self._failure_streak: dict[str, int] = {}
        self._window_retries = 0
        # Trained completions awaiting server processing: the server
        # drains at most one flush worth per run_round, so a tied batch
        # can leave arrivals queued here for the next call.
        self._arrivals: deque[tuple[str, _Delivery | _Crash]] = deque()
        self._failed_pending: list[str] = []
        self._local_steps: int | None = None
        self._last_flush_clock = 0.0
        self._started = False

    # ------------------------------------------------------------------
    # Dispatch / completion machinery
    # ------------------------------------------------------------------
    def _ef_version(self) -> int:
        # Async: server updates applied so far (the buffer's staleness
        # reference), not the flush-history length.
        return self.version

    def _predict_next_cycles(self, client_ids: "list[str] | np.ndarray"
                             ) -> np.ndarray:
        """The scheduler's ``durations_of`` at the run's fixed τ."""
        return self._predict_cycles(client_ids, self._local_steps)

    def _dispatch(self, idx) -> None:
        """Send the current global model to a wave of clients
        (population indices) and schedule each one's completion event
        — or, when an enforcing deadline already knows the cycle
        cannot finish in time, its cancellation (or ``admit_partial``
        salvage) event at the deadline.

        The wave is planned once, as arrays: planned steps and their
        compute/comm split, the realized duration (one jitter draw per
        cycle, consumed in dispatch order), the deadline verdict, and
        the steps a cancelled cycle still delivers."""
        idx = np.asarray(idx, dtype=np.int64)
        if not len(idx):
            return
        ids = self.clients.population.ids
        client_ids = [ids[i] for i in idx.tolist()]
        planned, compute, comm = _plan_cycles(
            self.walltime, idx, self._local_steps,
            self.adaptive_local_steps)
        durations = compute + comm
        if self.jitter is not None:
            durations = durations * self.jitter.factors(client_ids)
        steps = planned
        late = timed_out = salvaged = np.zeros(len(client_ids), dtype=bool)
        if self.deadline is not None:
            done = steps_by_deadline(planned, compute, comm, durations,
                                     self.deadline.deadline_s)
            late = done < planned  # the cycle outlives the deadline
            if self.deadline.enforcing:
                # Without a wall-time model a cycle is one indivisible
                # unit: there are no finished steps to salvage.
                if (self.deadline.drop_policy == "admit_partial"
                        and self.walltime is not None):
                    salvaged = late & (done >= 1)
                    steps = np.where(salvaged, done, planned)
                timed_out = late & ~salvaged
                durations = np.where(late, self.deadline.deadline_s, durations)
        cycles = zip(steps.tolist(), planned.tolist(), late.tolist(),
                     timed_out.tolist(), salvaged.tolist())
        for client_id, cycle, compute_s, comm_s, duration in zip(
                client_ids, cycles, compute.tolist(), comm.tolist(),
                durations.tolist()):
            message = self.link.send_state(
                self.global_state, sender="agg", receiver=client_id,
                metadata={"version": self.version, "local_steps": cycle[0]},
            )
            self._inflight[client_id] = _InFlight(message, self.version, *cycle)
            heapq.heappush(self._events,
                           (self.clock_s + duration, self._seq, client_id))
            self._seq += 1
            self.scheduler.note_selected(client_id, self.version)
            self.observer.dispatched(client_id, self.clock_s, compute_s, comm_s)

    def _refill(self, slots: int) -> None:
        """Issue up to ``slots`` dispatches from the idle queue, with
        the *scheduler* choosing who gets them.

        Sporadically-unavailable clients (uptime < 1) are *deferred*:
        they stay idle and get a fresh availability draw at the next
        completion event, temporarily shrinking the effective
        concurrency — the async analogue of the sync engine dropping
        them from a round.  The availability draw covers the whole
        idle pool at once (AvailabilityModel never returns an empty
        set, so per-client queries would always come back reachable).
        At least one event is always kept in flight so the federation
        cannot stall.
        """
        if self._idle and slots > 0:
            if self.availability is None and self.scheduler.policy == "random":
                # Fast path for the always-reachable FIFO queue: pop
                # from the front instead of copying the pool per wave.
                # Bit-exact vs select_async with an all-reachable pool
                # (FIFO order, no RNG consumed).
                self._availability_deferred = self._availability_deferred[:0]
                self._dispatch(self._idle.popleft(min(slots, len(self._idle))))
            else:
                idle = self._idle.indices()
                reachable = None  # everyone
                self._availability_deferred = idle[:0]
                if self.availability is not None:
                    reachable = self._reachable(idle)
                    self._availability_deferred = idle[~reachable]
                # The engine's deadline is the feasibility fallback when
                # the scheduler was built without one of its own.
                dispatch, leftover = self.scheduler.select_async(
                    idle, reachable, slots, self.version,
                    self._predict_next_cycles,
                    deadline_s=(self.deadline.deadline_s
                                if self.deadline is not None else None),
                )
                self._idle.replace(leftover)
                self._dispatch(dispatch)
        if not self._events and self._idle:
            # Nobody reachable and nothing in flight: keep one client
            # training (mirrors AvailabilityModel's floor).
            self._dispatch(self._idle.popleft())

    def _reachable(self, idle: np.ndarray) -> np.ndarray:
        """One availability draw over the idle pool, as a mask over
        it.  The draw is asked about positions in the pool: it only
        counts and picks them, so no id is formatted for it."""
        reachable = np.zeros(len(idle), dtype=bool)
        reachable[np.asarray(self.availability.available(
            range(len(idle)), self.version), dtype=np.int64)] = True
        return reachable

    # The run state keeps the idle pool and the deferred clients as ids
    # (the layout of ``RUNSTATE_VERSION``); the loop holds them as
    # population indices.
    @property
    def _idle_ids(self) -> list[str]:
        ids = self.clients.population.ids
        return [ids[i] for i in self._idle.indices().tolist()]

    @_idle_ids.setter
    def _idle_ids(self, client_ids: list[str]) -> None:
        self._idle.replace(self.clients.population.indices_of(client_ids))

    @property
    def _deferred_ids(self) -> list[str]:
        ids = self.clients.population.ids
        return sorted(ids[i] for i in self._availability_deferred.tolist())

    @_deferred_ids.setter
    def _deferred_ids(self, client_ids: list[str]) -> None:
        self._availability_deferred = self.clients.population.indices_of(
            client_ids)

    def _ensure_started(self, local_steps: int) -> None:
        if self._started:
            if local_steps != self._local_steps:
                raise ValueError(
                    "the async engine cannot change local_steps mid-run "
                    f"({self._local_steps} -> {local_steps})"
                )
            return
        self._local_steps = local_steps
        # Every byte the Link moves between two flushes (including the
        # dispatches that seeded the buffer) is attributed to the flush
        # that closes the window.  Only work still in flight when the
        # run ends goes unattributed.
        self._open_link_window()
        pop = self.clients.population
        selected = self.sampler.sample(list(pop.sorted_ids), 0)
        if self.buffer_size is None:
            self.buffer_size = len(selected)
        if self.concurrency is None:
            self.concurrency = len(selected)
        in_id_order = np.empty(pop.n, dtype=np.int64)
        in_id_order[pop.lex_rank] = np.arange(pop.n)
        check_deadline_feasible(self.deadline, self.walltime, in_id_order,
                                self._local_steps, self.adaptive_local_steps)
        # Sampled cohort trains first; the rest of the population joins
        # the round-robin idle queue behind it, in id order.
        first = pop.indices_of(selected)
        rest = np.ones(pop.n, dtype=bool)
        rest[first] = False
        self._idle.replace(
            np.concatenate([first, in_id_order[rest[in_id_order]]]))
        self._refill(min(self.concurrency, len(self._idle)))
        self._started = True

    # ------------------------------------------------------------------
    def _pop_batch(self) -> list[str]:
        """Pop every completion event sharing the earliest timestamp.

        Arrivals at one instant are all processed before any new work
        is issued at that instant — with equipollent clients this makes
        ``buffer_size == cohort`` reproduce the synchronous barrier.
        """
        t, _, client_id = heapq.heappop(self._events)
        batch = [client_id]
        while self._events and self._events[0][0] == t:
            batch.append(heapq.heappop(self._events)[2])
        self.clock_s = t
        return batch

    def _draw_failures(self, batch: list[str]) -> dict[str, ClientFailure]:
        """Serial failure draws for a completion batch (in batch order,
        so the FailureModel RNG stream is identical for any
        max_workers).  Crashes are then routed per fault policy:
        retry_round re-issues immediately, partial / min_survivors
        degrade to partial participation, strict aborts the run."""
        doomed: dict[str, ClientFailure] = {}
        if self.failure_model is None:
            return doomed
        for client_id in batch:
            pulled_version = self._inflight[client_id].version
            if self.failure_model.should_fail(client_id, pulled_version):
                if self.fault_policy.mode == "strict":
                    raise ClientFailure(client_id, pulled_version)
                doomed[client_id] = ClientFailure(client_id, pulled_version)
        return doomed

    def _retry_crash(self, client_id: str) -> bool:
        """retry_round semantics without a round: re-issue the crashed
        client's request immediately against the current global model,
        up to ``max_retries`` consecutive crashes; beyond the budget
        (or under ``partial``) the crash degrades to a dropout."""
        if self.fault_policy.mode != "retry_round":
            return False
        streak = self._failure_streak.get(client_id, 0) + 1
        if streak > self.fault_policy.max_retries:
            self._failure_streak[client_id] = 0  # fresh budget next pull
            return False
        self._failure_streak[client_id] = streak
        self._dispatch([self.clients.population.index_of(client_id)])
        self._window_retries += 1
        return True

    def _handle_timeout(self, client_id: str) -> None:
        """A cancelled request reaches its deadline: account the
        abandoned work, then requeue through the scheduler or return
        the client to the availability-gated idle pool per the drop
        policy."""
        entry = self._inflight.pop(client_id)
        self.drop_ledger.record_drop(
            entry.planned, entry.message.nbytes + Link.METADATA_OVERHEAD
        )
        self.observer.cycle_ended(client_id, entry, "timeout", self.clock_s)
        if self.deadline.drop_policy == "requeue":
            self._requeue(client_id)
        else:
            self._idle.append(self.clients.population.index_of(client_id))
            self.observer.idle(client_id, self.clock_s)

    def _requeue(self, client_id: str) -> None:
        """Give the freed dispatch slot back through the selection
        policy instead of unconditionally re-issuing the cancelled
        request.  ``random`` keeps the legacy semantics bit-exactly
        (immediate re-dispatch of the same client); ranked policies
        contest the slot between the cancelled client and the idle
        pool, so a chronically-infeasible client stops monopolizing
        it.  No availability redraw: the legacy path never consumed
        one here, and histories must stay rerun-identical — instead,
        idle clients the *last* draw deferred as unreachable stay
        ineligible (the cancelled client itself was dispatched, hence
        reachable).
        """
        cancelled = [self.clients.population.index_of(client_id)]
        if self.scheduler.policy == "random":
            self._dispatch(cancelled)
            return
        idle = self._idle.indices()
        eligible = ~np.isin(idle, self._availability_deferred)
        if not eligible.any() and len(idle) and self.availability is not None:
            # Every idle client was deferred by the last draw.  A
            # timeout is a completion event, so take the documented
            # "fresh availability draw" here rather than pinning the
            # slot on the cancelled client until something completes
            # (nothing might: this is the requeue-livelock shape).
            eligible = self._reachable(idle)
            self._availability_deferred = idle[~eligible]
        dispatch, _ = self.scheduler.select_async(
            np.concatenate([cancelled, idle[eligible]]), None, 1,
            self.version, self._predict_next_cycles,
            deadline_s=self.deadline.deadline_s,
        )
        # Rebuild the idle pool in order, keeping deferred clients in
        # place (select_async never saw them).
        pool = np.concatenate([cancelled, idle])
        self._idle.replace(pool[pool != dispatch[0]])
        self._dispatch(dispatch)

    def _check_requeue_liveness(self) -> None:
        """Fail fast on a provable requeue livelock.

        Under ``random`` selection a cancelled request is re-issued to
        the *same* client (legacy semantics), so once every in-flight
        client's deterministic cycle exceeds the deadline no
        completion can ever arrive and the buffer never fills — the
        population-level feasibility check cannot see this because it
        only guarantees that *some* client fits the deadline, not that
        one holds a dispatch slot.  A client whose cycles carry jitter
        is exempt — a lucky draw can rescue a borderline cycle — but
        only *that client's* scale counts: a per-client mapping leaves
        unlisted clients exactly deterministic.  Ranked policies are
        exempt too — their requeue re-contests the slot against the
        idle pool (:meth:`_requeue`).
        """
        if (self.deadline is None or self.deadline.drop_policy != "requeue"
                or self.scheduler.policy != "random" or not self._inflight):
            return
        inflight = list(self._inflight)
        doomed = self._predict_next_cycles(inflight) > self.deadline.deadline_s
        if self.jitter is not None:
            doomed &= self.jitter.scales_for(inflight) == 0
        if doomed.all():
            raise ValueError(
                "drop_policy='requeue' with random selection has every "
                "in-flight client over the deadline; their slots can "
                "never complete (use selection='utility', a longer "
                "deadline, or another drop policy)"
            )

    def _flush(self) -> RoundRecord:
        """Apply ServerOpt to the staleness-weighted buffer contents.

        FedBuff semantics: the staleness discount is an *absolute*
        attenuation — each delta is scaled by ``w(s)`` before the
        buffer mean, so a fully-stale buffer produces a smaller server
        update (it is NOT renormalized away; with ``buffer_size == 1``
        a stale delta really does shrink).
        """
        staleness = [self.version - pulled for pulled, _ in self._buffer]
        weights = [self.staleness_fn(s) for s in staleness]
        updates = [u for _, u in self._buffer]
        scaled = [
            u.delta if w == 1.0
            else {k: v * np.float32(w) for k, v in u.delta.items()}
            for u, w in zip(updates, weights)
        ]
        # Steps-proportional weights whenever cycles can train unequal
        # steps — adaptive local steps, or admit_partial salvaging a
        # cancelled cycle's finished prefix.  Uniform when steps are
        # equal, so the sync==async anchor is untouched.
        unequal_steps = self.adaptive_local_steps or (
            self.deadline is not None
            and self.deadline.drop_policy == "admit_partial"
        )
        # One history record per server update: round_idx == version.
        record = self._server_update(
            self.version, updates, self._local_steps,
            elapsed_s=self.clock_s - self._last_flush_clock,
            failed=self._failed_pending, retries=self._window_retries,
            deltas=scaled,
            weights=(adaptive_step_weights([u.num_steps for u in updates])
                     if unequal_steps else None),
            metrics=[
                {**u.metrics, "staleness": float(s), "staleness_weight": float(w)}
                for u, s, w in zip(updates, staleness, weights)
            ],
        )
        self.version += 1
        self._buffer.clear()
        self._failed_pending.clear()
        self._window_retries = 0
        self._last_flush_clock = self.clock_s
        return record

    # ------------------------------------------------------------------
    def _consume_arrivals(self) -> RoundRecord | None:
        """Feed queued arrivals into the buffer, stopping at the first
        flush.  Clients whose arrival has been consumed rejoin the idle
        queue; fresh work is issued against the current (possibly
        just-updated) global model."""
        record = None
        while self._arrivals and record is None:
            client_id, outcome = self._arrivals.popleft()
            self._idle.append(self.clients.population.index_of(client_id))
            self.observer.idle(client_id, self.clock_s)
            if isinstance(outcome, _Crash):
                self._failed_pending.append(outcome.failure[0])
                continue
            # Scheduler feedback for the stat-utility term (serial,
            # in arrival order — a no-op at weight 0).
            self.scheduler.note_result(
                client_id, outcome[1].metrics.get("train_loss_mean"))
            self._buffer.append(outcome)
            if len(self._buffer) >= self.buffer_size:
                record = self._flush()
        # Top concurrency back up (deferred-unavailable slots are
        # re-offered here, so the shrinkage is temporary).
        self._refill(self.concurrency - len(self._inflight))
        return record

    def _deadline_flush(self) -> RoundRecord | None:
        """Forced partial flush: under an enforcing deadline the server
        waits at most ``deadline_s`` past the previous flush before
        applying whatever the buffer holds — a straggler-heavy window
        is closed at the deadline instead of waiting for
        ``buffer_size`` arrivals.  (An empty buffer always waits for
        the next arrival: the server cannot update on nothing.)"""
        if (self.deadline is None or not self.deadline.enforcing
                or not self._buffer):
            return None
        flush_at = self._last_flush_clock + self.deadline.deadline_s
        if self._events and self._events[0][0] <= flush_at:
            return None  # the next event still fits the window
        self.clock_s = max(self.clock_s, flush_at)
        return self._flush()

    def run_round(self, round_idx: int, local_steps: int) -> RoundRecord:
        """Advance the event loop until the next server update.

        The buffer is checked after *each* arrival, so ``buffer_size``
        is honored even when completions tie (unit clock); a tied
        batch's surplus arrivals stay queued and seed the *next*
        server update, keeping exactly one flush per ``run_round``.

        ``round_idx`` is ignored: async rounds are numbered by server
        version (records carry ``round_idx == version`` at flush time,
        which matches the caller's counter in the normal ``run()``
        flow), and failure/availability draws use each client's
        *pulled* version — the round it actually trained for.
        """
        self._ensure_started(local_steps)

        while True:
            record = self._consume_arrivals()
            if record is not None:
                return record
            record = self._deadline_flush()
            if record is not None:
                return record
            batch = self._pop_batch()
            # Cancelled requests never complete: route them per drop
            # policy before any failure draw or training happens, in
            # batch order, so the event stream stays deterministic.
            completed = []
            for client_id in batch:
                if self._inflight[client_id].timed_out:
                    self._handle_timeout(client_id)
                else:
                    completed.append(client_id)
            if not completed:
                self._check_requeue_liveness()
                continue
            doomed = self._draw_failures(completed)
            retried = set()
            for client_id in doomed:
                entry = self._inflight.pop(client_id)
                self.observer.cycle_ended(client_id, entry, "crash", self.clock_s)
                if self._retry_crash(client_id):
                    retried.add(client_id)
            survivors = [cid for cid in completed if cid not in doomed]
            # Pop the survivors' in-flight entries in arrival order and
            # train them as one wave (clients in a wave may have pulled
            # different versions; the batched grouping keys on local
            # steps, and per-client LR bases handle the version skew).
            tasks = []
            for client_id in survivors:
                entry = self._inflight.pop(client_id)
                self.observer.cycle_ended(
                    client_id, entry, "salvaged" if entry.salvaged else "ok",
                    self.clock_s)
                # Ledger entries for surviving-but-late cycles:
                # admit_partial salvages split the planned steps into
                # done/dropped, admit_stale late admits only count a
                # miss.  Under drop/requeue a late request is timed
                # out, never a survivor.
                if entry.salvaged:
                    self.drop_ledger.record_salvage(
                        entry.steps, entry.planned - entry.steps
                    )
                elif entry.late:
                    self.drop_ledger.record_late()
                tasks.append((client_id, entry.message, RoundInfo(
                    round_idx=entry.version,
                    local_steps=entry.steps,
                    # The LR schedule stays synchronized on the
                    # *nominal* step count even when adaptive steps
                    # shrink a slow client's τ.
                    global_step_base=entry.version * self._local_steps,
                )))
                self._failure_streak.pop(client_id, None)  # a delivery clears the streak
            outcomes = {
                **{cid: _Crash((f.client_id, f.round_idx))
                   for cid, f in doomed.items()},
                **{task[0]: _Delivery(task[2].round_idx, update)
                   for task, update in zip(tasks, self._train_wave(tasks))},
            }
            self._arrivals.extend(
                (cid, outcomes[cid]) for cid in completed if cid not in retried
            )
