"""Configuration dataclasses and paper presets.

This module centralizes every hyperparameter the paper publishes:

* Table 4 — model architectures (75M … 7B),
* Table 5 — centralized/federated optimization hyperparameters,
* Table 6 — federated experiment setups,
* Table 1 — regional compute resources,
* Appendix B.1 — measured client throughputs ν (batches/second).

The paper-scale models cannot be trained on CPU, so we also provide
``TINY_MODELS``: architecturally identical decoder-only configs scaled
down to run in seconds, used by tests, examples and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "ModelConfig",
    "OptimConfig",
    "FedConfig",
    "WallTimeConfig",
    "PAPER_MODELS",
    "TINY_MODELS",
    "PAPER_HYPERPARAMS",
    "PAPER_FED_SETUPS",
    "PAPER_THROUGHPUTS",
    "PAPER_RESOURCES",
    "model_config",
    "MODES",
    "DROP_POLICIES",
    "SELECTION_POLICIES",
    "CLIENT_PLANES",
    "LOCAL_PLANES",
    "check_choice",
]

# Enumerated option values, spelled once: FedConfig, the fed package
# (which re-exports them under their historical names), the engine and
# the CLI ``choices=`` all read these tuples.
MODES = ("sync", "async")
DROP_POLICIES = ("drop", "requeue", "admit_partial", "admit_stale")
SELECTION_POLICIES = ("random", "fastest", "utility")
CLIENT_PLANES = ("eager", "vector")
LOCAL_PLANES = ("sequential", "batched", "procpool")


def check_choice(name: str, value, choices: tuple) -> None:
    """Reject ``value`` unless it is one of ``choices`` (``"name must
    be 'a', 'b' or 'c', got ..."``)."""
    if value not in choices:
        listed = ", ".join(repr(c) for c in choices[:-1])
        raise ValueError(
            f"{name} must be {listed} or {choices[-1]!r}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Decoder-only transformer architecture (paper Table 4 schema)."""

    name: str
    n_blocks: int
    d_model: int
    n_heads: int
    expansion_ratio: int = 4
    vocab_size: int = 50_368
    seq_len: int = 2048
    adam_betas: tuple[float, float] = (0.9, 0.95)
    dropout: float = 0.0
    tie_embeddings: bool = True
    alibi: bool = True

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def n_params(self) -> int:
        """Approximate parameter count (embeddings + blocks + final LN)."""
        d = self.d_model
        per_block = (
            4 * d * d + 4 * d  # attention qkv+proj weights and biases
            + 2 * self.expansion_ratio * d * d  # mlp up/down
            + self.expansion_ratio * d + d  # mlp biases
            + 4 * d  # two layer norms
        )
        emb = self.vocab_size * d
        head = 0 if self.tie_embeddings else self.vocab_size * d
        return emb + self.n_blocks * per_block + 2 * d + head

    @property
    def param_bytes(self) -> int:
        """Model size in bytes at 2 bytes/param (bfloat16, as trained)."""
        return 2 * self.n_params

    def scaled(self, **overrides) -> "ModelConfig":
        """Return a copy with fields replaced (keyword only)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class OptimConfig:
    """Local/centralized optimization recipe (paper Table 5 schema).

    ``max_lr`` decays to ``alpha_min * max_lr`` over ``schedule_steps``
    cosine steps after ``warmup_steps`` of linear warmup.  The paper's
    key trick (Section 3 / Appendix C.1): federated clients keep the
    *small* hardware batch size but stretch the decay period by
    ``B / B_small`` relative to the centralized recipe.
    """

    max_lr: float = 6.0e-4
    alpha_min: float = 0.1
    warmup_steps: int = 100
    schedule_steps: int = 40_960
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    batch_size: int = 32
    betas: tuple[float, float] = (0.9, 0.95)
    eps: float = 1.0e-8

    def __post_init__(self) -> None:
        # A zero limit zeroes every gradient and a negative one flips
        # its sign; refused here, before any plane builds a stream.
        if not 0 < self.grad_clip < math.inf:
            raise ValueError(
                f"grad_clip must be positive and finite, got {self.grad_clip}")

    @property
    def min_lr(self) -> float:
        return self.alpha_min * self.max_lr


@dataclass(frozen=True)
class FedConfig:
    """Federated run configuration (paper Table 6 schema).

    ``mode`` selects the round engine: ``"sync"`` is the paper's
    Algorithm 1 barrier, ``"async"`` the FedBuff-style buffered engine
    (:class:`~repro.fed.engine.AsyncAggregator`).  In async mode the
    server applies ``ServerOpt`` once ``buffer_size`` client deltas
    have arrived (default: the round cohort size) and down-weights a
    delta that is ``s`` server versions stale by
    ``1 / (1 + s)**staleness_alpha`` (default 0.5 when unset).

    Fault-tolerance knobs (all async-only, rejected under
    ``mode="sync"``): ``deadline`` bounds a client's simulated
    pull–train–push cycle in seconds and ``drop_policy`` selects the
    enforcement (``"drop"`` cancel + idle, ``"requeue"`` cancel +
    immediate re-issue, ``"admit_partial"`` cancel but upload the
    finished steps, ``"admit_stale"`` measure only — see
    :class:`~repro.fed.faults.DeadlinePolicy`);
    ``adaptive_local_steps`` lets slow clients train proportionally
    fewer steps per pull, renormalized in the aggregation weighting.

    Scheduling knobs: ``selection`` picks the
    :class:`~repro.fed.scheduler.ClientScheduler` policy (``"random"``
    is the legacy behavior, bit-exact; ``"fastest"`` ranks by
    predicted cycle time; ``"utility"`` adds deadline feasibility,
    recency and a fairness floor, with ``exploration`` scaling the
    recency bonus and ``stat_utility_weight`` folding each client's
    recent loss improvement into the score — true Oort, default 0.0
    for bit-exactness); ``jitter`` (async-only) is the scale of seeded
    lognormal per-cycle duration noise — one float for the whole
    federation or a ``client_id → scale`` mapping so hot devices are
    noisier than racked ones (0 = deterministic clock, bit-exact).

    Compression knobs: ``compression`` names a lossy update codec from
    :mod:`repro.compress` (``"none"`` keeps the paper's lossless zlib
    byte-exactly; ``"fp16"``, ``"int8"``, ``"int4"``,
    ``"topk:<frac>"``, ``"randk:<frac>"``, chained with ``+``) applied
    to client → server pseudo-gradient uploads; ``error_feedback``
    keeps a per-client EF residual so biased codecs stay convergent;
    ``compress_broadcast`` applies the same codec to the server →
    client broadcast as well.

    Checkpoint knobs (crash-consistent full-run durability, see
    :mod:`repro.fed.runstate`): ``checkpoint_dir`` enables rotating
    run-state checkpoints — the whole federation, not just the
    weights; ``checkpoint_every`` is the cadence in server updates
    (default 1); ``resume`` restores the latest checkpoint in
    ``checkpoint_dir`` before training, continuing the interrupted
    run bit-exactly under ``checkpoint_codec="none"``;
    ``checkpoint_codec`` optionally quantizes the **ServerOpt
    moments** inside the artifact (``"int8"`` ships FedAdam's m/v at
    one byte per element, trading bit-exactness of the moments for a
    ~4x smaller optimizer footprint).

    Population-scale knobs: ``client_plane`` selects *when* clients
    are built and nothing else — ``"eager"`` builds every client
    inside ``Photon.__init__``, ``"vector"`` builds each on its first
    use and keeps at most ``max_live_clients``
    :class:`~repro.fed.client.LLMClient` objects alive, parking the
    rest as their state dicts.  There is one scheduler
    (``ClientScheduler``), one wall-time model (``WallTimeModel``) and
    one client registry (``LazyClientPool``), all over one
    ``ClientPopulation``, so the two values are bit-exact against each
    other at equal configs and a run checkpointed under one resumes
    under the other.  ``cohorts`` (vector only) shares timing
    archetypes across ``cohorts`` groups (O(cohorts) parameter
    memory).

    Local-plane knobs: ``local_plane`` selects how a wave of local
    training executes — ``"sequential"`` (legacy client-by-client, the
    bit-exact anchor), ``"batched"`` (shape-homogeneous clients are
    stacked along a leading axis and advance through one fused
    forward/backward/AdamW step; bit-exact vs sequential), or
    ``"procpool"`` (a persistent fork pool trains clients truly in
    parallel, with the broadcast weights mapped once per version into
    shared memory; requires ``max_workers > 1`` to pay off and is
    incompatible with ``compress_broadcast``).

    Carried bugfix knobs: ``ef_staleness_gamma`` decays a banked EF
    residual by ``gamma**staleness`` before reuse (1.0 = legacy
    verbatim replay); ``feasibility_quantile`` folds a lognormal
    jitter quantile margin into the ranked schedulers'
    deadline-feasibility check (None = legacy mean-only).

    Hierarchy & failover knobs (see :mod:`repro.fed.edge` and
    :mod:`repro.fed.failover`): ``tiers`` inserts that many
    region-level edge aggregators between the clients and the root
    (region 0 is the root site; ``tiers=1`` is the identity tier,
    bit-exact vs the flat engine); ``tier_compression`` is the
    edge→root backhaul codec spec (per-hop error feedback engages
    automatically when it is lossy and ``error_feedback`` is on);
    ``replicas`` standby servers receive a versioned RunState snapshot
    every ``replicate_every`` server updates, bounding the staleness
    of a failover to ``replicate_every`` updates per crash;
    ``server_crash_prob`` is the per-(server, round) probability that
    the seeded crash model kills the root or an edge server at a
    round boundary.

    Observability knobs (see :mod:`repro.obs`): ``trace_path`` turns
    on the flight recorder — spans on the simulated and host clocks
    exported as Chrome trace-event JSON (Perfetto-loadable), analyzed
    by ``python -m repro.obs.analyze``; ``metrics_every`` additionally
    flushes a component-meter snapshot every N server updates to
    ``<trace>.metrics.jsonl``.  Tracing never touches an RNG: a traced
    and an untraced run produce bit-identical histories.
    """

    population: int = 8
    clients_per_round: int = 8
    local_steps: int = 64
    rounds: int = 20
    server_lr: float = 1.0
    server_momentum: float = 0.0
    server_opt: str = "fedavg"
    stateless_clients: bool = True
    seed: int = 0
    mode: str = "sync"
    buffer_size: int | None = None
    staleness_alpha: float | None = None
    deadline: float | None = None
    drop_policy: str | None = None
    adaptive_local_steps: bool = False
    selection: str = "random"
    jitter: "float | dict[str, float]" = 0.0
    exploration: float = 1.0
    stat_utility_weight: float = 0.0
    compression: str = "none"
    error_feedback: bool = False
    compress_broadcast: bool = False
    checkpoint_dir: str | None = None
    checkpoint_every: int | None = None
    checkpoint_codec: str = "none"
    resume: bool = False
    client_plane: str = "eager"
    cohorts: int | None = None
    max_live_clients: int | None = None
    ef_staleness_gamma: float = 1.0
    feasibility_quantile: float | None = None
    local_plane: str = "sequential"
    tiers: int | None = None
    tier_compression: str = "none"
    replicas: int = 0
    server_crash_prob: float = 0.0
    replicate_every: int = 1
    trace_path: str | None = None
    metrics_every: int | None = None

    def __post_init__(self) -> None:
        if self.clients_per_round > self.population:
            raise ValueError(
                f"clients_per_round={self.clients_per_round} exceeds "
                f"population={self.population}"
            )
        check_choice("mode", self.mode, MODES)
        if self.buffer_size is not None and self.mode != "async":
            raise ValueError("buffer_size only applies to mode='async'")
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if self.staleness_alpha is not None and self.mode != "async":
            raise ValueError("staleness_alpha only applies to mode='async'")
        if self.staleness_alpha is not None and self.staleness_alpha < 0:
            raise ValueError(
                f"staleness_alpha must be non-negative, got {self.staleness_alpha}"
            )
        if self.deadline is not None and self.mode != "async":
            raise ValueError("deadline only applies to mode='async'")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.drop_policy is not None and self.deadline is None:
            raise ValueError("drop_policy needs a deadline to enforce")
        if self.drop_policy is not None and self.drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"drop_policy must be one of {DROP_POLICIES}, "
                f"got {self.drop_policy!r}"
            )
        if self.adaptive_local_steps and self.mode != "async":
            raise ValueError("adaptive_local_steps only applies to mode='async'")
        if self.selection not in SELECTION_POLICIES:
            raise ValueError(
                f"selection must be one of {SELECTION_POLICIES}, "
                f"got {self.selection!r}"
            )
        jitter_values = (
            tuple(self.jitter.values()) if isinstance(self.jitter, dict)
            else (self.jitter,)
        )
        if any(v < 0 for v in jitter_values):
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")
        if any(v > 0 for v in jitter_values) and self.mode != "async":
            raise ValueError("jitter only applies to mode='async' (the sync "
                             "barrier has no per-cycle clock)")
        if self.exploration < 0:
            raise ValueError(
                f"exploration must be non-negative, got {self.exploration}"
            )
        if self.stat_utility_weight < 0:
            raise ValueError(
                f"stat_utility_weight must be non-negative, got "
                f"{self.stat_utility_weight}"
            )
        _check_compression_spec(self.compression)
        if self.compress_broadcast and self.compression == "none":
            raise ValueError(
                "compress_broadcast needs a lossy compression spec "
                "(compression='none' already runs the lossless default)"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.checkpoint_dir is None:
            if self.checkpoint_every is not None:
                raise ValueError("checkpoint_every needs a checkpoint_dir")
            if self.resume:
                raise ValueError("resume needs a checkpoint_dir to load from")
            if self.checkpoint_codec != "none":
                raise ValueError("checkpoint_codec needs a checkpoint_dir")
        _check_compression_spec(self.checkpoint_codec)
        check_choice("client_plane", self.client_plane, CLIENT_PLANES)
        check_choice("local_plane", self.local_plane, LOCAL_PLANES)
        if self.local_plane == "procpool" and self.compress_broadcast:
            raise ValueError(
                "local_plane='procpool' is incompatible with "
                "compress_broadcast (each client's lossy downlink decode is "
                "distinct, which defeats the shared-memory broadcast buffer)"
            )
        if self.client_plane == "vector" and isinstance(self.jitter, dict):
            raise ValueError(
                "client_plane='vector' takes a scalar jitter (per-client "
                "dicts defeat the O(cohorts) memory model)"
            )
        if self.cohorts is not None:
            if self.client_plane != "vector":
                raise ValueError("cohorts only applies to client_plane='vector'")
            if not 1 <= self.cohorts <= self.population:
                raise ValueError(
                    f"cohorts must be in [1, population], got {self.cohorts}"
                )
        if self.max_live_clients is not None:
            if self.client_plane != "vector":
                raise ValueError(
                    "max_live_clients only applies to client_plane='vector'"
                )
            if self.max_live_clients < 1:
                raise ValueError(
                    f"max_live_clients must be >= 1, got {self.max_live_clients}"
                )
        if not 0.0 < self.ef_staleness_gamma <= 1.0:
            raise ValueError(
                f"ef_staleness_gamma must be in (0, 1], got {self.ef_staleness_gamma}"
            )
        if self.feasibility_quantile is not None:
            if not 0.0 < self.feasibility_quantile < 1.0:
                raise ValueError(
                    "feasibility_quantile must be in (0, 1), got "
                    f"{self.feasibility_quantile}"
                )
            if self.selection not in ("fastest", "utility"):
                raise ValueError(
                    "feasibility_quantile needs a ranked selection policy "
                    "('fastest' or 'utility')"
                )
        if self.tiers is not None and self.tiers < 1:
            raise ValueError(f"tiers must be >= 1, got {self.tiers}")
        if self.tier_compression != "none" and self.tiers is None:
            raise ValueError("tier_compression needs tiers (it is the "
                             "edge→root backhaul codec)")
        _check_compression_spec(self.tier_compression)
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if not 0.0 <= self.server_crash_prob < 1.0:
            raise ValueError(
                f"server_crash_prob must be in [0, 1), got "
                f"{self.server_crash_prob}"
            )
        if self.replicate_every < 1:
            raise ValueError(
                f"replicate_every must be >= 1, got {self.replicate_every}"
            )
        if self.replicate_every > 1 and self.replicas < 1:
            raise ValueError("replicate_every > 1 needs replicas >= 1 "
                             "(there is no snapshot cadence without a "
                             "replica to ship to)")
        if self.metrics_every is not None:
            if self.metrics_every < 1:
                raise ValueError(
                    f"metrics_every must be >= 1, got {self.metrics_every}"
                )
            if self.trace_path is None:
                raise ValueError("metrics_every needs a trace_path (the "
                                 "metrics sink lives next to the trace)")

    @property
    def jitter_active(self) -> bool:
        """Whether any client's cycle durations carry jitter noise."""
        if isinstance(self.jitter, dict):
            return any(v > 0 for v in self.jitter.values())
        return self.jitter > 0

    @property
    def participation(self) -> float:
        return self.clients_per_round / self.population

    @property
    def total_client_steps(self) -> int:
        return self.rounds * self.local_steps


def _check_compression_spec(spec: str) -> None:
    """Validate a compression spec against the canonical parser.

    Delegates to :func:`repro.compress.make_codec` (the registry that
    will build the codec), so stages registered on
    ``DEFAULT_REGISTRY`` are usable through ``FedConfig``/CLI and the
    grammar cannot drift.  The import is lazy only to keep config
    import-light; ``repro.compress`` depends solely on
    ``repro.utils``, so there is no cycle.
    """
    from .compress.codec import make_codec

    make_codec(spec)


@dataclass(frozen=True)
class WallTimeConfig:
    """Inputs to the Appendix B.1 wall-time model.

    Attributes
    ----------
    throughput:
        ν, local batches per second.
    bandwidth_mbps:
        B, megabytes per second of the relevant (slowest) link.
    model_mb:
        S, model size in megabytes.
    server_capacity:
        ζ, server aggregation throughput (bytes/s equivalent); the
        paper treats aggregation as negligible by default.
    channel_threshold:
        θ, the channel count above which bandwidth congestion scaling
        applies (paper default 100).
    """

    throughput: float
    bandwidth_mbps: float
    model_mb: float
    server_capacity: float = 5.0e12
    channel_threshold: int = 100


# ----------------------------------------------------------------------
# Paper presets
# ----------------------------------------------------------------------

#: Table 4 — architecture details for the model family.
PAPER_MODELS: dict[str, ModelConfig] = {
    "75M": ModelConfig("75M", n_blocks=3, d_model=896, n_heads=16, seq_len=1024),
    "125M": ModelConfig("125M", n_blocks=12, d_model=768, n_heads=12),
    "350M": ModelConfig("350M", n_blocks=24, d_model=1024, n_heads=16),
    "1.3B": ModelConfig("1.3B", n_blocks=24, d_model=2048, n_heads=16),
    "3B": ModelConfig("3B", n_blocks=32, d_model=2560, n_heads=20),
    "7B": ModelConfig("7B", n_blocks=32, d_model=4096, n_heads=32),
}

#: CPU-scale stand-ins used throughout tests/examples/benchmarks.  The
#: three sizes preserve the paper's "family" structure so scale trends
#: (Fig. 4, Tables 7/8) can be measured.
TINY_MODELS: dict[str, ModelConfig] = {
    "tiny": ModelConfig("tiny", n_blocks=2, d_model=32, n_heads=2, vocab_size=64, seq_len=32),
    "small": ModelConfig("small", n_blocks=2, d_model=64, n_heads=4, vocab_size=64, seq_len=64),
    "base": ModelConfig("base", n_blocks=4, d_model=96, n_heads=4, vocab_size=64, seq_len=64),
    "large": ModelConfig("large", n_blocks=6, d_model=128, n_heads=8, vocab_size=64, seq_len=64),
}

#: Table 5 — optimization hyperparameters.  (cent) entries mirror the
#: centralized baseline columns.
PAPER_HYPERPARAMS: dict[str, dict[str, OptimConfig]] = {
    "125M": {
        "federated": OptimConfig(max_lr=6.0e-4, schedule_steps=40_960, batch_size=32),
        "centralized": OptimConfig(max_lr=6.0e-4, schedule_steps=5_120, batch_size=256),
    },
    "1.3B": {
        "federated": OptimConfig(max_lr=2.0e-4, schedule_steps=24_800, batch_size=512),
        "centralized": OptimConfig(max_lr=2.0e-4, schedule_steps=24_800, batch_size=512),
    },
    "3B": {
        "federated": OptimConfig(max_lr=1.6e-4, schedule_steps=51_500, batch_size=512),
        "centralized": OptimConfig(max_lr=1.6e-4, schedule_steps=51_500, batch_size=512),
    },
    "7B": {
        "federated": OptimConfig(max_lr=1.2e-4, schedule_steps=63_900, batch_size=1024),
        "centralized": OptimConfig(max_lr=1.2e-4, schedule_steps=63_900, batch_size=1024),
    },
}

#: Table 6 — federated experiment setups (population P, sampled K,
#: dataset, local steps τ).
PAPER_FED_SETUPS: dict[str, dict] = {
    "125M": {
        "population": [1, 2, 4, 8, 16],
        "clients_per_round": [1, 2, 4, 8, 16],
        "datasets": ["c4", "pile"],
        "local_steps": [64, 128, 512],
    },
    "1.3B": {"population": [8], "clients_per_round": [8], "datasets": ["c4"], "local_steps": [500]},
    "3B": {"population": [4], "clients_per_round": [4], "datasets": ["c4"], "local_steps": [500]},
    "7B": {"population": [4], "clients_per_round": [4], "datasets": ["c4"], "local_steps": [500]},
}

#: Appendix B.1 — measured local throughputs ν in batches/second, keyed
#: by model size then run mode.
PAPER_THROUGHPUTS: dict[str, dict[str, float]] = {
    "125M": {"federated": 2.0, "centralized": 2.0},
    "1.3B": {"federated": 0.147, "centralized": 0.839},
    "3B": {"federated": 0.144, "centralized": 0.395},
    "7B": {"federated": 0.032, "centralized": 0.12},
}

#: Table 1 — computational resources per region: list of
#: (num_clients, gpus_per_client) pairs keyed by model size and region.
PAPER_RESOURCES: dict[str, dict[str, tuple[int, int]]] = {
    "7B": {"England": (1, 8), "Utah": (1, 8), "Texas": (1, 8), "Quebec": (1, 8)},
    "3B": {"England": (1, 4), "Utah": (1, 4), "Texas": (1, 4), "Quebec": (1, 4)},
    "1B": {
        "England": (1, 2),
        "Utah": (2, 2),
        "Texas": (2, 2),
        "Quebec": (2, 4),
        "Maharashtra": (1, 4),
    },
    "125M": {
        "England": (2, 1),
        "Utah": (2, 1),
        "Texas": (2, 1),
        "Quebec": (2, 1),
        "Maharashtra": (2, 1),
    },
}


def model_config(name: str) -> ModelConfig:
    """Look up a model config by name across paper and tiny presets."""
    if name in PAPER_MODELS:
        return PAPER_MODELS[name]
    if name in TINY_MODELS:
        return TINY_MODELS[name]
    raise KeyError(
        f"unknown model {name!r}; available: "
        f"{sorted(PAPER_MODELS) + sorted(TINY_MODELS)}"
    )
