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
import os
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real

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
    "knob",
    "Span",
    "PATH",
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


# ----------------------------------------------------------------------
# FedConfig: every field declared once
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """A numeric domain from ``lo`` to ``hi``, each end open or closed.

    ``hi=inf`` with an open end reads "finite", and NaN fails every
    comparison, so neither NaN nor an infinity lies in any span.  A
    ``bool`` is not a number here, and an ``integer`` span takes only
    integers.
    """

    lo: float
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = True
    integer: bool = False

    def __contains__(self, value) -> bool:
        if isinstance(value, bool) or not isinstance(
                value, Integral if self.integer else Real):
            return False
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and (value < self.hi if self.hi_open else value <= self.hi)

    def __str__(self) -> str:
        if self.hi < math.inf:
            return (f"in {'[('[self.lo_open]}{self.lo:g}, "
                    f"{self.hi:g}{'])'[self.hi_open]}")
        if self.integer:
            return f"an integer >= {self.lo}"
        return f"{'positive' if self.lo_open else 'non-negative'} and finite"


# The closed set of FedConfig domains: a tuple of choices, a Span, PATH
# (a ``str`` or ``os.PathLike``), or a check delegated to the factory
# that will build the value (codec specs, server-optimizer names); None
# for a bool.  A field whose default is None also takes None, and every
# value of a dict (per-client jitter) must lie in the domain.
POSITIVE_INT = Span(1, integer=True)
COUNT = Span(0, integer=True)
NON_NEGATIVE = Span(0.0)
POSITIVE = Span(0.0, lo_open=True)
PATH = "path"


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


def _check_server_opt(name: str) -> None:
    """Validate a server-optimizer name against
    :func:`repro.fed.server_opt.make_server_opt`, the factory that will
    build it (lazy: :mod:`repro.fed` imports this module)."""
    from .fed.server_opt import make_server_opt

    make_server_opt(name)


def knob(default, domain, flag: str | None, help: str):
    """Declare a :class:`FedConfig` field: its default, its domain, its
    ``repro train`` flag (``"--name"`` or ``"--name METAVAR"``; None for
    a field the CLI does not set) and its help text."""
    return field(default=default,
                 metadata={"domain": domain, "help": help, "flag": flag})


def _check_domain(name: str, value, domain) -> None:
    """Reject ``value`` unless it lies in ``domain``, one of the kinds
    above; the one-line error names the field."""
    if isinstance(domain, tuple):
        check_choice(name, value, domain)
    elif isinstance(domain, Span):
        values = value.values() if isinstance(value, dict) else (value,)
        if not all(v in domain for v in values):
            raise ValueError(f"{name} must be {domain}, got {value!r}")
    elif domain is PATH:
        if not isinstance(value, (str, os.PathLike)):
            raise ValueError(f"{name} must be a path, got {value!r}")
    elif domain is not None:
        try:
            domain(value)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{name}: {exc.args[0]}") from None


@dataclass(frozen=True)
class FedConfig:
    """Federated run configuration (paper Table 6 schema).

    Every field is declared once, below, by :func:`knob`: its default,
    its domain, its help text and its ``repro train`` flag.  The CLI's
    flags are generated from those declarations (``repro train --help``
    prints the help text), and ``__post_init__`` checks every value
    against its domain and then the cross-field rules, so a bad
    configuration fails when it is built, before any data exists.

    The fields come in groups: the paper's Algorithm 1 (population,
    cohort, τ, rounds, server optimizer); the round engine (``mode``:
    the sync barrier or the FedBuff-style buffered
    :class:`~repro.fed.engine.AsyncAggregator`) and its async-only
    fault tolerance (:class:`~repro.fed.faults.DeadlinePolicy`) and
    clock noise; client selection
    (:class:`~repro.fed.scheduler.ClientScheduler`); lossy links
    (:mod:`repro.compress`); crash-consistent run-state checkpoints
    (:mod:`repro.fed.runstate`; under ``checkpoint_codec="none"`` a
    resumed run continues bit-exactly); the client and local-training
    planes, which change when clients are built and how a wave trains
    but never the results; hierarchy and failover
    (:mod:`repro.fed.edge`, :mod:`repro.fed.failover`); and the flight
    recorder (:mod:`repro.obs`), which touches no RNG, so a traced and
    an untraced run produce bit-identical histories.  Every default
    keeps the legacy behaviour bit-exactly.

    A field is here because a run sets it (``src/``, an example or a
    benchmark; ``tests/test_reachability.py`` checks).  A feature only
    tests turn on stays a parameter of its component: the scheduler's
    ``exploration`` and ``stat_utility_weight``, error feedback's
    ``staleness_gamma``, a lossy ``Link(downlink_codec=...)`` and a root
    crash model (``Photon(server_failure_model=...)``).
    """

    population: int = knob(8, POSITIVE_INT, "--clients", "clients in the federation")
    clients_per_round: int = knob(
        8, POSITIVE_INT, "--sampled", "clients sampled per round, K (CLI default: all)")
    local_steps: int = knob(
        64, POSITIVE_INT, "--local-steps", "local steps per client per round (tau)")
    rounds: int = knob(
        20, POSITIVE_INT, "--rounds", "server updates to run (on a resume, the total)")
    server_lr: float = knob(1.0, POSITIVE, None, "server learning rate")
    server_momentum: float = knob(
        0.0, Span(0.0, 1.0), None, "server momentum of fedmom/nesterov (0 = their 0.9)")
    server_opt: str = knob(
        "fedavg", _check_server_opt, "--server-opt",
        "server optimizer: fedavg (the paper's), fedmom or fedadam")
    stateless_clients: bool = knob(
        True, None, None, "clients reset their local optimizer state every round")
    seed: int = knob(0, COUNT, "--seed", "seed of every random stream of the run")
    mode: str = knob(
        "sync", MODES, "--mode", "round engine: the Algorithm-1 barrier or buffered async")
    buffer_size: int | None = knob(
        None, POSITIVE_INT, "--buffer-size", "async: updates per server step (default: K)")
    staleness_alpha: float | None = knob(
        None, NON_NEGATIVE, "--staleness-alpha",
        "async: stale deltas weighted 1/(1+s)^alpha (default 0.5)")
    deadline: float | None = knob(
        None, POSITIVE, "--deadline",
        "async: simulated seconds a client cycle may take before the drop policy applies")
    drop_policy: str | None = knob(
        None, DROP_POLICIES, "--drop-policy", "async: what happens to over-deadline work "
        "(default with a deadline: drop; admit_partial salvages the finished steps)")
    adaptive_local_steps: bool = knob(
        False, None, "--adaptive-local-steps", "async: slow clients train proportionally "
        "fewer steps per pull (needs a wall-time model)")
    selection: str = knob(
        "random", SELECTION_POLICIES, "--selection", "client-selection policy (random = "
        "legacy; utility = Oort/REFL-style deadline-aware score with a fairness floor)")
    jitter: "float | dict[str, float]" = knob(
        0.0, NON_NEGATIVE, "--jitter", "async: scale of seeded lognormal per-cycle duration "
        "noise, or a client_id -> scale dict (0 = deterministic clock)")
    compression: str = knob(
        "none", _check_compression_spec, "--compression", "lossy codec for client uploads: "
        "none, fp16, int8, int4, topk:<frac>, randk:<frac>, chained with '+'")
    error_feedback: bool = knob(
        False, None, "--error-feedback",
        "keep a per-client EF residual so lossy compression stays convergent")
    checkpoint_dir: str | None = knob(
        None, PATH, "--checkpoint-dir DIR", "write rotating full-run-state checkpoints "
        "(weights, ServerOpt moments, event queue, RNG streams) under DIR")
    checkpoint_every: int | None = knob(
        None, POSITIVE_INT, "--checkpoint-every N",
        "checkpoint cadence in server updates (default 1; needs a checkpoint dir)")
    checkpoint_codec: str = knob(
        "none", _check_compression_spec, "--checkpoint-codec", "compress the ServerOpt "
        "moments inside the checkpoint: none (bit-exact resume), fp16, int8, int4")
    resume: bool = knob(
        False, None, "--resume DIR", "resume from the latest run-state checkpoint under "
        "DIR (implies --checkpoint-dir DIR; --rounds is the total target)")
    client_plane: str = knob(
        "eager", CLIENT_PLANES, "--client-plane", "when clients are built: eager, all up "
        "front; vector, each on first use, evicting beyond max_live_clients")
    cohorts: int | None = knob(
        None, POSITIVE_INT, "--cohorts", "vector plane: timing archetypes shared across "
        "the population (O(cohorts) memory; default: per-client draws)")
    max_live_clients: int | None = knob(
        None, POSITIVE_INT, "--max-live-clients",
        "vector plane: cap on live client objects (default max(64, 2x sampled cohort))")
    local_plane: str = knob(
        "batched", LOCAL_PLANES, "--local-plane", "how a wave trains, never what it "
        "computes: stacked in fused steps sized from each client's widest activation "
        "(a step too wide to stack trains solo), client by client, or on a fork pool")
    tiers: int | None = knob(
        None, POSITIVE_INT, "--tiers", "hierarchical federation: region-level edge "
        "aggregators between clients and root (1 = identity tier, bit-exact vs flat)")
    tier_compression: str = knob(
        "none", _check_compression_spec, "--tier-compression",
        "edge->root backhaul codec (the compression grammar; needs tiers)")
    replicas: int = knob(
        0, COUNT, "--replicas", "standby servers receiving versioned RunState snapshots; "
        "a crashed root promotes the newest one")
    replicate_every: int = knob(
        1, POSITIVE_INT, "--replicate-every N",
        "replication cadence in server updates (the staleness bound per crash)")
    trace_path: str | None = knob(
        None, PATH, "--trace PATH", "flight recorder: write a Chrome trace-event JSON of "
        "the run to PATH (analyze with python -m repro.obs.analyze)")
    metrics_every: int | None = knob(
        None, POSITIVE_INT, "--metrics-every N", "flush a component-meter snapshot every N "
        "server updates to <trace>.metrics.jsonl (needs a trace)")

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                _check_domain(f.name, value, f.metadata["domain"])
        if self.clients_per_round > self.population:
            raise ValueError(f"clients_per_round={self.clients_per_round} exceeds "
                             f"population={self.population}")
        if self.mode != "async":
            for name in ("buffer_size", "staleness_alpha", "deadline"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} only applies to mode='async'")
            if self.adaptive_local_steps:
                raise ValueError("adaptive_local_steps only applies to mode='async'")
            if self.jitter_active:
                raise ValueError("jitter only applies to mode='async' (the "
                                 "sync barrier has no per-cycle clock)")
        if self.drop_policy is not None and self.deadline is None:
            raise ValueError("drop_policy needs a deadline to enforce")
        if self.checkpoint_dir is None:
            if self.checkpoint_every is not None:
                raise ValueError("checkpoint_every needs a checkpoint_dir")
            if self.resume:
                raise ValueError("resume needs a checkpoint_dir to load from")
            if self.checkpoint_codec != "none":
                raise ValueError("checkpoint_codec needs a checkpoint_dir")
        if self.client_plane != "vector":
            for name in ("cohorts", "max_live_clients"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} only applies to client_plane='vector'")
        elif isinstance(self.jitter, dict):
            raise ValueError("client_plane='vector' takes a scalar jitter (per-client "
                             "dicts defeat the O(cohorts) memory model)")
        if self.cohorts is not None and self.cohorts > self.population:
            raise ValueError(f"cohorts must be in [1, population], got {self.cohorts}")
        if self.tier_compression != "none" and self.tiers is None:
            raise ValueError("tier_compression needs tiers (it is the "
                             "edge→root backhaul codec)")
        if self.replicate_every > 1 and self.replicas < 1:
            raise ValueError("replicate_every > 1 needs replicas >= 1 (there is no "
                             "snapshot cadence without a replica to ship to)")
        if self.metrics_every is not None and self.trace_path is None:
            raise ValueError("metrics_every needs a trace_path (the "
                             "metrics sink lives next to the trace)")

    @property
    def jitter_active(self) -> bool:
        """Whether any client's cycle durations carry jitter noise."""
        if isinstance(self.jitter, dict):
            return any(v > 0 for v in self.jitter.values())
        return self.jitter > 0

    @property
    def total_client_steps(self) -> int:
        return self.rounds * self.local_steps


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
    channel_threshold:
        θ, the channel count above which bandwidth congestion scaling
        applies (paper default 100).
    """

    throughput: float
    bandwidth_mbps: float
    model_mb: float
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
