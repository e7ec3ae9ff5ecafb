"""Fault injection and dropout handling.

Section 4's topology discussion is explicit about failure semantics:
PS and AllReduce "handle worker dropouts well by providing a partial
update derived from surviving workers", while Ring-AllReduce "does not
tolerate dropouts" (the ring must be re-formed and the round redone).
This module makes those semantics testable:

* :class:`FailureModel` — seeded Bernoulli client-crash injection,
  optionally targeting specific rounds/clients;
* :class:`FaultPolicy` — what the aggregator does when clients fail:
  ``partial`` (PS/AR semantics), ``retry_round`` (RAR semantics, with
  a wall-time penalty), or ``strict`` (raise);
* :class:`DeadlinePolicy` — how the *asynchronous* engine treats
  pull–train–push cycles that exceed a simulated wall-time deadline:
  cancel and drop, cancel and requeue, cancel but salvage the finished
  steps (``admit_partial``), or admit the late delta with its normal
  staleness discount (accounting only);
* :class:`DropLedger` — per-flush accounting of the work a deadline
  cancels (local steps and broadcast bytes) or salvages, so reports
  can show what the policy cost.

The :class:`~repro.fed.engine.RoundEngine` consumes the first two
via its ``failure_model``/``fault_policy`` arguments; the async
:class:`~repro.fed.engine.AsyncAggregator` additionally takes a
``deadline`` and keeps a :class:`DropLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..config import DROP_POLICIES
from ..utils.durable import ID, INT, RNG, Durable, Field, List, Row

__all__ = [
    "ClientFailure",
    "FailureModel",
    "FaultPolicy",
    "DeadlinePolicy",
    "DropLedger",
    "FAULT_POLICIES",
    "DROP_POLICIES",
]

FAULT_POLICIES = ("partial", "retry_round", "strict")


class ClientFailure(RuntimeError):
    """Raised inside a client's local pipeline when it crashes."""

    def __init__(self, client_id: str, round_idx: int):
        super().__init__(f"client {client_id} failed in round {round_idx}")
        self.client_id = client_id
        self.round_idx = round_idx


@dataclass
class FailureModel(Durable):
    """Seeded client-crash injection.

    Parameters
    ----------
    crash_prob:
        Per-(client, round) probability of crashing mid-training.
    scripted:
        Explicit ``(round_idx, client_id)`` crashes, applied on top of
        the random ones (useful for deterministic tests).
    max_failures:
        Stop injecting after this many crashes (default unlimited).
    """

    crash_prob: float = 0.0
    scripted: set = field(default_factory=set)
    max_failures: int | None = None
    seed: int = 0

    # Run state: the crash stream must resume mid-sequence or a
    # restored run draws different failures.
    _STATE = (Field("rng", RNG, "_rng"),
              Field("failures_injected", INT),
              Field("scripted", List(Row(INT, ID)), encode=sorted,
                    decode=set))

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_prob < 1.0:
            raise ValueError("crash_prob must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)
        self.failures_injected = 0

    def should_fail(self, client_id: str, round_idx: int) -> bool:
        if self.max_failures is not None and self.failures_injected >= self.max_failures:
            return False
        key = (round_idx, client_id)
        fail = key in self.scripted
        if fail:
            # Scripted crashes are transient: a retried round sees the
            # client back up (matching real fail-and-restart behaviour).
            self.scripted.discard(key)
        elif self.crash_prob > 0.0:
            fail = bool(self._rng.random() < self.crash_prob)
        if fail:
            self.failures_injected += 1
        return fail


@dataclass(frozen=True)
class FaultPolicy:
    """Aggregator behaviour when some sampled clients fail.

    ``partial``      aggregate the survivors (PS/AR semantics);
    ``retry_round``  discard the round and retry with the same cohort,
                     up to ``max_retries`` times (RAR semantics);
    ``strict``       re-raise (abort training).

    ``min_survivors`` guards ``partial``: a round with fewer surviving
    clients is retried instead (a 1-of-16 "partial update" would be
    pure noise).
    """

    mode: str = "partial"
    min_survivors: int = 1
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.mode not in FAULT_POLICIES:
            raise ValueError(f"mode must be one of {FAULT_POLICIES}")
        if self.min_survivors < 1:
            raise ValueError("min_survivors must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @classmethod
    def for_topology(cls, topology: str) -> "FaultPolicy":
        """The Section 4 default per aggregation topology."""
        if topology in ("ps", "ar"):
            return cls(mode="partial")
        if topology == "rar":
            return cls(mode="retry_round")
        raise ValueError(f"unknown topology {topology!r}")


@dataclass(frozen=True)
class DeadlinePolicy:
    """What the async engine does with work that outlives its deadline.

    ``deadline_s`` bounds a client's pull–train–push cycle on the
    simulated clock, and also bounds how long the server waits between
    two flushes before applying whatever the buffer holds.

    ``drop_policy`` selects the enforcement:

    ``drop``           cancel the request at the deadline; the client
                       abandons its work and rejoins the idle pool
                       (availability-gated re-dispatch);
    ``requeue``        cancel at the deadline and immediately re-issue
                       the request against the *current* global model;
    ``admit_partial``  cancel training at the deadline but upload the
                       local steps the client *did* finish: the
                       partial delta is admitted (steps-proportional
                       merge weight) and the ledger splits the cycle
                       into salvaged and dropped steps; a cycle too
                       slow to finish even one step degrades to
                       ``drop``;
    ``admit_stale``    never cancel: the late delta arrives naturally
                       and is admitted with its usual staleness
                       discount — the deadline only *measures* misses.
    """

    deadline_s: float
    drop_policy: str = "drop"

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.drop_policy not in DROP_POLICIES:
            raise ValueError(f"drop_policy must be one of {DROP_POLICIES}")

    @property
    def enforcing(self) -> bool:
        """Whether the policy cancels work (vs. accounting only)."""
        return self.drop_policy != "admit_stale"


@dataclass
class DropLedger(Durable):
    """Running account of what a deadline policy cancels or salvages.

    Drops accrue into an open *window*; :meth:`flush` closes the
    window (one per server update) and returns its totals, so every
    recorded drop lands in exactly one flush — the per-flush windows
    always sum to the cumulative totals.

    ``admit_partial`` cycles are recorded through
    :meth:`record_salvage`, which splits the cancelled cycle's planned
    steps into the *salvaged* part (trained, uploaded, admitted) and
    the *dropped* remainder — so for any mix of policies
    ``dropped + salvaged`` always equals the steps of every cancelled
    cycle (:attr:`total_cancelled_cycles` counts them).
    """

    total_dropped_steps: int = 0
    total_dropped_bytes: int = 0
    total_deadline_misses: int = 0
    total_salvaged_steps: int = 0
    total_cancelled_cycles: int = 0
    _window_steps: int = 0
    _window_bytes: int = 0
    _window_misses: int = 0
    _window_salvaged: int = 0

    def record_drop(self, steps: int, nbytes: int) -> None:
        """A cancelled cycle: ``steps`` of training and ``nbytes`` of
        broadcast payload are abandoned."""
        if steps < 0 or nbytes < 0:
            raise ValueError("dropped steps/bytes must be non-negative")
        self.total_dropped_steps += steps
        self.total_dropped_bytes += nbytes
        self.total_cancelled_cycles += 1
        self._window_steps += steps
        self._window_bytes += nbytes

    def record_salvage(self, steps_done: int, steps_dropped: int) -> None:
        """A cancelled cycle whose finished steps were admitted
        (``admit_partial``): ``steps_done`` survive, ``steps_dropped``
        are the unfinished remainder."""
        if steps_done < 1:
            raise ValueError("a salvaged cycle must have finished >= 1 step")
        if steps_dropped < 0:
            raise ValueError("dropped remainder must be non-negative")
        self.total_salvaged_steps += steps_done
        self.total_dropped_steps += steps_dropped
        self.total_cancelled_cycles += 1
        self._window_salvaged += steps_done
        self._window_steps += steps_dropped

    def record_late(self) -> None:
        """An over-deadline delta admitted anyway (``admit_stale``)."""
        self.total_deadline_misses += 1
        self._window_misses += 1

    def flush(self) -> dict[str, int]:
        """Close the current window and return its totals."""
        window = {
            "dropped_steps": self._window_steps,
            "dropped_bytes": self._window_bytes,
            "deadline_misses": self._window_misses,
            "salvaged_steps": self._window_salvaged,
        }
        self._window_steps = 0
        self._window_bytes = 0
        self._window_misses = 0
        self._window_salvaged = 0
        return window


# Run state: both the lifetime totals and the open window (drops
# recorded since the last flush) survive a resume, so the per-flush
# windows still sum to the cumulative totals across a crash.
DropLedger._STATE = tuple(Field(f.name, INT) for f in fields(DropLedger))
