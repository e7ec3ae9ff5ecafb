"""Client selection: which idle clients get the next dispatch slots.

PR 2 made the async engine *react* to stragglers — cancel an
over-deadline cycle after it was already dispatched — which still
wastes the dispatch slot, the broadcast bytes and up to ``deadline_s``
of simulated time per doomed request.  This module moves the decision
before dispatch: the engines route every selection through a
:class:`ClientScheduler` carrying one of three policies:

``random``
    Exactly the pre-scheduler behavior, kept bit-exact as the
    regression anchor: the async engine's FIFO round-robin over the
    idle pool (unreachable clients rotate to the back), the sync
    engine's configured :class:`~repro.fed.sampler.ClientSampler`.

``fastest``
    Greedy shortest-predicted-cycle-first, using the wall-time model's
    per-client pull+train+push prediction.  Maximum short-term
    throughput, but slow clients (and their data) are starved.

``utility``
    Oort/REFL-style score combining a throughput term (predicted
    cycle time), a recency term (clients unselected for many server
    versions score higher — ``exploration`` scales it), an optional
    **statistical utility** term (true Oort: clients whose recent
    train loss improved the most score higher — the engines feed
    per-arrival loss back via :meth:`ClientScheduler.note_result`,
    and ``stat_utility_weight`` scales the normalized improvement;
    the default 0.0 keeps selection bit-exact), and deadline
    awareness: clients whose predicted cycle exceeds the per-cycle
    deadline are deprioritized instead of being dispatched and
    cancelled.  A hard fairness floor prevents starvation: any client
    unselected for ``fairness_every_k`` server versions is due and
    jumps the queue, so every client participates at least once per
    ``K`` flushes (its cycles may still be salvaged or dropped by the
    deadline policy — the floor guarantees the *attempt*).

The scheduler is deliberately deterministic given its inputs: it is
only ever called from the engines' serial sections, so histories stay
rerun-identical for any ``max_workers`` — the same invariant the rest
of the simulation maintains.

Clients are population indices here, not id strings: the async idle
pool, ``select_async`` and ``_rank`` take and return int64 index
arrays, so a ranking resolves no id at all (ids are formatted only at
the edges — ``note_selected``/``selection_log``, a per-client jitter
dict, the sync engine's cohort).  A ranking reaches its first ``k``
by partition, then sort (:func:`_first`): with finite keys that head
is exactly the full stable sort's, ties at the cut included.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Sequence

import numpy as np

from ..config import SELECTION_POLICIES
from ..utils.durable import ID, INT, Array, Durable, Field, List, Row

__all__ = ["ClientScheduler", "SELECTION_POLICIES", "normal_quantile"]

#: Recency normalizer when the fairness floor is disabled.
_DEFAULT_HORIZON = 8

#: Bound on the diagnostic selection log (one entry per dispatch, so
#: a long simulation must not grow memory linearly forever).
_SELECTION_LOG_MAXLEN = 65_536

#: Maps the clients a scheduler ranks to an ndarray of predicted cycle
#: durations, same order — the engines' one clock, so the scheduler
#: ranks on exactly the prediction a dispatch is then planned from.
#: The scheduler asks by the population index array its ranking has
#: already resolved.
DurationsOf = Callable[[np.ndarray], np.ndarray]


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation,
    |relative error| < 1.15e-9 — scipy-free on purpose: the container
    ships only numpy)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def _first(positions: np.ndarray, key: np.ndarray, lex: np.ndarray,
           m: int) -> np.ndarray:
    """The ``m`` of ``positions`` with the smallest ``(key, lex)``, in
    that order (``key`` and ``lex`` are indexed by position).

    Partition, then sort: ``np.partition`` finds the m-th smallest key
    (the cut), and only the members whose key is ``<=`` the cut — every
    tie at the cut included — are lexsorted.  Anyone left out has a
    key above the cut, so ranks after all m winners: the head equals
    the full stable sort's, given finite keys (a NaN compares false
    and would fall out of the tie closure; the wall-time model refuses
    non-finite factors and rates for that reason)."""
    if m < len(positions):
        keys = key[positions]
        positions = positions[keys <= np.partition(keys, m - 1)[m - 1]]
    return positions[np.lexsort((lex[positions], key[positions]))][:m]


class ClientScheduler(Durable):
    """Pluggable selection policy shared by both round engines.

    Selection counters, the fairness clock and the statistical-utility
    memory live in length-N arrays indexed by ``population``; ranking
    is whole-candidate-set numpy ops whose output ordering — every
    tie-break included — is that of the per-client scalar definition
    (``tests/helpers.py::reference_rank``, property-tested).

    Parameters
    ----------
    population:
        The :class:`~repro.fed.population.ClientPopulation` whose
        clients are scheduled (the engine's own: an engine refuses a
        scheduler built over another).
    policy:
        One of :data:`SELECTION_POLICIES`.
    deadline_s:
        The per-cycle deadline the async engine enforces, if any; the
        ``utility`` policy treats a client whose predicted cycle
        exceeds it as infeasible (selected only via the fairness
        floor or when nothing feasible remains).
    exploration:
        Weight of the ``utility`` recency term relative to the
        throughput term (0 = pure fastest-feasible, larger values
        rotate slow clients in sooner).
    stat_utility_weight:
        Weight of the ``utility`` statistical term: each candidate's
        most recent train-loss improvement (fed back by the engines
        through :meth:`note_result`), normalized over the candidate
        set.  0.0 (the default) is the bit-exact legacy score.
    fairness_every_k:
        Hard floor: a client unselected for this many server versions
        is selected ahead of any scoring.  ``None`` disables the
        floor (useful to demonstrate starvation).
    feasibility_quantile:
        Jitter-aware feasibility margin (PR 3 bugfix): the mean
        predicted cycle alone admits high-jitter clients into deadline
        slots they routinely miss, because the lognormal noise is
        applied *after* selection.  With a quantile ``q`` the ranked
        policies inflate each candidate's predicted duration to its
        q-th jitter quantile — ``duration * exp(z_q * scale)`` where
        ``z_q`` is the standard-normal quantile and ``scale`` the
        client's jitter scale — before the feasibility check and the
        speed score.  ``None`` (default) keeps the legacy mean-only
        prediction bit-exactly.
    jitter:
        The :class:`~repro.net.walltime.JitterModel` supplying
        per-client scales for the margin (only ``scales_for`` is
        consulted — the margin never draws from the model's RNG).
        Ignored unless ``feasibility_quantile`` is set.
    """

    def __init__(self, population, policy: str = "random", *,
                 deadline_s: float | None = None,
                 exploration: float = 1.0,
                 stat_utility_weight: float = 0.0,
                 fairness_every_k: int | None = 8,
                 feasibility_quantile: float | None = None,
                 jitter=None):
        if policy not in SELECTION_POLICIES:
            raise ValueError(
                f"selection policy must be one of {SELECTION_POLICIES}, "
                f"got {policy!r}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        if exploration < 0:
            raise ValueError(f"exploration must be non-negative, got {exploration}")
        if stat_utility_weight < 0:
            raise ValueError(
                f"stat_utility_weight must be non-negative, got "
                f"{stat_utility_weight}"
            )
        if fairness_every_k is not None and fairness_every_k < 1:
            raise ValueError(
                f"fairness_every_k must be >= 1 or None, got {fairness_every_k}"
            )
        if feasibility_quantile is not None and not 0.0 < feasibility_quantile < 1.0:
            raise ValueError(
                f"feasibility_quantile must be in (0, 1), got {feasibility_quantile}"
            )
        self.population = population
        self.policy = policy
        self.deadline_s = deadline_s
        self.exploration = exploration
        self.stat_utility_weight = stat_utility_weight
        self.fairness_every_k = fairness_every_k
        self.feasibility_quantile = feasibility_quantile
        self.jitter = jitter
        self._margin_z = (normal_quantile(feasibility_quantile)
                          if feasibility_quantile is not None else 0.0)
        n = population.n
        #: server version at each client's most recent selection (-1:
        #: never — waiting since before version 0).
        self.last_selected = np.full(n, -1, dtype=np.int64)
        #: total dispatches per client (includes retries/requeues).
        self.selections = np.zeros(n, dtype=np.int64)
        #: last reported train loss (NaN: none yet) and last observed
        #: improvement per client (the ``utility`` statistical term's
        #: inputs).
        self.last_loss = np.full(n, np.nan, dtype=np.float64)
        self.loss_improvement = np.zeros(n, dtype=np.float64)
        #: recent (version, client) selections, in order — test/debug
        #: aid, bounded so long simulations don't grow without limit.
        self.selection_log: deque[tuple[int, str]] = deque(
            maxlen=_SELECTION_LOG_MAXLEN)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClientScheduler(policy={self.policy!r}, "
                f"deadline_s={self.deadline_s}, "
                f"exploration={self.exploration}, "
                f"fairness_every_k={self.fairness_every_k})")

    # ------------------------------------------------------------------
    # Run state: the fairness clock, selection counters and
    # statistical-utility memory all steer future selections, so a
    # resume without them diverges.  Arrays, not dicts — a
    # million-client checkpoint carries four ndarrays instead of
    # millions of string-keyed entries.
    # ------------------------------------------------------------------
    _STATE = (
        *(Field(key, Array()) for key in (
            "last_selected", "selections", "last_loss", "loss_improvement")),
        Field("selection_log", List(Row(INT, ID)),
              decode=lambda log: deque(log, maxlen=_SELECTION_LOG_MAXLEN)),
    )

    # ------------------------------------------------------------------
    def note_selected(self, client_id: str, version: int) -> None:
        """Record a dispatch (the engines call this on every issue,
        including requeues and crash retries, so the fairness clock
        reflects actual work given to the client)."""
        i = self.population.index_of(client_id)
        self.last_selected[i] = version
        self.selections[i] += 1
        self.selection_log.append((version, client_id))

    def note_result(self, client_id: str, train_loss: float | None) -> None:
        """Record a delivered update's mean train loss; consecutive
        reports yield the client's *loss improvement* (previous −
        current), the statistical-utility signal.  The engines call
        this for every admitted update, so at weight 0 it is pure
        bookkeeping with no effect on selection."""
        if train_loss is None:
            return
        train_loss = float(train_loss)
        i = self.population.index_of(client_id)
        previous = self.last_loss[i]
        if not np.isnan(previous):
            self.loss_improvement[i] = previous - train_loss
        self.last_loss[i] = train_loss

    # ------------------------------------------------------------------
    def _rank(self, idx: np.ndarray, version: int,
              durations_of: DurationsOf, deadline_s: float | None,
              k: int | None = None) -> np.ndarray:
        """Positions in ``idx`` (population indices) of its best ``k``
        clients (all of them by default), best first under the active
        policy (module docstring).

        The ``utility`` score is throughput + recency + statistics:
        ``fastest / cycle`` is in (0, 1]; the recency term grows
        linearly with the versions a client has waited, saturating at
        the fairness horizon, scaled by ``exploration``; the
        statistical term (true Oort) is the client's last observed
        loss improvement, clamped at 0 and normalized by the candidate
        set's largest, scaled by ``stat_utility_weight``.

        The order is three groups, each by (key, id): due clients by
        ``-waited``, then feasible and then deadline-infeasible ones
        by ``-score`` (``fastest`` is one group by predicted cycle).
        :func:`_first` reaches a group's head by partition, then sort,
        so picking 16 of 12,000 sorts a handful of them.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if not len(idx):
            return idx
        pop = self.population
        # No id is resolved here: the clock is asked by index.
        lex = pop.lex_rank[idx]
        durations = np.asarray(durations_of(idx), dtype=np.float64)
        if self.feasibility_quantile is not None and self.jitter is not None:
            # Inflate each prediction to its jitter quantile:
            # ``exp(z_q * scale)``, 1.0 for jitter-free clients.  A
            # per-client scale dict is keyed by id: the edge.
            scales = np.asarray(self.jitter.scales_for(
                [pop.ids[i] for i in idx.tolist()]), dtype=np.float64)
            nz = scales > 0
            if nz.any():
                margins = np.ones(len(idx), dtype=np.float64)
                margins[nz] = np.exp(self._margin_z * scales[nz])
                durations = durations * margins
        k = len(idx) if k is None else k
        if self.policy == "fastest":
            return _first(np.arange(len(idx)), durations, lex, k)
        # utility
        waited = version - self.last_selected[idx]
        if self.fairness_every_k is not None:
            due_mask = waited >= self.fairness_every_k
        else:
            due_mask = np.zeros(len(idx), dtype=bool)
        fastest_s = float(durations.min())
        # Candidate-relative normalizer for the statistical term: the
        # best recent improvement maps to 1, so the term is unitless
        # like the speed and recency terms.
        imp = self.loss_improvement[idx]
        stat_norm = float(imp.max())
        speed = np.ones(len(idx), dtype=np.float64)
        positive = durations > 0
        speed[positive] = fastest_s / durations[positive]
        horizon = self.fairness_every_k or _DEFAULT_HORIZON
        recency = np.minimum(waited, horizon) / horizon
        score = speed + self.exploration * recency
        if self.stat_utility_weight and stat_norm > 0:
            score = score + (self.stat_utility_weight
                             * np.maximum(0.0, imp) / stat_norm)
        key = np.where(due_mask, -waited, -score)
        fits = (np.ones(len(idx), dtype=bool) if deadline_s is None
                else durations <= deadline_s)
        heads = [idx[:0]]
        for group in (due_mask, ~due_mask & fits, ~due_mask & ~fits):
            if k <= 0:
                break
            heads.append(_first(np.flatnonzero(group), key, lex, k))
            k -= len(heads[-1])
        return np.concatenate(heads)

    def _effective_deadline(self, fallback_s: float | None) -> float | None:
        """The scheduler's own ``deadline_s`` (explicit user choice)
        wins; otherwise the engine's per-call fallback applies.  The
        engine never writes into the scheduler, so one instance is
        not silently reconfigured by the engine it is attached to."""
        return self.deadline_s if self.deadline_s is not None else fallback_s

    # ------------------------------------------------------------------
    # Async engine: which idle clients fill the open dispatch slots.
    # ------------------------------------------------------------------
    def select_async(self, idle: np.ndarray, reachable: np.ndarray | None,
                     slots: int, version: int, durations_of: DurationsOf,
                     deadline_s: float | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Choose up to ``slots`` of the ``idle`` pool (population
        indices, in queue order) to dispatch now.

        ``reachable`` is a boolean mask over ``idle`` of the clients
        that can be reached, ``None`` for everyone.  Returns
        ``(dispatch, leftover)`` index arrays: the clients to issue
        work to, in dispatch order, and the new idle-pool order.  The
        ``random`` policy replays the legacy FIFO rotation bit-exactly
        (unreachable clients move to the back of the pool); the ranked
        policies preserve the relative idle order of everyone not
        dispatched.  ``deadline_s`` is the engine's per-cycle deadline,
        used as the feasibility bound when the scheduler was built
        without one of its own.
        """
        idle = np.asarray(idle, dtype=np.int64)
        if slots <= 0 or not len(idle):
            return idle[:0], idle
        if self.policy == "random":
            # Legacy semantics: walk the queue once, dispatch reachable
            # clients until the slots run out, rotate the unreachable
            # ones the walk passed to the back.
            if reachable is None:
                return idle[:slots], idle[slots:]
            taken = np.flatnonzero(reachable)[:slots]
            scanned = taken[-1] + 1 if len(taken) == slots else len(idle)
            passed = reachable[:scanned]
            return idle[taken], np.concatenate(
                [idle[scanned:], idle[:scanned][~passed]])
        if reachable is None:
            picked = self._rank(idle, version, durations_of,
                                self._effective_deadline(deadline_s), slots)
        else:
            candidates = np.flatnonzero(reachable)
            picked = candidates[self._rank(
                idle[candidates], version, durations_of,
                self._effective_deadline(deadline_s), slots)]
        return idle[picked], np.delete(idle, picked)

    # ------------------------------------------------------------------
    # Sync engine: which clients form the round's cohort.
    # ------------------------------------------------------------------
    def select_cohort(self, population: Sequence[str], round_idx: int,
                      default: list[str], durations_of: DurationsOf,
                      ) -> list[str]:
        """Choose the synchronous round's cohort.

        ``default`` is the configured sampler's draw — the ``random``
        policy returns it untouched (bit-exact legacy behavior); the
        ranked policies keep its size but pick the members, which in a
        barrier engine directly bounds the round's wall time (the
        slowest member paces everyone).
        """
        if self.policy == "random":
            cohort = list(default)
        else:
            picked = self._rank(self.population.indices_of(population),
                                round_idx, durations_of,
                                self._effective_deadline(None), len(default))
            # Rounds treat the cohort as a set.
            cohort = sorted(population[j] for j in picked.tolist())
        for client_id in cohort:
            self.note_selected(client_id, round_idx)
        return cohort
