"""Vectorized million-client control plane (ROADMAP item 1).

The eager plane materializes one :class:`~repro.fed.client.LLMClient`
per population member and keeps scheduler counters and slowdown
factors in Python dicts — fine at hundreds of clients, three orders of
magnitude short of the paper's fleet-scale ambitions.  This module is
the MLSYSIM-style alternative: model the fleet without running the
fleet.  It changes *how* per-client state is held, never what a client
is: data, region, slowdown draws and the cycle clock have one
definition (:mod:`repro.fed.photon`, :mod:`repro.fed.engine`) that both
planes read.

* :class:`ClientPopulation` — per-client *parameters* (timing
  slowdowns, cohort membership) as numpy arrays keyed by client
  index, with the id <-> index mapping and the lexicographic rank
  table that keeps vectorized sorts identical to the legacy
  string-sorted orderings.  Cohort archetypes
  (:meth:`ClientPopulation.cohorts`) store O(cohorts) distinct
  parameters gathered out to the population.
* :class:`PopulationWallTime` — a
  :class:`~repro.net.walltime.WallTimeModel` whose per-client factors
  are array gathers instead of dict lookups.
* :class:`LazyClientPool` — a read-through Mapping of client id to
  ``LLMClient`` that materializes clients only while they train and
  parks an evicted client's durable state (stream RNG position,
  counters, stateful optimizer moments) as a plain state dict.  The
  model workspace is overwritten by every broadcast, so
  evict-and-rematerialize is bit-exact by construction.
* :class:`VectorScheduler` — a
  :class:`~repro.fed.scheduler.ClientScheduler` whose counters live
  in arrays and whose ranking is whole-population numpy ops,
  bit-exact against the scalar implementation (same selections, same
  tie-breaks) — the property the equivalence tests pin down.

Bit-exactness notes baked into the implementation (each is load-
bearing and covered by tests): ``np.exp`` over an array equals scalar
``np.exp`` per element (but NOT libm's ``math.exp``); vectorized
elementwise divide/multiply/add equal their scalar counterparts;
``np.lexsort((lex_rank, -score))`` equals Python's stable sort on
``(-score, client_id)`` because ``lex_rank`` orders ids exactly like
``str`` comparison; and ``Generator.normal(0, sigma_array)`` consumes
the RNG stream exactly like the equivalent sequence of scalar draws.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from ..config import WallTimeConfig
from ..net.walltime import WallTimeModel, slowdown_factors
from .client import LLMClient
from .scheduler import (
    _DEFAULT_HORIZON,
    _SELECTION_LOG_MAXLEN,
    ClientScheduler,
    DurationsOf,
)

__all__ = [
    "ClientPopulation",
    "LazyClientPool",
    "PopulationWallTime",
    "VectorScheduler",
]


class ClientPopulation:
    """Index-keyed per-client parameters plus the id mapping.

    Client ``i`` is named ``f"{prefix}{i}"``.  ``lex_rank[i]`` is the
    position of client ``i`` in lexicographic id order — the order
    every legacy code path iterates in (``sorted(self.clients)``), so
    vectorized consumers sort by ``lex_rank`` to reproduce legacy
    orderings exactly.  ``compute_factors`` / ``bandwidth_factors``
    are the wall-time slowdowns (1.0 = nominal), and ``cohort_of``
    (optional) maps each client to its parameter archetype.
    """

    def __init__(self, n: int, prefix: str = "client",
                 compute_factors: np.ndarray | None = None,
                 bandwidth_factors: np.ndarray | None = None,
                 cohort_of: np.ndarray | None = None):
        if n < 1:
            raise ValueError(f"population size must be >= 1, got {n}")
        self.n = n
        self.prefix = prefix
        self.ids: list[str] = [f"{prefix}{i}" for i in range(n)]
        self._index = {cid: i for i, cid in enumerate(self.ids)}
        order = np.argsort(np.array(self.ids))  # lexicographic, like str
        self.lex_rank = np.empty(n, dtype=np.int64)
        self.lex_rank[order] = np.arange(n, dtype=np.int64)
        self.sorted_ids: list[str] = [self.ids[int(i)] for i in order]
        self.compute_factors = self._checked_factors(compute_factors)
        self.bandwidth_factors = self._checked_factors(bandwidth_factors)
        if cohort_of is not None:
            cohort_of = np.asarray(cohort_of, dtype=np.int64)
            if cohort_of.shape != (n,):
                raise ValueError("cohort_of must have one entry per client")
        self.cohort_of = cohort_of

    def _checked_factors(self, factors: np.ndarray | None) -> np.ndarray:
        if factors is None:
            return np.ones(self.n, dtype=np.float64)
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.n,):
            raise ValueError("factor arrays must have one entry per client")
        if not (factors > 0).all():
            raise ValueError("slowdown factors must be positive")
        return factors.copy()

    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, n: int, prefix: str = "client") -> "ClientPopulation":
        """Equipollent population (all factors 1.0)."""
        return cls(n, prefix=prefix)

    @classmethod
    def heterogeneous(cls, n: int, compute_spread: float = 1.0,
                      bandwidth_spread: float = 1.0, seed: int = 0,
                      prefix: str = "client") -> "ClientPopulation":
        """Per-client log-uniform slowdowns, byte-identical to
        :meth:`~repro.net.walltime.WallTimeModel.heterogeneous` over
        the lexicographically sorted ids (the eager plane's draw
        order), so eager and vector planes see the same federation."""
        pop = cls(n, prefix=prefix)
        rng = np.random.default_rng(seed)
        order = np.argsort(pop.lex_rank)  # indices in sorted-id order
        pop.compute_factors[order] = slowdown_factors(rng, compute_spread, n)
        pop.bandwidth_factors[order] = slowdown_factors(rng, bandwidth_spread, n)
        return pop

    @classmethod
    def cohorts(cls, n: int, k: int, compute_spread: float = 1.0,
                bandwidth_spread: float = 1.0, seed: int = 0,
                prefix: str = "client") -> "ClientPopulation":
        """``k`` timing archetypes shared round-robin across the
        population (client ``i`` belongs to cohort ``i % k``): the
        O(cohorts) parameter memory model.  Not comparable draw-for-
        draw with :meth:`heterogeneous` — cohort mode is the new
        fleet-scale regime, not a legacy anchor."""
        if not 1 <= k <= n:
            raise ValueError(f"cohorts must be in [1, {n}], got {k}")
        rng = np.random.default_rng(seed)
        cohort_of = np.arange(n, dtype=np.int64) % k
        return cls(
            n, prefix=prefix,
            compute_factors=slowdown_factors(rng, compute_spread, k)[cohort_of],
            bandwidth_factors=slowdown_factors(rng, bandwidth_spread, k)[cohort_of],
            cohort_of=cohort_of,
        )

    # ------------------------------------------------------------------
    def index_of(self, client_id: str) -> int:
        """Client index for an id (KeyError on anything that is not
        exactly an id of this population — ``"client007"`` is not
        ``"client7"``, and neither is ``7``)."""
        try:
            return self._index[client_id]
        except TypeError:  # unhashable, so not an id
            raise KeyError(client_id) from None

    def indices_of(self, client_ids: Sequence[str]) -> np.ndarray:
        """Indices of ``client_ids``, in order: one table gather.  An
        entry that is not an id raises before anything is returned
        (KeyError; TypeError if it is not even hashable)."""
        return np.fromiter(map(self._index.__getitem__, client_ids),
                           dtype=np.int64, count=len(client_ids))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k = "none" if self.cohort_of is None else int(self.cohort_of.max()) + 1
        return f"ClientPopulation(n={self.n}, cohorts={k})"


class PopulationWallTime(WallTimeModel):
    """Wall-time model whose per-client factors are array gathers.

    Scalar lookups (:meth:`compute_factor` / :meth:`bandwidth_factor`)
    stay available and bit-exact — the barrier's ``cohort_timing`` and
    the observer's ``client_timing`` read them — while the engines'
    cycle plans go through the array methods without ever building a
    dict.
    """

    def __init__(self, config: WallTimeConfig, population: ClientPopulation):
        super().__init__(config)
        self.population = population

    def compute_factor(self, client_id: str) -> float:
        return float(
            self.population.compute_factors[self.population.index_of(client_id)]
        )

    def bandwidth_factor(self, client_id: str) -> float:
        return float(
            self.population.bandwidth_factors[self.population.index_of(client_id)]
        )

    def _factor_arrays(self, client_ids: Sequence[str] | np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """``client_ids`` is a sequence of ids or the population index
        array a :class:`VectorScheduler` ranking already resolved."""
        idx = (client_ids if isinstance(client_ids, np.ndarray)
               else self.population.indices_of(client_ids))
        return (self.population.compute_factors[idx],
                self.population.bandwidth_factors[idx])

    # Checkpoint protocol (repro.fed.runstate): arrays instead of the
    # base class's per-client dicts — O(N) floats, not O(N) dict
    # entries with string keys.
    def state_dict(self) -> dict:
        return {
            "compute_factors": self.population.compute_factors.copy(),
            "bandwidth_factors": self.population.bandwidth_factors.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        for key, attr in (("compute_factors", "compute_factors"),
                          ("bandwidth_factors", "bandwidth_factors")):
            factors = np.asarray(state[key], dtype=np.float64)
            if factors.shape != (self.population.n,):
                raise ValueError(
                    f"checkpoint {key} has shape {factors.shape}, expected "
                    f"({self.population.n},)"
                )
            setattr(self.population, attr, factors.copy())


class LazyClientPool(Mapping):
    """Read-through client map: materialize on access, evict to state.

    At most ``max_live`` :class:`~repro.fed.client.LLMClient` objects
    (model workspace + optimizer + streams) exist at once; everyone
    else is either *untouched* (recreatable from the deterministic
    ``factory``) or *parked* as the plain state dict that
    ``RunState`` would persist anyway.  Training code holds a client
    through :meth:`lease`, which pins it against eviction for the
    duration (the async engine trains leased clients on worker
    threads while the serial control loop touches others).

    Eviction order is least-recently-used, and eviction is bit-exact:
    a client's durable state is exactly its ``state_dict()`` (the
    model workspace is overwritten by every broadcast before
    training), so park + rematerialize + load is indistinguishable
    from having kept the object alive.
    """

    def __init__(self, population: ClientPopulation,
                 factory: Callable[[str], LLMClient], max_live: int = 64):
        if max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {max_live}")
        self.population = population
        self._factory = factory
        self.max_live = max_live
        self._live: OrderedDict[str, LLMClient] = OrderedDict()
        self._parked: dict[str, dict] = {}
        self._leases: dict[str, int] = {}
        self._lock = threading.Lock()
        self.materializations = 0
        self.evictions = 0
        self.hits = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.population.n

    def __iter__(self) -> Iterator[str]:
        return iter(self.population.ids)

    def __contains__(self, client_id) -> bool:
        try:
            self.population.index_of(client_id)
        except KeyError:
            return False
        return True

    def sorted_ids(self) -> list[str]:
        """Population in lexicographic id order (what the engines'
        ``sorted(self.clients)`` used to compute per call)."""
        return list(self.population.sorted_ids)

    # ------------------------------------------------------------------
    def _materialize_locked(self, client_id: str) -> LLMClient:
        client = self._live.get(client_id)
        if client is not None:
            self._live.move_to_end(client_id)
            self.hits += 1
            return client
        self.population.index_of(client_id)  # validate before building
        client = self._factory(client_id)
        parked = self._parked.pop(client_id, None)
        if parked is not None:
            client.load_state_dict(parked)
        self._live[client_id] = client
        self.materializations += 1
        return client

    def _evict_locked(self) -> None:
        while len(self._live) > self.max_live:
            victim = next(
                (cid for cid in self._live if not self._leases.get(cid)), None
            )
            if victim is None:
                return  # everything over the cap is leased right now
            client = self._live.pop(victim)
            self._parked[victim] = client.state_dict()
            self.evictions += 1

    def __getitem__(self, client_id: str) -> LLMClient:
        with self._lock:
            client = self._materialize_locked(client_id)
            self._evict_locked()
            return client

    @contextmanager
    def lease(self, client_id: str):
        """Materialize and pin a client for the duration of the block
        (re-entrant: nested leases stack)."""
        with self._lock:
            client = self._materialize_locked(client_id)
            self._leases[client_id] = self._leases.get(client_id, 0) + 1
        try:
            yield client
        finally:
            with self._lock:
                remaining = self._leases.get(client_id, 0) - 1
                if remaining <= 0:
                    self._leases.pop(client_id, None)
                else:
                    self._leases[client_id] = remaining
                self._evict_locked()

    # ------------------------------------------------------------------
    def live_count(self) -> int:
        return len(self._live)

    def total_tokens_processed(self) -> int:
        """Tokens across the whole population: live objects plus the
        counters frozen inside parked state (untouched clients have
        processed nothing)."""
        with self._lock:
            total = sum(c.tokens_processed for c in self._live.values())
            total += sum(int(s["tokens_processed"])
                         for s in self._parked.values())
        return total

    # Checkpoint protocol (repro.fed.runstate): only *touched* clients
    # are persisted — an untouched client is recreatable from the
    # factory, which is exactly the lazy plane's memory argument
    # applied to the checkpoint artifact.
    def state_dict(self) -> dict:
        with self._lock:
            touched = {cid: dict(s) for cid, s in self._parked.items()}
            touched.update(
                {cid: c.state_dict() for cid, c in self._live.items()}
            )
        return {"touched": touched}

    def load_state_dict(self, state: dict) -> None:
        touched = state["touched"]
        for cid in touched:
            self.population.index_of(cid)  # reject foreign checkpoints
        with self._lock:
            self._live.clear()
            self._leases.clear()
            self._parked = {cid: dict(s) for cid, s in touched.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LazyClientPool(n={self.population.n}, "
                f"live={len(self._live)}/{self.max_live}, "
                f"parked={len(self._parked)})")


class VectorScheduler(ClientScheduler):
    """Array-backed :class:`~repro.fed.scheduler.ClientScheduler`.

    Selection counters, the fairness clock and the statistical-utility
    memory live in length-N arrays keyed by client index; ranking is
    whole-candidate-set numpy ops.  The output ordering — including
    every tie-break — is bit-identical to the scalar implementation,
    which the hypothesis equivalence properties assert directly.
    """

    def __init__(self, population: ClientPopulation, policy: str = "random",
                 **kwargs):
        super().__init__(policy, **kwargs)
        self.population = population
        n = population.n
        self._last_selected = np.full(n, -1, dtype=np.int64)
        self._selections = np.zeros(n, dtype=np.int64)
        self._last_loss_arr = np.full(n, np.nan, dtype=np.float64)
        self._improvement = np.zeros(n, dtype=np.float64)
        # The base class's dict counters stay empty; the arrays above
        # are this subclass's single source of truth.
        del self.last_selected, self.selections
        del self._last_loss, self.loss_improvement

    # ------------------------------------------------------------------
    def note_selected(self, client_id: str, version: int) -> None:
        i = self.population.index_of(client_id)
        self._last_selected[i] = version
        self._selections[i] += 1
        self.selection_log.append((version, client_id))

    def note_result(self, client_id: str, train_loss: float | None) -> None:
        if train_loss is None:
            return
        train_loss = float(train_loss)
        i = self.population.index_of(client_id)
        previous = self._last_loss_arr[i]
        if not np.isnan(previous):
            self._improvement[i] = previous - train_loss
        self._last_loss_arr[i] = train_loss

    def _waited(self, client_id: str, version: int) -> int:
        return int(version - self._last_selected[self.population.index_of(client_id)])

    # ------------------------------------------------------------------
    def _rank(self, candidates: Sequence[str], version: int,
              durations_of: DurationsOf, deadline_s: float | None,
              k: int | None = None) -> list[str]:
        if not candidates:
            return []
        pop = self.population
        # The ranking's one id resolution: the clock is asked by index.
        idx = pop.indices_of(candidates)
        lex = pop.lex_rank[idx]
        durations = np.asarray(durations_of(idx), dtype=np.float64)
        if self._margin_active:
            scales = np.asarray(self.jitter.scales_for(candidates),
                                dtype=np.float64)
            nz = scales > 0
            if nz.any():
                margins = np.ones(len(candidates), dtype=np.float64)
                margins[nz] = np.exp(self._margin_z * scales[nz])
                durations = durations * margins
        if self.policy == "fastest":
            ordered = np.lexsort((lex, durations))
            return [candidates[j] for j in ordered[:k].tolist()]
        # utility
        waited = version - self._last_selected[idx]
        if self.fairness_every_k is not None:
            due_mask = waited >= self.fairness_every_k
        else:
            due_mask = np.zeros(len(candidates), dtype=bool)
        due_idx = np.flatnonzero(due_mask)
        due_order = due_idx[np.lexsort((lex[due_idx], -waited[due_idx]))]
        rest_idx = np.flatnonzero(~due_mask)
        fastest_s = float(durations.min())
        imp = self._improvement[idx]
        stat_norm = float(imp.max())
        d_rest = durations[rest_idx]
        speed = np.ones(len(rest_idx), dtype=np.float64)
        positive = d_rest > 0
        speed[positive] = fastest_s / d_rest[positive]
        horizon = self.fairness_every_k or _DEFAULT_HORIZON
        recency = np.minimum(waited[rest_idx], horizon) / horizon
        score = speed + self.exploration * recency
        if self.stat_utility_weight and stat_norm > 0:
            score = score + (self.stat_utility_weight
                             * np.maximum(0.0, imp[rest_idx]) / stat_norm)
        rest_order = rest_idx[np.lexsort((lex[rest_idx], -score))]
        if deadline_s is not None:
            # Stable partition of the already-scored ordering: sorting
            # the union then splitting by feasibility equals sorting
            # the two sides independently (same key, stable sort).
            feasible = durations[rest_order] <= deadline_s
            ordered = np.concatenate(
                [due_order, rest_order[feasible], rest_order[~feasible]]
            )
        else:
            ordered = np.concatenate([due_order, rest_order])
        return [candidates[j] for j in ordered[:k].tolist()]

    # ------------------------------------------------------------------
    # Checkpoint protocol (repro.fed.runstate): arrays, not dicts — a
    # million-client checkpoint carries four ndarrays instead of
    # millions of string-keyed entries.
    def state_dict(self) -> dict:
        return {
            "last_selected": self._last_selected.copy(),
            "selections": self._selections.copy(),
            "last_loss": self._last_loss_arr.copy(),
            "loss_improvement": self._improvement.copy(),
            "selection_log": [[v, c] for v, c in self.selection_log],
        }

    def load_state_dict(self, state: dict) -> None:
        n = self.population.n
        for key in ("last_selected", "selections", "last_loss",
                    "loss_improvement"):
            arr = np.asarray(state[key])
            if arr.shape != (n,):
                raise ValueError(
                    f"checkpoint {key} has shape {arr.shape}, expected ({n},)"
                )
        self._last_selected = np.asarray(
            state["last_selected"], dtype=np.int64).copy()
        self._selections = np.asarray(
            state["selections"], dtype=np.int64).copy()
        self._last_loss_arr = np.asarray(
            state["last_loss"], dtype=np.float64).copy()
        self._improvement = np.asarray(
            state["loss_improvement"], dtype=np.float64).copy()
        self.selection_log = deque(
            ((int(v), c) for v, c in state["selection_log"]),
            maxlen=_SELECTION_LOG_MAXLEN,
        )
