"""The client control plane's data: one population, one registry.

MLSYSIM's argument — model the fleet without running the fleet — only
holds when a fleet quantity has one definition, whatever the fleet's
size.  This module holds the two containers every federation is built
on, four clients or a million:

* :class:`ClientPopulation` — the one per-client table: ids, the
  id -> index mapping, the lexicographic rank that keeps array sorts
  identical to ``sorted(ids)``, the wall-time slowdown factors and the
  optional cohort map.  Ids are any unique strings: ``client{i}`` when
  generated, a user's own names when a stream dict supplies the
  corpus.  Cohort archetypes (:meth:`ClientPopulation.cohorts`) store
  O(cohorts) distinct parameters gathered out to the population.
  :class:`~repro.fed.scheduler.ClientScheduler` keeps its counters in
  arrays indexed by it and
  :class:`~repro.net.walltime.WallTimeModel` gathers its factors from
  it.
* :class:`LazyClientPool` — the one client registry: a read-through
  Mapping of client id to ``LLMClient`` that builds a client on first
  use and parks an evicted client's durable state (stream RNG
  position, counters, stateful optimizer moments) as a plain state
  dict.  The model workspace is overwritten by every broadcast, so
  evict-and-rematerialize is bit-exact by construction.  *When*
  clients are built is the only thing ``FedConfig.client_plane``
  selects: ``eager`` fills a pool as large as the population inside
  ``Photon.__init__``, ``vector`` builds on first use and evicts
  beyond ``max_live_clients``.

Bit-exactness notes baked into the array code here and in the
scheduler (each is load-bearing and covered by tests against the
scalar oracle ``tests/helpers.py::reference_rank``): ``np.exp`` over
an array equals scalar ``np.exp`` per element (but NOT libm's
``math.exp``); vectorized elementwise divide/multiply/add equal their
scalar counterparts; ``np.lexsort((lex_rank, -score))`` equals
Python's stable sort on ``(-score, client_id)`` because ``lex_rank``
*is* Python's ``str`` order; the ranking's head — ``np.partition`` to
the k-th key, then that lexsort over only the keys ``<=`` it, every
tie at the cut included — equals the full sort's first k, given
finite keys (hence finite, positive factors and rates:
:func:`~repro.net.walltime.check_finite_positive`); and
``Generator.normal(0, sigma_array)`` consumes the RNG stream exactly
like the equivalent sequence of scalar draws.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from ..net.walltime import check_finite_positive, slowdown_factors
from ..utils.durable import COMPONENT, MEMBER, PARKED, Durable, Field, Map, Opt
from .client import LLMClient

__all__ = [
    "ClientPopulation",
    "LazyClientPool",
]


class ClientPopulation:
    """Index-keyed per-client parameters plus the id mapping.

    ``ids`` is the population's size — client ``i`` is then named
    ``f"client{i}"`` — or the unique names themselves, in index order.
    ``lex_rank[i]`` is the position of client ``i`` in ``sorted(ids)``
    — the order every per-client draw and deal is made in — so array
    consumers sort by ``lex_rank`` to reproduce string-sorted orderings
    exactly.  ``compute_factors`` / ``bandwidth_factors`` are the
    wall-time slowdowns (1.0 = nominal), and ``cohort_of`` (optional)
    maps each client to its parameter archetype.
    """

    def __init__(self, ids: int | Sequence[str],
                 compute_factors: np.ndarray | None = None,
                 bandwidth_factors: np.ndarray | None = None,
                 cohort_of: np.ndarray | None = None):
        self.ids: list[str] = ([f"client{i}" for i in range(ids)]
                               if isinstance(ids, int) else list(ids))
        self.n = n = len(self.ids)
        if n < 1:
            raise ValueError(f"population size must be >= 1, got {n}")
        self._index = {cid: i for i, cid in enumerate(self.ids)}
        if len(self._index) != n:
            raise ValueError("client ids must be unique")
        # Python's own str order, not numpy's: a unicode array drops
        # trailing NULs, so "a\x00" and "a" would change places.
        order = sorted(range(n), key=self.ids.__getitem__)
        self.sorted_ids: list[str] = [self.ids[i] for i in order]
        self.lex_rank = np.empty(n, dtype=np.int64)
        self.lex_rank[order] = np.arange(n)
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
        return check_finite_positive("slowdown factors", factors).copy()

    # ------------------------------------------------------------------
    @classmethod
    def heterogeneous(cls, ids: int | Sequence[str],
                      compute_spread: float = 1.0,
                      bandwidth_spread: float = 1.0,
                      seed: int = 0) -> "ClientPopulation":
        """Per-client log-uniform slowdowns — the federation's one
        straggler draw, made over the lexicographically sorted ids (a
        spread of 1 is equipollent and draws nothing)."""
        pop = cls(ids)
        rng = np.random.default_rng(seed)
        order = np.argsort(pop.lex_rank)  # indices in sorted-id order
        pop.compute_factors[order] = slowdown_factors(rng, compute_spread, pop.n)
        pop.bandwidth_factors[order] = slowdown_factors(rng, bandwidth_spread, pop.n)
        return pop

    @classmethod
    def cohorts(cls, ids: int | Sequence[str], k: int,
                compute_spread: float = 1.0, bandwidth_spread: float = 1.0,
                seed: int = 0) -> "ClientPopulation":
        """``k`` timing archetypes shared round-robin across the
        population (client ``i`` belongs to cohort ``i % k``): the
        O(cohorts) parameter memory model.  Not comparable draw-for-
        draw with :meth:`heterogeneous` — cohort mode is the
        fleet-scale regime, not a per-client anchor."""
        pop = cls(ids)
        if not 1 <= k <= pop.n:
            raise ValueError(f"cohorts must be in [1, {pop.n}], got {k}")
        rng = np.random.default_rng(seed)
        pop.cohort_of = np.arange(pop.n, dtype=np.int64) % k
        pop.compute_factors = slowdown_factors(
            rng, compute_spread, k)[pop.cohort_of]
        pop.bandwidth_factors = slowdown_factors(
            rng, bandwidth_spread, k)[pop.cohort_of]
        return pop

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


class LazyClientPool(Mapping, Durable):
    """Read-through client map: materialize on access, evict to state.

    At most ``max_live`` :class:`~repro.fed.client.LLMClient` objects
    (model workspace + optimizer + streams) exist at once; everyone
    else is either *untouched* (recreatable from the deterministic
    ``factory``) or *parked* as the plain state dict that
    ``RunState`` would persist anyway.  Training code holds a client
    through :meth:`lease`, which pins it against eviction for the
    duration (a batched wave leases the clients of one stacked chunk at
    a time; the lock keeps the registry consistent for callers on
    several threads).

    Eviction order is least-recently-used, and eviction is bit-exact:
    a client's durable state is exactly its ``state_dict()`` (the
    model workspace is overwritten by every broadcast before
    training), so park + rematerialize + load is indistinguishable
    from having kept the object alive.

    Run state: only *touched* clients are written — an untouched
    client is recreatable from the factory, which is exactly the
    pool's memory argument applied to the checkpoint artifact.  A
    loaded client's state is checked against the client the factory
    builds for its id, and parked; that build (up to ``max_live`` of
    them) is the one the client's first materialization uses, so a
    restore builds no client twice.  A post-processor that draws
    randomness is written once, under the id of the first client built
    with it, however many clients share it (a parked client's state
    would hold a stale copy); it is omitted when there is none.
    """

    _STATE = (Field("touched", Map(PARKED, keys=MEMBER), "_touched",
                    live=lambda pool: pool._template),
              Field("post_process", Opt(Map(COMPONENT, keys=MEMBER)),
                    "_random_post", omit=True,
                    live=lambda pool: lambda cid: pool._template(cid).post_process))

    def __init__(self, population: ClientPopulation,
                 factory: Callable[[str], LLMClient], max_live: int = 64):
        if max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {max_live}")
        self.population = population
        self._factory = factory
        self.max_live = max_live
        self._live: OrderedDict[str, LLMClient] = OrderedDict()
        self._parked: dict[str, dict] = {}
        # Clients a restore built to check their state against, kept
        # (up to max_live) for their first materialization.
        self._checked: dict[str, LLMClient] = {}
        self._leases: dict[str, int] = {}
        self._random_post: dict | None = None
        self._lock = threading.Lock()
        #: every build, first or not; ``rematerializations`` counts the
        #: rebuilds of a parked (evicted) client alone.
        self.materializations = 0
        self.rematerializations = 0
        self.evictions = 0
        self.hits = 0

    @classmethod
    def of(cls, clients: "Mapping[str, LLMClient]") -> "LazyClientPool":
        """The registry an engine trains from: a pool as it is, a plain
        mapping of built clients as a pool that is already full and
        never evicts."""
        if isinstance(clients, cls):
            return clients
        pool = cls(ClientPopulation(list(clients)), dict(clients).__getitem__,
                   max_live=len(clients))
        pool._live.update(clients)
        for client in clients.values():
            pool._note(client)
        return pool

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

    # ------------------------------------------------------------------
    def _note(self, client: LLMClient) -> LLMClient:
        """Keep a newly built client's post-processor in the run state
        if it draws randomness and is not kept already."""
        post = getattr(client, "post_process", None)
        kept = self._random_post or {}
        if getattr(post, "random", False) and all(post is not p for p in kept.values()):
            self._random_post = {**kept, client.client_id: post}
        return client

    def _materialize_locked(self, client_id: str) -> LLMClient:
        client = self._live.get(client_id)
        if client is not None:
            self._live.move_to_end(client_id)
            self.hits += 1
            return client
        self.population.index_of(client_id)  # validate before building
        client = (self._checked.pop(client_id, None)
                  or self._note(self._factory(client_id)))
        parked = self._parked.pop(client_id, None)
        if parked is not None:
            client.load_state_dict(parked)
            self.rematerializations += 1
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
        (re-entrant: nested leases stack).  Acquiring evicts as
        releasing does, so while leases are held the pool keeps at most
        ``max(max_live, leased clients)`` alive."""
        with self._lock:
            client = self._materialize_locked(client_id)
            self._leases[client_id] = self._leases.get(client_id, 0) + 1
            self._evict_locked()
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

    def _scope(self) -> dict:
        return {"clients": self}

    def _template(self, client_id: str):
        """What a loaded client state is checked against: the live
        client, or a fresh build its first materialization will use."""
        client = self._live.get(client_id) or self._checked.get(client_id)
        if client is None:
            client = self._note(self._factory(client_id))
            if len(self._checked) < self.max_live:
                self._checked[client_id] = client
        return client

    @property
    def _touched(self) -> dict:
        with self._lock:
            return {**self._parked, **self._live}

    @_touched.setter
    def _touched(self, states: dict) -> None:
        with self._lock:
            self._live.clear()
            self._leases.clear()
            self._parked = states

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LazyClientPool(n={self.population.n}, "
                f"live={len(self._live)}/{self.max_live}, "
                f"parked={len(self._parked)})")
