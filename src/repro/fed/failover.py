"""Server failover: versioned RunState replication over the Link.

PR 5 made the federation crash-consistent against *disk*: every
component serializes into a RunState artifact and a resumed run
replays bit-exactly.  This module takes the carried-over follow-up to
its production conclusion (ROADMAP item 3): the root server streams
the same versioned state tree to standby **replicas over the wire**
(:func:`~repro.utils.serialization.pack_tree` behind zlib, shipped by
:meth:`Link.send_blob` and metered like any other payload), a seeded
:class:`FailureModel` kills the server at a round boundary, and a
surviving replica **promotes** with bounded staleness:

    updates lost per crash ≤ replicate_every (= 1 by default, i.e.
    at most the round that died before its snapshot shipped)

measured directly by :class:`FailoverController` as
``updates_lost`` (server updates rolled back per crash) and
``recovery_s`` (promote + restore wall time).  With no surviving
replica the controller cold-restarts from the version-0 snapshot —
nothing ever aborts the run.

Because restore + deterministic replay is the PR 5 guarantee, a run
that crashes and promotes finishes with the **same history** as the
uninterrupted run (regression-tested) — the crash costs wall time and
replayed rounds, never correctness.

The crash stream itself is *environment*, not state: it is never
replicated or rewound, so a restored server sees fresh draws (and a
scripted crash fires exactly once).
"""

from __future__ import annotations

import time

from ..obs.trace import NULL_TRACER
from ..utils.serialization import deflate, pack_tree, unpack_tree
from .faults import FailureModel
from .link import Link

__all__ = ["ReplicaSet", "FailoverController"]


class ReplicaSet:
    """Standby replicas holding versioned snapshots of one server.

    ``replicate`` ships the serialized tree to every replica over the
    Link (senders/receivers ``"<server_id>"`` → ``"<server_id>/
    replica<i>"``, so replication traffic is metered like any other
    wire payload).  ``promote`` asks the crash model which replicas
    survived the event that killed the primary and returns the newest
    surviving snapshot.
    """

    def __init__(self, server_id: str, replicas: int, link: Link):
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        self.server_id = server_id
        self.n_replicas = replicas
        self.link = link
        self._held: list[tuple[int, bytes] | None] = [None] * replicas

    def replicate(self, version: int, tree) -> None:
        """Stream snapshot ``version`` to every replica."""
        if not self.n_replicas:
            return
        container = pack_tree(tree)
        payload, raw = deflate(container), len(container)
        for i in range(self.n_replicas):
            message = self.link.send_blob(
                payload, sender=self.server_id,
                receiver=f"{self.server_id}/replica{i}",
                metadata={"version": version}, raw_nbytes=raw)
            held, _ = self.link.recv_blob(message, raw_nbytes=raw)
            self._held[i] = (version, held)

    def promote(self, failure_model: FailureModel | None,
                at_version: int) -> tuple[int, dict] | None:
        """Newest snapshot on a replica that survived the crash at
        ``at_version`` (crash keys ``"<server_id>/replica<i>"``), or
        ``None`` if no replica holds one."""
        best: tuple[int, bytes] | None = None
        for i, held in enumerate(self._held):
            if held is None:
                continue
            if (failure_model is not None and failure_model.should_fail(
                    f"{self.server_id}/replica{i}", at_version)):
                self._held[i] = None  # correlated failure took it too
                continue
            if best is None or held[0] > best[0]:
                best = held
        if best is None:
            return None
        return best[0], unpack_tree(best[1])

    @property
    def held_versions(self) -> list[int | None]:
        return [held[0] if held is not None else None for held in self._held]


class FailoverController:
    """Run an engine to completion through server crashes.

    Plugs into the engine's round loop as its boundary hook
    (:meth:`~repro.fed.engine.RoundEngine.run`): after every server
    update the crash model draws for the root (key ``server_id``); on
    a crash the controller promotes the newest surviving replica (or
    cold-restarts from the version-0 snapshot), measures the staleness
    and recovery time, and the loop replays deterministically from the
    restored history.  Without crashes and with ``replicas=0`` the
    hook does nothing and the run is ``engine.run`` round for round.

    Parameters
    ----------
    engine:
        A sync or async round engine (one ``run_round`` call = one
        server update for both).
    failure_model:
        The seeded server-crash model.  Share the instance with the
        :class:`~repro.fed.edge.EdgeTier` so root, edge and replica
        draws come from one deterministic stream.
    replicas / replicate_every:
        Standby count and snapshot cadence in server updates.  The
        staleness bound per crash is ``replicate_every`` (the updates
        since the last shipped snapshot).
    """

    def __init__(self, engine, failure_model: FailureModel | None = None,
                 replicas: int = 0, replicate_every: int = 1,
                 link: Link | None = None, server_id: str = "root",
                 tracer=None):
        if replicate_every < 1:
            raise ValueError("replicate_every must be >= 1")
        self.engine = engine
        self.failure_model = failure_model
        self.link = link if link is not None else Link()
        self.replica_set = ReplicaSet(server_id, replicas, self.link)
        self.replicate_every = replicate_every
        self.server_id = server_id
        self.crashes = 0
        self.updates_lost: list[int] = []
        self.recovery_s: list[float] = []
        self._cold: tuple[int, bytes] | None = None
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    def _recover(self, completed: int) -> None:
        """Promote (or cold-restart) after a crash at ``completed``
        server updates, restoring the engine to the snapshot."""
        started = time.perf_counter()
        self.crashes += 1
        self.tracer.instant_sim(
            "server", "server crash", self.engine.simulated_wall_time_s,
            server=self.server_id, at_update=completed)
        with self.tracer.host_span("failover", "recover",
                                   at_update=completed):
            promoted = self.replica_set.promote(self.failure_model, completed)
            if promoted is None:
                version, payload = self._cold
                tree = unpack_tree(payload)
            else:
                version, tree = promoted
            self.engine.load_state_dict(tree)
        self.updates_lost.append(completed - version)
        self.recovery_s.append(time.perf_counter() - started)
        meters = self.tracer.meters
        meters.counter("failover/crashes").inc()
        meters.counter("failover/updates_lost").inc(completed - version)
        meters.histogram("failover/recovery_s").observe(self.recovery_s[-1])
        self.tracer.instant_sim(
            "server", "promotion", self.engine.simulated_wall_time_s,
            resumed_from=version, promoted=promoted is not None)

    def _boundary(self, completed: int) -> bool:
        """The crash/replicate step after server update ``completed``;
        True when a crash rolled the engine back."""
        # The crash lands at the round boundary, before this update's
        # snapshot ships — a replicated server at cadence 1 therefore
        # loses exactly the round that died (the ≤ replicate_every
        # staleness bound).
        if (self.failure_model is not None
                and self.failure_model.should_fail(
                    self.server_id, completed - 1)):
            self._recover(completed)
            return True
        if ((completed - self._cold[0]) % self.replicate_every == 0
                and self.replica_set.n_replicas > 0):
            with self.tracer.host_span("failover", "replicate",
                                       version=completed):
                self.replica_set.replicate(completed,
                                           self.engine.state_dict())
            self.tracer.meters.counter("failover/replications").inc()
        return False

    def run(self, rounds: int, local_steps: int,
            target_perplexity: float | None = None):
        """Drive ``rounds`` more server updates through crashes.
        Returns the engine's history."""
        # Version-0 snapshot: packed immediately (state_dict references
        # the engine's live arrays) so a crash before the first
        # replication still has something to restart from.
        self._cold = (len(self.engine.history),
                      pack_tree(self.engine.state_dict()))
        return self.engine.run(rounds, local_steps, target_perplexity,
                               boundary=self._boundary)

    # ------------------------------------------------------------------
    @property
    def updates_lost_per_crash(self) -> float:
        if not self.crashes:
            return 0.0
        return sum(self.updates_lost) / self.crashes

    def report(self) -> dict:
        return {
            "crashes": self.crashes,
            "updates_lost": list(self.updates_lost),
            "updates_lost_per_crash": self.updates_lost_per_crash,
            "recovery_s": list(self.recovery_s),
            "replication_wire_bytes": self.link.bytes_sent,
            "replication_raw_bytes": self.link.raw_bytes_sent,
            "replica_versions": self.replica_set.held_versions,
        }
