"""Hierarchical federation: region-level edge aggregators.

The flat engines merge every client delta at one root server.  This
module inserts an intermediate tier (ROADMAP item 3, the paper's
Figure-2 federation shape): each **region** aggregates its cohort's
deltas locally and forwards one regional delta to the root over a
shared backhaul :class:`~repro.fed.link.Link`.  Everything composes
from the existing stacks unchanged:

* **per-hop codec chains** — the backhaul Link carries its own uplink
  codec (``tier_compression``); regional senders are distinct channel
  keys (``"edge:<name>"``), so stochastic codec stages get independent
  per-region RNG streams exactly like per-client uplinks do;
* **per-hop error feedback** — a second :class:`ErrorFeedback` keyed
  by the same ``"edge:<name>"`` strings banks what the backhaul codec
  loses, with the usual conservation invariant;
* **byte metering** — the backhaul Link's raw/wire counters feed the
  ``backhaul_*`` fields of :class:`~repro.utils.metrics.RoundRecord`;
* **crash injection** — a seeded :class:`FailureModel` can kill an
  edge server mid-merge (keys ``("edge:<name>", round)``).  With a
  replica standing by the regional delta is re-forwarded (the hop is
  paid twice, nothing is lost); without one the region's client
  updates are gone and the hop's EF residual dies with the server.

**Bit-exactness anchor:** a 1-region tier whose only region is the
root site (``gbps=None`` — loopback, no codec/EF/metering/crash) is
the *identity tier*: ``aggregate`` reduces to the exact flat-engine
merge, so flat histories reproduce bit-for-bit (regression-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..compress.error_feedback import ErrorFeedback
from ..net.topology import PAPER_REGIONS, paper_topology
from ..net.walltime import hop_seconds
from ..utils.durable import COMPONENT, INT, Durable, Field
from ..utils.serialization import StateDict, tree_mean
from .faults import FailureModel
from .link import Link

__all__ = ["Region", "EdgeTier", "EdgeReport", "paper_regions", "round_robin_assign"]


@dataclass(frozen=True)
class Region:
    """One edge-aggregation site.

    ``gbps`` is the edge→root backhaul bandwidth; ``None`` marks the
    root-site region (co-located with the root server): its cohort
    delta never touches the backhaul — no codec, no error feedback, no
    bytes, no hop time, and no crash draw (killing the root site *is*
    killing the root, which is the failover controller's job).
    """

    name: str
    gbps: float | None = None

    def __post_init__(self) -> None:
        if self.gbps is not None and self.gbps <= 0:
            raise ValueError(f"region {self.name!r}: gbps must be positive")


@dataclass
class EdgeReport:
    """Per-merge backhaul accounting, popped by the engine into the
    round's :class:`RoundRecord`."""

    wire_bytes: int = 0
    raw_bytes: int = 0
    hop_s: float = 0.0
    updates_lost: int = 0
    crashes: int = 0
    #: Per-region detail for the flight recorder: ``(region name,
    #: hop seconds, wire bytes)`` per forwarded delta, and the names
    #: of regions whose edge server crashed this merge.  The engine's
    #: RoundRecord keeps only the scalars above; these lists feed
    #: backhaul spans / crash markers when tracing is enabled.
    region_hops: list = field(default_factory=list)
    crashed_regions: list = field(default_factory=list)


def paper_regions(n: int) -> list[Region]:
    """The paper's federation shape scaled to ``n`` regions.

    Region 0 is England (the root site, loopback); further regions
    take their England-backhaul bandwidth from
    :func:`~repro.net.topology.paper_topology` and cycle the paper's
    region names with a numeric suffix past the fifth.
    """
    if n < 1:
        raise ValueError("need at least one region")
    topo = paper_topology()
    regions = [Region(PAPER_REGIONS[0], None)]
    others = PAPER_REGIONS[1:]
    for i in range(1, n):
        base = others[(i - 1) % len(others)]
        name = base if i < len(PAPER_REGIONS) else f"{base}-{(i - 1) // len(others)}"
        regions.append(Region(name, topo.bandwidth(PAPER_REGIONS[0], base)))
    return regions


def round_robin_assign(client_ids: list[str], n_regions: int) -> Callable[[str], int]:
    """Deterministic region assignment: sorted ids, round-robin."""
    table = {cid: i % n_regions for i, cid in enumerate(sorted(client_ids))}
    return table.__getitem__


class EdgeTier(Durable):
    """Region-level aggregation layer between the clients and the root.

    Plugged into a :class:`RoundEngine` as ``edge_tier``; the engine
    routes its merge through :meth:`aggregate` instead of the flat
    ``tree_mean``.

    Parameters
    ----------
    regions:
        The edge sites.  Exactly the regions with ``gbps`` set pay the
        backhaul; a ``gbps=None`` region is the root site (loopback).
    assign:
        ``client_id -> region index`` (stable across rounds).
    backhaul:
        The shared edge→root Link.  Its uplink codec (if any) is the
        per-hop recompression; senders are ``"edge:<name>"``.
    error_feedback:
        Optional per-hop EF for a lossy backhaul codec.
    failure_model:
        Optional seeded crash injection for edge servers.  Share one
        instance with the :class:`~repro.fed.failover.FailoverController`
        so all server-crash draws come from a single RNG stream.
    replicated:
        Whether each edge server has a standby replica: a crashed
        region then re-forwards (double hop) instead of losing its
        cohort's updates.

    Run state: the backhaul meters and per-hop residuals must survive a
    resume for tiered replays to stay bit-exact.  The server-crash
    FailureModel is deliberately NOT serialized: crashes are
    environment, not run state — rewinding the crash stream on a
    failover restore would make the promoted server replay its own
    death forever.
    """

    _STATE = (Field("backhaul", COMPONENT),
              Field("total_updates_lost", INT), Field("total_crashes", INT),
              Field("total_recoveries", INT),
              Field("error_feedback", COMPONENT, omit=True))

    def __init__(self, regions: list[Region], assign: Callable[[str], int],
                 backhaul: Link | None = None,
                 error_feedback: ErrorFeedback | None = None,
                 failure_model: FailureModel | None = None,
                 replicated: bool = False):
        if not regions:
            raise ValueError("need at least one region")
        if len({r.name for r in regions}) != len(regions):
            raise ValueError("duplicate region names")
        if any(r.gbps is not None for r in regions) and backhaul is None:
            raise ValueError("non-loopback regions need a backhaul Link")
        self.regions = list(regions)
        self.assign = assign
        self.backhaul = backhaul if backhaul is not None else Link()
        self.error_feedback = error_feedback
        self.failure_model = failure_model
        self.replicated = replicated
        self._report = EdgeReport()
        # Run-level totals for reports (never reset by pop_report).
        self.total_updates_lost = 0
        self.total_crashes = 0
        self.total_recoveries = 0

    # ------------------------------------------------------------------
    def _forward(self, key: str, region: Region, delta: StateDict,
                 version: int, sends: int) -> StateDict:
        """Ship one regional delta over the backhaul ``sends`` times
        (>1 when a replica re-forwards after a crash) and return what
        the root decoded."""
        ef = self.error_feedback
        outbound = delta if ef is None else ef.apply(key, delta, version=version)
        decoded = outbound
        hop = 0.0
        wire = 0
        for _ in range(sends):
            message = self.backhaul.send_state(
                outbound, sender=key, receiver="root",
                metadata={"version": version})
            decoded, _ = self.backhaul.recv_state(message)
            wire += message.nbytes
            hop += hop_seconds(message.nbytes + Link.METADATA_OVERHEAD,
                               region.gbps)
        # Regions transfer in parallel; the merge waits for the
        # slowest hop (a re-forwarding region pays both sends serially).
        self._report.hop_s = max(self._report.hop_s, hop)
        self._report.region_hops.append((region.name, hop, wire))
        if ef is not None:
            ef.record(key, outbound, decoded, version=version)
        return decoded

    def aggregate(self, client_ids: list[str], deltas: list[StateDict],
                  weights: list[float] | None, version: int) -> StateDict:
        """Hierarchical merge: per-region ``tree_mean``, backhaul hop,
        then the root's weighted merge of the regional deltas.

        The root merge special-cases a single surviving region to
        return its delta unchanged — with the identity tier that makes
        the whole call bit-exact against the flat ``tree_mean``.
        """
        groups: dict[int, list[int]] = {}
        for i, cid in enumerate(client_ids):
            ridx = self.assign(cid)
            if not 0 <= ridx < len(self.regions):
                raise ValueError(
                    f"client {cid!r} assigned to region {ridx}, "
                    f"have {len(self.regions)}")
            groups.setdefault(ridx, []).append(i)

        wire_mark = self.backhaul.uplink_wire_bytes
        raw_mark = self.backhaul.uplink_raw_bytes
        regional: list[StateDict] = []
        regional_weights: list[float] = []
        last_dropped = None  # all-crashed floor
        for ridx in sorted(groups):
            region = self.regions[ridx]
            idxs = groups[ridx]
            gdeltas = [deltas[i] for i in idxs]
            gweights = [weights[i] for i in idxs] if weights is not None else None
            rdelta = gdeltas[0] if len(gdeltas) == 1 else tree_mean(gdeltas, gweights)
            rweight = (sum(gweights) if gweights is not None else float(len(idxs)))
            if region.gbps is None:
                # Root site: loopback, delta passes through untouched.
                regional.append(rdelta)
                regional_weights.append(rweight)
                continue
            key = f"edge:{region.name}"
            crashed = (self.failure_model is not None
                       and self.failure_model.should_fail(key, version))
            if crashed:
                self._report.crashes += 1
                self._report.crashed_regions.append(region.name)
                self.total_crashes += 1
                if not self.replicated:
                    # Edge server died holding its cohort's merge: the
                    # client updates and the hop's EF residual are gone.
                    self._report.updates_lost += len(idxs)
                    self.total_updates_lost += len(idxs)
                    if self.error_feedback is not None:
                        self.error_feedback.reset(key)
                    last_dropped = (key, region, rdelta, rweight, len(idxs))
                    continue
                self.total_recoveries += 1
            # A replica re-forwards the buffered delta: same bytes and
            # hop paid a second time, nothing lost.
            regional.append(self._forward(key, region, rdelta, version,
                                          sends=2 if crashed else 1))
            regional_weights.append(rweight)

        if not regional and last_dropped is not None:
            # Every participating region crashed unreplicated.  Like
            # AvailabilityModel's never-empty floor, admit the last
            # casualty rather than hand the server an empty merge.
            key, region, rdelta, rweight, n = last_dropped
            self._report.updates_lost -= n
            self.total_updates_lost -= n
            regional.append(self._forward(key, region, rdelta, version, sends=1))
            regional_weights.append(rweight)

        self._report.wire_bytes += self.backhaul.uplink_wire_bytes - wire_mark
        self._report.raw_bytes += self.backhaul.uplink_raw_bytes - raw_mark
        if len(regional) == 1:
            return regional[0]
        return tree_mean(regional, regional_weights)

    # ------------------------------------------------------------------
    def pop_report(self) -> EdgeReport:
        """The accounting accumulated since the last pop (one round's
        worth in engine use)."""
        report, self._report = self._report, EdgeReport()
        return report
