"""Analytic wall-time model (paper Appendix B.1, Eqs. 1–7).

The paper evaluates system efficiency with an explicit model:

* local compute time  ``T_L = τ / ν``                      (Eq. 1)
* PS communication    ``T_PS = K·S / B``                   (Eq. 2)
* AllReduce           ``T_AR = (K−1)·S / B``               (Eq. 3)
* Ring-AllReduce      ``T_RAR = 2·S·(K−1) / (K·B)``        (Eq. 4)
* per-round total     ``T_r = T_L + T_C``                  (Eq. 5)
* training total      ``T = R·T_r``                        (Eq. 6)

with τ local steps, ν local throughput (batches/s), K clients/round,
S model megabytes, B bandwidth MB/s, R rounds.  A congestion factor
kicks in above ``channel_threshold`` parallel channels.  Server
aggregation, ``T_agg = K·S / ζ`` (Eq. 7), is negligible at the paper's
server throughput and is not modelled.

The same module also models the centralized DDP baseline used in
Table 2: per-step Ring-AllReduce over the same bandwidth, i.e.
``T_comm = steps · T_RAR`` — which is where the paper's 64×–512×
communication-reduction claims come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import WallTimeConfig
from ..utils.durable import RNG, Array, Durable, Field

__all__ = [
    "check_finite_positive",
    "JitterModel",
    "RoundTiming",
    "WallTimeModel",
    "gbps_to_mbps",
    "hop_seconds",
    "slowdown_factors",
    "steps_by_deadline",
]

VALID_TOPOLOGIES = ("ps", "ar", "rar")


def gbps_to_mbps(gbps: float) -> float:
    """Convert Gbit/s link speed to MB/s payload rate."""
    return gbps * 1000.0 / 8.0


def hop_seconds(nbytes: int, gbps: float) -> float:
    """Transfer time of ``nbytes`` over a single link of ``gbps`` Gbit/s.

    Used for the edge→root backhaul hop in hierarchical federation,
    where the payload is the already-compressed wire message rather
    than the raw model size Eq. 2 assumes.
    """
    if gbps <= 0:
        raise ValueError("link bandwidth must be positive")
    return nbytes * 8.0 / (gbps * 1e9)


def check_finite_positive(name: str, values) -> np.ndarray:
    """The one rule for every rate and slowdown factor the clock is
    built from: finite and > 0 (a NaN rate predicts a NaN cycle for
    every client, and a ranking's partition head needs finite keys).
    Returns ``values`` as float64; a ``ValueError`` names ``name``."""
    values = np.asarray(values, dtype=np.float64)
    bad = ~(np.isfinite(values) & (values > 0))
    if bad.any():
        raise ValueError(
            f"{name} must be finite and > 0, got {values[bad][0]}")
    return values


def slowdown_factors(rng: np.random.Generator, spread: float,
                     n: int) -> np.ndarray:
    """``n`` per-client slowdown factors drawn log-uniformly from
    ``[1, spread]`` — the one straggler draw every heterogeneous
    federation (per client or per cohort archetype, either plane)
    takes.  A spread of 1 is exactly ones and consumes no RNG."""
    if spread < 1.0:
        raise ValueError("spreads must be >= 1 (1 = homogeneous)")
    if spread == 1.0:
        return np.ones(n, dtype=np.float64)
    return np.exp(rng.uniform(0.0, np.log(spread), size=n))


def steps_by_deadline(planned: np.ndarray, compute_s: np.ndarray,
                      comm_s: np.ndarray, duration_s: np.ndarray,
                      deadline_s: float) -> np.ndarray:
    """Whole local steps each cycle finishes *and uploads* within
    ``deadline_s`` — the deadline rule, for a whole wave at once.

    A cycle that fits (``duration_s <= deadline_s``) delivers all its
    ``planned`` steps.  A late one is judged on its realized (possibly
    jittered) timeline: ``compute_s``/``comm_s`` are the unjittered
    split, ``duration_s`` what the cycle really takes; the download
    and upload keep their share, training stops early enough for the
    upload to land at the deadline, and what is left is the salvageable
    prefix, at most ``planned - 1`` steps and 0 when not even one fits.
    """
    planned = np.asarray(planned, dtype=np.int64)
    total = compute_s + comm_s
    with np.errstate(divide="ignore", invalid="ignore"):
        realized = duration_s / total  # jitter factor of each cycle
        per_step = compute_s * realized / planned
        budget = deadline_s - comm_s * realized
        prefix = np.minimum(planned - 1, np.floor(budget / per_step))
    cuttable = (total > 0) & (compute_s > 0) & (budget > 0) & (per_step > 0)
    prefix = np.where(cuttable, prefix, 0.0).astype(np.int64)
    return np.where(duration_s > deadline_s, prefix, planned)


@dataclass(frozen=True)
class RoundTiming:
    """Timing breakdown of a single federated round.

    ``overlapped`` models Appendix B.2's communication offloading: the
    client hands the upload to a background process and returns to
    compute, so a round costs ``max(T_L, T_C)`` instead of their sum.
    """

    compute_s: float
    comm_s: float
    overlapped: bool = False

    @property
    def total_s(self) -> float:
        if self.overlapped:
            return max(self.compute_s, self.comm_s)
        return self.compute_s + self.comm_s

    @property
    def comm_fraction(self) -> float:
        return self.comm_s / self.total_s if self.total_s > 0 else 0.0


class JitterModel(Durable):
    """Seeded multiplicative lognormal noise on per-cycle durations.

    The deterministic wall-time model makes a borderline client's fate
    binary: its cycle either always fits a deadline or never does.
    Real federations are noisier — thermal throttling, shared links,
    background load — so each dispatched pull–train–push cycle draws a
    factor ``exp(N(0, scale))`` (median 1, lognormal) that scales its
    duration.  With jitter a borderline client is *probabilistically*
    dropped, which is what makes deadline-aware selection a statistical
    rather than a combinatorial problem.

    ``scale`` is either one float for the whole federation or a
    mapping ``client_id → scale`` — hot phone-class devices are far
    noisier than racked silo hardware, so their deadlines deserve a
    wider distribution.  Unlisted clients are noiseless.

    ``scale = 0`` (scalar, per-client entry, or unlisted client) is
    the exact identity: :meth:`factor` returns 1.0 without consuming
    any RNG state, so an unjittered run — and every noiseless client
    inside a mixed federation — is reproduced bit-exactly (a tested
    regression anchor).

    Draws are consumed in dispatch order, which the async engine
    serializes — histories are rerun-identical for any ``max_workers``;
    a resumed run continues the stream where the crashed one stopped.
    """

    _STATE = (Field("rng", RNG, "_rng"),)

    def __init__(self, scale: float | dict[str, float] = 0.0, seed: int = 0):
        if isinstance(scale, dict):
            for cid, s in scale.items():
                if s < 0:
                    raise ValueError(
                        f"jitter scale for client {cid!r} must be "
                        f"non-negative, got {s}"
                    )
            self.scale = dict(scale)
        else:
            if scale < 0:
                raise ValueError(
                    f"jitter scale must be non-negative, got {scale}")
            self.scale = scale
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def scale_for(self, client_id: str | None) -> float:
        """The lognormal sigma applied to this client's cycles."""
        if isinstance(self.scale, dict):
            if client_id is None:
                return 0.0
            return self.scale.get(client_id, 0.0)
        return self.scale

    def factor(self, client_id: str | None = None) -> float:
        """Multiplicative duration factor for the next cycle."""
        scale = self.scale_for(client_id)
        if scale == 0.0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, scale)))

    def scales_for(self, client_ids: list[str]) -> np.ndarray:
        """Per-client sigmas as one array (RNG untouched)."""
        if isinstance(self.scale, dict):
            return np.array([self.scale.get(c, 0.0) for c in client_ids],
                            dtype=np.float64)
        return np.full(len(client_ids), float(self.scale), dtype=np.float64)

    def factors(self, client_ids: list[str]) -> np.ndarray:
        """Batch :meth:`factor` for one dispatch wave, in order.

        Bit-exact vs the scalar loop: zero-scale clients consume no
        RNG and return exactly 1.0, and ``Generator.normal`` with a
        sigma *array* draws the same deviates in the same order as the
        equivalent sequence of scalar calls.
        """
        scales = self.scales_for(client_ids)
        out = np.ones(len(client_ids), dtype=np.float64)
        nz = np.flatnonzero(scales)
        if nz.size:
            out[nz] = np.exp(self._rng.normal(0.0, scales[nz]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JitterModel(scale={self.scale}, seed={self.seed})"


class WallTimeModel(Durable):
    """Evaluate Eqs. 1–7 for a given hardware/bandwidth configuration.

    Beyond the paper's equipollent-client assumption, the model can
    carry **per-client heterogeneity**: ``population`` (a
    :class:`~repro.fed.population.ClientPopulation`) supplies each
    client's compute and bandwidth slowdown factor (``1.0`` = nominal,
    ``4.0`` = four times slower compute / link).  Without a population
    every client is nominal, so both the per-client timings
    (:meth:`client_timing`, the asynchronous engine's event clock) and
    the barrier timing (:meth:`cohort_timing`, used by the synchronous
    engine) are exactly Eqs. 1–5 as published.
    """

    def __init__(self, config: WallTimeConfig, population=None):
        for name in ("throughput", "bandwidth_mbps", "model_mb"):
            check_finite_positive(f"WallTimeConfig.{name}",
                                  getattr(config, name))
        self.config = config
        self.population = population

    # Run state: the population's per-client factors.  They are drawn
    # once at construction, so they are reproducible from the config
    # seed — persisting them guards a resumed run against seed/config
    # drift rather than against lost RNG state.  Every client nominal
    # (no population): nothing is written.
    _STATE = tuple(
        Field(key, Array(lambda f, key=key: check_finite_positive(
            f"checkpoint {key}", f)), f"_{key}", omit=True)
        for key in ("compute_factors", "bandwidth_factors"))

    _compute_factors = property(
        lambda self: getattr(self.population, "compute_factors", None),
        lambda self, f: setattr(self.population, "compute_factors", f))
    _bandwidth_factors = property(
        lambda self: getattr(self.population, "bandwidth_factors", None),
        lambda self, f: setattr(self.population, "bandwidth_factors", f))

    def compute_factor(self, client_id: str) -> float:
        return float(self._factor_arrays([client_id])[0][0])

    def bandwidth_factor(self, client_id: str) -> float:
        return float(self._factor_arrays([client_id])[1][0])

    def _factor_arrays(self, client_ids: "Sequence[str] | np.ndarray"
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(compute, bandwidth) slowdown factors as arrays, in order.
        ``client_ids`` is a sequence of ids or the population index
        array a scheduler's ranking already resolved."""
        if self.population is None:
            ones = np.ones(len(client_ids), dtype=np.float64)
            return ones, ones
        idx = (client_ids if isinstance(client_ids, np.ndarray)
               else self.population.indices_of(client_ids))
        return (self.population.compute_factors[idx],
                self.population.bandwidth_factors[idx])

    def client_compute_comm_arrays(
            self, client_ids: "Sequence[str] | np.ndarray",
            local_steps: "int | np.ndarray") -> tuple[np.ndarray, np.ndarray]:
        """Batch :meth:`client_timing`: per-client (compute_s, comm_s)
        arrays, elementwise bit-exact vs the scalar path.
        ``local_steps`` may be a scalar or a per-client array (the
        adaptive-steps case)."""
        cf, bf = self._factor_arrays(client_ids)
        compute = (np.asarray(local_steps, dtype=np.float64)
                   / self.config.throughput) * cf
        comm = 2.0 * self.config.model_mb / (self.config.bandwidth_mbps / bf)
        return compute, comm

    def adaptive_steps_array(self, client_ids: "Sequence[str] | np.ndarray",
                             nominal_steps: int) -> np.ndarray:
        """Batch :meth:`adaptive_local_steps` (``np.rint`` rounds
        half-to-even exactly like Python's ``round``)."""
        if nominal_steps < 1:
            raise ValueError("nominal_steps must be >= 1")
        cf, _ = self._factor_arrays(client_ids)
        scaled = np.rint(nominal_steps / cf)
        return np.clip(scaled, 1, nominal_steps).astype(np.int64)

    def adaptive_local_steps(self, client_id: str, nominal_steps: int) -> int:
        """τ scaled down by the client's compute slowdown (min 1 step).

        A client ``f`` times slower than nominal trains ``τ / f`` steps
        so its cycle costs roughly the nominal client's Eq. 1 time —
        the knob behind the async engine's ``adaptive_local_steps``.
        The result is clamped to ``[1, nominal_steps]``: faster-than-
        nominal clients (factors < 1) keep exactly ``nominal_steps``
        rather than overrunning the globally synchronized LR-schedule
        window of their round.
        """
        if nominal_steps < 1:
            raise ValueError("nominal_steps must be >= 1")
        scaled = int(round(nominal_steps / self.compute_factor(client_id)))
        return max(1, min(nominal_steps, scaled))

    # ------------------------------------------------------------------
    # Equation 1
    # ------------------------------------------------------------------
    def local_compute_s(self, local_steps: int) -> float:
        """T_L = τ / ν; independent of K (clients run in parallel)."""
        if local_steps < 0:
            raise ValueError("local_steps must be non-negative")
        return local_steps / self.config.throughput

    # ------------------------------------------------------------------
    # Equations 2–4
    # ------------------------------------------------------------------
    def _effective_bandwidth(self, channels: int) -> float:
        """Bandwidth after congestion scaling for > θ channels.

        ``channels`` is the number of concurrent streams sharing the
        bottleneck endpoint: the server's fan-in for PS, a worker's
        peer count for AR, and the two ring neighbours for RAR.
        """
        bw = self.config.bandwidth_mbps
        threshold = self.config.channel_threshold
        if channels > threshold:
            bw = bw * threshold / channels
        return bw

    def comm_s(self, topology: str, clients: int) -> float:
        """Per-round communication time for ``clients`` participants."""
        if topology not in VALID_TOPOLOGIES:
            raise ValueError(f"unknown topology {topology!r}")
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if clients == 1:
            return 0.0  # single-client: no synchronization needed
        s = self.config.model_mb
        if topology == "ps":
            b = self._effective_bandwidth(clients)
            return clients * s / b
        if topology == "ar":
            b = self._effective_bandwidth(clients - 1)
            return (clients - 1) * s / b
        b = self._effective_bandwidth(2)
        return 2.0 * s * (clients - 1) / (clients * b)

    # ------------------------------------------------------------------
    # Equations 5 and 6
    # ------------------------------------------------------------------
    def round_timing(self, topology: str, clients: int,
                     local_steps: int, overlap: bool = False) -> RoundTiming:
        """T_r = T_L + T_C (Eq. 5); ``overlap=True`` applies the
        Appendix B.2 communication-offloading optimization."""
        return RoundTiming(
            compute_s=self.local_compute_s(local_steps),
            comm_s=self.comm_s(topology, clients),
            overlapped=overlap,
        )

    def client_timing(self, client_id: str, local_steps: int,
                      overlap: bool = False) -> RoundTiming:
        """Timing of one client's pull–train–push cycle on *its own*
        hardware and link (the asynchronous engine's event clock).

        Compute is Eq. 1 scaled by the client's compute slowdown; the
        exchange is a dedicated download + upload of the full model
        over the client's link (``2·S/B_i``) — no collective, so no
        congestion term.
        """
        compute = self.local_compute_s(local_steps) * self.compute_factor(client_id)
        bw = self.config.bandwidth_mbps / self.bandwidth_factor(client_id)
        comm = 2.0 * self.config.model_mb / bw
        return RoundTiming(compute_s=compute, comm_s=comm, overlapped=overlap)

    def cohort_timing(self, topology: str, client_ids: list[str],
                      local_steps: int, overlap: bool = False) -> RoundTiming:
        """Synchronous-barrier timing of a concrete cohort: the compute
        barrier is the *slowest* client's Eq. 1, and the collective is
        bottlenecked by the slowest link.  With no per-client factors
        this equals :meth:`round_timing` for ``len(client_ids)``."""
        if not client_ids:
            raise ValueError("cohort_timing needs at least one client")
        cf, bf = self._factor_arrays(client_ids)
        compute = self.local_compute_s(local_steps) * float(cf.max())
        comm = self.comm_s(topology, len(client_ids)) * float(bf.max())
        return RoundTiming(compute_s=compute, comm_s=comm, overlapped=overlap)

    def total_wall_time_s(self, topology: str, clients: int,
                          local_steps: int, rounds: int) -> float:
        """T = R · T_r (Eq. 6)."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        return rounds * self.round_timing(topology, clients, local_steps).total_s

    # ------------------------------------------------------------------
    # Centralized DDP baseline (Table 2 comparison)
    # ------------------------------------------------------------------
    def centralized_timing(self, workers: int, steps: int,
                           throughput: float | None = None) -> RoundTiming:
        """Centralized DDP over the same links: Ring-AllReduce of the
        full model EVERY optimizer step."""
        nu = throughput if throughput is not None else self.config.throughput
        if nu <= 0:
            raise ValueError("throughput must be positive")
        compute = steps / nu
        comm = steps * self.comm_s("rar", workers)
        return RoundTiming(compute_s=compute, comm_s=comm)
