"""Client sampling (Algorithm 1 L.4: ``C ∼ U(P, K)``).

Also models intermittent client availability (Appendix A: "the
billion-scale experiments assume intermittent client availability"),
which interacts with sampling: only available clients can be drawn,
and a round proceeds with however many are reachable.
"""

from __future__ import annotations

import numpy as np

from ..utils.durable import RNG, Durable, Field

__all__ = ["ClientSampler", "UniformSampler", "FullParticipation", "AvailabilityModel"]


class ClientSampler(Durable):
    """Base interface: pick client ids for a round.  Samplers hold no
    run state unless they carry an RNG stream."""

    def sample(self, population: list[str], round_idx: int) -> list[str]:
        raise NotImplementedError


class UniformSampler(ClientSampler):
    """Sample ``k`` clients per round uniformly without replacement."""

    _STATE = (Field("rng", RNG, "_rng"),)

    def __init__(self, k: int, seed: int = 0):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._rng = np.random.default_rng(seed)

    def sample(self, population: list[str], round_idx: int) -> list[str]:
        if not population:
            raise ValueError("empty population")
        k = min(self.k, len(population))
        idx = self._rng.choice(len(population), size=k, replace=False)
        return [population[i] for i in sorted(idx)]


class FullParticipation(ClientSampler):
    """Every client participates every round (the billion-scale runs)."""

    def sample(self, population: list[str], round_idx: int) -> list[str]:
        if not population:
            raise ValueError("empty population")
        return list(population)


class AvailabilityModel(Durable):
    """Bernoulli availability: each client is reachable each round
    with probability ``uptime`` (sporadic compute donation)."""

    _STATE = (Field("rng", RNG, "_rng"),)

    def __init__(self, uptime: float = 1.0, seed: int = 0):
        if not 0.0 < uptime <= 1.0:
            raise ValueError(f"uptime must be in (0, 1], got {uptime}")
        self.uptime = uptime
        self._rng = np.random.default_rng(seed)

    def draw_mask(self, n: int) -> np.ndarray:
        """One Bernoulli draw per client, in population order — the
        whole-population array op the vectorized plane consumes (and
        the exact RNG stream the legacy list path consumed)."""
        return self._rng.random(n) < self.uptime

    def available(self, population: list[str], round_idx: int) -> list[str]:
        if self.uptime >= 1.0:
            return list(population)
        mask = self.draw_mask(len(population))
        chosen = [c for c, m in zip(population, mask) if m]
        # Never return an empty federation: keep at least one client,
        # matching the paper's "surviving workers" partial updates.
        if not chosen:
            chosen = [population[int(self._rng.integers(len(population)))]]
        return chosen
