"""Client-side update post-processing (Algorithm 1 L.27, Section 3.2).

"LLM-C applies post-processing (e.g., gradient clipping, compression,
or differential privacy noise injection) before returning updates."
Each processor transforms a pseudo-gradient state dict; ``Compose``
chains them.  The default pipeline is empty (the paper defaults to
lossless compression only, which lives in the Link).

Every local plane post-processes in the parent, once per update and in
task order (:meth:`~repro.fed.client.LLMClient.finish`), so a
processor that draws randomness draws one sequence whichever plane
trained the wave.  Its RNG is run state: such a processor says so in
``random`` and declares the RNG in ``_STATE``; the client pool keeps
each one in the run state once, however many clients share it.
"""

from __future__ import annotations

import numpy as np

from ..utils.durable import COMPONENT, RNG, Durable, Field, List
from ..utils.serialization import StateDict, tree_norm, tree_scale

__all__ = [
    "PostProcessor",
    "Compose",
    "ClipUpdate",
    "DPGaussianNoise",
    "Identity",
]


class PostProcessor(Durable):
    #: Whether the processor draws randomness (then its ``_STATE`` is
    #: run state).
    random = False

    def __call__(self, update: StateDict) -> StateDict:
        raise NotImplementedError


class Identity(PostProcessor):
    def __call__(self, update: StateDict) -> StateDict:
        return update


class Compose(PostProcessor):
    """Apply processors left to right."""

    _STATE = (Field("processors", List(COMPONENT, counted=True)),)

    def __init__(self, processors: list[PostProcessor]):
        self.processors = list(processors)
        self.random = any(getattr(p, "random", False) for p in self.processors)

    def __call__(self, update: StateDict) -> StateDict:
        for proc in self.processors:
            update = proc(update)
        return update


class ClipUpdate(PostProcessor):
    """Clip the global L2 norm of the update to ``max_norm``."""

    def __init__(self, max_norm: float):
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.max_norm = max_norm

    def __call__(self, update: StateDict) -> StateDict:
        norm = tree_norm(update)
        if norm <= self.max_norm:
            return update
        return tree_scale(update, self.max_norm / (norm + 1e-12))


class DPGaussianNoise(PostProcessor):
    """Clip-then-noise for (ε, δ)-DP-style update release.

    Clipping bounds each client's sensitivity to ``clip_norm``; the
    Gaussian noise has standard deviation
    ``noise_multiplier · clip_norm``.
    """

    _STATE = (Field("rng", RNG, "_rng"),)
    random = True

    def __init__(self, clip_norm: float, noise_multiplier: float, seed: int = 0):
        if clip_norm <= 0 or noise_multiplier < 0:
            raise ValueError("clip_norm must be > 0 and noise_multiplier >= 0")
        self.clip = ClipUpdate(clip_norm)
        self.sigma = noise_multiplier * clip_norm
        self._rng = np.random.default_rng(seed)

    def __call__(self, update: StateDict) -> StateDict:
        clipped = self.clip(update)
        if self.sigma == 0:
            return clipped
        return {
            k: v + self._rng.normal(0.0, self.sigma, size=v.shape).astype(np.float32)
            for k, v in clipped.items()
        }
