"""Data streams: the DS-side abstraction feeding LLM clients.

The paper's Data Sources (Section 3.1) decouple storage from compute
and stream batches to each LLM-C, with optional pre-tokenization,
caching and stream mixing (Section 4, "Data Streaming for DS").  The
classes here mirror that surface:

* :class:`TokenStream` — on-line sampling straight from a source;
* :class:`CachedTokenStream` — pre-tokenized ring buffer, the
  "pre-tokenization + caching" optimization (and much faster, since
  the cache is sampled at most once: the stream samples only the
  windows it serves, until they have cost about one cache walk);
* :class:`MixedStream` — weighted mixture over several streams;
* :func:`partition_stream` — Algorithm 1's ``PartitionStream`` for
  sub-federated nodes.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence

import numpy as np

from ..utils.durable import COMPONENT, INT, RNG, Durable, Field, List
from .synthetic import MarkovSource

__all__ = [
    "BatchStream",
    "TokenStream",
    "CachedTokenStream",
    "MixedStream",
    "partition_stream",
]

class BatchStream(Protocol):
    """Anything that yields ``(inputs, targets)`` batches forever."""

    batch_size: int
    seq_len: int

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]: ...


class TokenStream(Durable):
    """Stream batches sampled on-line from a Markov source.

    Each batch is ``(x, y)`` with shape ``(batch_size, seq_len)`` where
    ``y`` is ``x`` shifted by one (next-token prediction).  Unseeded,
    it draws from the source's own stream and writes no RNG state.

    Run state: batches are drawn from the stream's RNG, so a resumed
    run must continue mid-sequence to see the data the uninterrupted
    run would have.
    """

    _STATE = (Field("rng", RNG, "_rng"), Field("tokens_served", INT))

    def __init__(self, source: MarkovSource, batch_size: int, seq_len: int,
                 seed: int | None = None):
        if batch_size < 1 or seq_len < 1:
            raise ValueError("batch_size and seq_len must be >= 1")
        self.source = source
        self.batch_size = batch_size
        self.seq_len = seq_len
        self._rng = np.random.default_rng(seed) if seed is not None else None
        self.tokens_served = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.batch_size * (self.seq_len + 1)
        tokens = self.source.sample_tokens(n, rng=self._rng)
        tokens = tokens.reshape(self.batch_size, self.seq_len + 1)
        self.tokens_served += self.batch_size * self.seq_len
        return tokens[:, :-1], tokens[:, 1:]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.next_batch()


class CachedTokenStream(Durable):
    """Pre-tokenized ring buffer over a source.

    Serves random windows of a cache of ``cache_tokens`` tokens sampled
    from the source.  This is the reproduction's analogue of the
    paper's DS-side pre-tokenization: pay tokenization once, stream
    cheaply afterwards.  Run state as :class:`TokenStream`'s (the cache
    is reproducible from the construction seed).

    The stream holds no cache at first: :meth:`next_batch` computes
    each window from a walk of that window alone
    (:meth:`MarkovSource.cache_windows`).  Once those windows would
    cost more than about one walk of the cache, or one did not certify,
    the stream walks the whole cache (:attr:`cache`) and slices it from
    then on.  Either way it serves the same tokens, batches and run
    state, and a stream that serves few batches never pays for the
    cache, and one that serves many pays for it at most about twice.

    The cache is stored in the narrowest unsigned dtype that holds the
    source's largest token — ``uint8`` up to a vocabulary of 256, so
    64 KiB instead of 512 KiB for the default 65,536 tokens — sampled
    straight into it, and :meth:`next_batch` widens each window to
    ``int64``: the tokens, and every batch, are the ones an ``int64``
    cache serves.
    """

    _STATE = (Field("rng", RNG, "_rng"), Field("tokens_served", INT))

    def __init__(self, source: MarkovSource, batch_size: int, seq_len: int,
                 cache_tokens: int = 65_536, seed: int = 0):
        if cache_tokens < (seq_len + 1) * 2:
            raise ValueError("cache too small for the requested sequence length")
        self.source = source
        self.batch_size = batch_size
        self.seq_len = seq_len
        self._rng = np.random.default_rng(seed)
        self._cache_tokens = cache_tokens
        self._cache_seed = seed + 1
        self._cache = None
        self._windows = source.cache_windows(cache_tokens, self._cache_seed)
        self.tokens_served = 0

    @property
    def cache(self) -> np.ndarray:
        """The whole token cache, walked on first use (the switch)."""
        if self._cache is None:
            self._cache = self.source.cache(
                self._cache_tokens, self._cache_seed,
                np.min_scalar_type(self.source.vocab - 1))
            self._windows = None
        return self._cache

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        max_start = self._cache_tokens - self.seq_len - 1
        starts = self._rng.integers(0, max_start, size=self.batch_size)
        windows = None
        if self._windows is not None:
            windows = self._windows.read(starts, self.seq_len + 1)
        if windows is None:
            offsets = np.arange(self.seq_len + 1)
            windows = self.cache[starts[:, None] + offsets[None, :]].astype(np.int64)
        self.tokens_served += self.batch_size * self.seq_len
        return windows[:, :-1], windows[:, 1:]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.next_batch()


class MixedStream(Durable):
    """Weighted mixture over component streams (public-DS sharing).

    Each batch draws every row from one component chosen by weight,
    giving "precise control over sampling across such streams"
    (Section 4).  The mixture draw and every component stream advance
    together, so both are run state.
    """

    _STATE = (Field("rng", RNG, "_rng"),
              Field("streams", List(COMPONENT, counted=True)))

    def __init__(self, streams: Sequence[BatchStream], weights: Sequence[float] | None = None,
                 seed: int = 0):
        if not streams:
            raise ValueError("MixedStream needs at least one component")
        sizes = {(s.batch_size, s.seq_len) for s in streams}
        if len(sizes) != 1:
            raise ValueError(f"component streams disagree on batch geometry: {sizes}")
        self.streams = list(streams)
        if weights is None:
            weights = [1.0] * len(self.streams)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.min() < 0 or weights.sum() <= 0:
            raise ValueError("weights must be non-negative and sum to > 0")
        self.weights = weights / weights.sum()
        self.batch_size = self.streams[0].batch_size
        self.seq_len = self.streams[0].seq_len
        self._rng = np.random.default_rng(seed)

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        choices = self._rng.choice(len(self.streams), size=self.batch_size, p=self.weights)
        xs = np.empty((self.batch_size, self.seq_len), dtype=np.int64)
        ys = np.empty_like(xs)
        for stream_idx in np.unique(choices):
            rows = np.where(choices == stream_idx)[0]
            x, y = self.streams[stream_idx].next_batch()
            xs[rows] = x[: rows.size]
            ys[rows] = y[: rows.size]
        return xs, ys

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.next_batch()


def partition_stream(source: MarkovSource, n_parts: int, batch_size: int,
                     seq_len: int, seed: int = 0) -> list[BatchStream]:
    """Split one client's stream across sub-federated nodes.

    Algorithm 1 L.22 (``PartitionStream``): the default policy is IID —
    every node gets an independent stream over the same distribution.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    return [CachedTokenStream(source.spawn(seed=seed * 1009 + i,
                                           name=f"{source.name}/node{i}"),
                              batch_size, seq_len, seed=seed + i)
            for i in range(n_parts)]
