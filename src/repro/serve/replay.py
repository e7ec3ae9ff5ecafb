"""Replayed-traffic load harness for the serving path.

MLSYSIM-style first-principles load modeling: instead of guessing at
a serving SLO, the replayer drives the engine with a **seeded
synthetic request trace** — Zipf-distributed users (a few hot tenants,
a long cold tail, the shape real multi-tenant traffic has) with
configurable prompt/generation lengths — and reports the metrics a
capacity planner needs: p50/p99 latency, tokens/s, adapter-cache hit
rate and resident bytes.

The replay is a closed loop: the whole trace is queued at the start
and a request is admitted the moment a slot frees up (continuous
batching, :meth:`MultiAdapterEngine.serve`), so latency runs from
admission, not from arrival — queueing delay is not measured.

Determinism: the trace is fully determined by its seed, and a
request's tokens by the seed, its user and its position in the trace
alone — greedy decoding, and at any temperature a sampling stream keyed
``[seed, user_id, ordinal]``, mean neither ``batch_size`` nor the
requests it shares steps with change its output, so ``bench_serving.py``
arms are comparable across machines while the latency numbers measure
the host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.trace import NULL_TRACER
from .adapters import Adapter
from .cache import AdapterCache
from .engine import MultiAdapterEngine

__all__ = ["Request", "SyntheticTrace", "ReplayResult", "RequestReplayer"]


@dataclass(frozen=True)
class Request:
    """One trace entry: a user asks for a continuation."""

    request_id: str
    user_id: int
    prompt: np.ndarray
    max_new_tokens: int


class SyntheticTrace:
    """Seeded request trace with Zipf-distributed tenants.

    User ``u`` is requested with probability proportional to
    ``(u+1)^-zipf_s`` (user 0 hottest); prompt and generation lengths
    are drawn uniformly from the given inclusive ``(lo, hi)`` ranges.
    """

    def __init__(self, n_requests: int, n_users: int, *, zipf_s: float = 1.1,
                 prompt_len: tuple[int, int] = (4, 12),
                 gen_len: tuple[int, int] = (8, 24),
                 vocab_size: int = 64, seed: int = 0):
        if n_requests < 1 or n_users < 1:
            raise ValueError("n_requests and n_users must be >= 1")
        if prompt_len[0] < 1 or prompt_len[0] > prompt_len[1]:
            raise ValueError(f"bad prompt_len range {prompt_len}")
        if gen_len[0] < 1 or gen_len[0] > gen_len[1]:
            raise ValueError(f"bad gen_len range {gen_len}")
        self.n_users = n_users
        self.zipf_s = zipf_s
        self.seed = seed
        rng = np.random.default_rng(seed)
        weights = np.arange(1, n_users + 1, dtype=np.float64) ** -zipf_s
        users = rng.choice(n_users, size=n_requests, p=weights / weights.sum())
        self.requests: list[Request] = []
        for i, user in enumerate(users):
            p_len = int(rng.integers(prompt_len[0], prompt_len[1] + 1))
            g_len = int(rng.integers(gen_len[0], gen_len[1] + 1))
            prompt = rng.integers(0, vocab_size, size=p_len)
            self.requests.append(
                Request(f"r{i}", int(user), prompt, g_len))

    @property
    def unique_users(self) -> int:
        return len({r.user_id for r in self.requests})

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)


@dataclass
class ReplayResult:
    """What one replay measured (see :meth:`as_dict` for the artifact)."""

    requests: int
    #: admission rounds: ``prefill_batch`` calls, at least
    #: ``ceil(requests / batch_size)``
    waves: int
    tokens_out: int
    wall_s: float
    p50_ms: float
    p99_ms: float
    tokens_per_s: float
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_stale_drops: int
    cache_hit_rate: float
    adapters_resident: int
    adapter_bytes: int
    outputs: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    latencies_ms: np.ndarray = field(repr=False,
                                     default_factory=lambda: np.empty(0))

    def as_dict(self) -> dict:
        """JSON-able metrics (outputs and raw latencies excluded)."""
        return {
            "requests": self.requests,
            "waves": self.waves,
            "tokens_out": self.tokens_out,
            "wall_s": round(self.wall_s, 4),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "tokens_per_s": round(self.tokens_per_s, 1),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_stale_drops": self.cache_stale_drops,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "adapters_resident": self.adapters_resident,
            "adapter_bytes": self.adapter_bytes,
        }


class RequestReplayer:
    """Drive a :class:`MultiAdapterEngine` from a request trace.

    A closed loop over at most ``batch_size`` concurrent streams:
    requests are admitted in trace order into the slots finished
    requests freed, before the next decode step.  Per request:
    the adapter is looked up in the cache keyed by user (a miss calls
    ``adapter_source(user_id)`` — the personalization-round stand-in)
    and pinned until that request completes.  The requests admitted
    together are prefilled in one batched forward and every active
    request decodes in one shared step.  Request latency is admission
    to last token on the host clock; ``ReplayResult.waves`` counts
    admission rounds (prefill calls).  A run that raises leaves no
    stream open and no adapter pinned.

    Obs integration: host-clock spans per loop phase
    (``admit``/``prefill``/``decode``) plus one span per request
    lifetime, and ``serve/*`` meters; a tracer with a metrics sink
    flushes one snapshot per ``batch_size`` completed requests.
    """

    def __init__(self, engine: MultiAdapterEngine, cache: AdapterCache,
                 adapter_source: Callable[[int], Adapter], *,
                 batch_size: int = 8, temperature: float = 0.0,
                 seed: int = 0, tracer=None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_size > engine.max_streams:
            raise ValueError(
                f"batch_size {batch_size} exceeds the engine's "
                f"{engine.max_streams} streams"
            )
        self.engine = engine
        self.cache = cache
        self.adapter_source = adapter_source
        self.batch_size = batch_size
        self.temperature = temperature
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    def _admit(self, request: Request) -> tuple[Adapter, bool]:
        """Cache lookup (version-checked) or adapter fetch; pins it."""
        adapter_id = f"user{request.user_id}"
        adapter = self.cache.get(adapter_id,
                                 base_version=self.engine.base_version)
        hit = adapter is not None
        if hit:
            self.cache.pin(adapter_id)
            return adapter, True
        adapter = self.adapter_source(request.user_id)
        if adapter.adapter_id != adapter_id:
            raise ValueError(
                f"adapter_source returned {adapter.adapter_id!r} "
                f"for user {request.user_id}"
            )
        self.cache.put(adapter, pin=True)
        return adapter, False

    def run(self, trace: SyntheticTrace) -> ReplayResult:
        tracer = self.tracer
        meters = tracer.meters
        requests = list(trace)
        outputs: dict[str, np.ndarray] = {}
        latencies: list[float] = []
        # request id -> (request, ordinal, cache hit, admitted at,
        # span start); an entry holds its adapter's pin.
        in_flight: dict[str, tuple] = {}
        run_start = time.perf_counter()

        def pending():
            for ordinal, request in enumerate(requests):
                admitted_at, span_start = time.perf_counter(), tracer.now_host()
                adapter, hit = self._admit(request)
                in_flight[request.request_id] = (request, ordinal, hit,
                                                 admitted_at, span_start)
                rng = (np.random.default_rng(
                    [self.seed, request.user_id, ordinal])
                    if self.temperature > 0 else None)
                yield (request.request_id, adapter, request.prompt,
                       request.max_new_tokens, rng)

        def done(request_id: str, tokens: np.ndarray) -> None:
            request, ordinal, hit, admitted_at, span_start = in_flight.pop(
                request_id)
            self.cache.unpin(f"user{request.user_id}")
            latency = time.perf_counter() - admitted_at
            latencies.append(latency)
            outputs[request_id] = tokens
            generated = tokens.size - request.prompt.size
            meters.histogram("serve/latency_ms").observe(latency * 1e3)
            meters.counter("serve/requests").inc()
            meters.counter("serve/tokens_out").inc(generated)
            if tracer.enabled:
                tracer.span_host(
                    "request", f"{request_id}/user{request.user_id}",
                    span_start, tracer.now_host() - span_start,
                    user=request.user_id, ordinal=ordinal, cache_hit=hit,
                    prompt_len=int(request.prompt.size), tokens_out=generated)
            finished = len(outputs)
            if finished % self.batch_size == 0 or finished == len(requests):
                tracer.tick((finished - 1) // self.batch_size)

        try:
            waves = self.engine.serve(pending(), self.batch_size, done,
                                      temperature=self.temperature,
                                      tracer=tracer)
        finally:
            for request, *_ in in_flight.values():
                self.cache.unpin(f"user{request.user_id}")
        tokens_out = sum(outputs[r.request_id].size - r.prompt.size
                         for r in requests)
        wall_s = time.perf_counter() - run_start
        latencies_ms = np.asarray(latencies) * 1e3
        return ReplayResult(
            requests=len(requests),
            waves=waves,
            tokens_out=tokens_out,
            wall_s=wall_s,
            p50_ms=float(np.percentile(latencies_ms, 50)),
            p99_ms=float(np.percentile(latencies_ms, 99)),
            tokens_per_s=tokens_out / wall_s if wall_s > 0 else 0.0,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_evictions=self.cache.evictions,
            cache_stale_drops=self.cache.stale_drops,
            cache_hit_rate=self.cache.hit_rate,
            adapters_resident=self.cache.resident,
            adapter_bytes=self.cache.resident_bytes,
            outputs=outputs,
            latencies_ms=latencies_ms,
        )
