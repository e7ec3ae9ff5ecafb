"""Batched multi-adapter decoding: one base forward, K tenant deltas.

The single-stream :class:`~repro.nn.InferenceEngine` serves one
sequence per engine and needs the adapters folded into dense weights.
This engine serves **K concurrent requests over one snapshot of the
global model**, and it is the same decoder
(:class:`~repro.nn.inference.IncrementalDecoder`) with K slots instead
of one: every dense projection runs once for all active rows, one
masked attention covers every row's slot of the shared K/V buffers,
and each request's LoRA delta is applied in factored form —
``y += (x A_u) B_u · α/r`` — as one batched product over factor stacks
that :meth:`MultiAdapterEngine.open` fills for the request's slot.
Adapters are never merged, so admitting a request costs no weight
materialization and the base weights stay shared across all tenants.

What lives here is policy: request id → slot, capacity, adapter
validation and version pinning — and the one token loop,
:meth:`MultiAdapterEngine.serve`, which admits requests into free
slots as they open (continuous batching) and drives both
:meth:`~MultiAdapterEngine.generate_batch` and the traffic replayer.

Numerics: the factored delta equals the merged weight
``W + α/r·A B`` up to float rounding — ``tests/test_serving.py``
asserts agreement with sequential merge-and-decode per request to
float32 tolerance, exact on greedy tokens, and that a request's output
does not depend on its co-runners, its slot or the slot's previous
occupant.

Version safety: the engine carries the ``base_version`` of the
checkpoint it snapshot; opening a stream with an adapter trained
against any other version raises :class:`StaleAdapterError` — a
request pinned to checkpoint ``v`` must never silently ride a newer
base.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..nn.inference import IncrementalDecoder
from ..nn.lora import LoRALinear, _iter_linear_slots
from ..nn.transformer import DecoderLM, sample_token
from ..obs.trace import NULL_TRACER
from .adapters import Adapter

__all__ = ["MultiAdapterEngine", "StaleAdapterError", "sample_token"]


class StaleAdapterError(ValueError):
    """An adapter's base version does not match the serving base."""


class MultiAdapterEngine(IncrementalDecoder):
    """K-stream incremental decoder over one global-model snapshot.

    Construction **copies** the model's weights (same snapshot
    guarantee as :class:`~repro.nn.InferenceEngine`); the model must be
    the dense global model — per-tenant adapters arrive per request,
    not baked into the base.
    """

    def __init__(self, model: DecoderLM, base_version: int = 0,
                 max_streams: int = 8):
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if any(isinstance(getattr(owner, name, None), LoRALinear)
               for owner, name in _iter_linear_slots(model)):
            raise ValueError(
                "serve the dense global model; per-tenant adapters are "
                "passed per request, not applied to the base"
            )
        super().__init__(model, n_slots=int(max_streams))
        self.base_version = int(base_version)
        self.max_streams = int(max_streams)
        self._slots: dict[str, int] = {}
        self._free = list(range(self.max_streams))[::-1]

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        return len(self._slots)

    def open(self, request_id: str, adapter: Adapter | None = None) -> None:
        """Admit a request into a free slot; validates the adapter
        against this base before the slot is taken."""
        if request_id in self._slots:
            raise ValueError(f"request {request_id!r} is already open")
        if not self._free:
            raise RuntimeError(
                f"engine is at capacity ({self.max_streams} streams)"
            )
        factors = None
        if adapter is not None:
            self._validate(adapter)
            factors = [(a, b * np.float32(adapter.scaling(slot)))
                       for slot, (a, b) in enumerate(adapter.pairs)]
        self._slots[request_id] = slot = self._free.pop()
        self.assign(slot, factors)

    def close(self, request_id: str) -> None:
        """Release a request's slot and adapter reference."""
        slot = self._slots.pop(request_id, None)
        if slot is None:
            raise KeyError(f"request {request_id!r} is not open")
        self._factors[slot] = None
        self._free.append(slot)

    def _validate(self, adapter: Adapter) -> None:
        if adapter.base_version != self.base_version:
            raise StaleAdapterError(
                f"adapter {adapter.adapter_id!r} was trained against base "
                f"v{adapter.base_version}; this engine serves "
                f"v{self.base_version}"
            )
        if adapter.n_slots != 4 * len(self.blocks):
            raise ValueError(
                f"adapter {adapter.adapter_id!r} has {adapter.n_slots} "
                f"slots; the model has {4 * len(self.blocks)}"
            )
        for slot, (a, b) in enumerate(adapter.pairs):
            base = self.blocks[slot // 4].linears[slot % 4][0].shape
            in_a, in_b = np.shape(a), np.shape(b)
            if (len(in_a) != 2 or len(in_b) != 2
                    or (in_a[0], in_a[1], in_b[1]) != (base[0], in_b[0], base[1])):
                raise ValueError(
                    f"adapter {adapter.adapter_id!r} slot {slot}: factors "
                    f"{in_a} x {in_b} do not fit base {base}"
                )
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValueError(
                    f"adapter {adapter.adapter_id!r} slot {slot}: "
                    f"non-finite factor values"
                )

    # ------------------------------------------------------------------
    # Batched forward
    # ------------------------------------------------------------------
    def prefill(self, request_id: str, prompt: np.ndarray) -> np.ndarray:
        """Process one request's prompt; returns last-position logits."""
        return self.prefill_batch({request_id: prompt})[request_id]

    def prefill_batch(self, prompts: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Prefill several requests in one base forward."""
        return self._forward(prompts)

    def decode(self, tokens: dict[str, int]) -> dict[str, np.ndarray]:
        """Feed one token per active request; returns next-token logits."""
        return self._forward(tokens)

    def _forward(self, batch: dict) -> dict[str, np.ndarray]:
        """Advance each named request by its tokens in one shared step
        (:meth:`IncrementalDecoder.advance`: the whole call is
        validated before any stream moves)."""
        if not batch:
            return {}
        missing = [rid for rid in batch if rid not in self._slots]
        if missing:
            raise KeyError(f"request {missing[0]!r} is not open")
        logits = self.advance([self._slots[rid] for rid in batch],
                              list(batch.values()),
                              [f"request {rid!r}" for rid in batch])
        return dict(zip(batch, logits))

    # ------------------------------------------------------------------
    # The token loop
    # ------------------------------------------------------------------
    def serve(self, pending: Iterator[tuple], width: int,
              done: Callable[[str, np.ndarray], None], *,
              temperature: float = 0.0, tracer=NULL_TRACER) -> int:
        """Generate every request ``pending`` yields, at most ``width``
        at a time; returns the number of admission rounds.

        ``pending`` yields ``(request_id, adapter, prompt,
        max_new_tokens, rng)`` and is drawn lazily: before each decode
        step every slot freed since the last one takes the next
        request, and the requests admitted together are prefilled in
        one call.  Then one token is sampled per active request
        (``sample_token`` with the request's own ``rng``); a request
        whose budget is spent — clipped to the model's sequence length,
        as ``InferenceEngine.generate`` clips it — is closed and handed
        to ``done(request_id, tokens)``, and the rest are decoded in one
        call.  Every stream this call opened is closed on return,
        including on error.  Host spans ``admit``/``prefill``/``decode``
        go to ``tracer``.
        """
        # request id -> (prompt + sampled tokens, length to stop at, rng)
        live: dict[str, tuple[list[int], int, np.random.Generator | None]] = {}
        logits: dict[str, np.ndarray] = {}
        feed: dict[str, int] = {}
        rounds = 0
        try:
            while True:
                start = tracer.now_host()
                prompts = {}
                while len(live) < width and (job := next(pending, None)) is not None:
                    request_id, adapter, prompt, max_new_tokens, rng = job
                    self.open(request_id, adapter)
                    prompt = np.asarray(prompt).reshape(-1)
                    live[request_id] = (list(prompt), min(
                        prompt.size + max_new_tokens, self.config.seq_len), rng)
                    prompts[request_id] = prompt
                if prompts:
                    rounds += 1
                    tracer.span_host("serve", "admit", start,
                                     tracer.now_host() - start, round=rounds,
                                     requests=len(prompts))
                    with tracer.host_span("serve", "prefill", round=rounds,
                                          requests=len(prompts)):
                        logits.update(self.prefill_batch(prompts))
                if feed:
                    with tracer.host_span("serve", "decode", requests=len(feed)):
                        logits.update(self.decode(feed))
                if not live:
                    return rounds
                feed = {}
                for request_id, (tokens, stop, rng) in list(live.items()):
                    row = logits.pop(request_id)
                    if len(tokens) < stop:
                        tokens.append(sample_token(row, temperature, rng))
                    if len(tokens) < stop:
                        feed[request_id] = tokens[-1]
                    else:
                        del live[request_id]
                        self.close(request_id)
                        done(request_id, np.array(tokens, dtype=np.int64))
        finally:
            for request_id in live:
                self.close(request_id)

    def generate_batch(self, requests: dict[str, tuple[Adapter | None, np.ndarray]],
                       max_new_tokens: int | dict[str, int],
                       temperature: float = 0.0,
                       rngs: dict[str, np.random.Generator] | None = None,
                       ) -> dict[str, np.ndarray]:
        """Generate a batch of requests to completion, all admitted at
        once (:meth:`serve`).

        Per-request semantics match ``InferenceEngine.generate`` (one
        merged engine per request): greedy at ``temperature<=0``, the
        generation budget clipped to the model's sequence length.
        """
        rngs = rngs or {}
        out: dict[str, np.ndarray] = {}
        self.serve(((rid, adapter, prompt,
                     max_new_tokens if isinstance(max_new_tokens, int)
                     else max_new_tokens[rid], rngs.get(rid))
                    for rid, (adapter, prompt) in requests.items()),
                   len(requests), out.__setitem__, temperature=temperature)
        return {rid: out[rid] for rid in requests}
