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
validation and version pinning.

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

import numpy as np

from ..nn.inference import IncrementalDecoder
from ..nn.lora import LoRALinear, _iter_linear_slots
from ..nn.transformer import DecoderLM, sample_token
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
    # Convenience: lockstep batched generation
    # ------------------------------------------------------------------
    def generate_batch(self, requests: dict[str, tuple[Adapter | None, np.ndarray]],
                       max_new_tokens: int | dict[str, int],
                       temperature: float = 0.0,
                       rngs: dict[str, np.random.Generator] | None = None,
                       ) -> dict[str, np.ndarray]:
        """Open, prefill and decode a batch of requests to completion.

        Per-request semantics match ``InferenceEngine.generate`` (one
        merged engine per request): greedy at ``temperature<=0``, the
        generation budget clipped to the model's sequence length.
        Streams are closed on return, including on error.
        """
        rngs = rngs or {}
        tokens: dict[str, list[int]] = {}
        budget: dict[str, int] = {}
        try:
            for request_id, (adapter, prompt) in requests.items():
                self.open(request_id, adapter)
                prompt = np.asarray(prompt).reshape(-1)
                tokens[request_id] = list(prompt)
                want = (max_new_tokens if isinstance(max_new_tokens, int)
                        else max_new_tokens[request_id])
                budget[request_id] = min(want,
                                         self.config.seq_len - prompt.size)
            logits = self.prefill_batch(
                {rid: np.array(tokens[rid]) for rid in requests})
            active = {rid for rid in requests if budget[rid] > 0}
            while active:
                feed = {}
                for request_id in sorted(active):
                    nxt = sample_token(logits[request_id], temperature,
                                       rngs.get(request_id))
                    tokens[request_id].append(nxt)
                    budget[request_id] -= 1
                    if (budget[request_id] > 0
                            and len(tokens[request_id]) < self.config.seq_len):
                        feed[request_id] = nxt
                logits.update(self.decode(feed))
                active = set(feed)
        finally:
            for request_id in requests:
                if request_id in self._slots:
                    self.close(request_id)
        return {rid: np.array(seq, dtype=np.int64)
                for rid, seq in tokens.items()}
