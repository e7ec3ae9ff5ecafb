"""Batched multi-adapter decoding: one base forward, K tenant deltas.

The single-stream :class:`~repro.nn.InferenceEngine` serves one
sequence per engine and needs the adapters folded into dense weights.
This engine serves **K concurrent requests over one snapshot of the
global model**: every dense projection runs once for all active
streams (the rows of all in-flight sequences are concatenated into one
matmul), and each request's LoRA delta is applied in factored form —
``y += (x A_u) B_u · α/r`` — grouped by adapter so requests from the
same tenant share the low-rank work.  Adapters are never merged, so
admitting a request costs no weight materialization and the base
weights stay shared across all tenants.

Numerics: the attention kernel is the same ``_causal_attend`` the
single-stream engine uses, and the factored delta equals the merged
weight ``W + α/r·A B`` up to float rounding — ``tests/test_serving.py``
asserts agreement with sequential merge-and-decode per request to
float32 tolerance.

Version safety: the engine carries the ``base_version`` of the
checkpoint it snapshot; opening a stream with an adapter trained
against any other version raises :class:`StaleAdapterError` — a
request pinned to checkpoint ``v`` must never silently ride a newer
base.
"""

from __future__ import annotations

import math

import numpy as np

from ..nn.attention import alibi_slopes
from ..nn.inference import _BlockWeights, _causal_attend, _layer_norm
from ..nn.lora import LoRALinear, _iter_linear_slots
from ..nn.transformer import DecoderLM
from ..obs.trace import NULL_TRACER
from ..tensor.kernels import gelu
from .adapters import Adapter

__all__ = ["MultiAdapterEngine", "StaleAdapterError", "sample_token"]


class StaleAdapterError(ValueError):
    """An adapter's base version does not match the serving base."""


def sample_token(logits: np.ndarray, temperature: float,
                 rng: np.random.Generator | None = None) -> int:
    """Greedy at ``temperature<=0``, else a softmax sample from ``rng``.

    Matches :meth:`DecoderLM.generate` semantics; callers that sample
    should pass a per-request generator so batch composition never
    changes a request's output.
    """
    if temperature <= 0:
        return int(logits.argmax())
    if rng is None:
        rng = np.random.default_rng()
    scaled = logits / temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


class _Stream:
    """One in-flight request: its adapter and per-layer KV cache."""

    __slots__ = ("request_id", "adapter", "k", "v", "position")

    def __init__(self, request_id: str, adapter: Adapter | None,
                 n_layers: int, n_heads: int, head_dim: int):
        self.request_id = request_id
        self.adapter = adapter
        self.k = [np.zeros((n_heads, 0, head_dim), dtype=np.float32)
                  for _ in range(n_layers)]
        self.v = [np.zeros((n_heads, 0, head_dim), dtype=np.float32)
                  for _ in range(n_layers)]
        self.position = 0


class MultiAdapterEngine:
    """K-stream incremental decoder over one global-model snapshot.

    Construction **copies** the model's weights (same snapshot
    guarantee as :class:`~repro.nn.InferenceEngine`); the model must be
    the dense global model — per-tenant adapters arrive per request,
    not baked into the base.
    """

    def __init__(self, model: DecoderLM, base_version: int = 0,
                 max_streams: int = 8, tracer=None):
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if any(not hasattr(block.attn, "qkv") for block in model.blocks):
            raise ValueError("MultiAdapterEngine requires standard dense blocks")
        if any(isinstance(getattr(owner, name), LoRALinear)
               for owner, name in _iter_linear_slots(model)):
            raise ValueError(
                "serve the dense global model; per-tenant adapters are "
                "passed per request, not applied to the base"
            )
        cfg = model.config
        self.config = cfg
        self.base_version = int(base_version)
        self.max_streams = int(max_streams)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.n_heads = cfg.n_heads
        self.head_dim = cfg.head_dim
        self.scale = 1.0 / math.sqrt(cfg.head_dim)
        self.slopes = alibi_slopes(cfg.n_heads) if cfg.alibi else None

        self.emb = model.tok_emb.weight.data.copy()
        self.blocks = [_BlockWeights(b) for b in model.blocks]
        self.ln_f_g = model.ln_f.gamma.data.copy()
        self.ln_f_b = model.ln_f.beta.data.copy()
        head = (model.lm_head_weight.data if model.lm_head_weight is not None
                else model.tok_emb.weight.data)
        self.head = head.copy()
        self._streams: dict[str, _Stream] = {}

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        return len(self._streams)

    def open(self, request_id: str, adapter: Adapter | None = None) -> None:
        """Admit a request; validates the adapter against this base."""
        if request_id in self._streams:
            raise ValueError(f"request {request_id!r} is already open")
        if len(self._streams) >= self.max_streams:
            raise RuntimeError(
                f"engine is at capacity ({self.max_streams} streams)"
            )
        if adapter is not None:
            self._validate(adapter)
        self._streams[request_id] = _Stream(
            request_id, adapter, len(self.blocks), self.n_heads, self.head_dim
        )

    def close(self, request_id: str) -> None:
        """Release a request's KV cache and adapter reference."""
        if self._streams.pop(request_id, None) is None:
            raise KeyError(f"request {request_id!r} is not open")

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
        shapes = [(w.qkv_w, w.proj_w, w.up_w, w.down_w) for w in self.blocks]
        for slot, (a, b) in enumerate(adapter.pairs):
            base = shapes[slot // 4][slot % 4]
            if a.shape[0] != base.shape[0] or b.shape[1] != base.shape[1]:
                raise ValueError(
                    f"adapter {adapter.adapter_id!r} slot {slot}: factors "
                    f"{a.shape} x {b.shape} do not fit base {base.shape}"
                )

    # ------------------------------------------------------------------
    # Batched forward
    # ------------------------------------------------------------------
    def prefill(self, request_id: str, prompt: np.ndarray) -> np.ndarray:
        """Process one request's prompt; returns last-position logits."""
        return self.prefill_batch({request_id: prompt})[request_id]

    def prefill_batch(self, prompts: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Prefill several requests in one base forward."""
        batch = {}
        for request_id, prompt in prompts.items():
            prompt = np.asarray(prompt).reshape(-1)
            if prompt.size == 0:
                raise ValueError(f"request {request_id!r}: empty prompt")
            batch[request_id] = prompt
        return self._forward(batch)

    def decode(self, tokens: dict[str, int]) -> dict[str, np.ndarray]:
        """Feed one token per active request; returns next-token logits."""
        return self._forward({
            request_id: np.array([token], dtype=np.int64)
            for request_id, token in tokens.items()
        })

    def _forward(self, batch: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Advance each named stream by its tokens in one shared pass."""
        if not batch:
            return {}
        order = list(batch)
        streams = []
        for request_id in order:
            stream = self._streams.get(request_id)
            if stream is None:
                raise KeyError(f"request {request_id!r} is not open")
            if stream.position + batch[request_id].size > self.config.seq_len:
                raise ValueError(
                    f"request {request_id!r} exceeds the model's sequence "
                    f"length ({self.config.seq_len})"
                )
            streams.append(stream)

        lengths = [batch[rid].size for rid in order]
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        slices = [slice(int(bounds[i]), int(bounds[i + 1]))
                  for i in range(len(order))]
        # Rows of every stream concatenated: one matmul per projection.
        x = self.emb[np.concatenate([batch[rid] for rid in order])]
        groups = self._adapter_groups(streams, slices)

        heads, head_dim = self.n_heads, self.head_dim
        for layer, w in enumerate(self.blocks):
            h = _layer_norm(x, w.ln1_g, w.ln1_b)
            qkv = h @ w.qkv_w + w.qkv_b
            self._apply_adapters(h, qkv, groups, 4 * layer)
            context = np.empty_like(x)
            for stream, sl in zip(streams, slices):
                t = sl.stop - sl.start
                parts = qkv[sl].reshape(t, 3, heads, head_dim)
                q = parts[:, 0].transpose(1, 0, 2)
                k_new = parts[:, 1].transpose(1, 0, 2)
                v_new = parts[:, 2].transpose(1, 0, 2)
                stream.k[layer] = np.concatenate([stream.k[layer], k_new], axis=1)
                stream.v[layer] = np.concatenate([stream.v[layer], v_new], axis=1)
                attended = _causal_attend(q, stream.k[layer], stream.v[layer],
                                          self.scale, self.slopes)
                context[sl] = attended.transpose(1, 0, 2).reshape(t, -1)
            proj = context @ w.proj_w + w.proj_b
            self._apply_adapters(context, proj, groups, 4 * layer + 1)
            x = x + proj
            h = _layer_norm(x, w.ln2_g, w.ln2_b)
            up = h @ w.up_w + w.up_b
            self._apply_adapters(h, up, groups, 4 * layer + 2)
            gated = gelu(up)
            down = gated @ w.down_w + w.down_b
            self._apply_adapters(gated, down, groups, 4 * layer + 3)
            x = x + down

        x = _layer_norm(x, self.ln_f_g, self.ln_f_b)
        for stream, length in zip(streams, lengths):
            stream.position += length
        last_rows = x[[sl.stop - 1 for sl in slices]]
        logits = last_rows @ self.head.T
        return {request_id: logits[i] for i, request_id in enumerate(order)}

    @staticmethod
    def _adapter_groups(streams, slices) -> list[tuple[Adapter, np.ndarray]]:
        """Row indices per distinct adapter (tenant-shared low-rank work)."""
        by_id: dict[str, tuple[Adapter, list[np.ndarray]]] = {}
        for stream, sl in zip(streams, slices):
            if stream.adapter is None:
                continue
            entry = by_id.setdefault(stream.adapter.adapter_id,
                                     (stream.adapter, []))
            entry[1].append(np.arange(sl.start, sl.stop))
        return [(adapter, np.concatenate(rows))
                for adapter, rows in by_id.values()]

    @staticmethod
    def _apply_adapters(inputs: np.ndarray, out: np.ndarray,
                        groups: list[tuple[Adapter, np.ndarray]],
                        slot: int) -> None:
        for adapter, rows in groups:
            a, b = adapter.pairs[slot]
            out[rows] += ((inputs[rows] @ a) @ b) * adapter.scaling(slot)

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
                if request_id in self._streams:
                    self.close(request_id)
        return {rid: np.array(seq, dtype=np.int64)
                for rid, seq in tokens.items()}
