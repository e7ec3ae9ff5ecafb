"""KV-cached incremental decoding: the one inference forward.

``DecoderLM.generate`` recomputes the full prefix every step —
O(T²·d) per generated token.  :class:`IncrementalDecoder` snapshots a
model's weights into plain arrays and decodes incrementally over
**slot-addressed** key/value buffers, which is how the models are
actually served: :class:`InferenceEngine` is its one-slot
configuration, :class:`repro.serve.MultiAdapterEngine` its K-slot one
with a LoRA adapter per slot.  There is no second forward.

The implementation is independent of the autograd graph but not of
its arithmetic: layer norm, attention, its causal+ALiBi bias and GELU
are the forwards of :mod:`repro.tensor.kernels` that training binds,
called as they stand.  What differs from ``DecoderLM.forward`` is the
shape of the GEMMs (one row block per slot, keys read from the cache),
so ``tests/test_lora_inference.py`` bounds the logits' distance in
float32 ULPs and asserts ``DecoderLM.generate`` token for token, on
ALiBi and non-ALiBi models (README "Exactness contract").

Snapshot semantics: construction **copies** every weight array, so a
model that keeps training (continual or personalization rounds) never
mutates a live engine mid-generation — the engine serves exactly the
weights it was built from.  LoRA-wrapped models are supported
directly: adapters are folded through
:meth:`~repro.nn.lora.LoRALinear.merged_weight` at snapshot time, so
the engine decodes the adapted model without mutating it (unlike
:func:`~repro.nn.lora.merge_lora`, which rewrites the model in place).
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor import kernels
from .lora import LoRALinear
from .transformer import DecoderLM, sample_token

__all__ = ["IncrementalDecoder", "InferenceEngine"]


def _snapshot_linear(layer) -> tuple[np.ndarray, np.ndarray]:
    """``(weight, bias)`` copies of a dense or LoRA-wrapped Linear.

    LoRA adapters are folded via ``merged_weight()`` (a fresh array),
    leaving the wrapped layer untouched.  Bias-free layers are not a
    shape this engine decodes.
    """
    if isinstance(layer, LoRALinear):
        if layer._frozen_bias is None:
            raise ValueError("InferenceEngine requires standard dense blocks")
        return layer.merged_weight(), layer._frozen_bias.data.copy()
    if getattr(layer, "bias", None) is None:
        raise ValueError("InferenceEngine requires standard dense blocks")
    return layer.weight.data.copy(), layer.bias.data.copy()


class _BlockWeights:
    """Dense snapshot of one transformer block (arrays copied, LoRA
    adapters folded)."""

    def __init__(self, block):
        self.ln1_g = block.ln1.gamma.data.copy()
        self.ln1_b = block.ln1.beta.data.copy()
        self.ln2_g = block.ln2.gamma.data.copy()
        self.ln2_b = block.ln2.beta.data.copy()
        #: ``(weight, bias)`` of qkv, proj, up, down — adapter slot order.
        self.linears = [_snapshot_linear(layer) for layer in (
            block.attn.qkv, block.attn.proj, block.mlp.up, block.mlp.down)]


class IncrementalDecoder:
    """A weight snapshot of a :class:`DecoderLM` plus ``n_slots``
    independent sequences decoded over it in shared steps.

    A slot is a position and one row of the K/V buffers
    ``(layer, slot, head, seq_len, head_dim)``, allocated once and
    written in place; :meth:`assign` hands a slot to a new sequence,
    optionally with factored LoRA deltas, and :meth:`advance` moves any
    subset of slots forward by their new tokens — one token each for
    decode, the padded prompt block for prefill, the same code.  What
    is left in a slot beyond its position (a previous occupant's tail)
    is never read: the causal mask hides every key a query's own
    sequence has not written.  Not thread-safe.
    """

    def __init__(self, model: DecoderLM, n_slots: int = 1):
        cfg = model.config
        if any(not hasattr(block.attn, "qkv") for block in model.blocks):
            raise ValueError(
                f"{type(self).__name__} requires standard dense blocks")
        self.config = cfg
        self.scale = 1.0 / math.sqrt(cfg.head_dim)
        # What the model's own attention hands kernels.attention_bias.
        self.slopes = next(iter(model.blocks)).attn.slopes
        self.emb = model.tok_emb.weight.data.copy()
        self.blocks = [_BlockWeights(b) for b in model.blocks]
        self.ln_f_g = model.ln_f.gamma.data.copy()
        self.ln_f_b = model.ln_f.beta.data.copy()
        head = (model.lm_head_weight.data if model.lm_head_weight is not None
                else model.tok_emb.weight.data)
        self.head = head.copy()

        # One allocation so a layer's keys and values are written, and
        # read back for the active slots, in one indexing call each.
        self._kv = np.zeros((2, len(self.blocks), n_slots, cfg.n_heads,
                             cfg.seq_len, cfg.head_dim), dtype=np.float32)
        self.k, self.v = self._kv
        self.positions = np.zeros(n_slots, dtype=np.int64)
        self._steps = np.arange(cfg.seq_len)
        # LoRA: per slot the factors assigned to it; per linear layer
        # one (A, B) stack over slots at the widest rank in flight; and
        # the stacks' rows for the slot set of the last step, which
        # lockstep decoding repeats for many steps.
        self._factors: list[list | None] = [None] * n_slots
        self._stacks: list[tuple[np.ndarray, np.ndarray]] = []
        self._width = 0
        self._gathered: tuple[bytes | None, list] = (None, [])

    # ------------------------------------------------------------------
    def assign(self, slot: int, factors: list | None = None) -> None:
        """Start a new sequence in ``slot``.

        ``factors`` is None or one ``(A, B·α/r)`` pair per linear layer
        (block-major: qkv, proj, up, down).  The stacks are rebuilt
        only when the widest rank among assigned slots changes, and do
        not exist while no slot carries an adapter.
        """
        self.positions[slot] = 0
        self._factors[slot] = factors
        self._gathered = (None, [])
        width = max((a.shape[1] for held in self._factors if held
                     for a, _ in held), default=0)
        refill = [slot]
        if width != self._width:
            n_slots = len(self._factors)
            self._width = width
            self._stacks = [
                (np.zeros((n_slots, w.shape[0], width), dtype=np.float32),
                 np.zeros((n_slots, width, w.shape[1]), dtype=np.float32))
                for block in self.blocks for w, _ in block.linears
            ] if width else []
            refill = range(n_slots)
        for held in refill:
            for i, (a_stack, b_stack) in enumerate(self._stacks):
                a_stack[held] = 0.0
                b_stack[held] = 0.0
                if self._factors[held] is not None:
                    a, b = self._factors[held][i]
                    a_stack[held, :, :a.shape[1]] = a
                    b_stack[held, :b.shape[0]] = b

    def advance(self, slots: list[int], prompts: list,
                labels: list[str]) -> np.ndarray:
        """Advance ``slots[i]`` by the token ids ``prompts[i]``; returns
        the logits after each slot's last token, ``(len(slots), vocab)``.

        The whole call is validated before any slot is written: a
        ``ValueError`` opening with ``labels[i]`` for a prompt that is
        empty, not integer-typed, not one sequence (``ndim > 1``, a
        ``(1, T)`` batch of one included), out of vocabulary or too
        long for its slot leaves every slot as it was.
        """
        cfg = self.config
        rows = [np.asarray(prompt) for prompt in prompts]
        sizes = [row.size for row in rows]
        tokens = np.zeros((len(rows), max(sizes)), dtype=np.int64)
        for i, row in enumerate(rows):
            if row.ndim > 1:
                raise ValueError(f"{labels[i]}: token ids must be one "
                                 f"sequence, got shape {row.shape}")
            if row.dtype.kind not in "iu":
                raise ValueError(f"{labels[i]}: token ids must be integers, "
                                 f"got {row.dtype}")
            tokens[i, :row.size] = row
        lengths = np.array(sizes)
        slots = np.asarray(slots)
        start = self.positions[slots]
        problems = {
            "empty prompt": lengths == 0,
            f"token ids must lie in [0, {cfg.vocab_size})":
                ((tokens < 0) | (tokens >= cfg.vocab_size)).any(axis=1),
            f"exceeds the model's sequence length ({cfg.seq_len})":
                start + lengths > cfg.seq_len,
        }
        for why, failed in problems.items():
            if failed.any():
                raise ValueError(f"{labels[int(failed.argmax())]}: {why}")
        return self._step(slots, tokens, start, lengths)

    def _step(self, slots: np.ndarray, tokens: np.ndarray,
              start: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """One forward over ``tokens`` ``(n, t_new)``, row ``i`` real up
        to ``lengths[i]`` and continuing its slot from ``start[i]``.
        No loop over rows: attention, the K/V write and each LoRA delta
        are one batched call per layer."""
        cfg = self.config
        n, t_new = tokens.shape
        if self._gathered[0] != slots.tobytes():
            self._gathered = (slots.tobytes(), [(a[slots], b[slots])
                                                for a, b in self._stacks])
        stacks = self._gathered[1]
        total = start + lengths
        span = int(total.max())
        q_pos = start[:, None] + self._steps[:t_new]  # (n, t_new)
        # Causal + ALiBi bias from the slots' positions, shared by every
        # layer.  Keys past a row's own length — its padding, other
        # rows' longer contexts, the slot's stale tail — all sit at
        # positions greater than any real query of that row.
        bias = kernels.attention_bias(self.slopes, q_pos, self._steps[:span])
        # Only real tokens are written (padding could run past seq_len).
        row, col = np.nonzero(self._steps[:t_new] < lengths[:, None])
        dst_slot, dst_pos = slots[row], q_pos[row, col]

        layer_norm = kernels.layer_norm_forward

        def linear(x, layer, i):
            weight, b = self.blocks[layer].linears[i]
            y = x @ weight
            y += b
            if stacks:
                lora_a, lora_b = stacks[4 * layer + i]
                y += (x @ lora_a) @ lora_b
            return y

        x = self.emb[tokens]  # (n, t_new, d)
        for layer, w in enumerate(self.blocks):
            qkv = linear(layer_norm(x, w.ln1_g, w.ln1_b)[0], layer, 0).reshape(
                n, t_new, 3, cfg.n_heads, cfg.head_dim)
            self._kv[:, layer, dst_slot, :, dst_pos] = qkv[row, col, 1:]
            k, v = self._kv[:, layer, slots, :, :span]
            context = kernels.attention_forward(qkv[:, :, 0].swapaxes(1, 2), k, v,
                                                bias, self.scale)[0]
            x = x + linear(context.swapaxes(1, 2).reshape(n, t_new, -1),
                           layer, 1)
            hidden = kernels.gelu_forward(
                linear(layer_norm(x, w.ln2_g, w.ln2_b)[0], layer, 2))[0]
            x = x + linear(hidden, layer, 3)
        self.positions[slots] = total
        last = layer_norm(x[np.arange(n), lengths - 1],
                          self.ln_f_g, self.ln_f_b)[0]
        return last @ self.head.T


class InferenceEngine(IncrementalDecoder):
    """The one-slot, adapter-less decoder over a trained
    :class:`DecoderLM`; create one engine per concurrent generation
    stream (or serve them from one
    :class:`~repro.serve.MultiAdapterEngine`)."""

    def reset(self) -> None:
        """Start a new sequence (the K/V buffer is reused in place)."""
        self.assign(0)

    @property
    def position(self) -> int:
        return int(self.positions[0])

    cache_len = position

    def prefill(self, prompt: np.ndarray) -> np.ndarray:
        """Process a prompt; returns the last position's logits."""
        return self.advance([0], [prompt], ["prompt"])[0]

    def decode_step(self, token: int) -> np.ndarray:
        """Feed one token; returns next-token logits."""
        return self.advance([0], [token], ["token"])[0]

    def generate(self, prompt: np.ndarray, max_new_tokens: int,
                 temperature: float = 1.0,
                 rng: np.random.Generator | None = None) -> np.ndarray:
        """Sample a continuation with KV caching.

        Semantics match :meth:`DecoderLM.generate` (greedy at
        ``temperature<=0``), but each new token costs O(T·d) instead
        of O(T²·d).
        """
        rng = rng or np.random.default_rng()
        self.reset()
        tokens = list(np.asarray(prompt).reshape(-1))
        budget = min(max_new_tokens, self.config.seq_len - len(tokens))
        logits = self.prefill(prompt)
        for _ in range(budget):
            tokens.append(sample_token(logits, temperature, rng))
            if len(tokens) >= self.config.seq_len:
                break
            logits = self.decode_step(tokens[-1])
        return np.array(tokens, dtype=np.int64)
