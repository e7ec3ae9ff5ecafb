"""Simulated tensor parallelism (Megatron-LM style).

Section 2.2: standard 3D parallelism applies "tensor parallelism
across GPUs in a server" [29].  The Megatron decomposition splits each
block's matmuls across workers so that only two all-reduces per block
are needed:

* **column-parallel** Linear — split the *output* features; each
  worker computes a slice of the activations (no communication, the
  nonlinearity applies element-wise per slice);
* **row-parallel** Linear — split the *input* features; each worker
  computes a partial product and the results are **summed**
  (all-reduce).

The MLP pairs column(up) with row(down); attention splits heads
(column for QKV, row for the output projection).  Numerics are
identical to the dense computation — asserted against
:class:`~repro.nn.DecoderLM` in the tests — while per-worker weight
memory drops by the worker count.
"""

from __future__ import annotations

import math

import numpy as np

from ..nn.inference import _layer_norm, _softmax
from ..nn.transformer import DecoderLM
from ..tensor.kernels import gelu

__all__ = ["split_columns", "split_rows", "TensorParallelEngine"]


def split_columns(weight: np.ndarray, n_workers: int) -> list[np.ndarray]:
    """Split a (in, out) weight along the output axis."""
    if weight.shape[1] % n_workers != 0:
        raise ValueError(
            f"output dim {weight.shape[1]} not divisible by {n_workers} workers"
        )
    return list(np.split(weight, n_workers, axis=1))


def split_rows(weight: np.ndarray, n_workers: int) -> list[np.ndarray]:
    """Split a (in, out) weight along the input axis."""
    if weight.shape[0] % n_workers != 0:
        raise ValueError(
            f"input dim {weight.shape[0]} not divisible by {n_workers} workers"
        )
    return list(np.split(weight, n_workers, axis=0))


class TensorParallelEngine:
    """Run a decoder forward pass with per-block tensor parallelism.

    Heads are distributed across workers, so ``n_workers`` must divide
    ``n_heads`` (and the MLP hidden dimension, which holds whenever it
    divides ``d_model``).  ``allreduce_count`` tracks the simulated
    collectives: two per block (attention proj + MLP down), matching
    Megatron.
    """

    def __init__(self, model: DecoderLM, n_workers: int):
        cfg = model.config
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if cfg.n_heads % n_workers != 0:
            raise ValueError(
                f"n_heads={cfg.n_heads} not divisible by {n_workers} workers"
            )
        self.config = cfg
        self.n_workers = n_workers
        self.heads_per_worker = cfg.n_heads // n_workers
        self.head_dim = cfg.head_dim
        self.scale = 1.0 / math.sqrt(cfg.head_dim)
        self.allreduce_count = 0

        self.emb = model.tok_emb.weight.data
        self.ln_f = (model.ln_f.gamma.data, model.ln_f.beta.data)
        self.head = (model.lm_head_weight.data if model.lm_head_weight is not None
                     else model.tok_emb.weight.data)
        from ..nn.attention import _alibi_bias, _causal_bias

        self._bias_fn = (
            (lambda t: _alibi_bias(cfg.n_heads, t)) if cfg.alibi
            else (lambda t: np.broadcast_to(_causal_bias(t), (cfg.n_heads, t, t)))
        )
        self._blocks = [self._shard_block(b) for b in model.blocks]

    # ------------------------------------------------------------------
    def _shard_block(self, block) -> dict:
        """Distribute one block's weights across workers."""
        qkv_w = block.attn.qkv.weight.data  # (d, 3d) laid out [q|k|v]
        qkv_b = block.attn.qkv.bias.data
        # Column-split each of q, k, v by head groups, then re-pack
        # per worker so every worker owns whole heads.
        q_w, k_w, v_w = np.split(qkv_w, 3, axis=1)
        q_b, k_b, v_b = np.split(qkv_b, 3)
        per = self.heads_per_worker * self.head_dim
        workers = []
        for w in range(self.n_workers):
            sl = slice(w * per, (w + 1) * per)
            workers.append({
                "q_w": q_w[:, sl], "k_w": k_w[:, sl], "v_w": v_w[:, sl],
                "q_b": q_b[sl], "k_b": k_b[sl], "v_b": v_b[sl],
                # Row-parallel output projection: split the input axis
                # to match this worker's context slice.
                "proj_w": block.attn.proj.weight.data[sl, :],
                "up_w": split_columns(block.mlp.up.weight.data, self.n_workers)[w],
                "up_b": np.split(block.mlp.up.bias.data, self.n_workers)[w],
                "down_w": split_rows(block.mlp.down.weight.data, self.n_workers)[w],
            })
        return {
            "workers": workers,
            "proj_b": block.attn.proj.bias.data,
            "down_b": block.mlp.down.bias.data,
            "ln1": (block.ln1.gamma.data, block.ln1.beta.data),
            "ln2": (block.ln2.gamma.data, block.ln2.beta.data),
        }

    # ------------------------------------------------------------------
    def _attention(self, shard: dict, h: np.ndarray, bias: np.ndarray,
                   worker: int) -> np.ndarray:
        """One worker's attention over its head group.  Returns the
        partial output-projection product (summed in the all-reduce)."""
        w = shard["workers"][worker]
        t = h.shape[0]
        q = (h @ w["q_w"] + w["q_b"]).reshape(t, self.heads_per_worker, self.head_dim)
        k = (h @ w["k_w"] + w["k_b"]).reshape(t, self.heads_per_worker, self.head_dim)
        v = (h @ w["v_w"] + w["v_b"]).reshape(t, self.heads_per_worker, self.head_dim)
        q, k, v = (a.transpose(1, 0, 2) for a in (q, k, v))
        head_slice = slice(worker * self.heads_per_worker,
                           (worker + 1) * self.heads_per_worker)
        scores = (q @ k.transpose(0, 2, 1)) * self.scale + bias[head_slice]
        context = _softmax(scores.astype(np.float32)) @ v
        context = context.transpose(1, 0, 2).reshape(t, -1)
        return context @ w["proj_w"]

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Logits for a 1-D token sequence, shape (len, vocab)."""
        tokens = np.asarray(tokens).reshape(-1)
        if tokens.size > self.config.seq_len:
            raise ValueError("sequence exceeds the model's maximum length")
        x = self.emb[tokens]
        bias = self._bias_fn(tokens.size)
        for shard in self._blocks:
            h = _layer_norm(x, *shard["ln1"])
            partials = [self._attention(shard, h, bias, w)
                        for w in range(self.n_workers)]
            self.allreduce_count += 1
            x = x + np.sum(partials, axis=0) + shard["proj_b"]

            h = _layer_norm(x, *shard["ln2"])
            mlp_partials = []
            for w in range(self.n_workers):
                ws = shard["workers"][w]
                hidden = gelu(h @ ws["up_w"] + ws["up_b"])
                mlp_partials.append(hidden @ ws["down_w"])
            self.allreduce_count += 1
            x = x + np.sum(mlp_partials, axis=0) + shard["down_b"]
        x = _layer_norm(x, *self.ln_f)
        return x @ self.head.T

    # ------------------------------------------------------------------
    def worker_weight_bytes(self, worker: int, bytes_per_el: int = 4) -> int:
        """Block-weight bytes resident on one worker (the TP saving)."""
        total = 0
        for shard in self._blocks:
            w = shard["workers"][worker]
            total += sum(arr.size for arr in w.values()) * bytes_per_el
        return total
