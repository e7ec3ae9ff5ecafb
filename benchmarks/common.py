"""Shared scaffolding for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper.  The
models are CPU-scale stand-ins (see DESIGN.md §2), so absolute numbers
differ from the H100 runs; each bench prints a paper-vs-measured
comparison and asserts the *shape* of the result (who wins, rough
factors, orderings).

Conventions
-----------
* ``MICRO``/``SMALL`` are the micro-scale architectures used for real
  training runs; analytic benches use the paper's own sizes.
* Perplexity targets mirror the paper's 42 ("near the centralized
  baseline") and 35 ("near optimum"): on our corpus the uniform
  baseline is ``vocab_size`` (= 32) and the entropy floor is ≈ 2.6, so
  we use TARGET_HIGH = 6.0 and TARGET_LOW = 3.6.
* Wall times for training benches come from the Appendix B.1 model
  with the paper's 125M throughput ν = 2 batches/s, exactly as the
  paper computes its own timings.
"""

from __future__ import annotations

from repro.config import ModelConfig, OptimConfig, WallTimeConfig
from repro.data import CachedTokenStream, SyntheticC4
from repro.net import WallTimeModel, gbps_to_mbps

#: Architectures for trained benches (a small "family" for scaling
#: claims).  All share the 32-symbol synthetic vocabulary.
MICRO = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2,
                    vocab_size=32, seq_len=16)
SMALL = ModelConfig("small", n_blocks=2, d_model=32, n_heads=2,
                    vocab_size=32, seq_len=32)
BASE = ModelConfig("base", n_blocks=3, d_model=48, n_heads=4,
                   vocab_size=32, seq_len=32)

#: Local recipe for trained benches (high LR + small batch, the
#: Photon recipe at miniature scale).
FAST_OPTIM = OptimConfig(max_lr=4e-3, warmup_steps=4, schedule_steps=2048,
                         batch_size=4, weight_decay=0.0)

#: Perplexity targets (paper: 42 and 35 on C4; see module docstring).
TARGET_HIGH = 6.0
TARGET_LOW = 3.6

#: Paper Fig. 6/9/10 bandwidths: the PS aggregator sits behind
#: England's slowest uplink (1.2 Gbps, Fig. 2); AR/RAR run at the
#: federation's 2.5 Gbps average (Section 2.1 requirement (d)).
PS_BANDWIDTH_MBPS = gbps_to_mbps(1.2)
P2P_BANDWIDTH_MBPS = gbps_to_mbps(2.5)

#: Paper 125M model payload: 125M params × 2 bytes (bf16) ≈ 250 MB.
MODEL_125M_MB = 250.0

#: Paper local throughput for the 125M model (Appendix B.1).
NU_125M = 2.0


def walltime_125m(topology: str) -> WallTimeModel:
    """Wall-time model for the paper's 125M experiments."""
    bandwidth = PS_BANDWIDTH_MBPS if topology == "ps" else P2P_BANDWIDTH_MBPS
    return WallTimeModel(WallTimeConfig(
        throughput=NU_125M, bandwidth_mbps=bandwidth, model_mb=MODEL_125M_MB,
    ))


def make_val_stream(model: ModelConfig, batch: int = 8,
                    data_seed: int = 1) -> CachedTokenStream:
    c4 = SyntheticC4(num_shards=2, vocab=model.vocab_size, seed=data_seed)
    return CachedTokenStream(c4.validation(), batch_size=batch,
                             seq_len=model.seq_len, cache_tokens=4096, seed=999)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print an aligned comparison table (the bench output format)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)
