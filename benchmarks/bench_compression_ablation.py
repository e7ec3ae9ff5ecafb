"""Compression ablation: wire bytes and final loss per update codec.

The Link's lossless zlib barely dents a pseudo-gradient — trained
deltas are near-incompressible float32 noise — so the O(|θ|·T/τ)
LocalSGD reduction was the end of the communication story.  The
``repro.compress`` codecs move the next decade: this bench trains the
same micro federation once per codec arm, in both engines, at equal
server updates, and reads the Link's uplink ledger (raw fp32 volume
vs bytes on the wire) for the exact reduction.

Arms (uplink codec; EF = per-client error feedback):

* ``none``       — lossless zlib baseline (bit-exact legacy Link);
* ``fp16``       — half-precision cast, ~2×;
* ``int8 + ef``  — stochastic-rounding int8 quantization, ≥4×;
* ``topk + ef``  — top-10% sparsification chained with fp16 values
                   (``topk:0.1+fp16``, gap-encoded indices), ≥10×;
* ``topk (no ef)`` — the same codec without error feedback, to show
                   the residual memory is what keeps the loss close.

Headline assertions (the PR's acceptance anchors): at equal server
updates, int8 reduces uplink wire bytes ≥4× and top-k ≥10× vs the raw
volume, and every error-feedback arm lands within 5% of the
uncompressed arm's final loss.  Results are written to
``benchmarks/artifacts/compression_ablation.json``; CI compares the
wire bytes against the committed baseline via ``check_regression.py``.
"""

from __future__ import annotations

import bz2
import json
import lzma
import time
import zlib
from pathlib import Path

from repro.compress import make_codec
from repro.config import FedConfig, OptimConfig
from repro.fed import Photon
from repro.fed.types import RoundInfo

from common import SMALL, print_table

POPULATION = 4
LOCAL_STEPS = 16
ROUNDS = 14
BATCH = 4
#: Sparsification spec for the top-k arm: top 10% of coordinates with
#: fp16 values — the composable-stage chain the codec registry builds.
TOPK_SPEC = "topk:0.1+fp16"

ARTIFACT = Path(__file__).parent / "artifacts" / "compression_ablation.json"

ARMS = [
    ("none", "none", False),
    ("fp16", "fp16", False),
    ("int8 + ef", "int8", True),
    ("topk + ef", TOPK_SPEC, True),
    ("topk (no ef)", TOPK_SPEC, False),
]


def _photon(mode: str, compression: str, error_feedback: bool) -> Photon:
    fed = FedConfig(population=POPULATION, clients_per_round=POPULATION,
                    local_steps=LOCAL_STEPS, rounds=ROUNDS, mode=mode,
                    compression=compression, error_feedback=error_feedback)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=BATCH, weight_decay=0.0)
    return Photon(SMALL, fed, optim, num_shards=POPULATION, val_batches=2)


#: Entropy coders compared over the *same* post-stage byte stream.
#: All three are stdlib; zlib level 1 is what ``Codec.encode`` ships
#: (``repro.utils.serialization.ZLIB_LEVEL``), chosen from these rows.
ENTROPY_CODERS = [
    ("zlib-1", lambda b: zlib.compress(b, 1), zlib.decompress),
    ("zlib-6", lambda b: zlib.compress(b, 6), zlib.decompress),
    ("zlib-9", lambda b: zlib.compress(b, 9), zlib.decompress),
    ("lzma-6", lambda b: lzma.compress(b, preset=6), lzma.decompress),
    ("bz2-9", lambda b: bz2.compress(b, 9), bz2.decompress),
]


def run_entropy_bench() -> dict[str, dict]:
    """Entropy-coder micro-bench over real codec output.

    Trains one genuine client cycle (LOCAL_STEPS steps on the initial
    global weights) and runs each stdlib entropy coder over the exact
    packed byte stream the int8 / top-k stage chains hand to zlib
    (``Codec.stage_payload``) — answering the ROADMAP question of
    whether a stronger container coder is worth the CPU on already-
    quantized streams.
    """
    photon = _photon("sync", "none", False)
    agg = photon.aggregator
    cid = sorted(agg.clients)[0]
    client = agg.clients[cid]
    update = client.train(agg.global_state, RoundInfo(
        round_idx=0, local_steps=LOCAL_STEPS, global_step_base=0))

    out: dict[str, dict] = {}
    for stream_name, spec in (("int8", "int8"), ("topk", TOPK_SPEC)):
        codec = make_codec(spec, seed=0)
        payload = codec.stage_payload(update.delta, sender=cid,
                                      receiver="agg")
        row: dict = {"spec": spec, "payload_bytes": len(payload),
                     "coders": {}}
        for coder, compress, decompress in ENTROPY_CODERS:
            t0 = time.perf_counter()
            packed = compress(payload)
            encode_s = time.perf_counter() - t0
            assert decompress(packed) == payload, coder
            row["coders"][coder] = {
                "bytes": len(packed),
                "ratio": len(payload) / len(packed),
                "encode_s": encode_s,
            }
        out[stream_name] = row
    return out


def run_ablation() -> dict[str, dict]:
    results = {}
    for mode in ("sync", "async"):
        for name, compression, error_feedback in ARMS:
            photon = _photon(mode, compression, error_feedback)
            history = photon.train()
            link = photon.aggregator.link
            result = photon.result()
            results[f"{mode}/{name}"] = {
                "mode": mode,
                "compression": compression,
                "error_feedback": error_feedback,
                "server_updates": len(history),
                "uplink_wire_bytes": link.uplink_wire_bytes,
                "uplink_raw_bytes": link.uplink_raw_bytes,
                "uplink_reduction": link.uplink_raw_bytes / link.uplink_wire_bytes,
                "final_loss": history.train_losses[-1],
                "final_ppl": result.final_perplexity,
            }
    return results


def test_compression_ablation():
    results = run_ablation()
    # One extra client cycle, outside the benchmark timer: the
    # entropy-coder comparison over real post-stage byte streams.
    entropy = run_entropy_bench()

    rows = [[name, r["uplink_wire_bytes"], f"{r['uplink_reduction']:.1f}x",
             r["final_loss"], r["final_ppl"]]
            for name, r in results.items()]
    print_table(
        f"Compression ablation: {ROUNDS} server updates, {POPULATION} "
        f"clients, tau={LOCAL_STEPS} (uplink codec; raw = fp32 volume)",
        ["Arm", "Uplink wire (B)", "Reduction", "Final loss", "Final ppl"],
        rows,
    )
    entropy_rows = [
        [f"{stream}/{coder}", row["payload_bytes"], c["bytes"],
         f"{c['ratio']:.2f}x", f"{c['encode_s'] * 1e3:.1f} ms"]
        for stream, row in entropy.items()
        for coder, c in row["coders"].items()
    ]
    print_table(
        "Entropy coders over post-stage code streams (one real client "
        "delta)",
        ["Stream/coder", "Payload (B)", "Packed (B)", "Ratio", "Encode"],
        entropy_rows,
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    # NOTE: "entropy" lives at the artifact top level, NOT under
    # "results" — check_regression.py demands arm-for-arm symmetry of
    # "results" with the committed baseline and would fail on the
    # extra keys.
    ARTIFACT.write_text(json.dumps({
        "config": {
            "population": POPULATION, "local_steps": LOCAL_STEPS,
            "rounds": ROUNDS, "batch": BATCH, "topk_spec": TOPK_SPEC,
        },
        "results": results,
        "entropy": entropy,
    }, indent=2))

    # The entropy micro-bench is sanity-gated, not regression-gated:
    # every coder must round-trip (asserted inside) and actually
    # compress the already-quantized stream.
    for stream, row in entropy.items():
        assert row["payload_bytes"] > 0, stream
        for coder, c in row["coders"].items():
            assert c["bytes"] > 0 and c["ratio"] > 1.0, (stream, coder)

    # Every arm applies the same number of server updates ...
    assert all(r["server_updates"] == ROUNDS for r in results.values())
    for mode in ("sync", "async"):
        none = results[f"{mode}/none"]
        fp16 = results[f"{mode}/fp16"]
        int8 = results[f"{mode}/int8 + ef"]
        topk = results[f"{mode}/topk + ef"]
        # ... the codecs deliver their headline wire-byte reductions
        # (vs the raw fp32 volume the ledger tracks) ...
        assert int8["uplink_reduction"] >= 4.0, int8
        assert topk["uplink_reduction"] >= 10.0, topk
        # ... monotonically: heavier codecs move fewer bytes ...
        assert (topk["uplink_wire_bytes"] < int8["uplink_wire_bytes"]
                < fp16["uplink_wire_bytes"] < none["uplink_wire_bytes"])
        # ... and error feedback keeps lossy arms within 5% of the
        # uncompressed final loss.
        for arm in (fp16, int8, topk):
            assert abs(arm["final_loss"] - none["final_loss"]) <= \
                0.05 * none["final_loss"], (arm, none)
