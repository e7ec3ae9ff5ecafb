"""Resume equivalence: kill + resume vs the uninterrupted run.

Algorithm 1 checkpoints the global model asynchronously for fast
recovery; PR 5 makes the *entire* federation durable (ServerOpt
moments, event queue, scheduler counters, RNG streams — see
``repro.fed.runstate``).  This bench measures what that buys and what
the checkpoint codec costs:

* one federation per checkpoint-codec arm (``none``/``fp16``/
  ``int8``), each trained three ways — uninterrupted, killed at the
  midpoint, and resumed from the on-disk checkpoint to the same total
  round count;
* the ``none`` arm must replay **bit-exactly** (identical final loss,
  the headline crash-consistency guarantee);
* the quantized arms trade ServerOpt-moment precision for artifact
  size: the ``int8`` arm must stay within 2% of the uninterrupted
  final loss while shrinking the checkpoint.

Results land in ``benchmarks/artifacts/checkpoint_resume.json``
(uploaded by the nightly CI ``resume-equivalence`` step).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.config import FedConfig, OptimConfig
from repro.fed import Photon

from common import SMALL, print_table

POPULATION = 4
LOCAL_STEPS = 8
ROUNDS = 10
KILL_AT = 5
BATCH = 4

ARTIFACT = Path(__file__).parent / "artifacts" / "checkpoint_resume.json"

#: Checkpoint-codec arms: what the ServerOpt moments ship as.
ARMS = ["none", "fp16", "int8"]


def _photon(**overrides) -> Photon:
    """FedMom federation: the server carries a model-sized velocity,
    so the checkpoint codec has real moments to compress."""
    fed = FedConfig(population=POPULATION, clients_per_round=POPULATION,
                    local_steps=LOCAL_STEPS, rounds=ROUNDS,
                    server_opt="fedmom", server_momentum=0.9, **overrides)
    optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                        schedule_steps=fed.total_client_steps,
                        batch_size=BATCH, weight_decay=0.0)
    return Photon(SMALL, fed, optim, num_shards=POPULATION, val_batches=2)


def _checkpoint_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("runstate_*"))


def run_resume_equivalence() -> dict[str, dict]:
    baseline = _photon()
    baseline_history = baseline.train()
    baseline_loss = baseline_history.train_losses[-1]

    results = {}
    for codec in ARMS:
        with tempfile.TemporaryDirectory() as tmp:
            interrupted = _photon(checkpoint_dir=tmp, checkpoint_codec=codec)
            interrupted.train(rounds=KILL_AT)
            artifact_bytes = _checkpoint_bytes(Path(tmp))
            del interrupted  # the crash
            resumed = _photon(checkpoint_dir=tmp, checkpoint_codec=codec,
                              resume=True)
            history = resumed.train()
        final_loss = history.train_losses[-1]
        results[codec] = {
            "checkpoint_codec": codec,
            "server_updates": len(history),
            "resumed_from": resumed.result().resumed_from_round,
            "checkpoint_bytes": artifact_bytes,
            "final_loss": final_loss,
            "baseline_final_loss": baseline_loss,
            "loss_gap_rel": abs(final_loss - baseline_loss) / baseline_loss,
        }
    return results


def test_resume_equivalence():
    results = run_resume_equivalence()

    rows = [[codec, r["checkpoint_bytes"], r["final_loss"],
             f"{100 * r['loss_gap_rel']:.3f}%"]
            for codec, r in results.items()]
    print_table(
        f"Resume equivalence: kill at round {KILL_AT}/{ROUNDS}, "
        f"{POPULATION} clients, tau={LOCAL_STEPS} (FedMom 0.9)",
        ["Checkpoint codec", "Ckpt bytes", "Final loss", "Loss gap"],
        rows,
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {
            "population": POPULATION, "local_steps": LOCAL_STEPS,
            "rounds": ROUNDS, "kill_at": KILL_AT, "batch": BATCH,
        },
        "results": results,
    }, indent=2))

    # Every arm resumes at the kill point and finishes the full run ...
    assert all(r["server_updates"] == ROUNDS for r in results.values())
    assert all(r["resumed_from"] == KILL_AT for r in results.values())
    # ... the lossless arm replays bit-exactly (loss gap is exactly 0) ...
    assert results["none"]["loss_gap_rel"] == 0.0, results["none"]
    # ... the int8 arm stays within 2% final loss at a smaller artifact.
    assert results["int8"]["loss_gap_rel"] < 0.02, results["int8"]
    assert results["fp16"]["loss_gap_rel"] < 0.02, results["fp16"]
    assert (results["int8"]["checkpoint_bytes"]
            < results["fp16"]["checkpoint_bytes"]
            < results["none"]["checkpoint_bytes"]), results
