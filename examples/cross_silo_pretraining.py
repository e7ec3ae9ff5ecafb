"""Cross-silo pre-training with the full system surface.

Demonstrates the pieces a real deployment would touch:

* heterogeneous client hardware (single-GPU, multi-GPU DDP, and a
  sub-federated two-node campus) resolved by the Section 4 strategy
  heuristic;
* the analytic wall-time model attached to the aggregator, so every
  round reports simulated wall-clock for the paper's 125M setup;
* run-state checkpointing with recovery, update clipping, one silo
  releasing its updates with Gaussian noise (clip, then noise), and
  intermittent client availability;
* downstream evaluation of the final global model.

Run:
    python examples/cross_silo_pretraining.py
"""

from __future__ import annotations

import tempfile

from repro.config import ModelConfig, OptimConfig, WallTimeConfig
from repro.data import SyntheticC4, CachedTokenStream, partition_stream
from repro.eval import default_suite, run_suite
from repro.fed import (
    Aggregator,
    ClipUpdate,
    Compose,
    DPGaussianNoise,
    FedAvg,
    LLMClient,
    Link,
    RunStateCheckpointer,
)
from repro.net import WallTimeModel, gbps_to_mbps
from repro.nn import DecoderLM
from repro.optim import WarmupCosine
from repro.parallel import H100, NodeSpec, SiloSpec

MODEL = ModelConfig("cross-silo", n_blocks=2, d_model=32, n_heads=2,
                    vocab_size=32, seq_len=32)
OPTIM = OptimConfig(max_lr=5e-3, warmup_steps=8, schedule_steps=256,
                    batch_size=4, weight_decay=0.0)
LOCAL_STEPS = 12
ROUNDS = 5


def build_clients() -> dict[str, LLMClient]:
    """Three silos with different hardware, mirroring Table 1."""
    c4 = SyntheticC4(num_shards=8, vocab=MODEL.vocab_size, seed=7)
    schedule = WarmupCosine(OPTIM.max_lr, OPTIM.warmup_steps,
                            OPTIM.schedule_steps, OPTIM.alpha_min)

    def stream(shard: int) -> CachedTokenStream:
        return CachedTokenStream(c4.shard(shard), batch_size=OPTIM.batch_size,
                                 seq_len=MODEL.seq_len, seed=shard)

    clients: dict[str, LLMClient] = {}
    # A single-GPU institution that releases its updates with Gaussian
    # noise: the federation's clip, then clip-and-noise at its own,
    # tighter sensitivity bound.
    clients["utah"] = LLMClient(
        "utah", MODEL, stream(0), OPTIM, schedule,
        silo=SiloSpec.single_gpu("utah"),
        post_process=Compose([ClipUpdate(10.0), DPGaussianNoise(
            clip_norm=5.0, noise_multiplier=2e-4, seed=0)]),
    )
    # A 4-GPU server: the heuristic picks DDP.
    clients["texas"] = LLMClient(
        "texas", MODEL, stream(1), OPTIM, schedule,
        silo=SiloSpec.multi_gpu(4, "texas"), post_process=ClipUpdate(10.0),
    )
    # Two 1-GPU nodes behind a slow campus link: sub-federation.
    campus = SiloSpec("quebec", (NodeSpec((H100,)), NodeSpec((H100,))),
                      inter_bw_gbps=1.0)
    node_streams = partition_stream(c4.shard(2), 2, OPTIM.batch_size,
                                    MODEL.seq_len, seed=3)
    clients["quebec"] = LLMClient(
        "quebec", MODEL, node_streams, OPTIM, schedule,
        silo=campus, post_process=ClipUpdate(10.0),
    )
    return clients


def main() -> None:
    clients = build_clients()
    for name, client in clients.items():
        plan = client.execution_plan()
        print(f"{name:>7}: strategy={plan.strategy:<15} workers={plan.n_workers}")

    c4 = SyntheticC4(num_shards=8, vocab=MODEL.vocab_size, seed=7)
    val = CachedTokenStream(c4.validation(), batch_size=8,
                            seq_len=MODEL.seq_len, seed=99)

    walltime = WallTimeModel(WallTimeConfig(
        throughput=2.0, bandwidth_mbps=gbps_to_mbps(2.5), model_mb=250.0,
    ))

    with tempfile.TemporaryDirectory() as ckpt_dir:
        aggregator = Aggregator(
            model_config=MODEL,
            clients=clients,
            server_opt=FedAvg(lr=1.0),
            val_stream=val,
            link=Link(compress=True),
            run_checkpointer=RunStateCheckpointer(ckpt_dir),
            walltime=walltime,
            comm_topology="rar",
        )
        history = aggregator.run(rounds=ROUNDS, local_steps=LOCAL_STEPS)

        print("\nround  val ppl  simulated wall (s)")
        for record in history:
            print(f"{record.round_idx:>5}  {record.val_perplexity:>7.2f}  "
                  f"{record.wall_time_s:>18.1f}")

        # Recover the final model from the latest run-state checkpoint
        # (its step counts completed server updates) and evaluate it on
        # the downstream suite.
        step, tree = RunStateCheckpointer(ckpt_dir).load_tree()
        model = DecoderLM(MODEL, seed=0)
        model.load_state_dict(tree["global_state"])
        tasks = default_suite(c4.shard(0), MODEL.vocab_size, seed=5)
        scores = run_suite(model, tasks, n_examples=30)
        print(f"\ndownstream accuracy (chance 0.5), from checkpoint {step}:")
        for task, acc in scores.items():
            print(f"  {task:>10}: {acc:.2f}")


if __name__ == "__main__":
    main()
