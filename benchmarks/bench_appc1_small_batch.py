"""Appendix C.1 — small batches + high learning rates.

The paper's core optimization insight: centralized training with small
(hardware-determined) batches diverges at high learning rates "unless
the maximal learning rate was reduced linearly w.r.t the batch size",
while federated averaging tolerates the same small-batch/high-LR
recipe — which is what buys Photon its data efficiency.

We run the three-way control at miniature scale with identical local
recipes (batch 2, constant LR, no gradient clipping):

* centralized @ high LR — stalls far from the entropy floor;
* centralized @ linearly-scaled-down LR — stable but slow;
* Photon @ high LR — converges toward the floor.
"""

from __future__ import annotations

from repro.config import FedConfig, OptimConfig
from repro.data import CachedTokenStream, SyntheticC4
from repro.fed import CentralizedTrainer, Photon
from repro.optim import ConstantLR, linear_lr_scaling

from common import MICRO, make_val_stream, print_table

HIGH_LR = 0.05
SMALL_BATCH = 2
REFERENCE_BATCH = 16  # the "tuned" centralized batch the LR was set for
N_CLIENTS = 8
LOCAL_STEPS = 12
ROUNDS = 8
CENT_STEPS = LOCAL_STEPS * ROUNDS


def _optim(lr: float) -> OptimConfig:
    return OptimConfig(max_lr=lr, warmup_steps=1, schedule_steps=4 * CENT_STEPS,
                       batch_size=SMALL_BATCH, weight_decay=0.0, grad_clip=1e9)


def _cent_stream(seed: int = 5):
    c4 = SyntheticC4(num_shards=2, vocab=MICRO.vocab_size, seed=3)
    return CachedTokenStream(c4.shard(0), batch_size=SMALL_BATCH,
                             seq_len=MICRO.seq_len, cache_tokens=4096, seed=seed)


def run_controls() -> dict[str, list[float]]:
    curves: dict[str, list[float]] = {}

    # Centralized, small batch, HIGH LR.
    trainer = CentralizedTrainer(MICRO, _cent_stream(), _optim(HIGH_LR),
                                 schedule=ConstantLR(HIGH_LR),
                                 val_stream=make_val_stream(MICRO, data_seed=3),
                                 seed=0)
    result = trainer.train(total_steps=CENT_STEPS, eval_every=LOCAL_STEPS)
    curves["cent high-LR"] = result.history.val_perplexities

    # Centralized, small batch, linearly scaled-down LR.
    low_lr = linear_lr_scaling(HIGH_LR, REFERENCE_BATCH, SMALL_BATCH)
    trainer = CentralizedTrainer(MICRO, _cent_stream(), _optim(low_lr),
                                 schedule=ConstantLR(low_lr),
                                 val_stream=make_val_stream(MICRO, data_seed=3),
                                 seed=0)
    result = trainer.train(total_steps=CENT_STEPS, eval_every=LOCAL_STEPS)
    curves["cent scaled-LR"] = result.history.val_perplexities

    # Photon: same small batch, same HIGH LR, federated averaging.
    photon = Photon(
        MICRO,
        FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                  local_steps=LOCAL_STEPS, rounds=ROUNDS),
        _optim(HIGH_LR), schedule=ConstantLR(HIGH_LR), data_seed=3,
    )
    curves["photon high-LR"] = photon.train().val_perplexities
    return curves


def test_appc1_small_batch_high_lr():
    curves = run_controls()

    rows = [[name] + [f"{p:.2f}" for p in curve] for name, curve in curves.items()]
    print_table(
        f"Appendix C.1: small batch ({SMALL_BATCH}) stability, LR={HIGH_LR}",
        ["Run"] + [f"eval{r}" for r in range(len(curves["photon high-LR"]))],
        rows,
    )

    cent_high = curves["cent high-LR"][-1]
    cent_scaled = curves["cent scaled-LR"][-1]
    photon_high = curves["photon high-LR"][-1]

    # Federated averaging rescues the high-LR small-batch recipe:
    # Photon ends far below the destabilized centralized run.
    assert photon_high < 0.75 * cent_high
    # The centralized fix is to scale the LR down (the paper's linear
    # rule) — which restores stability...
    assert cent_scaled < cent_high
    # ...but Photon with the aggressive recipe still matches or beats
    # the conservatively tuned centralized run.
    assert photon_high <= cent_scaled * 1.10
