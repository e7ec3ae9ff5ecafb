"""Figure 3 — perplexity convergence: Photon vs centralized training.

The paper trains 3B/7B models federated (4 clients, full
participation) and centralized, plotting round-by-round perplexity.
We run the scaled-down equivalent at a matched token budget: Photon
with N clients at local batch Bl against centralized training at
global batch N·Bl, evaluating every τ steps so the curves align.

Shape asserted: both converge; the federated curve is stable across
aggregations (no divergent perplexity spikes after early rounds) and
lands within 10% of centralized.  The paper's 13–17% federated *gain*
is a generalization effect of billion-parameter models on real text
that does not transfer to a capacity-saturated toy task (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.config import FedConfig, OptimConfig
from repro.fed import CentralizedTrainer, Photon
from repro.data import CachedTokenStream, SyntheticC4

from common import SMALL, make_val_stream, print_table

N_CLIENTS = 4
LOCAL_BATCH = 4
LOCAL_STEPS = 16
ROUNDS = 8


def run_convergence() -> dict:
    total_steps = LOCAL_STEPS * ROUNDS
    fed_optim = OptimConfig(max_lr=5e-3, warmup_steps=8, schedule_steps=total_steps,
                            batch_size=LOCAL_BATCH, weight_decay=0.0)
    photon = Photon(
        SMALL,
        FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                  local_steps=LOCAL_STEPS, rounds=ROUNDS),
        fed_optim, data_seed=3,
    )
    fed_history = photon.train()

    cent_optim = OptimConfig(max_lr=5e-3, warmup_steps=8, schedule_steps=total_steps,
                             batch_size=N_CLIENTS * LOCAL_BATCH, weight_decay=0.0)
    c4 = SyntheticC4(num_shards=2, vocab=SMALL.vocab_size, seed=3)
    stream = CachedTokenStream(c4.shard(0), batch_size=N_CLIENTS * LOCAL_BATCH,
                               seq_len=SMALL.seq_len, cache_tokens=8192, seed=5)
    trainer = CentralizedTrainer(SMALL, stream, cent_optim,
                                 val_stream=make_val_stream(SMALL, data_seed=3),
                                 seed=0)
    cent_result = trainer.train(total_steps=total_steps, eval_every=LOCAL_STEPS)

    return {
        "fed": fed_history.val_perplexities,
        "fed_train": [r.train_perplexity for r in fed_history],
        "cent": cent_result.history.val_perplexities,
        "cent_diverged": cent_result.diverged,
        "comm_bytes": photon.result().total_comm_bytes,
    }


def test_fig3_convergence():
    result = run_convergence()
    fed, cent = result["fed"], result["cent"]

    rows = [[r, fed[r], result["fed_train"][r], cent[r]] for r in range(len(fed))]
    print_table(
        "Figure 3: perplexity by federated round (tokens matched)",
        ["Round", "Fed val PPL", "Fed client train PPL", "Cent val PPL"],
        rows,
    )

    assert not result["cent_diverged"]
    # Both runs converge substantially.
    assert fed[-1] < 0.5 * fed[0]
    assert cent[-1] < 0.5 * cent[0]
    # Federated lands within 10% of centralized at the same tokens.
    assert fed[-1] <= cent[-1] * 1.10
    # Stability across aggregations: after the early rounds, no
    # perplexity spike exceeding 10% round-over-round (Fig. 3:
    # "minimal perplexity spikes after early rounds").
    for prev, cur in zip(fed[2:], fed[3:]):
        assert cur <= prev * 1.10
