"""Tables 7/8 — downstream in-context evaluation across the family.

The paper scores Photon-1B/3B/7B on 13 in-context benchmarks; the 7B
model wins 10 of 14 head-to-head comparisons.  The driver is model
capacity: with the data and recipe fixed, bigger models fit the
pre-training distribution better and that shows up as accuracy.

To make capacity *bind* at CPU scale we use a dense transition kernel
(14 successors/state): its bigram logit matrix has rank ≈ 30, so a
width-8 model (rank-8 tied embeddings) provably cannot represent it,
width 16 is marginal and width 32 is unconstrained.  Each family
member is pre-trained with the same federated Photon recipe and scored
on the task battery (easy/hard bigram discrimination, copy, cloze).

Shape asserted: validation perplexity strictly improves with width,
and the largest model wins the majority of head-to-head task
comparisons against the smallest (ties count half) — the paper's
"biggest model wins most comparisons".
"""

from __future__ import annotations

from repro.config import FedConfig, ModelConfig, OptimConfig
from repro.data import CachedTokenStream
from repro.data.synthetic import MarkovSource, make_kernel
from repro.eval import (
    BigramTask,
    ClozeTask,
    CopyTask,
    HardBigramTask,
    evaluate_perplexity,
    run_suite,
)
from repro.fed import Photon
from repro.nn import DecoderLM

from common import print_table

VOCAB = 32
WIDTHS = [8, 16, 32]
LOCAL_STEPS = 25
ROUNDS = 4
N_CLIENTS = 4
N_EXAMPLES = 100

#: Dense kernel: the bigram table is (near) full rank, so narrow tied
#: embeddings are a hard capacity ceiling.
DENSE_KERNEL = make_kernel(seed=11, vocab=VOCAB, successors=14, concentration=0.5)


def _family():
    return [
        ModelConfig(f"w{d}", n_blocks=2, d_model=d, n_heads=2,
                    vocab_size=VOCAB, seq_len=32)
        for d in WIDTHS
    ]


def _client_streams(model_cfg, batch=8):
    return {
        f"c{i}": CachedTokenStream(
            MarkovSource(DENSE_KERNEL, seed=100 + i, name=f"dense{i}"),
            batch_size=batch, seq_len=model_cfg.seq_len,
            cache_tokens=16384, seed=200 + i)
        for i in range(N_CLIENTS)
    }


def train_and_score() -> dict[str, dict[str, float]]:
    scores: dict[str, dict[str, float]] = {}
    eval_source = MarkovSource(DENSE_KERNEL, seed=7777, name="dense-eval")
    val = CachedTokenStream(MarkovSource(DENSE_KERNEL, seed=8888, name="val"),
                            batch_size=8, seq_len=32, cache_tokens=8192, seed=9)
    for model_cfg in _family():
        optim = OptimConfig(max_lr=4e-3, warmup_steps=5,
                            schedule_steps=ROUNDS * LOCAL_STEPS,
                            batch_size=8, weight_decay=0.0)
        photon = Photon(
            model_cfg,
            FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                      local_steps=LOCAL_STEPS, rounds=ROUNDS),
            optim, corpus=_client_streams(model_cfg), data_seed=3,
        )
        photon.train()
        model = DecoderLM(model_cfg, seed=0)
        model.load_state_dict(photon.aggregator.global_state)
        tasks = [
            BigramTask(eval_source, seed=21),
            HardBigramTask(eval_source, seed=22),
            CopyTask(VOCAB, seed=23),
            ClozeTask(VOCAB, seed=24),
        ]
        result = run_suite(model, tasks, n_examples=N_EXAMPLES)
        result["val_ppl"] = evaluate_perplexity(model, val, n_batches=4)
        scores[model_cfg.name] = result
    return scores


def test_tables7_8_downstream():
    scores = train_and_score()
    task_names = [t for t in next(iter(scores.values())) if t != "val_ppl"]

    rows = [[name] + [scores[name][t] for t in task_names] + [scores[name]["val_ppl"]]
            for name in scores]
    print_table(
        "Tables 7/8: in-context accuracy (chance = 0.5) and val PPL",
        ["Model"] + task_names + ["val PPL"],
        rows,
    )

    names = [cfg.name for cfg in _family()]
    # Capacity claim: validation perplexity strictly improves with width.
    ppls = [scores[n]["val_ppl"] for n in names]
    assert ppls[0] > ppls[1] > ppls[2], ppls

    largest, smallest = names[-1], names[0]
    wins = sum(scores[largest][t] > scores[smallest][t] for t in task_names)
    ties = sum(scores[largest][t] == scores[smallest][t] for t in task_names)
    print(f"{largest} vs {smallest}: {wins} wins / {ties} ties of {len(task_names)}")
    # The paper's Tables 7/8 shape: biggest model wins the majority of
    # head-to-head comparisons (10/14 in the paper).
    assert wins + 0.5 * ties >= len(task_names) / 2, (wins, ties)
    # And the distribution-fit task is meaningfully above chance for
    # every trained model.
    for n in names:
        assert scores[n]["bigram"] > 0.7, n
