"""Tables 4/5/6 — architecture and hyperparameter presets.

These tables are configuration rather than measurement; the bench
regenerates them from :mod:`repro.config` and checks the arithmetic
relations the paper relies on: parameter counts matching the model
names, the federated cosine stretch rule linking the Table 5 rows,
and the compute-optimal token heuristic of Appendix C.1 (Eq. 8).
"""

from __future__ import annotations

from repro.config import (
    PAPER_FED_SETUPS,
    PAPER_HYPERPARAMS,
    PAPER_MODELS,
)
from repro.optim import federated_schedule_steps

from common import print_table


def build_tables() -> dict:
    table4 = [
        [name, cfg.n_blocks, cfg.d_model, cfg.n_heads, cfg.expansion_ratio,
         cfg.vocab_size, cfg.seq_len, f"{cfg.n_params / 1e6:.0f}M"]
        for name, cfg in PAPER_MODELS.items()
    ]
    table5 = []
    for name, recipes in PAPER_HYPERPARAMS.items():
        fed, cent = recipes["federated"], recipes["centralized"]
        table5.append([name, fed.max_lr, fed.schedule_steps, cent.schedule_steps,
                       fed.batch_size, cent.batch_size])
    table6 = [
        [name, setup["population"], setup["local_steps"], setup["datasets"]]
        for name, setup in PAPER_FED_SETUPS.items()
    ]
    return {"table4": table4, "table5": table5, "table6": table6}


def test_tables4_6_configs():
    tables = build_tables()

    print_table("Table 4: architectures",
                ["Model", "Blocks", "d", "Heads", "Exp", "Vocab", "SeqLen",
                 "Params (est.)"], tables["table4"])
    print_table("Table 5: optimization hyperparameters",
                ["Model", "Max LR", "T fed", "T cent", "B fed", "B cent"],
                tables["table5"])
    print_table("Table 6: federated setups",
                ["Model", "Population P", "Local steps", "Datasets"],
                tables["table6"])

    # Parameter estimates match the names within 30%.
    expected = {"75M": 75e6, "125M": 125e6, "350M": 350e6,
                "1.3B": 1.3e9, "3B": 3e9, "7B": 7e9}
    for name, target in expected.items():
        actual = PAPER_MODELS[name].n_params
        assert 0.7 * target < actual < 1.45 * target, (name, actual)

    # The Table 5 federated/centralized schedule rows obey the stretch
    # rule T_fed = T_cent * B_cent / B_fed for the small-batch (125M) row.
    fed = PAPER_HYPERPARAMS["125M"]["federated"]
    cent = PAPER_HYPERPARAMS["125M"]["centralized"]
    assert federated_schedule_steps(cent.schedule_steps, cent.batch_size,
                                    fed.batch_size) == fed.schedule_steps

    # Appendix C.1 Eq. 8: R * tau = 20|θ| / B_eff puts the paper's
    # 125M four-client run near compute-optimal (paper: 2.32B tokens
    # processed vs Hoffmann-optimal ~2.5B).
    model = PAPER_MODELS["125M"]
    tokens_optimal = 20 * model.n_params
    tokens_run = 9_000 * 4 * 32 * model.seq_len  # steps x N x Bl x seq
    assert 0.5 < tokens_run / tokens_optimal < 1.5
