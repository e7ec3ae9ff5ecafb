"""Where stacking pays: the batched plane against sequential, by shape.

The batched plane stacks a group in chunks of at most
``fed/batched.py`` ``stack_limit`` clients: ``STACK_BUDGET`` over the
widest activation ``w`` of one client's step.  This grid times whole
server updates of the same federation on three arms, alternated in one
process pinned to one core with one BLAS thread:

* ``sequential`` — client by client;
* ``rule`` — the batched plane as shipped (chunks of ``stack_limit``);
* ``full`` — the batched plane with no limit (the whole group in one
  fused step), run only where the rule cuts the group.

Shapes: the CLI's ``tiny`` / ``small`` / ``base`` at batch 2, 4 and 8
(4 clients, 16 local steps) and the perf ledger's training shapes
(``benchmarks/ledger/workloads.py``, imported read-only).  Each arm
also trains one extra update under ``tracemalloc`` for its peak of
traced allocations (numpy buffers included).  Every arm trains the
same updates bit for bit, so the ratios compare equal work.

    python benchmarks/stack_grid.py [--rounds 6] [--out grid.json] [--shapes a,b]

Prints one row per shape; ``--out`` writes the rows as JSON.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from repro.config import FedConfig, OptimConfig, model_config  # noqa: E402
from repro.fed import Photon  # noqa: E402
from repro.fed import batched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_SHAPES = [(m, b) for m in ("tiny", "small", "base") for b in (2, 4, 8)]
LEDGER_SHAPES = ("train_dense", "train_batched", "train_comm", "train_fleet", "serve_base")


def cli_builder(model: str, batch: int):
    """The federation ``repro train --model M --batch-size B`` runs
    (CLI defaults otherwise), on a given plane."""
    def build(plane: str) -> Photon:
        fed = FedConfig(population=4, clients_per_round=4, local_steps=16,
                        rounds=64, local_plane=plane)
        optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                            schedule_steps=fed.total_client_steps,
                            batch_size=batch, weight_decay=0.0)
        return Photon(model_config(model), fed, optim)
    return build


def ledger_builder(name: str, tmp: Path):
    """A ledger training workload's federation (``serve_base``: the
    base checkpoint ``serve_mixed`` trains untimed), on a given plane."""
    if name == "serve_base":
        workload = WORKLOADS["train_dense"](7, tmp)
        workload.model = WORKLOADS["serve_mixed"].model
        workload.fed = dict(population=2, clients_per_round=2, local_steps=1)
        workload.photon = dict(num_shards=2)
    else:
        workload = WORKLOADS[name](7, tmp)
    return lambda plane: workload._photon(local_plane=plane)


def shape_rows(label: str, build, rounds: int) -> dict:
    probe = build("sequential")  # a throwaway: materializing moves no arm's pool
    client = probe.clients[probe.clients.population.ids[0]]
    w, limit = batched.widest_activation(client), batched.stack_limit(client)
    # An async wave stacks the clients that arrive together: none here.
    k = probe.fed_config.clients_per_round if probe.fed_config.mode == "sync" else 1
    arms = ["sequential", "rule"] + (["full"] if limit < k else [])
    budget = batched.STACK_BUDGET

    def plane(arm):
        return "sequential" if arm == "sequential" else "batched"

    def with_budget(arm, fn):
        batched.STACK_BUDGET = 1 << 60 if arm == "full" else budget
        try:
            return fn()
        finally:
            batched.STACK_BUDGET = budget

    photons = {arm: build(plane(arm)) for arm in arms}
    for arm in arms:  # warm up: the first update builds lazy state
        with_budget(arm, lambda: photons[arm].train(rounds=1))
    walls = {arm: [] for arm in arms}
    for i in range(rounds):
        for arm in (arms if i % 2 == 0 else arms[::-1]):
            t0 = time.perf_counter()
            with_budget(arm, lambda: photons[arm].train(rounds=1))
            walls[arm].append(time.perf_counter() - t0)
    peaks = {}
    for arm in arms:
        tracemalloc.start()
        with_budget(arm, lambda: photons[arm].train(rounds=1))
        peaks[arm] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    ppl = {arm: photons[arm].history.val_perplexities for arm in arms}
    assert all(p == ppl["sequential"] for p in ppl.values()), "arms diverged"

    def ratio(arm):
        return statistics.median(s / a for s, a in zip(walls["sequential"], walls[arm]))

    return {
        "shape": label, "k": k, "w": w, "stack_limit": limit,
        "chunks": -(-k // limit), "stacks_whole": limit >= k,
        "wall_s": {arm: [round(x, 4) for x in v] for arm, v in walls.items()},
        "speedup_rule": round(ratio("rule"), 3),
        "speedup_full": round(ratio("full"), 3) if "full" in arms else None,
        "peak_traced_mb": {arm: round(v / 2**20, 2) for arm, v in peaks.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--shapes", help="comma-separated labels (default: all)")
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        shapes = [(f"{m} b{b}", cli_builder(m, b)) for m, b in CLI_SHAPES]
        shapes += [(name, ledger_builder(name, Path(tmp))) for name in LEDGER_SHAPES]
        wanted = set(args.shapes.split(",")) if args.shapes else None
        print(f"{'shape':<12} {'K':>3} {'w':>7} {'limit':>5} {'rule':>6} "
              f"{'full':>6}  peak MiB seq / rule")
        for label, build in shapes:
            if wanted and label not in wanted:
                continue
            row = shape_rows(label, build, args.rounds)
            rows.append(row)
            full = row["speedup_full"]
            print(f"{label:<12} {row['k']:>3} {row['w']:>7} {row['stack_limit']:>5} "
                  f"{row['speedup_rule']:>5.2f}x "
                  f"{'' if full is None else f'{full:.2f}x':>6}  "
                  f"{row['peak_traced_mb']['sequential']:.1f} / "
                  f"{row['peak_traced_mb']['rule']:.1f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"stack_budget": batched.STACK_BUDGET, "rounds": args.rounds,
             "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
