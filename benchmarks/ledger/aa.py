"""A/A check: does the ledger agree with itself?

    python benchmarks/ledger/aa.py --sets 5

runs N full ledgers of this checkout with one seed and prints, per
workload/metric pair, the set values, the gap between the worst and
the best set as a share of the best, and the metric's bound.  A timing
pair whose gap exceeds half its bound means the workload is too short
or too jittery for that bound.  Quantities that should repeat exactly
(bytes, perplexity, every per-layer count) are listed when they do not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from metrics import END_TO_END, PER_LAYER  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, required=True, metavar="N",
                        help="N full ledger runs with one seed")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = ROOT / "benchmarks" / "artifacts" / "ledger" / "aa"
    sets = []
    for i in range(args.sets):
        path = out / f"set{i}.json"
        subprocess.run([sys.executable, str(HERE / "run.py"), "--seed",
                        str(args.seed), "--json", str(path)],
                       stdout=subprocess.DEVNULL)
        sets.append(json.loads(path.read_text())["workloads"])
        print(f"set {i} done", file=sys.stderr)

    exact = {"wire_bytes_per_update", "final_val_ppl", "failed_share"}
    exact |= {name for name, unit, *_ in PER_LAYER
              if unit not in ("s", "ms", "share")}
    over = 0
    print(f"{'workload':14s} {'metric':24s} {'gap':>7s} {'bound':>6s}  set values")
    for workload in sets[0]:
        for name, _, better, bound, _ in END_TO_END:
            values = [s[workload]["end_to_end"][name] for s in sets]
            if values[0] is None or name in exact:
                continue
            best = min(values) if better == "lower" else max(values)
            gap = (max(values) - min(values)) / best
            flag = " <-- over half the bound" if gap > bound / 2 else ""
            over += bool(flag)
            print(f"{workload:14s} {name:24s} {gap:7.2%} {bound:6.1%}  "
                  + " ".join(f"{v:.5g}" for v in values) + flag)
    unequal = []
    for workload in sets[0]:
        for name in sorted(exact):
            block = ("end_to_end" if name in sets[0][workload]["end_to_end"]
                     else "per_layer")
            values = [s[workload][block][name] for s in sets]
            if len(set(values)) > 1:
                unequal.append(f"{workload} {name}: {values}")
    print(f"\n{over} timing pairs over half their bound; "
          f"{len(unequal)} exact quantities differ between sets")
    for line in unequal:
        print("  " + line)
    return 1 if unequal else 0


if __name__ == "__main__":
    raise SystemExit(main())
