"""The layered perf ledger: one command, every metric by name.

    python benchmarks/ledger/run.py --workload W --seed S --seconds N --trace 0|1

measures one workload in this process for N seconds (``worker.py``),
checks its outputs and prints every metric with its unit; the last
line of output is the result object ``BENCHMARK.json`` asks for (the
gated end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``, which also writes the workload's Chrome trace).

    python benchmarks/ledger/run.py --seed S

is the full ledger: that same command, as a subprocess, for each of
the five workloads, untraced then traced, collected into
``benchmarks/artifacts/ledger/results.json`` with a provenance block.
It exits non-zero when an output check fails or a workload drifted off
its design shares.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ARTIFACTS = ROOT / "benchmarks" / "artifacts" / "ledger"

import worker  # noqa: E402  (stdlib only until worker.measure() runs)
from metrics import END_TO_END, GATED, PER_LAYER  # noqa: E402

#: Listed here, not imported from workloads.py, which loads numpy:
#: that must wait until the process is pinned.
WORKLOADS = ("train_dense", "train_batched", "train_comm", "train_fleet",
             "serve_mixed")


def show(workload: str, values: dict, units: dict[str, str]) -> None:
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:14s} {name:44s} {shown:>14s} {units[name]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: Path | None) -> int:
    """Measure, print, optionally save the full record, and end with
    the driver's result line."""
    run = worker.measure(
        name, seed, seconds, trace, ARTIFACTS / "tmp" / f"{name}-{os.getpid()}",
        ARTIFACTS / f"trace_{name}.json" if trace else None)
    e2e = worker.end_to_end(run)
    violations = list(run["violations"])
    if trace:
        layers, unsteady = worker.per_layer(run)
        violations += unsteady
        reported = layers
        units = {row[0]: row[1] for row in PER_LAYER}
        show(name, layers, units)
    else:
        layers = None
        reported = {metric: e2e[metric] for metric, *_ in GATED}
        units = {row[0]: row[1] for row in END_TO_END}
        show(name, e2e, units)
    # Breaches do not fail a driver run: a kernel fix that moves a
    # design share is a result, and re-shaping the workload is the
    # follow-up change.  The full ledger does exit non-zero on them.
    for note in run["notes"] + violations:
        print(f"{name}: {note}", file=sys.stderr)
    if record is not None:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({
            "reps": len(run["reps"]), "attempted": run["attempted"],
            "failed": run["failed"], "end_to_end": e2e, "per_layer": layers,
            "design_shares": run["shares"], "notes": run["notes"],
            "violations": violations, "host": run["host"],
            "calib_ms": [rep["calib_ms"] for rep in run["reps"]],
        }))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in reported.items()},
    }))
    return 0


def provenance(seed: int, seconds: float) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # an exported checkout
    return {"git_sha": sha, "seed": seed, "seconds": seconds,
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}


def run_ledger(seed: int, seconds: float, out: Path) -> int:
    results = {"provenance": provenance(seed, seconds), "workloads": {}}
    problems = 0
    for name in WORKLOADS:
        records = []
        for trace in (0, 1):
            record = ARTIFACTS / "tmp" / f"{name}-trace{trace}.json"
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed),
                 # Shares and counts need fewer reps than medians do.
                 "--seconds", str(seconds / 2 if trace else seconds),
                 "--trace", str(trace), "--record", str(record)],
                check=True, stdout=subprocess.PIPE, text=True)
            # Everything but the driver's result line.
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            records.append(json.loads(record.read_text()))
            record.unlink()
        plain, traced = records
        results["provenance"].update(plain.pop("host"))
        results["workloads"][name] = {
            **plain,
            "traced_reps": traced["reps"],
            "traced_attempted": traced["attempted"],
            "traced_failed": traced["failed"],
            "per_layer": traced["per_layer"],
            "design_shares": traced["design_shares"],
            "notes": plain["notes"] + traced["notes"],
            "violations": traced["violations"],
            "trace": f"trace_{name}.json",
        }
        problems += (len(traced["violations"]) + plain["failed"]
                     + traced["failed"])
    results["provenance"]["loadavg_end"] = os.getloadavg()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"results: {out}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure this workload in this process and end "
                             "with the driver's result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())
                        ["run_seconds"],
                        help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 measures the per-layer metrics")
    parser.add_argument("--record", type=Path,
                        help="with --workload: also write the run's full "
                             "record here (the full ledger reads it)")
    parser.add_argument("--json", type=Path, default=ARTIFACTS / "results.json",
                        help="where the full ledger writes its results")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.record)
    return run_ledger(args.seed, args.seconds, args.json)


if __name__ == "__main__":
    raise SystemExit(main())
