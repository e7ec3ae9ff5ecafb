"""One workload measured in this process: the only measuring path.

:func:`measure` pins the process to one core and its BLAS to one
thread *before* numpy loads, runs a discarded warm-up rep, freezes the
garbage collector's view of what survived it, runs timed reps until
the measuring window is used (never fewer than ``MIN_REPS``), reads
peak RSS, and only then runs the untimed output checks.  ``run.py
--workload`` calls it directly — the driver starts one process per
run, so peak RSS is the workload's alone — and the full ledger starts
that same command once per workload.

A traced run alternates a traced and an untraced rep, so that
``trace.overhead_share`` is a same-process, same-minute difference:
on a host whose speed drifts by 10 % between two runs, the difference
between a traced run and a separate untraced one would measure the
drift, not the wrappers.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import metrics
import spans

HERE = Path(__file__).resolve().parent

THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: Reps below which a median is not reported, untraced / traced.  The
#: traced run measures shares and counts, which need fewer reps.
MIN_REPS = 9
MIN_TRACED_REPS = 3


def pin() -> int | None:
    """One BLAS thread, one core (the highest allowed: core 0 takes
    most of the host's interrupts).  Returns the core."""
    os.environ.update(THREAD_PINS)
    if not hasattr(os, "sched_setaffinity"):
        return None
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def calibrate() -> float:
    """A fixed ~100 ms numpy kernel (GEMM + tanh), in ms.  Recorded to
    explain an outlier run; never used to normalise."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160)).astype(np.float32)
    b = rng.standard_normal((160, 160)).astype(np.float32) / 16
    start = time.perf_counter()
    for _ in range(1100):
        np.tanh(a @ b)
    return (time.perf_counter() - start) * 1e3


class Worker:
    def __init__(self, name: str, seed: int, traced: bool, tmp: Path):
        # Imported here, not at the top: numpy must load after pin().
        import workloads

        self.workload = workloads.WORKLOADS[name](seed, tmp)
        self.tracer = spans.Tracer() if traced else None
        self.reps = []           # every timed Rep, for check()
        self.last_traced = None  # (spans, first work span, work_s), newest

    def _rep(self):
        """``(setup_s, work_s, rep, first_work_span)``."""
        workload = self.workload
        start = time.perf_counter()
        state = workload.setup()
        setup_s = time.perf_counter() - start
        first = len(self.tracer.spans) if self.tracer is not None else 0
        start = time.perf_counter()
        rep = workload.work(state)
        work_s = time.perf_counter() - start
        workload.teardown(state)
        # Untimed: a federation is full of reference cycles, and peak
        # RSS must not depend on when the collector last happened to run.
        del state
        gc.collect()
        return setup_s, work_s, rep, first

    def warmup(self) -> None:
        self._rep()
        gc.collect()
        gc.freeze()

    def rep(self) -> dict:
        """One timed rep with no wrapper installed; in a traced worker
        a traced rep runs first and adds ``traced_work_s``/``layers``."""
        record = {}
        if self.tracer is not None:
            tracer = self.tracer
            tracer.reset()
            tracer.install()
            try:
                _, traced_s, rep, first = self._rep()
            finally:
                tracer.uninstall()
            self.reps.append(rep)
            recorded = tracer.spans
            record["traced_work_s"] = traced_s
            record["layers"] = metrics.layer_metrics(
                spans.summarize(recorded), {**tracer.counters, **rep.counts},
                recorded, first, traced_s)
            self.last_traced = (recorded, first, traced_s)
        setup_s, work_s, rep, _ = self._rep()
        self.reps.append(rep)
        record.update(
            setup_s=setup_s, work_s=work_s, tokens=rep.tokens,
            wire_bytes_per_update=rep.wire_bytes_per_update,
            final_val_ppl=rep.final_val_ppl, calib_ms=calibrate(),
        )
        if rep.request_ms is not None:
            record["request_ms_p50"] = statistics.median(rep.request_ms)
            record["request_ms_p90"] = metrics.percentile(rep.request_ms, 90)
        return record

    def finish(self, trace_out: Path | None) -> dict:
        """Peak RSS as of the last timed rep, then the output checks
        and, in a traced worker, the design shares and the trace file."""
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted, failed, notes = self.workload.check(self.reps)
        out = {"peak_rss_mb": peak_kib / 1024, "attempted": attempted,
               "failed": failed, "notes": notes, "shares": {}, "violations": []}
        if self.last_traced is not None:
            recorded, first, work_s = self.last_traced
            out["shares"], out["violations"] = metrics.design_shares(
                self.workload.shares, recorded, first, work_s,
                spans.self_times(recorded))
            if trace_out is not None:
                spans.chrome_trace(recorded, trace_out, {
                    "workload": self.workload.name, "seed": self.workload.seed,
                    "work_starts_at_span": first,
                })
        return out


def measure(name: str, seed: int, seconds: float, traced: bool,
            tmp: Path, trace_out: Path | None = None) -> dict:
    """Everything one run of workload ``name`` measured."""
    core = pin()
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        worker = Worker(name, seed, traced, tmp)
        import numpy as np

        blas = np.show_config(mode="dicts").get(
            "Build Dependencies", {}).get("blas", {})
        worker.warmup()
        reps = []
        least = MIN_TRACED_REPS if traced else MIN_REPS
        start = time.perf_counter()
        while True:
            reps.append(worker.rep())
            used = time.perf_counter() - start
            if len(reps) >= least and used + used / len(reps) > seconds:
                break
        return {
            "workload": name, "op": worker.workload.op, "reps": reps,
            "host": {"core": core, "thread_pins": THREAD_PINS,
                     "python": sys.version.split()[0], "numpy": np.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
            **worker.finish(trace_out),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _median(reps: list[dict], value) -> float:
    return statistics.median(value(rep) for rep in reps)


def end_to_end(run: dict) -> dict[str, float | None]:
    """The eight end-to-end metrics of one run, from its untraced
    reps: timings are medians over the reps, exact quantities are the
    last rep's; ``None`` where the workload does not define one."""
    reps = run["reps"]
    last = reps[-1]
    serving = "request_ms_p50" in last
    return {
        "setup_s": _median(reps, lambda r: r["setup_s"]),
        "tokens_per_s": _median(reps, lambda r: r["tokens"] / r["work_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "wire_bytes_per_update": last["wire_bytes_per_update"],
        "final_val_ppl": last["final_val_ppl"],
        "request_ms_p50": (_median(reps, lambda r: r["request_ms_p50"])
                           if serving else None),
        "request_ms_p90": (_median(reps, lambda r: r["request_ms_p90"])
                           if serving else None),
        "failed_share": run["failed"] / run["attempted"],
    }


def per_layer(run: dict) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of one traced run, and the counts that
    did not repeat across its traced reps.  Times are medians over the
    traced reps; counts are the last rep's."""
    reps = run["reps"]
    values, unsteady = {}, []
    for name, unit, _, kind, _ in metrics.PER_LAYER:
        if kind == "run":
            continue
        series = [rep["layers"][name] for rep in reps]
        if unit in ("s", "ms") or name == "trace.coverage_share":
            values[name] = statistics.median(series)
        else:
            values[name] = series[-1]
            if len(set(series)) > 1:
                unsteady.append(f"{name} did not repeat across traced reps: {series}")
    traced = _median(reps, lambda r: r["traced_work_s"])
    plain = _median(reps, lambda r: r["work_s"])
    values["trace.overhead_share"] = (traced - plain) / plain
    values["host.calib_ms"] = _median(reps, lambda r: r["calib_ms"])
    return values, unsteady
