"""Self-tests of the ledger harness: the arithmetic, the contract of
names, and that tracing leaves no trace."""

from __future__ import annotations

import json
import re
import zlib
from pathlib import Path

import pytest

import metrics
import spans
import worker as worker_module
import workloads

ROOT = Path(__file__).resolve().parents[3]


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert metrics.percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="ten are needed"):
        metrics.percentile(range(99), 90)   # 9.9 samples beyond p90
    with pytest.raises(ValueError, match="ten are needed"):
        metrics.percentile(range(224), 99)  # the p99 PR 11 reported
    assert metrics.percentile(range(224), 90) > 0
    with pytest.raises(ValueError):
        metrics.percentile(range(1000), 100)


def test_self_time_is_duration_minus_direct_children():
    #  round 0..100
    #    train 10..60
    #      gelu 20..30, gelu 35..40
    #    send 70..90
    #  save 100..130
    tree = [
        ["fed.engine.round", -1, 0, 100, None],
        ["fed.client.train", 0, 10, 60, None],
        ["tensor.gelu", 1, 20, 30, None],
        ["tensor.gelu", 1, 35, 40, None],
        ["fed.link.send", 0, 70, 90, None],
        ["fed.runstate.save", -1, 100, 130, None],
    ]
    assert spans.self_times(tree) == [30, 35, 10, 5, 20, 30]
    summary = spans.summarize(tree)
    assert summary["self_s"]["tensor.gelu"] == pytest.approx(15e-9)
    assert summary["total_s"]["fed.client.train"] == pytest.approx(50e-9)
    assert summary["calls"]["tensor.gelu"] == 2
    # Self times tile the top-level spans exactly: nothing counted twice.
    assert sum(summary["self_s"].values()) == pytest.approx(130e-9)

    Share = workloads.Share
    measured, breaches = metrics.design_shares(
        [Share("tensor", ("tensor.",), True, 0.10),            # 15/130: holds
         Share("training", ("fed.client.train",), False, 0.30, total=True),
         Share("link", ("fed.link.",), True, 0.50)],           # 20/130: breach
        tree, 0, 130e-9, spans.self_times(tree))
    assert measured == pytest.approx({
        "trace.coverage_share": 1.0, "tensor": 15 / 130,
        "training": 50 / 130, "link": 20 / 130})
    assert [b.split(" is ")[0] for b in breaches] == ["training", "link"]
    # Work that starts at span 4: the first round is set-up, so only
    # the save is a top-level span of the work.
    measured, breaches = metrics.design_shares(
        [], tree, 5, 40e-9, spans.self_times(tree))
    assert measured == pytest.approx({"trace.coverage_share": 0.75})
    assert [b.split(" is ")[0] for b in breaches] == ["trace.coverage_share"]


def test_end_to_end_is_a_median_and_never_a_stand_in():
    rep = dict(setup_s=0.1, work_s=2.0, tokens=100, calib_ms=100.0,
               wire_bytes_per_update=10.0, final_val_ppl=3.0)
    run = {"reps": [rep, {**rep, "work_s": 4.0}, {**rep, "work_s": 1.0}],
           "peak_rss_mb": 50.0, "attempted": 6, "failed": 0}
    e2e = worker_module.end_to_end(run)
    assert list(e2e) == [row[0] for row in metrics.END_TO_END]
    assert e2e["tokens_per_s"] == 50.0  # the median rep, not the mean or best
    assert e2e["request_ms_p50"] is None and e2e["request_ms_p90"] is None
    serving = {**rep, "wire_bytes_per_update": None, "final_val_ppl": None,
               "request_ms_p50": 15.0, "request_ms_p90": 60.0}
    e2e = worker_module.end_to_end({**run, "reps": [serving]})
    assert e2e["wire_bytes_per_update"] is None and e2e["final_val_ppl"] is None
    assert (e2e["request_ms_p50"], e2e["request_ms_p90"]) == (15.0, 60.0)


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------

def test_metric_names_are_well_formed_and_unique():
    names = [row[0] for row in metrics.END_TO_END + metrics.PER_LAYER]
    for name in names + list(workloads.WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(names)) == len(names)
    for _, unit, better, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_repeats_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(metrics.GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"]) <= 0.25


# ----------------------------------------------------------------------
# Tracing leaves no trace
# ----------------------------------------------------------------------

def _entry_points():
    import repro.tensor
    from repro.fed import client, engine, link
    from repro.serve import adapters
    from repro.tensor import autograd, ops

    return {
        "Tensor.gelu": autograd.Tensor.__dict__["gelu"],
        "Tensor.__matmul__": autograd.Tensor.__dict__["__matmul__"],
        "ops.layer_norm": ops.layer_norm,
        "repro.tensor.layer_norm": repro.tensor.layer_norm,  # imported by name
        "engine.tree_mean": engine.tree_mean,          # imported by name
        "client.clip_grad_norm": client.clip_grad_norm,
        "Link.send_state": link.Link.__dict__["send_state"],
        "SyncAggregator.run_round": engine.SyncAggregator.__dict__["run_round"],
        "adapters.synthetic_adapter": adapters.synthetic_adapter,
        "zlib.compress": zlib.compress,
    }


def test_wrappers_install_everywhere_and_restore_exactly():
    before = _entry_points()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _entry_points()
        assert all(during[k] is not before[k] for k in before), [
            k for k in before if during[k] is before[k]]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert not tracer.installed
    after = _entry_points()
    assert all(after[k] is before[k] for k in before)


@pytest.fixture(scope="module")
def traced_reps(tmp_path_factory):
    """Two traced+untraced rep pairs of the cheapest workload."""
    before = _entry_points()
    w = worker_module.Worker("train_batched", 7, True,
                             tmp_path_factory.mktemp("ledger"))
    w.warmup()
    replies = [w.rep(), w.rep()]
    return before, w, replies


def test_untraced_worker_has_no_wrappers(tmp_path):
    before = _entry_points()
    w = worker_module.Worker("train_batched", 7, False, tmp_path)
    assert w.tracer is None
    reply = w.rep()
    assert "layers" not in reply and reply["tokens"] > 0
    assert all(fn is before[k] and not hasattr(fn, "__wrapped__")
               for k, fn in _entry_points().items())


def test_traced_worker_restores_the_wrappers(traced_reps):
    before, w, _ = traced_reps
    assert not w.tracer.installed
    assert all(fn is before[k] for k, fn in _entry_points().items())


def test_counts_repeat_from_rep_to_rep(traced_reps):
    _, w, (first, second) = traced_reps
    counted = [name for name, unit, *_ in metrics.PER_LAYER
               if unit not in ("s", "ms", "share") and name in first["layers"]]
    assert len(counted) > 30
    assert {n: first["layers"][n] for n in counted} == {
        n: second["layers"][n] for n in counted}
    assert first["layers"]["fed.batched.groups"] == 2
    assert first["layers"]["fed.batched.clients_fallback"] == 0
    assert first["layers"]["trace.coverage_share"] > 0.9
    # Traced and untraced reps alike produced the sequential history.
    attempted, failed, notes = w.workload.check(w.reps)
    assert (attempted, failed, notes) == (2 * 4, 0, [])
