"""The ledger's metric dictionary and the arithmetic behind it.

``END_TO_END`` and ``PER_LAYER`` are the contract; ``BENCHMARK.json``
repeats the gated part of it (``tests/test_ledger.py`` keeps the two
in step).  Every timing is a median over reps; tail percentiles go
through :func:`percentile`, which refuses a percentile the sample
cannot support.
"""

from __future__ import annotations

import math

__all__ = ["END_TO_END", "GATED", "PER_LAYER", "percentile",
           "layer_metrics", "coverage", "design_shares"]

#: (name, unit, better, bound, defined on).  A workload reports only
#: the metrics defined for it; elsewhere the value is ``None``, never
#: a stand-in number.  The bounds are the issue's, except the two gated
#: timings: the driver refuses a bound its ten-seed spread exceeds, and
#: on this host that spread reaches 19 % (README, "Does it agree with
#: itself?").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "all"),
    ("tokens_per_s", "1/s", "higher", 0.25, "all"),
    ("peak_rss_mb", "MiB", "lower", 0.05, "all"),
    ("wire_bytes_per_update", "B", "lower", 0.005, "train"),
    ("final_val_ppl", "ppl", "lower", 0.02, "train"),
    ("request_ms_p50", "ms", "lower", 0.10, "serve"),
    ("request_ms_p90", "ms", "lower", 0.10, "serve"),
    ("failed_share", "share", "lower", 0.0, "all"),
)

#: What ``BENCHMARK.json`` lists and the driver gates.  Its contract
#: wants every end-to-end metric as a number, never 0, on every
#: workload, which leaves the metrics defined on all five;
#: ``failed_share`` is 0 by design and travels as the result line's
#: ``attempted`` and ``failed``.
GATED = tuple(row[:4] for row in END_TO_END
              if row[4] == "all" and row[0] != "failed_share")

# Per-layer rows: (name, unit, better, kind, key).  kind is how the
# value is read off a traced rep: "self"/"total"/"calls" of the span
# called ``key``; "count" from the wrappers' or the program's own
# counters; "derived" rows are computed in layer_metrics(), "run" rows
# over the whole traced run in worker.per_layer().
_S, _N = ("s", "lower"), ("count", "lower")


def _layer(prefix: str, *rows) -> list[tuple]:
    return [(f"{prefix}.{name}", *rest) for name, *rest in rows]


PER_LAYER = tuple(
    _layer("tensor",
           ("gelu_s", *_S, "self", "tensor.gelu"),
           ("gelu_calls", *_N, "calls", "tensor.gelu"),
           ("matmul_s", *_S, "self", "tensor.matmul"),
           ("matmul_calls", *_N, "calls", "tensor.matmul"),
           ("matmul_flops", "flop", "lower", "count", "tensor.matmul_flops"),
           ("layer_norm_s", *_S, "self", "tensor.layer_norm"),
           ("softmax_s", *_S, "self", "tensor.softmax"),
           ("cross_entropy_s", *_S, "self", "tensor.cross_entropy"),
           ("embedding_s", *_S, "self", "tensor.embedding"),
           ("backward_s", *_S, "self", "tensor.backward"),
           ("backward_calls", *_N, "calls", "tensor.backward"))
    + _layer("nn",
             ("loss_fwd_s", *_S, "self", "nn.loss_fwd"),
             ("loss_fwd_calls", *_N, "calls", "nn.loss_fwd"),
             ("state_dict_s", *_S, "self", "nn.state_dict"),
             ("load_state_dict_s", *_S, "self", "nn.load_state_dict"),
             ("named_parameters_calls", *_N, "count", "nn.named_parameters_calls"))
    + _layer("optim",
             ("adamw_step_s", *_S, "self", "optim.adamw_step"),
             ("adamw_step_calls", *_N, "calls", "optim.adamw_step"),
             ("clip_s", *_S, "self", "optim.clip"))
    + _layer("data",
             ("next_batch_s", *_S, "self", "data.next_batch"),
             ("next_batch_calls", *_N, "calls", "data.next_batch"),
             ("stream_build_s", *_S, "self", "data.stream_build"),
             ("stream_build_calls", *_N, "calls", "data.stream_build"))
    + _layer("fed.client",
             ("train_s", *_S, "self", "fed.client.train"),
             ("train_calls", *_N, "calls", "fed.client.train"))
    + _layer("fed.batched",
             ("train_s", *_S, "self", "fed.batched.train"),
             ("groups", *_N, "calls", "fed.batched.train"),
             ("clients_fallback", *_N, "derived", None))
    + _layer("compress",
             ("encode_s", *_S, "self", "compress.encode"),
             ("encode_calls", *_N, "calls", "compress.encode"),
             ("decode_s", *_S, "self", "compress.decode"),
             ("decode_calls", *_N, "calls", "compress.decode"),
             ("ef_apply_s", *_S, "self", "compress.ef_apply"),
             ("ef_record_s", *_S, "self", "compress.ef_record"))
    + _layer("utils.serialization",
             ("encode_s", *_S, "self", "utils.serialization.encode"),
             ("encode_calls", *_N, "calls", "utils.serialization.encode"),
             ("decode_s", *_S, "self", "utils.serialization.decode"),
             ("tree_mean_s", *_S, "self", "utils.serialization.tree_mean"))
    + _layer("zlib",
             ("compress_s", *_S, "self", "zlib.compress"),
             ("compress_bytes_in", "B", "lower", "count", "zlib.compress_bytes_in"),
             ("compress_bytes_out", "B", "lower", "count", "zlib.compress_bytes_out"),
             ("decompress_s", *_S, "self", "zlib.decompress"))
    + _layer("fed.link",
             ("send_s", *_S, "self", "fed.link.send"),
             ("recv_s", *_S, "self", "fed.link.recv"),
             ("messages", *_N, "count", "fed.link.messages"),
             ("uplink_wire_bytes", "B", "lower", "count", "fed.link.uplink_wire_bytes"),
             ("downlink_wire_bytes", "B", "lower", "count",
              "fed.link.downlink_wire_bytes"),
             ("raw_bytes", "B", "lower", "count", "fed.link.raw_bytes"))
    + _layer("fed.runstate",
             ("save_s", *_S, "self", "fed.runstate.save"),
             ("save_calls", *_N, "calls", "fed.runstate.save"),
             ("save_bytes", "B", "lower", "count", "fed.runstate.save_bytes"),
             ("restore_s", *_S, "self", "fed.runstate.restore"))
    + _layer("fed.engine",
             ("round_s", *_S, "total", "fed.engine.round"),
             ("rounds", *_N, "calls", "fed.engine.round"),
             ("self_s", *_S, "self", "fed.engine.round"),
             ("evaluate_s", *_S, "self", "fed.engine.evaluate"))
    + _layer("fed.server_opt",
             ("step_s", *_S, "self", "fed.server_opt.step"))
    + _layer("fed.scheduler",
             ("select_s", *_S, "self", "fed.scheduler.select"),
             ("select_calls", *_N, "calls", "fed.scheduler.select"),
             ("candidates_ranked", *_N, "count", "fed.scheduler.candidates_ranked"))
    + _layer("fed.population",
             ("indices_of_s", *_S, "self", "fed.population.indices_of"),
             ("ids_resolved", *_N, "count", "fed.population.ids_resolved"),
             ("pool_materializations", *_N, "count",
              "fed.population.pool_materializations"),
             ("pool_evictions", *_N, "count", "fed.population.pool_evictions"))
    + _layer("serve.engine",
             ("prefill_s", *_S, "self", "serve.engine.prefill"),
             ("prefill_calls", *_N, "calls", "serve.engine.prefill"),
             ("prefill_tokens", *_N, "count", "serve.engine.prefill_tokens"),
             ("decode_s", *_S, "self", "serve.engine.decode"),
             ("decode_calls", *_N, "calls", "serve.engine.decode"),
             ("decode_rows", *_N, "count", "serve.engine.decode_rows"),
             ("open_close_s", *_S, "self", "serve.engine.open_close"),
             ("decode_ms_per_row_ctx_le32", "ms", "lower", "derived", None),
             ("decode_ms_per_row_ctx_gt96", "ms", "lower", "derived", None))
    + _layer("serve.cache",
             ("get_s", *_S, "self", "serve.cache.get"),
             ("put_s", *_S, "self", "serve.cache.put"),
             ("hits", "count", "higher", "count", "serve.cache.hits"),
             ("misses", *_N, "count", "serve.cache.misses"),
             ("evictions", *_N, "count", "serve.cache.evictions"),
             ("hit_ratio", "share", "higher", "count", "serve.cache.hit_ratio"))
    + _layer("serve.adapters",
             ("fetch_s", *_S, "self", "serve.adapters.fetch"),
             ("fetch_calls", *_N, "calls", "serve.adapters.fetch"),
             ("fetch_bytes", "B", "lower", "count", "serve.adapters.fetch_bytes"))
    + _layer("serve.replay",
             ("run_s", *_S, "total", "serve.replay.run"),
             ("self_s", *_S, "self", "serve.replay.run"),
             ("waves", *_N, "count", "serve.replay.waves"))
    + [("trace.overhead_share", "share", "lower", "run", None),
       ("trace.coverage_share", "share", "higher", "derived", None),
       ("host.calib_ms", "ms", "lower", "run", None)]
)


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), refused unless
    at least ten samples lie beyond it: a p99 of 100 requests is one
    request's luck, not a property of the system."""
    ordered = sorted(samples)
    if not 50 <= q < 100:
        raise ValueError(f"percentile {q} is outside [50, 100)")
    beyond = len(ordered) * (100 - q) / 100
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond:.1f} samples "
            "beyond it; ten are needed"
        )
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(summary: dict, counts: dict, spans: list[list],
                  work_first: int, work_s: float) -> dict[str, float]:
    """Every traced per-layer row of one rep.

    ``summary`` is :func:`spans.summarize` over the whole rep (set-up
    included, so eager stream builds show), ``counts`` the wrappers'
    counters merged with the program's own, ``spans[work_first:]`` the
    spans of the timed work, ``work_s`` its wall.
    """
    calls = summary["calls"]
    out = {}
    for name, _, _, kind, key in PER_LAYER:
        if kind == "self":
            out[name] = summary["self_s"].get(key, 0.0)
        elif kind == "total":
            out[name] = summary["total_s"].get(key, 0.0)
        elif kind == "calls":
            out[name] = calls.get(key, 0)
        elif kind == "count":
            out[name] = counts.get(key, 0)
    # A client the batched plane could not stack trains on its own.
    out["fed.batched.clients_fallback"] = (
        calls.get("fed.client.train", 0) if calls.get("fed.batched.train") else 0)
    for name, keep in (
            ("serve.engine.decode_ms_per_row_ctx_le32", lambda lo, hi: hi <= 32),
            ("serve.engine.decode_ms_per_row_ctx_gt96", lambda lo, hi: lo > 96)):
        steps = [(end - start, arg[0])
                 for span_name, _, start, end, arg in spans
                 if span_name == "serve.engine.decode" and arg[0]
                 and keep(arg[1], arg[2])]
        rows = sum(n for _, n in steps)
        out[name] = sum(ns for ns, _ in steps) / 1e6 / rows if rows else 0.0
    out["trace.coverage_share"] = coverage(spans, work_first, work_s)
    return out


def coverage(spans: list[list], work_first: int, work_s: float) -> float:
    """Share of the work wall inside any span: the parentless spans of
    the work, whose durations equal the sum of all self times in it."""
    return sum(span[3] - span[2] for span in spans[work_first:]
               if span[1] < work_first) / 1e9 / work_s


#: Layer self times must explain this much of a traced rep's work wall.
MIN_COVERAGE = 0.90


def design_shares(shares, spans: list[list], work_first: int,
                  work_s: float, own: list[int]) -> tuple[dict[str, float], list[str]]:
    """``(measured, breaches)``: each of a workload's design shares
    and the coverage floor, as shares of the timed work of one traced
    rep, and the ones outside their bounds (``own`` is
    :func:`spans.self_times` of ``spans``)."""
    measured = {"trace.coverage_share": coverage(spans, work_first, work_s)}
    bounds = {"trace.coverage_share": (True, MIN_COVERAGE)}
    for share in shares:
        ns = 0
        for index in range(work_first, len(spans)):
            span = spans[index]
            if span[0].startswith(share.layers):
                ns += (span[3] - span[2]) if share.total else own[index]
        measured[share.label] = ns / 1e9 / work_s
        bounds[share.label] = (share.at_least, share.bound)
    breaches = []
    for label, value in measured.items():
        at_least, bound = bounds[label]
        if (value < bound) if at_least else (value > bound):
            breaches.append(
                f"{label} is {value:.1%} of the traced work, must be "
                f"{'>=' if at_least else '<='} {bound:.0%}")
    return measured, breaches
