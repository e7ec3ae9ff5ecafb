"""Span tracer for the ledger's traced reps.

Wraps, from outside, the public entry points of each layer of
``src/repro`` with span records ``[name, parent, start_ns, end_ns,
arg]`` kept in memory; nothing under ``src/`` is edited and the
wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`.  A span is named after the module it enters
(``tensor.gelu``, ``fed.link.send``), so a layer is a name prefix.

Self time of a span is its duration minus its direct children's (the
workloads are single-threaded, so children nest strictly and never
overlap).  Per-layer ``_s`` metrics are self-time sums by span name;
``_calls`` are span counts; the remaining counts are bumped by the
wrappers at the same boundaries (FLOPs, bytes, rows).
"""

from __future__ import annotations

import json
import sys
import time
import zlib
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Tracer", "self_times", "summarize", "chrome_trace"]

_now = time.perf_counter_ns


class Tracer:
    """Installs the wrappers and owns the span buffer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._functions: dict[int, object] = {}
        self._context: dict[str, int] = {}  # tokens held per open request

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and counts (between reps)."""
        self.spans = []  # rebound, so a caller may keep the old list
        self.counters.clear()  # cleared in place: the wrappers hold it
        self._stack.clear()
        self._context.clear()

    def _span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` may return
        the span's arg, ``after(result, args)`` bumps counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            record = [name, stack[-1] if stack else -1, 0, 0,
                      before(args, kwargs) if before is not None else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[2] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = _now()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, fn):
        """Count calls of a generator-returning function (a span would
        close before the generator is consumed)."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls, attr: str, name: str, **hooks) -> None:
        self._set(cls, attr, self._span(name, cls.__dict__[attr], **hooks))

    def _methods(self, module, attr: str, name: str, **hooks) -> None:
        """Every class of ``module`` that defines ``attr`` itself
        (subclasses override ``step``/``run_round``/``next_batch``)."""
        for cls in list(vars(module).values()):
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and attr in cls.__dict__):
                self._method(cls, attr, name, **hooks)

    def _function(self, module, attr: str, name: str, **hooks) -> None:
        """Queue a module-level function for :meth:`_rebind`."""
        original = getattr(module, attr)
        self._functions[id(original)] = self._span(name, original, **hooks)

    def _rebind(self) -> None:
        """Replace the queued functions in every ``repro`` module that
        holds a reference: ``from .ops import layer_norm`` binds a
        second name that patching the defining module would miss."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "repro":
                continue
            for key, value in list(vars(mod).items()):
                wrapped = self._functions.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    self._set(mod, key, wrapped)
        self._functions = {}

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def install(self) -> None:
        """Wrap every layer boundary (imports ``repro`` lazily so the
        module itself loads without it)."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        from repro import nn
        from repro.compress import codec, error_feedback
        from repro.data import stream
        from repro.fed import (batched, client, engine, link, population,
                               runstate, scheduler, server_opt)
        from repro.optim import clip, optimizers
        from repro.serve import adapters, cache, engine as serve_engine, replay
        from repro.tensor import autograd, ops
        from repro.utils import serialization

        count = self.counters
        Tensor = autograd.Tensor

        def matmul_flops(result, args):
            count["tensor.matmul_flops"] += 2 * result.data.size * args[0].data.shape[-1]

        self._method(Tensor, "gelu", "tensor.gelu")
        self._method(Tensor, "__matmul__", "tensor.matmul", after=matmul_flops)
        self._method(Tensor, "backward", "tensor.backward")
        for attr, name in (("layer_norm", "layer_norm"),
                           ("softmax", "softmax"), ("log_softmax", "softmax"),
                           ("cross_entropy", "cross_entropy"),
                           ("batched_cross_entropy", "cross_entropy"),
                           ("embedding", "embedding"),
                           ("batched_embedding", "embedding")):
            self._function(ops, attr, f"tensor.{name}")

        self._method(nn.DecoderLM, "loss", "nn.loss_fwd")
        self._method(nn.Module, "state_dict", "nn.state_dict")
        self._method(nn.Module, "load_state_dict", "nn.load_state_dict")
        self._set(nn.Module, "named_parameters", self._count(
            "nn.named_parameters_calls", nn.Module.__dict__["named_parameters"]))

        self._method(optimizers.AdamW, "step", "optim.adamw_step")
        self._function(clip, "clip_grad_norm", "optim.clip")

        for cls in (stream.TokenStream, stream.CachedTokenStream,
                    stream.MixedStream):
            self._method(cls, "next_batch", "data.next_batch")
            self._method(cls, "__init__", "data.stream_build")

        self._method(client.LLMClient, "train", "fed.client.train")
        self._function(batched, "train_clients_batched", "fed.batched.train")

        self._method(codec.Codec, "encode", "compress.encode")
        self._method(codec.Codec, "decode", "compress.decode")
        self._method(error_feedback.ErrorFeedback, "apply", "compress.ef_apply")
        self._method(error_feedback.ErrorFeedback, "record", "compress.ef_record")

        self._function(serialization, "encode_state", "utils.serialization.encode")
        self._function(serialization, "decode_state", "utils.serialization.decode")
        self._function(serialization, "tree_mean", "utils.serialization.tree_mean")

        def compress_bytes(result, args):
            count["zlib.compress_bytes_in"] += len(args[0])
            count["zlib.compress_bytes_out"] += len(result)

        # C builtins live in the module dict like any function.
        self._set(zlib, "compress", self._span(
            "zlib.compress", zlib.compress, after=compress_bytes))
        self._set(zlib, "decompress", self._span(
            "zlib.decompress", zlib.decompress))

        self._method(link.Link, "send_state", "fed.link.send")
        self._method(link.Link, "recv_state", "fed.link.recv")

        def save_bytes(result, args):
            count["fed.runstate.save_bytes"] += Path(result).stat().st_size

        self._method(runstate.RunStateCheckpointer, "save", "fed.runstate.save",
                     after=save_bytes)
        self._method(runstate.RunStateCheckpointer, "restore", "fed.runstate.restore")

        self._methods(engine, "run_round", "fed.engine.round")
        self._method(engine.RoundEngine, "evaluate", "fed.engine.evaluate")
        self._methods(server_opt, "step", "fed.server_opt.step")

        def ranked(args, kwargs):
            count["fed.scheduler.candidates_ranked"] += len(args[1])

        self._method(scheduler.ClientScheduler, "select_async",
                     "fed.scheduler.select", before=ranked)
        self._method(scheduler.ClientScheduler, "select_cohort",
                     "fed.scheduler.select", before=ranked)

        def resolved(args, kwargs):
            count["fed.population.ids_resolved"] += len(args[1])

        self._method(population.ClientPopulation, "indices_of",
                     "fed.population.indices_of", before=resolved)

        Engine = serve_engine.MultiAdapterEngine

        context = self._context

        def prefill_tokens(args, kwargs):
            for request_id, prompt in args[1].items():
                context[request_id] = len(prompt)
                count["serve.engine.prefill_tokens"] += len(prompt)

        def decode_rows(args, kwargs):
            # (rows, shortest context, longest context) attended by
            # this step, for the per-row cost by context-length bucket.
            held = []
            for request_id in args[1]:
                context[request_id] += 1
                held.append(context[request_id])
            count["serve.engine.decode_rows"] += len(held)
            return (len(held), min(held, default=0), max(held, default=0))

        self._method(Engine, "prefill_batch", "serve.engine.prefill",
                     before=prefill_tokens)
        self._method(Engine, "decode", "serve.engine.decode", before=decode_rows)
        self._method(Engine, "open", "serve.engine.open_close")
        self._method(Engine, "close", "serve.engine.open_close")

        self._method(cache.AdapterCache, "get", "serve.cache.get")
        self._method(cache.AdapterCache, "put", "serve.cache.put")

        def fetch_bytes(result, args):
            count["serve.adapters.fetch_bytes"] += result.nbytes

        self._function(adapters, "synthetic_adapter", "serve.adapters.fetch",
                       after=fetch_bytes)

        def waves(result, args):
            count["serve.replay.waves"] += result.waves

        self._method(replay.RequestReplayer, "run", "serve.replay.run", after=waves)
        self._rebind()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Self time (ns) per span: duration minus direct children."""
    out = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[1] >= 0:
            out[span[1]] -= span[3] - span[2]
    return out


def summarize(spans: list[list]) -> dict:
    """Aggregate spans by name: ``self_s``, ``total_s``, ``calls``."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, _, start, end, _), own_ns in zip(spans, own):
        self_s[name] += own_ns / 1e9
        total_s[name] += (end - start) / 1e9
        calls[name] += 1
    return {"self_s": dict(self_s), "total_s": dict(total_s),
            "calls": dict(calls)}


def chrome_trace(spans: list[list], path: Path, metadata: dict) -> None:
    """Write spans as Chrome trace-event JSON (open in ui.perfetto.dev
    or chrome://tracing); one track, nesting from the timestamps."""
    origin = spans[0][2] if spans else 0
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": f"ledger/{metadata.get('workload', '')}"}}]
    for name, _, start, end, arg in spans:
        event = {"name": name, "cat": name.rsplit(".", 1)[0], "ph": "X",
                 "pid": 1, "tid": 1, "ts": (start - origin) / 1e3,
                 "dur": (end - start) / 1e3}
        if arg is not None:
            event["args"] = {"arg": arg}
        events.append(event)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))
