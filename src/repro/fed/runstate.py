"""Crash-consistent full-federation run state (checkpoint/resume).

The paper's Algorithm 1 checkpoints the global model asynchronously
for fast recovery, but the global weights are only a fraction of what
a federation *is* mid-run: the ServerOpt moments, the async engine's
event queue and staleness buffer, the scheduler's recency/fairness
counters, per-client error-feedback residuals, the drop ledger and
every RNG stream all advance round by round.  A resume that restores
only the weights silently diverges from the uninterrupted run.

This module makes the whole run durable:

* every stateful component (engines, scheduler, server and local
  optimizers, samplers, availability / failure / jitter / wall-time
  models, drop ledger, Link, codec stages, EF residuals, edge tier,
  client pool, clients, data streams) declares its durable fields once
  as a ``_STATE`` tuple, and :mod:`repro.utils.durable` generates its
  ``state_dict()`` / ``load_state_dict()`` from the declaration;
* the nested state tree is persisted dtype-exactly, one file per
  step, by :class:`~repro.fed.checkpoint.CheckpointManager`;
* :class:`RunStateCheckpointer` versions the artifact and optionally
  runs the **ServerOpt moments** through a :mod:`repro.compress`
  codec (``FedConfig(checkpoint_codec="int8")`` ships FedAdam's m/v
  at one byte per element) — the ROADMAP's "quantize the ServerOpt
  state for checkpoint size" item.

Guarantees (proven by ``tests/test_checkpoint_resume.py``): with
``checkpoint_codec="none"`` a kill at any server-update boundary
followed by a resume replays the uninterrupted run **bit-exactly** —
same final weights, same RoundRecords, same ledger; with a lossy
checkpoint codec only the ServerOpt moments carry quantization error,
bounded by the codec's per-element guarantees.

Damage fails loudly and changes nothing (``tests/test_runstate_damage.py``):
a damaged container raises :class:`~repro.utils.PayloadError` naming
the file, another layout version is refused by number, and a tree of
this version with a field missing, extra, or of the wrong kind, dtype
or shape raises :class:`~repro.utils.durable.RunStateError` naming
``<component>.<field>`` — checked against the declarations and the
live engine before anything is assigned.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..compress.codec import Codec, make_codec
from ..obs.trace import NULL_TRACER
from .checkpoint import CheckpointManager

__all__ = [
    "RUNSTATE_VERSION",
    "RunStateCheckpointer",
]

#: Version stamp written into every run-state artifact; bumped on any
#: incompatible change to the tree layout (the declarations), so a
#: checkpoint of another layout is refused by number.
RUNSTATE_VERSION = 2

#: Marker for a codec-compressed float state dict (ServerOpt moments).
_CODEC_PAYLOAD = "__codec_payload__"

#: Marker for a FedAdam second-moment tree stored in the sqrt domain.
_SQRT_MOMENT = "__sqrt_moment__"


def _sqrt_wrap(node):
    """Move FedAdam second moments into the sqrt domain before codec
    encoding.

    FedAdam divides by ``sqrt(v_hat) + eps``, so what resume accuracy
    actually needs is a tight bound on ``sqrt(v)`` — but a quantizer
    bounds the error of whatever array it is handed.  Quantizing ``v``
    directly puts a *linear*-domain bound on a value used under a
    square root: for small ``v`` the relative error of ``sqrt(v)``
    blows up as the int8 bound stays proportional to ``max |v|`` (the
    PR 5 README caveat).  Storing ``sqrt(v)`` instead makes the codec
    bound apply to the denominator itself, so int8 resume stays within
    the <2% loss gate without special-casing the codec.

    Detects FedAdam-shaped nodes (``{"m", "v"}`` both float state
    dicts) anywhere in the ServerOpt subtree and tags the transformed
    ``v`` so :func:`_sqrt_unwrap` squares it back on load; FedMom/
    Nesterov velocity trees (no division) pass through untouched.
    """
    if isinstance(node, dict):
        if ({"m", "v"} <= set(node)
                and _is_float_state_dict(node.get("m"))
                and _is_float_state_dict(node.get("v"))):
            out = dict(node)
            out["v"] = {_SQRT_MOMENT: {
                k: np.sqrt(v) for k, v in node["v"].items()
            }}
            return out
        return {k: _sqrt_wrap(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_sqrt_wrap(v) for v in node]
    return node


def _sqrt_unwrap(node):
    """Inverse of :func:`_sqrt_wrap`: square tagged moment trees back
    into the linear domain."""
    if isinstance(node, dict):
        if set(node) == {_SQRT_MOMENT}:
            return {k: np.square(v) for k, v in node[_SQRT_MOMENT].items()}
        return {k: _sqrt_unwrap(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_sqrt_unwrap(v) for v in node]
    return node


def _is_float_state_dict(node) -> bool:
    """A non-empty ``{name: float ndarray}`` dict — the shape of a
    moment tree (FedMom velocity, FedAdam m/v)."""
    return (
        isinstance(node, dict)
        and bool(node)
        and all(
            isinstance(v, np.ndarray) and np.issubdtype(v.dtype, np.floating)
            for v in node.values()
        )
    )


def _codec_wrap(node, codec: Codec):
    """Replace every float state dict in ``node`` with its codec
    payload.  Only ever applied to the ServerOpt subtree: the global
    weights, EF residuals and buffered deltas must round-trip exactly
    for the ``checkpoint_codec="none"`` bit-exactness guarantee, so
    they are never routed through here."""
    if _is_float_state_dict(node):
        return {_CODEC_PAYLOAD: codec.encode(node, sender="runstate",
                                             receiver="runstate")}
    if isinstance(node, dict):
        return {k: _codec_wrap(v, codec) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_codec_wrap(v, codec) for v in node]
    return node


def _codec_unwrap(node, codec: Codec):
    """Inverse of :func:`_codec_wrap` (decode is RNG-free)."""
    if isinstance(node, dict):
        if set(node) == {_CODEC_PAYLOAD}:
            return codec.decode(node[_CODEC_PAYLOAD])
        return {k: _codec_unwrap(v, codec) for k, v in node.items()}
    if isinstance(node, list):
        return [_codec_unwrap(v, codec) for v in node]
    return node


class RunStateCheckpointer:
    """Versioned full-run checkpoints over a :class:`CheckpointManager`.

    ``save`` captures ``engine.state_dict()`` — the *entire*
    federation, not just the weights — and writes one rotating
    ``runstate_*.ckpt`` artifact.
    ``restore`` loads the latest (or a chosen) artifact back into a
    freshly-built engine of the same configuration.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing).
    codec:
        :mod:`repro.compress` spec applied to the **ServerOpt
        moments** only (``"none"`` keeps the whole artifact bit-exact;
        ``"fp16"``/``"int8"``/``"int4"`` trade moment precision for
        size).  Decoding needs no RNG, so any artifact can be loaded
        without knowing the seed it was written with.
    keep:
        Rotation depth (see :class:`CheckpointManager`).
    """

    def __init__(self, directory: str | Path, codec: str = "none",
                 keep: int = 3, seed: int = 0, prefix: str = "runstate",
                 tracer=NULL_TRACER):
        self.codec_spec = codec
        self.codec = make_codec(codec, seed=seed)
        self.manager = CheckpointManager(directory, keep=keep, prefix=prefix)
        self.tracer = tracer

    @property
    def directory(self) -> Path:
        return self.manager.directory

    # ------------------------------------------------------------------
    def save(self, engine, step: int) -> Path:
        """Snapshot ``engine`` as checkpoint ``step`` (server updates
        completed)."""
        with self.tracer.host_span("checkpoint", f"save {step}", step=step):
            tree = dict(engine.state_dict())
            if self.codec is not None and tree.get("server_opt"):
                # Second moments ride through the codec in the sqrt
                # domain (see _sqrt_wrap); float32 sqrt→square is not a
                # bit-exact round trip, so the codec=None path never
                # touches them.
                tree["server_opt"] = _codec_wrap(
                    _sqrt_wrap(tree["server_opt"]), self.codec)
            path = self.manager.save(step, tree, metadata={
                "runstate_version": RUNSTATE_VERSION,
                "codec": self.codec_spec,
            })
        meters = self.tracer.meters
        meters.counter("checkpoint/saves").inc()
        meters.gauge("checkpoint/last_bytes").set(self.manager.last_nbytes)
        return path

    # ------------------------------------------------------------------
    def load_tree(self, step: int | None = None) -> tuple[int, dict]:
        """Load a checkpoint's state tree (latest if ``step`` is None)."""
        step, tree, metadata = self.manager.load(step)
        version = metadata.get("runstate_version")
        if version != RUNSTATE_VERSION:
            raise ValueError(
                f"checkpoint at step {step} has runstate version "
                f"{version!r}; this build reads version {RUNSTATE_VERSION}"
            )
        spec = metadata.get("codec", "none")
        codec = make_codec(spec)
        if codec is not None and tree.get("server_opt"):
            tree["server_opt"] = _sqrt_unwrap(
                _codec_unwrap(tree["server_opt"], codec))
        return step, tree

    def restore(self, engine, step: int | None = None) -> int:
        """Load a checkpoint into ``engine``; returns the number of
        server updates the restored run had completed."""
        with self.tracer.host_span("checkpoint", "restore"):
            step, tree = self.load_tree(step)
            engine.load_state_dict(tree)
        self.tracer.meters.counter("checkpoint/restores").inc()
        return step

    def latest_step(self) -> int | None:
        """Most recent checkpoint step, or None if the directory is
        empty."""
        steps = self.manager.list_checkpoints()
        return steps[-1] if steps else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunStateCheckpointer({str(self.directory)!r}, "
                f"codec={self.codec_spec!r})")
