"""Lossy update-compression codecs for the Link (Section 4's open hook).

The paper ships lossless zlib only ("without pruning"), which caps the
communication story at the O(|θ|·T/T_local) reduction of LocalSGD
itself.  This module adds the lossy layer a cross-device deployment
needs, as a stack of **composable stages** chained behind the existing
lossless zlib:

``Fp16Stage``
    float32 → float16 casting (2× raw, ~2⁻¹¹ relative error);
``Int8Stage`` / ``Int4Stage``
    symmetric per-tensor linear quantization with **stochastic
    rounding** (seeded, unbiased in expectation; int4 packs two
    codes per byte);
``TopKStage`` / ``RandKStage``
    per-tensor sparsification to a fraction of coordinates, packed as
    index + value arrays (rand-k draws its support from a seeded
    per-channel stream).

A :class:`Codec` is a named list of stages behind the lossless zlib:
``encode`` runs the stages forward over the state dict's arrays, packs
whatever arrays the last stage produced
(:func:`~repro.utils.serialization.pack_tree`) and deflates the result
at the wire's one level (:data:`~repro.utils.serialization.ZLIB_LEVEL`,
the same for every codec); ``decode`` unpacks and runs the stages
backward.  Stages communicate through key suffixes (``key::i``
indices, ``key::q8`` int8 codes, …), and every stage leaves non-float
arrays alone — so ``topk:0.05+fp16`` quantizes the *values* of the
sparse representation, never its indices.

Seeding and determinism: stochastic stages draw from a dedicated
stream per ``(sender, receiver)`` channel, created from a CRC of the
codec seed and the channel id.  Channels are independent and stages
hold no per-message state, so concurrent encode/decode on the sync
engine's thread pool stays rerun-identical for any ``max_workers`` —
the same invariant the engines maintain for client RNG streams.

Construction is name-based through :class:`CodecRegistry` /
:func:`make_codec`: ``"none"``, ``"fp16"``, ``"int8"``, ``"int4"``,
``"topk:<frac>"``, ``"randk:<frac>"``, chained with ``+``
(``"topk:0.05+fp16"``).  ``"none"`` resolves to ``None`` — the Link's
codec-free lossless path, the regression anchor.
"""

from __future__ import annotations

import json
import threading
import zlib

import numpy as np

from ..utils.durable import COMPONENT, RNG, Durable, Field, List, Map
from ..utils.serialization import StateDict, deflate, pack_tree, unpack_tree

__all__ = [
    "Codec",
    "CodecStage",
    "CodecRegistry",
    "Fp16Stage",
    "Int8Stage",
    "Int4Stage",
    "TopKStage",
    "RandKStage",
    "make_codec",
    "DEFAULT_REGISTRY",
]

def _is_value_array(array: np.ndarray) -> bool:
    """Stages only transform floating payload arrays; integer
    bookkeeping (indices, packed codes, dims) passes through."""
    return np.issubdtype(array.dtype, np.floating)


class CodecStage(Durable):
    """One invertible transform over a dict of named arrays.
    Deterministic stages hold no run state."""

    name = "stage"

    def forward(self, arrays: dict[str, np.ndarray],
                channel: tuple[str, str]) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def backward(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class _SeededStage(CodecStage):
    """Stage with an independent RNG stream per (sender, receiver).

    Per-channel streams make stochastic stages deterministic
    regardless of thread interleaving: a channel's draws depend only
    on how many payloads *that channel* encoded, never on global
    encode order.

    The streams are run state: stochastic rounding draws advance per
    payload, per channel, and a resumed run must pick every channel up
    mid-sequence for wire bit-exactness.  Channel tuples are written
    as JSON list keys (client ids are free-form strings, so no
    separator character is safe).
    """

    _STATE = (Field(
        "rngs", Map(RNG), "_rngs",
        encode=lambda rngs: {json.dumps(list(c)): r for c, r in rngs.items()},
        decode=lambda rngs: {tuple(json.loads(k)): r for k, r in rngs.items()}),)

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rngs: dict[tuple[str, str], np.random.Generator] = {}
        self._lock = threading.Lock()

    def _rng(self, channel: tuple[str, str]) -> np.random.Generator:
        with self._lock:
            rng = self._rngs.get(channel)
            if rng is None:
                # crc32, not hash(): stable across processes and
                # PYTHONHASHSEED values (CI pins it, user shells don't).
                key = zlib.crc32(repr((self.seed, self.name, channel)).encode())
                rng = np.random.default_rng(key)
                self._rngs[channel] = rng
            return rng


class Fp16Stage(CodecStage):
    """float32 → float16 (2× raw; ~2⁻¹¹ relative rounding error)."""

    name = "fp16"

    def forward(self, arrays, channel):
        return {
            k: v.astype(np.float16) if _is_value_array(v) else v
            for k, v in arrays.items()
        }

    def backward(self, arrays):
        return {
            k: v.astype(np.float32) if v.dtype == np.float16 else v
            for k, v in arrays.items()
        }


def _finite_scales(arrays: dict[str, np.ndarray], levels: int, stage: str,
                   channel: tuple[str, str]) -> dict[str, float]:
    """Quantization step ``max|x| / levels`` of every value array,
    all computed before the stage touches its RNG: one NaN or inf makes
    the step non-finite, every code of that tensor would decode to NaN
    and error feedback would bank a NaN residual for good — so the
    encode is rejected here, having advanced no stream."""
    scales: dict[str, float] = {}
    for key, v in arrays.items():
        if _is_value_array(v):
            value = np.asarray(v, dtype=np.float32)
            scales[key] = float(np.abs(value).max(initial=0.0)) / levels
            if not np.isfinite(scales[key]):
                raise ValueError(f"{stage} stage: non-finite value in tensor "
                                 f"{key!r} on channel {channel}")
    return scales


def _stochastic_codes(value: np.ndarray, scale: float, levels: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.float32]:
    """Symmetric per-tensor quantization to ``[-levels, levels]`` with
    stochastic rounding: ``q = floor(x / scale + u)``, ``u ~ U[0, 1)``,
    so ``E[q · scale] = x`` and ``|q · scale − x| < scale``."""
    if scale == 0.0:
        return np.zeros(value.shape, dtype=np.int16), np.float32(1.0)
    noise = rng.random(value.shape, dtype=np.float64)
    codes = np.floor(value.astype(np.float64) / scale + noise)
    return (np.clip(codes, -levels, levels).astype(np.int16),
            np.float32(scale))


class Int8Stage(_SeededStage):
    """1 byte per element, codes in [-127, 127] (4× raw)."""

    name = "int8"

    def forward(self, arrays, channel):
        scales = _finite_scales(arrays, 127, self.name, channel)
        rng = self._rng(channel)
        out: dict[str, np.ndarray] = {}
        for key, v in arrays.items():
            if key not in scales:
                out[key] = v
                continue
            codes, scale = _stochastic_codes(
                np.asarray(v, dtype=np.float32), scales[key], 127, rng)
            out[f"{key}::q8"] = codes.astype(np.int8)
            out[f"{key}::s8"] = scale
        return out

    def backward(self, arrays):
        out: dict[str, np.ndarray] = {}
        for name, v in arrays.items():
            if name.endswith("::s8"):
                continue
            if not name.endswith("::q8"):
                out[name] = v
                continue
            key = name[:-4]
            scale = np.float32(arrays[f"{key}::s8"])
            out[key] = v.astype(np.float32) * scale
        return out


class Int4Stage(_SeededStage):
    """Two 4-bit codes per byte, codes in [-7, 7] (8× raw).

    Codes shift to [1, 15], flatten, pad to even length and pack
    high/low nibble; the tensor's dims ride along in a ``::d4`` array
    so backward can unpad and reshape without stage state.
    """

    name = "int4"

    def forward(self, arrays, channel):
        scales = _finite_scales(arrays, 7, self.name, channel)
        rng = self._rng(channel)
        out: dict[str, np.ndarray] = {}
        for key, v in arrays.items():
            if key not in scales:
                out[key] = v
                continue
            value = np.asarray(v, dtype=np.float32)
            codes, scale = _stochastic_codes(value, scales[key], 7, rng)
            shifted = (codes.reshape(-1) + np.int16(8)).astype(np.uint8)
            if shifted.size % 2:
                shifted = np.concatenate(
                    [shifted, np.zeros(1, dtype=np.uint8)])
            out[f"{key}::q4"] = (shifted[0::2] << 4) | shifted[1::2]
            out[f"{key}::s4"] = scale
            out[f"{key}::d4"] = np.asarray(value.shape, dtype=np.int64)
        return out

    def backward(self, arrays):
        out: dict[str, np.ndarray] = {}
        for name, v in arrays.items():
            if name.endswith("::s4") or name.endswith("::d4"):
                continue
            if not name.endswith("::q4"):
                out[name] = v
                continue
            key = name[:-4]
            shape = tuple(int(d) for d in arrays[f"{key}::d4"])
            size = int(np.prod(shape)) if shape else 1
            flat = np.empty(v.size * 2, dtype=np.int16)
            flat[0::2] = (v >> 4).astype(np.int16) - 8
            flat[1::2] = (v & 0x0F).astype(np.int16) - 8
            scale = np.float32(arrays[f"{key}::s4"])
            out[key] = (flat[:size].astype(np.float32) * scale).reshape(shape)
        return out


class _SparseStage(_SeededStage):
    """Keep ``fraction`` of each tensor's coordinates, shipping the
    survivors as (index, value) pairs plus a dims array.

    Indices travel as **gaps between sorted positions** in the
    smallest unsigned dtype that fits: gaps of a k-of-n support are
    small, low-entropy integers the zlib container squeezes to about
    one byte each, where absolute uint32 indices cost nearly four.
    """

    def __init__(self, fraction: float, seed: int = 0):
        super().__init__(seed)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def _support(self, flat: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def forward(self, arrays, channel):
        rng = self._rng(channel)
        out: dict[str, np.ndarray] = {}
        for key, v in arrays.items():
            if not _is_value_array(v):
                out[key] = v
                continue
            flat = np.asarray(v, dtype=np.float32).reshape(-1)
            # An empty tensor ships an empty support (k would otherwise
            # be forced to 1 and argpartition/choice reject size 0).
            k = max(1, int(round(self.fraction * flat.size))) if flat.size else 0
            idx = np.sort(self._support(flat, k, rng)).astype(np.int64) \
                if k else np.empty(0, dtype=np.int64)
            gaps = np.diff(idx, prepend=0)  # gaps[0] is the first index
            dtype = (np.uint8 if k == 0 or gaps.max() < 2**8 else
                     np.uint16 if gaps.max() < 2**16 else np.uint32)
            out[f"{key}::i"] = gaps.astype(dtype)
            out[f"{key}::v"] = flat[idx]
            out[f"{key}::d"] = np.asarray(v.shape, dtype=np.int64)
        return out

    def backward(self, arrays):
        out: dict[str, np.ndarray] = {}
        for name, v in arrays.items():
            if name.endswith("::i") or name.endswith("::d"):
                continue
            if not name.endswith("::v"):
                out[name] = v
                continue
            key = name[:-3]
            shape = tuple(int(d) for d in arrays[f"{key}::d"])
            size = int(np.prod(shape)) if shape else 1
            idx = np.cumsum(arrays[f"{key}::i"].astype(np.int64))
            dense = np.zeros(size, dtype=np.float32)
            dense[idx] = np.asarray(v, dtype=np.float32)
            out[key] = dense.reshape(shape)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(fraction={self.fraction})"


class TopKStage(_SparseStage):
    """Largest-magnitude ``fraction`` of coordinates per tensor —
    captures at least as much pseudo-gradient energy as any other
    k-subset."""

    name = "topk"

    def _support(self, flat, k, rng):
        return np.argpartition(np.abs(flat), flat.size - k)[flat.size - k:]


class RandKStage(_SparseStage):
    """Uniform random ``fraction`` of coordinates per tensor, drawn
    from the seeded per-channel stream (cheaper than top-k, no
    magnitude bias; pair with error feedback)."""

    name = "randk"

    def _support(self, flat, k, rng):
        return rng.choice(flat.size, size=k, replace=False)


class Codec(Durable):
    """Named stage chain behind the lossless zlib.

    ``encode`` casts the state dict to float32 arrays, runs the stages
    forward, packs the resulting arrays and deflates them at
    ``ZLIB_LEVEL`` — the wire's one level, which no codec chooses;
    ``decode`` inverts (whatever level the payload was written at).
    With an empty stage list the codec is the Link's lossless default.
    Its run state is its stages' (the seeded ones' channel streams).
    """

    _STATE = (Field("stages", List(COMPONENT, counted=True)),)

    def __init__(self, name: str, stages: list[CodecStage]):
        self.name = name
        self.stages = list(stages)

    def stage_payload(self, state: StateDict, sender: str = "",
                      receiver: str = "") -> bytes:
        """The packed post-stage byte stream, *before* the entropy
        coder.  This is exactly what ``encode`` hands to zlib (one RNG
        advance for stochastic stages, same as a full encode) —
        exposed so entropy-coder benchmarks can run alternative coders
        over real codec output."""
        arrays: dict[str, np.ndarray] = {
            k: np.asarray(v, dtype=np.float32) for k, v in state.items()
        }
        channel = (sender, receiver)
        for stage in self.stages:
            arrays = stage.forward(arrays, channel)
        return pack_tree({k: np.asarray(v) for k, v in arrays.items()})

    def encode(self, state: StateDict, sender: str = "",
               receiver: str = "") -> bytes:
        return deflate(self.stage_payload(state, sender, receiver))

    def decode(self, payload: bytes) -> StateDict:
        arrays = unpack_tree(payload)
        for stage in reversed(self.stages):
            arrays = stage.backward(arrays)
        return arrays

    def roundtrip(self, state: StateDict, sender: str = "",
                  receiver: str = "") -> StateDict:
        """decode(encode(state)) — what the far end will see."""
        return self.decode(self.encode(state, sender, receiver))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Codec({self.name!r}, stages={self.stages!r})"


# ----------------------------------------------------------------------
# Registry: name-based construction from config/CLI specs.
# ----------------------------------------------------------------------

class CodecRegistry:
    """Maps stage names to factories so codecs build from strings.

    A spec is one stage token or several chained with ``+``
    (``"topk:0.05+fp16"``); a token is ``name`` or ``name:arg``.
    ``"none"`` is special: it resolves to ``None`` — the Link's
    original lossless path, byte-for-byte untouched — and cannot be
    chained.
    """

    def __init__(self):
        self._factories: dict[str, object] = {}

    def register(self, name: str, factory) -> None:
        """``factory(arg: str | None, seed: int) -> CodecStage``."""
        if name in self._factories:
            raise ValueError(f"stage {name!r} is already registered")
        self._factories[name] = factory

    def names(self) -> list[str]:
        return sorted(self._factories) + ["none"]

    def build(self, spec: str, seed: int = 0) -> Codec | None:
        tokens = [t.strip() for t in str(spec).split("+")]
        if "none" in tokens:
            if tokens != ["none"]:
                raise ValueError("'none' cannot be chained with other stages")
            return None
        stages: list[CodecStage] = []
        for i, token in enumerate(tokens):
            name, _, arg = token.partition(":")
            if name not in self._factories:
                raise ValueError(
                    f"unknown compression stage {name!r}; "
                    f"available: {self.names()}"
                )
            # Per-stage seed offset: two stochastic stages in one
            # chain must not share a stream.
            stages.append(self._factories[name](arg or None, seed + 1000 * i))
        return Codec(spec, stages)


def _fraction(arg: str | None, what: str) -> float:
    if arg is None:
        raise ValueError(f"{what} needs a fraction, e.g. '{what}:0.05'")
    try:
        fraction = float(arg)
    except ValueError:
        raise ValueError(f"invalid {what} fraction {arg!r}") from None
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"{what} fraction must be in (0, 1], got {fraction}")
    return fraction


def _no_arg(name: str, arg: str | None) -> None:
    if arg is not None:
        raise ValueError(f"stage {name!r} takes no argument, got {arg!r}")


DEFAULT_REGISTRY = CodecRegistry()
DEFAULT_REGISTRY.register(
    "fp16", lambda arg, seed: (_no_arg("fp16", arg), Fp16Stage())[1])
DEFAULT_REGISTRY.register(
    "int8", lambda arg, seed: (_no_arg("int8", arg), Int8Stage(seed))[1])
DEFAULT_REGISTRY.register(
    "int4", lambda arg, seed: (_no_arg("int4", arg), Int4Stage(seed))[1])
DEFAULT_REGISTRY.register(
    "topk", lambda arg, seed: TopKStage(_fraction(arg, "topk"), seed))
DEFAULT_REGISTRY.register(
    "randk", lambda arg, seed: RandKStage(_fraction(arg, "randk"), seed))


def make_codec(spec: str, seed: int = 0) -> Codec | None:
    """Build a codec from a spec string (``None`` for ``"none"``)."""
    return DEFAULT_REGISTRY.build(spec, seed=seed)
