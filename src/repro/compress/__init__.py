"""Update compression: codecs, error feedback, and the registry.

The subsystem the Link plugs in for lossy pseudo-gradient transport:
quantization (fp16/int8/int4, stochastic rounding) and sparsification
(top-k/rand-k) stages composed behind the lossless zlib — one deflate
level for every codec and every other wire payload
(:data:`repro.utils.serialization.ZLIB_LEVEL`), not a codec setting —
with per-client error-feedback memory so biased codecs stay
convergent.  ``make_codec("none")`` returns ``None`` — the untouched
lossless path — so existing behavior is byte-exact by default.
"""

from .codec import (
    DEFAULT_REGISTRY,
    Codec,
    CodecRegistry,
    CodecStage,
    Fp16Stage,
    Int4Stage,
    Int8Stage,
    RandKStage,
    TopKStage,
    make_codec,
)
from .error_feedback import ErrorFeedback

__all__ = [
    "Codec",
    "CodecStage",
    "CodecRegistry",
    "Fp16Stage",
    "Int8Stage",
    "Int4Stage",
    "TopKStage",
    "RandKStage",
    "ErrorFeedback",
    "make_codec",
    "DEFAULT_REGISTRY",
]
