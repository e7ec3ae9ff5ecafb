"""Data subsystem: tokenizers, synthetic corpora, shards and streams."""

from .sharding import assign_shards
from .stream import (
    BatchStream,
    CachedTokenStream,
    MixedStream,
    TokenStream,
    partition_stream,
)
from .synthetic import (
    PILE_SOURCE_NAMES,
    MarkovSource,
    SyntheticC4,
    SyntheticPile,
    kernel_divergence,
    make_source,
    mixed_kernel,
)
from .tokenizer import DEFAULT_ALPHABET, CharTokenizer

__all__ = [
    "CharTokenizer",
    "DEFAULT_ALPHABET",
    "MarkovSource",
    "SyntheticC4",
    "SyntheticPile",
    "make_source",
    "mixed_kernel",
    "kernel_divergence",
    "PILE_SOURCE_NAMES",
    "BatchStream",
    "TokenStream",
    "CachedTokenStream",
    "MixedStream",
    "partition_stream",
    "assign_shards",
]
