"""Tokenizers.

The paper uses the GPT-NeoX-20B tokenizer with a 50 368-entry vocab
[82].  A subword tokenizer over synthetic text would add nothing but
parameters, so the reproduction ships a character-level tokenizer whose
alphabet matches the synthetic corpus generator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CharTokenizer", "DEFAULT_ALPHABET"]

#: Alphabet shared with :mod:`repro.data.synthetic`; 30 symbols keeps
#: the tiny models' 64-entry vocab comfortable.
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz .,\n"


class CharTokenizer:
    """Character-level tokenizer with ``<pad>`` and ``<unk>`` specials.

    Token ids: 0 = ``<pad>``, 1 = ``<unk>``, then one id per alphabet
    character in order.
    """

    PAD = 0
    UNK = 1

    def __init__(self, alphabet: str = DEFAULT_ALPHABET):
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet contains duplicate characters")
        self.alphabet = alphabet
        self._char_to_id = {c: i + 2 for i, c in enumerate(alphabet)}
        self._id_to_char = {i + 2: c for i, c in enumerate(alphabet)}

    @property
    def vocab_size(self) -> int:
        return len(self.alphabet) + 2

    def encode(self, text: str) -> np.ndarray:
        return np.array(
            [self._char_to_id.get(c, self.UNK) for c in text], dtype=np.int64
        )

    def decode(self, ids) -> str:
        return "".join(self._id_to_char.get(int(i), "�") for i in np.asarray(ids).reshape(-1)
                       if int(i) != self.PAD)

