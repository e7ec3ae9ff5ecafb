"""Synthetic in-context downstream tasks (Tables 7/8 substitute).

The paper evaluates Photon models on 13 in-context benchmarks (ARC,
HellaSwag, PIQA, …) and shows the 7B model winning most head-to-head
comparisons against the smaller family members.  Those suites need
natural-language pre-training; our substitute keeps the *claim shape*:
a battery of in-context tasks whose accuracy improves with model
capacity and training quality on the synthetic corpus.

Each task emits (prompt, correct_token, distractor_token) triples and
is scored as 2-way classification by comparing the model's next-token
log-probabilities — the same contrastive scoring used by the real
benchmarks.  Random chance is 0.5.

Tasks
-----
``copy``       repeat-a-sequence: ...x₁..x_k SEP x₁..x_{j} → x_{j+1}
``induction``  alternating pattern a b a b a → b
``bigram``     next char under the corpus' Markov kernel: likely vs
               near-impossible successor (tests distribution learning)
``cloze``      a "fact" pair seen twice in context must be recalled
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.synthetic import MarkovSource
from ..nn import DecoderLM
from ..tensor import no_grad

__all__ = [
    "TaskExample",
    "DownstreamTask",
    "CopyTask",
    "InductionTask",
    "BigramTask",
    "HardBigramTask",
    "ClozeTask",
    "score_task",
    "run_suite",
    "default_suite",
]

_SPECIALS = 2  # pad/unk never appear in prompts


@dataclass(frozen=True)
class TaskExample:
    prompt: np.ndarray
    correct: int
    distractor: int


class DownstreamTask:
    """Base: seeded generator of contrastive examples."""

    name = "task"

    def __init__(self, vocab_size: int, seed: int = 0):
        if vocab_size <= _SPECIALS + 2:
            raise ValueError("vocabulary too small for downstream tasks")
        self.vocab_size = vocab_size
        self.rng = np.random.default_rng(seed)

    def _random_token(self, exclude: set[int] | None = None) -> int:
        exclude = exclude or set()
        while True:
            token = int(self.rng.integers(_SPECIALS, self.vocab_size))
            if token not in exclude:
                return token

    def make_example(self) -> TaskExample:
        raise NotImplementedError


class CopyTask(DownstreamTask):
    """Copy a sequence after a separator."""

    name = "copy"

    def __init__(self, vocab_size: int, seed: int = 0, span: int = 6):
        super().__init__(vocab_size, seed)
        self.span = span

    def make_example(self) -> TaskExample:
        seq = [self._random_token() for _ in range(self.span)]
        sep = self._random_token(exclude=set(seq))
        j = int(self.rng.integers(1, self.span))
        prompt = np.array(seq + [sep] + seq[:j], dtype=np.int64)
        correct = seq[j]
        distractor = self._random_token(exclude={correct})
        return TaskExample(prompt, correct, distractor)


class InductionTask(DownstreamTask):
    """Complete an alternating a-b-a-b pattern."""

    name = "induction"

    def __init__(self, vocab_size: int, seed: int = 0, repeats: int = 4):
        super().__init__(vocab_size, seed)
        self.repeats = repeats

    def make_example(self) -> TaskExample:
        a = self._random_token()
        b = self._random_token(exclude={a})
        prompt = np.array(([a, b] * self.repeats) + [a], dtype=np.int64)
        distractor = self._random_token(exclude={a, b})
        return TaskExample(prompt, b, distractor)


class BigramTask(DownstreamTask):
    """Pick the corpus-plausible successor over a near-impossible one.

    Measures how well the model internalized the pre-training
    distribution — the closest analogue to perplexity-adjacent
    downstream accuracy.
    """

    name = "bigram"

    def __init__(self, source: MarkovSource, seed: int = 0, context: int = 16):
        super().__init__(source.vocab, seed)
        self.source = source
        self.context = context

    def make_example(self) -> TaskExample:
        prompt = self.source.sample_tokens(self.context, rng=self.rng)
        last = int(prompt[-1])
        row = self.source.kernel[last]
        correct = int(row.argmax())
        impossible = np.where(row <= 1e-12)[0]
        impossible = impossible[impossible >= _SPECIALS]
        if impossible.size == 0:  # fully dense row: fall back to least likely
            distractor = int(row[_SPECIALS:].argmin()) + _SPECIALS
        else:
            distractor = int(self.rng.choice(impossible))
        return TaskExample(prompt.astype(np.int64), correct, distractor)


class HardBigramTask(DownstreamTask):
    """Fine-grained distribution probe: most-likely vs second-most-
    likely successor.

    Unlike :class:`BigramTask` (whose distractor is impossible under
    the kernel), discriminating the top two plausible successors
    requires accurate probability *ratios*, so accuracy keeps
    improving with model quality instead of saturating — the
    discriminative analogue of perplexity.
    """

    name = "bigram-hard"

    def __init__(self, source: MarkovSource, seed: int = 0, context: int = 16):
        super().__init__(source.vocab, seed)
        self.source = source
        self.context = context

    def make_example(self) -> TaskExample:
        while True:
            prompt = self.source.sample_tokens(self.context, rng=self.rng)
            row = self.source.kernel[int(prompt[-1])]
            order = np.argsort(row)[::-1]
            top1, top2 = int(order[0]), int(order[1])
            if row[top2] > 1e-9:
                return TaskExample(prompt.astype(np.int64), top1, top2)


class ClozeTask(DownstreamTask):
    """Recall a key→value pair presented twice in context."""

    name = "cloze"

    def __init__(self, vocab_size: int, seed: int = 0, n_pairs: int = 3):
        super().__init__(vocab_size, seed)
        self.n_pairs = n_pairs

    def make_example(self) -> TaskExample:
        keys = []
        values = []
        used: set[int] = set()
        for _ in range(self.n_pairs):
            k = self._random_token(exclude=used)
            used.add(k)
            v = self._random_token(exclude=used)
            used.add(v)
            keys.append(k)
            values.append(v)
        body: list[int] = []
        for k, v in zip(keys, values):
            body.extend([k, v])
        # Repeat the pairs, then query the first key.
        query = int(self.rng.integers(self.n_pairs))
        prompt = np.array(body + body + [keys[query]], dtype=np.int64)
        correct = values[query]
        distractor = self._random_token(exclude=set(values) | set(keys))
        return TaskExample(prompt, correct, distractor)


# ----------------------------------------------------------------------
def score_task(model: DecoderLM, task: DownstreamTask, n_examples: int = 32) -> float:
    """Fraction of examples where the model prefers the correct token."""
    if n_examples < 1:
        raise ValueError("n_examples must be >= 1")
    wins = 0
    with no_grad():
        for _ in range(n_examples):
            example = task.make_example()
            prompt = example.prompt[-model.config.seq_len:]
            logits = model.forward(prompt[None, :]).data[0, -1]
            if logits[example.correct] > logits[example.distractor]:
                wins += 1
    return wins / n_examples


def default_suite(source: MarkovSource, vocab_size: int, seed: int = 0) -> list[DownstreamTask]:
    """The standard four-task battery."""
    return [
        CopyTask(vocab_size, seed=seed),
        InductionTask(vocab_size, seed=seed + 1),
        BigramTask(source, seed=seed + 2),
        ClozeTask(vocab_size, seed=seed + 3),
    ]


def run_suite(model: DecoderLM, tasks: list[DownstreamTask],
              n_examples: int = 32) -> dict[str, float]:
    """Score a model on every task; returns task name → accuracy."""
    return {task.name: score_task(model, task, n_examples) for task in tasks}
