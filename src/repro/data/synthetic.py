"""Synthetic corpora standing in for C4 and The Pile.

The paper partitions C4 [40] into 64 uniform shards for the IID
experiments and uses four Pile [42] sources (ArXiv, C4, Wikipedia,
Project Gutenberg) for the heterogeneity study (Section 5.1).  We
cannot ship those corpora, so each *source* here is a seeded
order-1 Markov chain over a shared character alphabet:

* a transformer can learn a Markov chain essentially optimally, so
  training curves have the same qualitative shape as real LM loss
  curves (fast early drop, long tail);
* distinct transition kernels per source give *measurable*
  distribution shift between clients, which is exactly what the
  non-IID experiments exercise;
* the entropy rate of each kernel lower-bounds achievable loss, so
  perplexity targets can be set relative to a known optimum.

The chain is sparse (each state allows a handful of successors) which
gives low entropy rates and a large learnable gap from the uniform
baseline.
"""

from __future__ import annotations

import copy

import numpy as np

from .tokenizer import CharTokenizer, DEFAULT_ALPHABET

__all__ = [
    "MarkovSource",
    "RepetitionSource",
    "make_kernel",
    "make_source",
    "mixed_kernel",
    "PILE_SOURCE_NAMES",
    "SyntheticC4",
    "SyntheticPile",
    "kernel_divergence",
    "stationary_distribution",
    "cross_perplexity",
]

#: The four Pile text sources used in Section 5.1.
PILE_SOURCE_NAMES = ("arxiv", "c4", "wikipedia", "gutenberg")

#: Per-source RNG seeds; any fixed distinct values work, these make
#: the corpora deterministic across runs.
_SOURCE_SEEDS = {"c4": 11, "arxiv": 23, "wikipedia": 37, "gutenberg": 53}


def make_kernel(seed: int, vocab: int, successors: int, concentration: float,
                 specials: int = 2) -> np.ndarray:
    """Build a sparse row-stochastic transition matrix.

    Each state transitions to ``successors`` successor states with
    Dirichlet(concentration) weights.  Ids below ``specials`` (pad/unk)
    are never emitted and self-loop formally (they are unreachable from
    valid starts).
    """
    rng = np.random.default_rng(seed)
    kernel = np.zeros((vocab, vocab), dtype=np.float64)
    emittable = np.arange(specials, vocab)
    for state in range(vocab):
        if state < specials:
            kernel[state, state] = 1.0
            continue
        succ = rng.choice(emittable, size=min(successors, emittable.size), replace=False)
        weights = rng.dirichlet(np.full(succ.size, concentration))
        kernel[state, succ] = weights
    return kernel


def mixed_kernel(base: np.ndarray, other: np.ndarray, heterogeneity: float) -> np.ndarray:
    """Interpolate two kernels: 0 → identical to base (IID), 1 → fully
    source-specific.  Used to dial non-IID-ness continuously."""
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError(f"heterogeneity must be in [0, 1], got {heterogeneity}")
    return (1.0 - heterogeneity) * base + heterogeneity * other


def kernel_divergence(a: np.ndarray, b: np.ndarray, specials: int = 2) -> float:
    """Mean total-variation distance between transition rows — a simple
    scalar measure of how non-IID two sources are."""
    rows = slice(specials, None)
    return float(0.5 * np.abs(a[rows] - b[rows]).sum(axis=1).mean())


#: Constants of the lane-parallel walk, fixed by measurement (README,
#: "Client data at fleet scale"), not parameters: tokens per lane, the
#: predecessor positions a lane pre-walks to find its start, the cells
#: of the bin prefilter (a power of two, so ``u * cells`` is exact),
#: and the request size below which lanes do not pay for themselves.
_LANE_TOKENS = 256
_PREWALK_TOKENS = 192
_PREFILTER_CELLS = 4096
_MIN_LANE_REQUEST = 4096


class _WalkTable:
    """A transition kernel tabulated for walking.

    ``breaks`` is the sorted set of distinct values in the kernel's
    cumulative rows.  Every ``cum[s, j]`` is one of them, so a uniform
    draw ``u`` acts on *every* state only through its bin
    ``g(u) = #{b in breaks : b <= u}``:
    ``bisect_right(cum[s], u) == next[g(u), s]`` exactly.  The table is
    bin-major and flat: a step of the chain is
    ``table[g * vocab + state]``.

    One table serves every source spawned from the same kernel, and
    carries the walk's fallback counters (plain ints; sources walked
    from several threads may lose an increment, never a token).
    """

    def __init__(self, kernel: np.ndarray):
        cum = np.cumsum(kernel, axis=1)
        vocab = cum.shape[0]
        self.vocab = vocab
        self.breaks = np.unique(cum)
        table = np.zeros((self.breaks.size + 1, vocab), dtype=np.int64)
        for state in range(vocab):
            table[1:, state] = cum[state].searchsorted(self.breaks, side="right")
        np.minimum(table, vocab - 1, out=table)
        self.table = table.reshape(-1)
        self._steps = self.table.tolist()  # the sequential walk's copy
        # Prefilter: cell q holds the draws in [q, q + 1) / cells.  If
        # as many breaks lie at or below its lower edge as strictly
        # below its upper edge, every draw in it has that bin; the
        # other cells are marked -1 and their draws searched one by one.
        edges = np.arange(_PREFILTER_CELLS + 1) / _PREFILTER_CELLS
        low = self.breaks.searchsorted(edges[:-1], side="right")
        high = self.breaks.searchsorted(edges[1:], side="left")
        self._cell_bin = np.where(low == high, low, -1)
        #: speculative lanes walked / lanes a sequential re-walk entered
        #: / speculative tokens it replaced.
        self.lanes_walked = 0
        self.lanes_rewalked = 0
        self.tokens_rewalked = 0

    def _bins(self, uniforms: np.ndarray) -> np.ndarray:
        """``g(u)`` per draw, through the prefilter."""
        cells = (uniforms * _PREFILTER_CELLS).astype(np.intp)
        bins = self._cell_bin.take(cells)
        mixed = np.flatnonzero(bins < 0)
        bins[mixed] = self.breaks.searchsorted(uniforms[mixed], "right")
        return bins

    def _walk(self, state: int, bins: np.ndarray) -> list[int]:
        """The chain from ``state``, one step at a time."""
        steps, vocab = self._steps, self.vocab
        tokens = []
        for g in bins.tolist():
            state = steps[g * vocab + state]
            tokens.append(state)
        return tokens

    def walk(self, state: int, uniforms: np.ndarray,
             dtype=np.int64) -> np.ndarray:
        """The tokens of the chain started in ``state`` and driven by
        ``uniforms``: ``token[i] = next[g(uniforms[i]), token[i - 1]]``,
        as a ``dtype`` array (allocated last, so a narrow result does
        not free an ``int64`` copy on top of the heap).

        A long request is cut into lanes of ``_LANE_TOKENS`` that step
        in lockstep.  Lane ``k >= 1`` does not know its start, so it
        first walks the last ``_PREWALK_TOKENS`` positions of lane
        ``k - 1`` from a guess (``state``, which the chain can at least
        reach).  The map is deterministic: two walks over the same
        draws that agree at one position agree ever after.  So a lane
        whose pre-walk ends on its predecessor's last token walked the
        true chain if the predecessor did, and lane 0 did by
        construction; any other lane is re-walked one step at a time
        from its predecessor's (by then exact) last token until it
        meets its own speculative tokens.
        """
        n = uniforms.size
        if n < _MIN_LANE_REQUEST:
            bins = self.breaks.searchsorted(uniforms, "right")
            return np.array(self._walk(state, bins), dtype=dtype)
        bins = self._bins(uniforms)
        lane = _LANE_TOKENS
        lanes = n // lane
        body = lanes * lane
        # Row j: ``g * vocab`` of step j of every lane.
        by_step = np.empty((lane, lanes), dtype=np.int64)
        np.multiply(bins[:body].reshape(lanes, lane).T, self.vocab, out=by_step)
        table = self.table
        guess = np.full(lanes - 1, state, dtype=np.int64)
        for step in by_step[lane - _PREWALK_TOKENS:, :-1]:
            guess = table[guess + step]
        speculative = np.empty((lane, lanes), dtype=np.int64)
        index = np.empty(lanes, dtype=np.int64)
        current = np.concatenate(([state], guess))
        for step, row in zip(by_step, speculative):
            np.add(current, step, out=index)
            # clip never clips (every index is in the table) but lets
            # take write straight into the row.
            current = table.take(index, out=row, mode="clip")
        tokens = np.empty(n, dtype=dtype)
        tokens[:body].reshape(lanes, lane)[...] = speculative.T
        self.lanes_walked += lanes - 1

        unproved = np.flatnonzero(speculative[-1, :-1] != guess) + 1
        rejoined = 0  # where the last re-walk met its speculative tokens
        for start in (unproved * lane).tolist():
            if start < rejoined:
                continue  # that re-walk ran on through this lane
            for at in range(start, body, lane):
                ahead = tokens[at:at + lane]
                exact = np.array(self._walk(int(tokens[at - 1]),
                                            bins[at:at + lane]))
                met = np.flatnonzero(exact == ahead)
                wrong = int(met[0]) if met.size else lane
                ahead[:wrong] = exact[:wrong]
                self.lanes_rewalked += 1
                self.tokens_rewalked += wrong
                if wrong < lane:
                    break
            rejoined = at + wrong + 1
        if body < n:
            tokens[body:] = self._walk(int(tokens[body - 1]), bins[body:])
        return tokens


class MarkovSource:
    """A text source: a Markov kernel plus a seeded sampling stream.

    ``sample_tokens(n)`` draws a token sequence; independent shards of
    the same source share the kernel but use distinct RNG streams, so
    shards are IID draws from one distribution (the paper's C4 setup).
    """

    def __init__(self, kernel: np.ndarray, seed: int, name: str = "source",
                 specials: int = 2):
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise ValueError("kernel must be square")
        if (kernel < 0).any():
            raise ValueError("kernel entries must be non-negative")
        row_sums = kernel.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-8):
            raise ValueError("kernel rows must sum to 1")
        self.kernel = kernel
        self.name = name
        self.specials = specials
        self._rng = np.random.default_rng(seed)
        self._table = _WalkTable(kernel)
        self.vocab = kernel.shape[0]

    def spawn(self, seed: int, name: str) -> "MarkovSource":
        """An independently-seeded source over the same distribution:
        a shard, part or validation stream.  It shares this source's
        validated kernel and walk table instead of rebuilding them."""
        sibling = copy.copy(self)
        sibling.name = name
        sibling._rng = np.random.default_rng(seed)
        return sibling

    def sample_tokens(self, n: int, rng: np.random.Generator | None = None,
                      dtype=np.int64) -> np.ndarray:
        """Sample ``n`` tokens by walking the chain (as ``dtype``; the
        tokens are the same whatever holds them)."""
        rng = rng or self._rng
        state = int(rng.integers(self.specials, self.vocab))
        return self._table.walk(state, rng.random(n), dtype)

    @property
    def walk_stats(self) -> dict[str, int]:
        """The walk's fallback counters, shared by every source spawned
        from this kernel: speculative lanes walked, lanes re-walked one
        step at a time, and the speculative tokens that replaced."""
        table = self._table
        return {"lanes_walked": table.lanes_walked,
                "lanes_rewalked": table.lanes_rewalked,
                "tokens_rewalked": table.tokens_rewalked}

    def entropy_rate(self) -> float:
        """Entropy rate in nats under the stationary distribution —
        the theoretical floor for LM loss on this source."""
        # Stationary distribution via power iteration on emittable states.
        pi = np.full(self.vocab, 1.0 / (self.vocab - self.specials))
        pi[: self.specials] = 0.0
        for _ in range(200):
            pi = pi @ self.kernel
            pi /= pi.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            log_k = np.where(self.kernel > 0, np.log(self.kernel), 0.0)
        row_entropy = -(self.kernel * log_k).sum(axis=1)
        return float((pi * row_entropy).sum())

    def optimal_perplexity(self) -> float:
        """exp(entropy rate): the best achievable perplexity."""
        return float(np.exp(self.entropy_rate()))


def stationary_distribution(kernel: np.ndarray, specials: int = 2,
                            iterations: int = 300) -> np.ndarray:
    """Stationary distribution of a Markov kernel via power iteration
    (special tokens carry zero mass)."""
    pi = np.full(kernel.shape[0], 1.0 / (kernel.shape[0] - specials))
    pi[:specials] = 0.0
    for _ in range(iterations):
        pi = pi @ kernel
        pi /= pi.sum()
    return pi


def cross_perplexity(true_kernel: np.ndarray, predictor_kernel: np.ndarray,
                     specials: int = 2) -> float:
    """Perplexity of the best model of ``predictor_kernel`` evaluated
    on text drawn from ``true_kernel``.

    This is the achievable *floor* for a model trained on one
    distribution (e.g. the four-source Pile mixture) and evaluated on
    another (the C4 validation set) — the right normalizer for the
    heterogeneity experiments, where the mixture-trained model cannot
    reach the in-distribution optimum.
    """
    pi = stationary_distribution(true_kernel, specials)
    log_pred = np.where(true_kernel > 0,
                        np.log(np.maximum(predictor_kernel, 1e-12)), 0.0)
    cross_entropy = -(pi[:, None] * true_kernel * log_pred).sum()
    return float(np.exp(cross_entropy))


class RepetitionSource:
    """Markov text with verbatim repeated spans.

    Real text repeats itself (names, phrases, quotations); pure
    order-1 Markov text does not, which makes in-context skills like
    copying and induction unlearnable from it.  This wrapper emits
    Markov text where every span of ``span`` tokens is immediately
    repeated, giving models a pre-training signal for the
    copy/induction downstream tasks (Tables 7/8).  Learning to exploit
    it requires attention composition (≥ 2 transformer blocks), so
    task accuracy becomes capacity-dependent — the property the
    downstream comparison measures.
    """

    def __init__(self, base: MarkovSource, span: int = 8, repeat_prob: float = 1.0,
                 seed: int = 0):
        if span < 1:
            raise ValueError("span must be >= 1")
        if not 0.0 <= repeat_prob <= 1.0:
            raise ValueError("repeat_prob must be in [0, 1]")
        self.base = base
        self.span = span
        self.repeat_prob = repeat_prob
        self.vocab = base.vocab
        self.name = f"{base.name}+rep{span}"
        self._rng = np.random.default_rng(seed)

    def sample_tokens(self, n: int, rng: np.random.Generator | None = None,
                      dtype=np.int64) -> np.ndarray:
        rng = rng or self._rng
        pieces: list[np.ndarray] = []
        total = 0
        while total < n:
            segment = self.base.sample_tokens(self.span, rng=rng, dtype=dtype)
            pieces.append(segment)
            total += segment.size
            if rng.random() < self.repeat_prob:
                pieces.append(segment.copy())
                total += segment.size
        return np.concatenate(pieces)[:n]


def _base_kernel(vocab: int | None) -> np.ndarray:
    """The kernel every named source shares at heterogeneity 0, over
    ``vocab`` tokens (the char tokenizer's by default)."""
    vocab = vocab or CharTokenizer(DEFAULT_ALPHABET).vocab_size
    return make_kernel(seed=7, vocab=vocab, successors=4, concentration=0.6)


def _named_source(name: str, base: np.ndarray, seed_offset: int,
                  heterogeneity: float) -> MarkovSource:
    if name not in _SOURCE_SEEDS:
        raise KeyError(f"unknown source {name!r}; available: {sorted(_SOURCE_SEEDS)}")
    specific = make_kernel(seed=_SOURCE_SEEDS[name], vocab=base.shape[0],
                           successors=4, concentration=0.6)
    kernel = mixed_kernel(base, specific, heterogeneity)
    return MarkovSource(kernel, seed=_SOURCE_SEEDS[name] + seed_offset, name=name)


def make_source(name: str, vocab: int | None = None, seed_offset: int = 0,
                heterogeneity: float = 1.0) -> MarkovSource:
    """Construct one of the named sources.

    Parameters
    ----------
    name:
        One of :data:`PILE_SOURCE_NAMES` (``"c4"`` doubles as the C4
        corpus source).
    vocab:
        Vocabulary size; defaults to the char tokenizer's.
    heterogeneity:
        0 makes every source identical to the shared base kernel
        (IID control); 1 keeps sources fully distinct.
    """
    return _named_source(name, _base_kernel(vocab), seed_offset, heterogeneity)


class SyntheticC4:
    """C4 substitute: one source, uniformly sharded.

    Mirrors Section 5.1: "randomly partitioning the C4 dataset
    uniformly into 64 equally sized shards.  N clients refer to a
    subset of N shards."  All shards share the kernel and differ only
    in their RNG stream, i.e. the partition is IID.
    """

    def __init__(self, num_shards: int = 64, vocab: int | None = None, seed: int = 0):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.seed = seed
        self.source = make_source("c4", vocab=vocab, seed_offset=seed)

    def shard(self, index: int) -> MarkovSource:
        """Return shard ``index`` as an independently-seeded source."""
        if not 0 <= index < self.num_shards:
            raise IndexError(f"shard index {index} out of range [0, {self.num_shards})")
        return self.source.spawn(seed=1000 + self.seed * 97 + index,
                                 name=f"c4-shard{index}")

    def validation(self) -> MarkovSource:
        """Held-out stream (distinct RNG stream, same distribution) —
        the stand-in for the C4 validation set."""
        return self.source.spawn(seed=999_983 + self.seed, name="c4-validation")


class SyntheticPile:
    """Pile substitute: four stylistically distinct sources.

    ``client_sources(n_clients)`` reproduces the paper's three
    configurations: 4 clients (one source each), 8 (each source split
    in two), 16 (each source split in four).
    """

    def __init__(self, vocab: int | None = None, seed: int = 0,
                 heterogeneity: float = 1.0):
        self.seed = seed
        self.heterogeneity = heterogeneity
        base = _base_kernel(vocab)
        self.sources = {
            name: _named_source(name, base, seed, heterogeneity)
            for name in PILE_SOURCE_NAMES
        }

    def splits(self, n_clients: int) -> int:
        """Parts each source is cut into for ``n_clients`` clients."""
        if n_clients % len(PILE_SOURCE_NAMES) != 0:
            raise ValueError(
                f"n_clients must be a multiple of {len(PILE_SOURCE_NAMES)}, got {n_clients}"
            )
        return n_clients // len(PILE_SOURCE_NAMES)

    def client_source(self, i: int, n_clients: int) -> MarkovSource:
        """Client ``i``'s source per the Section 5.1 recipe: clients
        are dealt to the sources in blocks of ``splits(n_clients)``,
        each an independently-seeded part of its source — built alone,
        so a lazily materialized client costs one source, not
        ``n_clients``."""
        source, part = divmod(i, self.splits(n_clients))
        name = PILE_SOURCE_NAMES[source]
        return self.sources[name].spawn(seed=5000 + self.seed * 131 + i,
                                        name=f"{name}-part{part}")

    def client_sources(self, n_clients: int) -> list[MarkovSource]:
        """Every client's source, in client order."""
        return [self.client_source(i, n_clients) for i in range(n_clients)]

    def validation(self) -> MarkovSource:
        """C4-distribution validation stream (the paper evaluates the
        Pile runs on the C4 validation set)."""
        return self.sources["c4"].spawn(seed=888_887 + self.seed,
                                        name="pile-validation")
