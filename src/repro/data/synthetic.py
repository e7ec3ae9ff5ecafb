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
#: the request size below which lanes do not pay for themselves, and
#: the uniforms drawn and binned at a time.
_LANE_TOKENS = 256
_PREWALK_TOKENS = 192
_PREFILTER_CELLS = 4096
_MIN_LANE_REQUEST = 4096
_DRAW_CHUNK = 8192

#: Constants of the lazy windows (:meth:`MarkovSource.cache_windows`),
#: fixed by measurement (README, "Client data at fleet scale"): the
#: look-back a window tries first (a power of two; a window that does
#: not certify doubles it) and the longest it may try; and what the
#: windows cost, in positions of a cache walk: a read, a position a
#: window walks, and a look-back position per ``_STATES_PER_POSITION``
#: states of the maps it composes.
_LOOKBACK = 64
_MAX_LOOKBACK = 1024
_READ_COST = 4096
_STEP_COST = 4
_STATES_PER_POSITION = 4


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

    def __init__(self, kernel: np.ndarray, specials: int):
        self.specials = specials
        cum = np.cumsum(kernel, axis=1)
        vocab = cum.shape[0]
        self.vocab = vocab
        self.breaks = np.unique(cum)
        table = np.zeros((self.breaks.size + 1, vocab), dtype=np.int32)
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
        self._cell_bin = np.where(low == high, low, -1).astype(np.int32)
        #: speculative lanes walked / lanes a sequential re-walk entered
        #: / speculative tokens it replaced.
        self.lanes_walked = 0
        self.lanes_rewalked = 0
        self.tokens_rewalked = 0
        #: windows served lazily / windows that needed a longer
        #: look-back / lazy caches walked whole after all.
        self.windows_lazy = 0
        self.windows_extended = 0
        self.cache_switches = 0
        self._maps = None

    def window_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """What the lazy windows compose, built on first use:

        * ``maps``, the step maps as rows (row ``g`` is
          ``state -> next[g, state]``) in the narrowest dtype that holds
          a state, with the identity appended as the last row (the
          positions before 0);
        * ``reach``, every state the chain can hold at a position
          >= 0: the closure of ``[specials, vocab)`` under the rows of
          the bins a draw in ``[0, 1)`` can fall in (of the table, not
          the kernel: the table clamps to ``vocab - 1``).
        """
        if self._maps is None:
            vocab = self.vocab
            rows = self.table.reshape(-1, vocab)
            low = np.concatenate(([-np.inf], self.breaks))
            high = np.concatenate((self.breaks, [np.inf]))
            live = rows[(low < 1.0) & (high > 0.0)]
            reach = np.zeros(vocab, dtype=bool)
            reach[self.specials:] = True
            while True:
                grown = reach.copy()
                grown[live[:, reach].ravel()] = True
                if (grown == reach).all():
                    break
                reach = grown
            maps = np.vstack((rows, np.arange(vocab)))
            self._maps = (maps.astype(np.min_scalar_type(vocab - 1)),
                          np.flatnonzero(reach))
        return self._maps

    def _bins(self, uniforms: np.ndarray) -> np.ndarray:
        """``g(u)`` per draw, through the prefilter."""
        cells = (uniforms * _PREFILTER_CELLS).astype(np.int32)
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

    def walk(self, state: int, rng: np.random.Generator, n: int,
             dtype=np.int64) -> np.ndarray:
        """The ``n`` tokens of the chain started in ``state`` and driven
        by ``n`` uniforms ``u`` drawn from ``rng``:
        ``token[i] = next[g(u[i]), token[i - 1]]``, as a ``dtype`` array
        (allocated last, so a narrow result does not free a wide copy
        on top of the heap).  The uniforms are drawn and binned
        ``_DRAW_CHUNK`` at a time (the same draws as one
        ``rng.random(n)``) and the lanes step in ``int32``: the walk's
        working set is about 13 bytes a token, not 32, so a walk that
        runs beside training (a stream's switch) adds little to the
        peak.

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
        if n < _MIN_LANE_REQUEST:
            bins = self.breaks.searchsorted(rng.random(n), "right")
            return np.array(self._walk(state, bins), dtype=dtype)
        bins = np.empty(n, dtype=np.int32)
        for at in range(0, n, _DRAW_CHUNK):
            bins[at:at + _DRAW_CHUNK] = self._bins(
                rng.random(min(_DRAW_CHUNK, n - at)))
        lane = _LANE_TOKENS
        lanes = n // lane
        body = lanes * lane
        # Row j: ``g * vocab`` of step j of every lane.
        by_step = np.empty((lane, lanes), dtype=np.int32)
        np.multiply(bins[:body].reshape(lanes, lane).T, self.vocab, out=by_step)
        table = self.table
        guess = np.full(lanes - 1, state, dtype=np.int32)
        for step in by_step[lane - _PREWALK_TOKENS:, :-1]:
            guess = table[guess + step]
        speculative = np.empty((lane, lanes), dtype=np.int32)
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


class _CacheWindows:
    """The windows of one token cache,
    ``MarkovSource.sample_tokens(size, rng=default_rng(seed))``, each
    computed exactly without walking the positions before it.

    That walk draws ``state0 = rng.integers(specials, vocab)``, then one
    uniform per position: token ``i`` is ``f_i(token[i - 1])``, with
    ``f_i`` the step map of ``g(u_i)`` and ``token[-1] = state0``.
    PCG64 spends one 64-bit output per double, so ``u_i`` is the draw of
    the generator ``integers`` left, advanced ``i`` outputs.

    Coupling from the past: the window at start ``s`` enters in
    ``token[s - 1] = F(token[s - L - 1])``, where ``F`` composes the
    ``L`` step maps before ``s`` (identities before position 0).  If
    ``s <= L`` that is ``F(state0)``.  Otherwise ``token[s - L - 1]``
    lies in the table's ``reach``, so if ``F`` is constant on ``reach``
    the constant is the entry state, whatever the chain did before: the
    window is certified.  The maps compose pairwise, ``log2 L`` gathers
    batched over a batch's windows.  A window that does not certify
    composes the ``L`` maps before those (look-back ``2 L``), up to
    ``_MAX_LOOKBACK``.

    The ski-rental rule: the reads may cost, all told, about what one
    walk of the cache costs (``size`` positions of it, at the
    ``_*_COST`` rates).  A read, or a longer look-back, that would
    spend more than is left is refused, and its reader walks the cache
    instead: so the windows and that walk cost at most about two walks,
    whatever the windows' number, shape and vocabulary.
    """

    def __init__(self, table: _WalkTable, size: int, seed: int):
        self._table = table
        self._rng = np.random.default_rng(seed)
        self._state0 = int(self._rng.integers(table.specials, table.vocab))
        self._at = 0  # the position whose uniform the generator draws next
        self._left = size  # what the reads may still cost

    def _spend(self, windows: int, lookback: int, length: int = 0,
               fixed: int = 0) -> bool:
        """Charge ``fixed`` plus ``windows`` windows composing
        ``lookback`` maps and walking ``length`` positions; False
        (nothing charged) if that is more than is left."""
        cost = fixed + windows * (
            lookback * self._table.vocab // _STATES_PER_POSITION
            + length * _STEP_COST)
        if cost > self._left:
            return False
        self._left -= cost
        return True

    def _bins(self, starts: np.ndarray, width: int) -> np.ndarray:
        """``g(u)`` of the positions ``[start, start + width)``, a row
        per start; a position before 0 gets the identity's row."""
        uniforms = np.zeros((starts.size, width))
        bits, draw = self._rng.bit_generator, self._rng.random
        for row, start in zip(uniforms, starts.tolist()):
            first = max(start, 0)
            if start + width > first:
                bits.advance(first - self._at)
                draw(out=row[first - start:])
                self._at = start + width
        bins = self._table.breaks.searchsorted(uniforms, "right")
        if starts.min() < 0:
            identity = len(self._table.window_maps()[0]) - 1
            bins[np.arange(width) < -starts[:, None]] = identity
        return bins

    def _compose(self, bins: np.ndarray) -> np.ndarray:
        """Per row of ``bins`` (a power-of-two width), its step maps
        composed, each after the one before it: a map per row."""
        vocab = self._table.vocab
        composed = self._table.window_maps()[0].take(bins.reshape(-1), axis=0)
        while composed.shape[0] > bins.shape[0]:
            # Map 2r + 1 after map 2r: a gather at 2r + 1's flat offset.
            later = np.arange(vocab, composed.size, 2 * vocab)[:, None]
            composed = composed.reshape(-1).take(composed[0::2] + later)
        return composed

    def read(self, starts: np.ndarray, length: int) -> np.ndarray | None:
        """The windows ``[start, start + length)`` of the cache, an
        ``int64`` row per start; None if they would cost more than is
        left, or one did not certify within ``_MAX_LOOKBACK``."""
        table = self._table
        reach = table.window_maps()[1]
        lookback = _LOOKBACK
        if not self._spend(starts.size, lookback, length, _READ_COST):
            return None
        bins = self._bins(starts - lookback, lookback + length)
        entry = np.empty(starts.size, dtype=np.intp)
        todo = np.arange(starts.size)
        composed = self._compose(bins[:, :lookback])
        while True:
            early = starts[todo] <= lookback
            on_reach = composed[:, reach]
            certified = early | (on_reach == on_reach[:, :1]).all(axis=1)
            entry[todo] = np.where(early, composed[:, self._state0],
                                   on_reach[:, 0])
            todo, composed = todo[~certified], composed[~certified]
            if not todo.size:
                break
            if lookback == _MAX_LOOKBACK or not self._spend(todo.size,
                                                            lookback):
                return None
            if lookback == _LOOKBACK:
                table.windows_extended += todo.size
            before = self._compose(self._bins(starts[todo] - 2 * lookback,
                                              lookback))
            composed = composed.reshape(-1).take(
                before + np.arange(0, composed.size, table.vocab)[:, None])
            lookback *= 2
        table.windows_lazy += starts.size
        return np.array([table._walk(state, row) for state, row
                         in zip(entry.tolist(), bins[:, _LOOKBACK:])],
                        dtype=np.int64).reshape(starts.size, length)


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
        self._table = _WalkTable(kernel, specials)
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
        return self._table.walk(state, rng, n, dtype)

    def cache(self, n: int, seed: int, dtype) -> np.ndarray:
        """The token cache ``sample_tokens(n, rng=default_rng(seed),
        dtype=dtype)``, walked whole: a lazy stream's switch, counted."""
        self._table.cache_switches += 1
        return self.sample_tokens(n, rng=np.random.default_rng(seed),
                                  dtype=dtype)

    def cache_windows(self, n: int, seed: int) -> _CacheWindows:
        """The same cache, not walked: its windows computed on demand,
        while they cost less than about one walk of it."""
        return _CacheWindows(self._table, n, seed)

    @property
    def walk_stats(self) -> dict[str, int]:
        """The walk's fallback counters, shared by every source spawned
        from this kernel: speculative lanes walked, lanes re-walked one
        step at a time, and the speculative tokens that replaced; cache
        windows served lazily, windows that needed a longer look-back,
        and lazy caches walked whole after all."""
        table = self._table
        return {"lanes_walked": table.lanes_walked,
                "lanes_rewalked": table.lanes_rewalked,
                "tokens_rewalked": table.tokens_rewalked,
                "windows_lazy": table.windows_lazy,
                "windows_extended": table.windows_extended,
                "cache_switches": table.cache_switches}

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
