"""Tokenizers, synthetic corpora, shards and streams."""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.data import (
    DEFAULT_ALPHABET,
    CachedTokenStream,
    CharTokenizer,
    MarkovSource,
    MixedStream,
    SyntheticC4,
    SyntheticPile,
    TokenStream,
    assign_shards,
    kernel_divergence,
    make_source,
    mixed_kernel,
    partition_stream,
)
from repro.data.synthetic import (
    _LANE_TOKENS,
    _LOOKBACK,
    _MAX_LOOKBACK,
    _MIN_LANE_REQUEST,
    _PREWALK_TOKENS,
    _READ_COST,
    _STATES_PER_POSITION,
    _STEP_COST,
    PILE_SOURCE_NAMES,
    _CacheWindows,
    make_kernel,
)

from helpers import reference_walk


class TestCharTokenizer:
    def test_roundtrip(self):
        tok = CharTokenizer()
        text = "hello world, this is photon.\n"
        np.testing.assert_array_equal(tok.encode(text).shape, (len(text),))
        assert tok.decode(tok.encode(text)) == text

    def test_unknown_maps_to_unk(self):
        tok = CharTokenizer()
        ids = tok.encode("a!b")
        assert ids[1] == CharTokenizer.UNK

    def test_pad_skipped_in_decode(self):
        tok = CharTokenizer()
        ids = np.array([tok.PAD, *tok.encode("ab"), tok.PAD])
        assert tok.decode(ids) == "ab"

    def test_vocab_size(self):
        tok = CharTokenizer()
        assert tok.vocab_size == len(DEFAULT_ALPHABET) + 2

    def test_duplicate_alphabet_rejected(self):
        with pytest.raises(ValueError):
            CharTokenizer("aab")

    @given(st.text(alphabet=DEFAULT_ALPHABET, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, text):
        tok = CharTokenizer()
        assert tok.decode(tok.encode(text)) == text


class TestMarkovSource:
    def test_kernel_rows_stochastic(self):
        source = make_source("c4", vocab=32)
        np.testing.assert_allclose(source.kernel.sum(axis=1), np.ones(32), atol=1e-8)

    def test_samples_in_range_and_no_specials(self):
        source = make_source("c4", vocab=32)
        tokens = source.sample_tokens(500)
        assert tokens.min() >= 2
        assert tokens.max() < 32

    def test_seeded_reproducibility(self):
        a = MarkovSource(make_source("c4", vocab=32).kernel, seed=5)
        b = MarkovSource(make_source("c4", vocab=32).kernel, seed=5)
        np.testing.assert_array_equal(a.sample_tokens(100), b.sample_tokens(100))

    def test_different_seeds_differ(self):
        kernel = make_source("c4", vocab=32).kernel
        a = MarkovSource(kernel, seed=1).sample_tokens(200)
        b = MarkovSource(kernel, seed=2).sample_tokens(200)
        assert not np.array_equal(a, b)

    def test_entropy_rate_bounds(self):
        source = make_source("c4", vocab=32)
        h = source.entropy_rate()
        assert 0.0 < h < np.log(32)
        assert source.optimal_perplexity() == pytest.approx(np.exp(h))

    def test_empirical_bigrams_match_kernel(self):
        """Sampled transition frequencies converge to the kernel."""
        source = make_source("c4", vocab=16)
        tokens = source.sample_tokens(40_000)
        counts = np.zeros((16, 16))
        np.add.at(counts, (tokens[:-1], tokens[1:]), 1.0)
        rows = counts.sum(axis=1, keepdims=True)
        mask = rows[:, 0] > 500
        empirical = counts[mask] / rows[mask]
        np.testing.assert_allclose(empirical, source.kernel[mask], atol=0.05)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            MarkovSource(np.ones((3, 3)), seed=0)
        with pytest.raises(ValueError):
            MarkovSource(np.ones((2, 3)) / 3, seed=0)


def _cyclic_kernel(vocab: int, specials: int = 2) -> np.ndarray:
    """A cyclic permutation of the emittable states: deterministic, so
    two walks that start apart never merge."""
    kernel = np.zeros((vocab, vocab))
    kernel[np.arange(specials), np.arange(specials)] = 1.0
    states = np.arange(specials, vocab)
    kernel[states, np.roll(states, -1)] = 1.0
    return kernel


_WALK_KERNELS = ("sparse", "mixed", "dense", "cyclic", "absorbing", "blocks",
                 "zero_runs", "loose_sums")


def _walk_kernel(family: str, vocab: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "sparse":
        return make_kernel(seed, vocab, int(rng.integers(1, 9)), 0.6)
    if family == "mixed":
        return mixed_kernel(make_kernel(7, vocab, 4, 0.6),
                            make_kernel(seed, vocab, 4, 0.6),
                            float(rng.random()))
    if family == "dense":
        return rng.dirichlet(np.ones(vocab), size=vocab)
    if family == "cyclic":
        return _cyclic_kernel(vocab)
    kernel = make_kernel(seed, vocab, 3, 0.6)
    if family == "absorbing":
        kernel[vocab // 2] = 0.0
        kernel[vocab // 2, vocab // 2] = 1.0
    elif family == "blocks":
        # No path between the two halves of the emittable states.
        half = vocab // 2
        kernel = np.zeros((vocab, vocab))
        kernel[:half, :half] = make_kernel(seed, half, 3, 0.6)
        kernel[half:, half:] = make_kernel(seed + 1, vocab - half, 3, 0.6,
                                           specials=0)
    elif family == "zero_runs":
        # Mass on the first and last emittable states only: the
        # cumulative row repeats one value across the whole middle.
        kernel[2:] = 0.0
        kernel[2:, 2] = rng.random(vocab - 2)
        kernel[2:, -1] = 1.0 - kernel[2:, 2]
    elif family == "loose_sums":
        kernel *= 1.0 + rng.uniform(-1e-9, 1e-9, size=(vocab, 1))
    return kernel


_WALK_SIZES = (0, 1, 8, _LANE_TOKENS - 1, _LANE_TOKENS, _LANE_TOKENS + 1,
               _MIN_LANE_REQUEST - 1, _MIN_LANE_REQUEST,
               _MIN_LANE_REQUEST + 1, _MIN_LANE_REQUEST + _LANE_TOKENS - 1,
               65_536, 65_537)
_WALK = dict(derandomize=True, deadline=None, database=None,
             suppress_health_check=[HealthCheck.too_slow])
_walk_cells = dict(
    family=st.sampled_from(_WALK_KERNELS),
    vocab=st.integers(8, 96),
    n=st.one_of(st.sampled_from(_WALK_SIZES), st.sampled_from(_WALK_SIZES),
                st.integers(0, 3 * _MIN_LANE_REQUEST)),
    seed=st.integers(0, 2**31 - 1),
)


def _assert_walk_exact(family, vocab, n, seed):
    kernel = _walk_kernel(family, vocab, seed)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_walk(kernel, 2, n, want_rng)
    got = MarkovSource(kernel, seed=0).sample_tokens(n, rng=got_rng)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestMarkovWalk:
    """The table walk is the ``bisect_right`` walk, token for token."""

    @given(**_walk_cells)
    @settings(max_examples=120, **_WALK)
    def test_walk_equals_reference(self, family, vocab, n, seed):
        _assert_walk_exact(family, vocab, n, seed)

    @pytest.mark.slow
    @given(**_walk_cells)
    @settings(max_examples=500, **_WALK)
    def test_walk_equals_reference_deep(self, family, vocab, n, seed):
        _assert_walk_exact(family, vocab, n, seed)

    def test_never_merging_kernel_rewalks_every_lane(self):
        """The re-walk is a fallback, so it is counted — and bounded:
        a kernel on which no speculative lane is ever right costs no
        more than 1.25x the walk it replaced."""
        n = 65_536
        lanes = n // _LANE_TOKENS
        # A period no lane's guess can hit by luck: lane k guesses the
        # start state advanced _PREWALK_TOKENS times where the chain
        # has advanced k * _LANE_TOKENS times.
        period = next(
            p for p in range(24, 200)
            if all((k * _LANE_TOKENS - _PREWALK_TOKENS) % p
                   for k in range(1, lanes)))
        kernel = _cyclic_kernel(period + 2)
        source = MarkovSource(kernel, seed=0)
        walk_s, reference_s = [], []
        for seed in range(3):
            start = time.perf_counter()
            got = source.sample_tokens(n, rng=np.random.default_rng(seed))
            walk_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            want = reference_walk(kernel, 2, n, np.random.default_rng(seed))
            reference_s.append(time.perf_counter() - start)
            np.testing.assert_array_equal(got, want)
        stats = source.walk_stats
        assert stats["lanes_walked"] == 3 * (lanes - 1)
        assert stats["lanes_rewalked"] == stats["lanes_walked"]
        assert stats["tokens_rewalked"] == 3 * (n - _LANE_TOKENS)
        assert min(walk_s) <= 1.25 * min(reference_s)

    def test_pile_kernel_rarely_rewalks(self):
        pile = SyntheticPile(vocab=32)
        for seed in range(12):  # three parts of each of the four sources
            part = pile.client_source(seed * 1_000, 12_000)
            part.sample_tokens(65_536, rng=np.random.default_rng(seed))
        for source in pile.sources.values():
            stats = source.walk_stats
            assert stats["lanes_walked"] == 3 * (65_536 // _LANE_TOKENS - 1)
            assert stats["lanes_rewalked"] < 0.05 * stats["lanes_walked"]
        # Parts of one source share its table, hence its totals.
        assert (pile.client_source(0, 12_000).walk_stats
                == pile.sources["arxiv"].walk_stats)

    def test_short_requests_walk_no_lanes(self):
        source = make_source("c4", vocab=32)
        source.sample_tokens(_MIN_LANE_REQUEST - 1)
        assert source.walk_stats == {"lanes_walked": 0, "lanes_rewalked": 0,
                                     "tokens_rewalked": 0, "windows_lazy": 0,
                                     "windows_extended": 0,
                                     "cache_switches": 0}

    def test_negative_kernel_rejected(self):
        kernel = np.eye(4)
        kernel[2] = [0.0, 0.0, 1.5, -0.5]
        with pytest.raises(ValueError, match="non-negative"):
            MarkovSource(kernel, seed=0)


# sha256 of each cell's 65,536-token cache and of its first batch
# (inputs stacked on targets), taken on the commit before the table
# walk: the walk may change how the tokens are produced, never which.
_TOKEN_DIGESTS = {
    "pile-part0-of-12000": (
        "3696a508fafbe615da6ac326615b36445c0b1f2d2a06c3abc11840ea60dcccc0",
        "def04a22fcb19ddeae92624f3b4358c65dbd4e296da44627581e81aae1bd9463"),
    "pile-part11999-of-12000": (
        "f968b02304b9c654ed4ffbdfef7ea63114246f00ff867bf4327d8e121b5d4466",
        "ad8265e84c8dd0597ecaf5005719d62e2e4b805dea95da0d0fdebfc3b4811401"),
    "pile-het0.5-v64-client5-of-8": (
        "2a34a0ae27da45677dcb10132b97d5b9b0f8cf29ea23105cf5908e2e903303ec",
        "94cb8b7903e2f5d5257b748928fa604355af7293c291d9b3199719dbe9ea6364"),
    "c4-shard3-of-64": (
        "794fbeee8c2d0a1c20ded59efc27bab0b5068e4bdbbb0ad7a86c82e3b047f0e2",
        "5c73703a1ebe315a205ef84b79f87d8adbd1d564bc872d4139d5fa9fcc3752ec"),
    "c4-validation": (
        "5bde72b97b8cf56ec775aa5680f6c758a85f753ede38ee1bf05a9c0a7b8b64a5",
        "7a60403ed50c2f5767afc45bf0a07e2a7a8fcd51f694468c9960f56efa748ff0"),
    "pile-validation": (
        "3273f740be838c42b9992934edb6bfeb4976ab9fa4fd1187c32a0e4c4e6f9be2",
        "04afeb3718b07c6f725c164e7d7b3664b3b719c58bc5ea599564909fb6781f23"),
}


def _digest_cells():
    """``name -> (source, stream seed)`` for the pinned cells."""
    pile = SyntheticPile(vocab=32, seed=0)
    mixed = SyntheticPile(vocab=64, seed=0, heterogeneity=0.5)
    c4 = SyntheticC4(num_shards=64, vocab=32, seed=0)
    return {
        "pile-part0-of-12000": (pile.client_source(0, 12_000), 0),
        "pile-part11999-of-12000": (pile.client_source(11_999, 12_000), 11_999),
        "pile-het0.5-v64-client5-of-8": (mixed.client_source(5, 8), 5),
        "c4-shard3-of-64": (c4.shard(3), 3),
        "c4-validation": (c4.validation(), 7),
        "pile-validation": (pile.validation(), 8),
    }


def _sha256(tokens: np.ndarray) -> str:
    assert tokens.dtype == np.int64
    return hashlib.sha256(np.ascontiguousarray(tokens).tobytes()).hexdigest()


@pytest.mark.parametrize("cell", sorted(_TOKEN_DIGESTS))
def test_token_data_is_pinned(cell):
    """The token data itself, not only the perplexities three layers
    downstream of it: the first batch (lazy windows), then the cache,
    walked.  The cache is stored narrow (one byte a token at vocab 32
    and 64) and hashed as the int64 tokens it holds."""
    source, seed = _digest_cells()[cell]
    stream = CachedTokenStream(source, batch_size=4, seq_len=16, seed=seed)
    cache, batch = _TOKEN_DIGESTS[cell]
    assert _sha256(np.stack(stream.next_batch())) == batch
    assert stream.cache.itemsize == 1
    assert _sha256(stream.cache.astype(np.int64)) == cache


class TestKernelMixing:
    def test_zero_heterogeneity_is_base(self):
        a = make_source("arxiv", vocab=32, heterogeneity=0.0)
        b = make_source("gutenberg", vocab=32, heterogeneity=0.0)
        np.testing.assert_allclose(a.kernel, b.kernel)

    def test_full_heterogeneity_distinct(self):
        a = make_source("arxiv", vocab=32, heterogeneity=1.0)
        b = make_source("gutenberg", vocab=32, heterogeneity=1.0)
        assert kernel_divergence(a.kernel, b.kernel) > 0.3

    def test_divergence_monotone_in_heterogeneity(self):
        divs = []
        for h in (0.0, 0.5, 1.0):
            a = make_source("arxiv", vocab=32, heterogeneity=h)
            b = make_source("wikipedia", vocab=32, heterogeneity=h)
            divs.append(kernel_divergence(a.kernel, b.kernel))
        assert divs[0] < divs[1] < divs[2]

    def test_mixed_kernel_stays_stochastic(self):
        a = make_source("arxiv", vocab=16).kernel
        b = make_source("c4", vocab=16).kernel
        mix = mixed_kernel(a, b, 0.3)
        np.testing.assert_allclose(mix.sum(axis=1), np.ones(16), atol=1e-8)

    def test_invalid_heterogeneity(self):
        a = make_source("arxiv", vocab=16).kernel
        with pytest.raises(ValueError):
            mixed_kernel(a, a, 1.5)


class TestSyntheticC4:
    def test_shards_share_distribution(self):
        c4 = SyntheticC4(num_shards=4, vocab=32)
        np.testing.assert_allclose(c4.shard(0).kernel, c4.shard(3).kernel)

    def test_shards_have_distinct_streams(self):
        c4 = SyntheticC4(num_shards=4, vocab=32)
        a = c4.shard(0).sample_tokens(100)
        b = c4.shard(1).sample_tokens(100)
        assert not np.array_equal(a, b)

    def test_shard_bounds(self):
        c4 = SyntheticC4(num_shards=4, vocab=32)
        with pytest.raises(IndexError):
            c4.shard(4)

    def test_validation_distinct_from_shards(self):
        c4 = SyntheticC4(num_shards=2, vocab=32)
        val = c4.validation().sample_tokens(100)
        train = c4.shard(0).sample_tokens(100)
        assert not np.array_equal(val, train)


class TestSyntheticPile:
    def test_client_source_counts(self):
        pile = SyntheticPile(vocab=32)
        for n in (4, 8, 16):
            assert len(pile.client_sources(n)) == n

    def test_invalid_client_count(self):
        with pytest.raises(ValueError):
            SyntheticPile(vocab=32).client_sources(6)

    def test_four_clients_get_distinct_sources(self):
        pile = SyntheticPile(vocab=32)
        clients = pile.client_sources(4)
        for i in range(4):
            for j in range(i + 1, 4):
                assert kernel_divergence(clients[i].kernel, clients[j].kernel) > 0.1

    def test_split_clients_share_source_kernel(self):
        pile = SyntheticPile(vocab=32)
        clients = pile.client_sources(8)
        # Clients 0,1 both hold the first source.
        np.testing.assert_allclose(clients[0].kernel, clients[1].kernel)

    def test_source_names(self):
        assert set(PILE_SOURCE_NAMES) == {"arxiv", "c4", "wikipedia", "gutenberg"}


class TestStreams:
    def test_token_stream_batch_shapes(self):
        source = make_source("c4", vocab=32)
        stream = TokenStream(source, batch_size=3, seq_len=10)
        x, y = stream.next_batch()
        assert x.shape == (3, 10) and y.shape == (3, 10)
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])

    def test_cached_stream_shapes_and_shift(self):
        source = make_source("c4", vocab=32)
        stream = CachedTokenStream(source, batch_size=4, seq_len=8,
                                   cache_tokens=1024, seed=0)
        x, y = stream.next_batch()
        assert x.shape == (4, 8)
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])

    def test_cached_stream_deterministic(self):
        source = make_source("c4", vocab=32)
        a = CachedTokenStream(source, 2, 8, cache_tokens=512, seed=1)
        b = CachedTokenStream(source, 2, 8, cache_tokens=512, seed=1)
        np.testing.assert_array_equal(a.next_batch()[0], b.next_batch()[0])

    def test_cache_too_small_rejected(self):
        source = make_source("c4", vocab=32)
        with pytest.raises(ValueError):
            CachedTokenStream(source, 2, 100, cache_tokens=150)

    def test_tokens_served_accounting(self):
        source = make_source("c4", vocab=32)
        stream = CachedTokenStream(source, 2, 8, cache_tokens=512)
        stream.next_batch()
        stream.next_batch()
        assert stream.tokens_served == 2 * 2 * 8

    def test_mixed_stream_geometry_checked(self):
        source = make_source("c4", vocab=32)
        a = CachedTokenStream(source, 2, 8, cache_tokens=512)
        b = CachedTokenStream(source, 2, 16, cache_tokens=512)
        with pytest.raises(ValueError):
            MixedStream([a, b])

    def test_mixed_stream_weights(self):
        arxiv = make_source("arxiv", vocab=32)
        c4 = make_source("c4", vocab=32)
        a = CachedTokenStream(arxiv, 4, 8, cache_tokens=512, seed=0)
        b = CachedTokenStream(c4, 4, 8, cache_tokens=512, seed=1)
        mixed = MixedStream([a, b], weights=[1.0, 0.0], seed=0)
        x, _ = mixed.next_batch()
        assert x.shape == (4, 8)

    def test_mixed_stream_invalid_weights(self):
        source = make_source("c4", vocab=32)
        a = CachedTokenStream(source, 2, 8, cache_tokens=512)
        with pytest.raises(ValueError):
            MixedStream([a], weights=[-1.0])

    def test_partition_stream(self):
        source = make_source("c4", vocab=32)
        parts = partition_stream(source, 3, batch_size=2, seq_len=8, seed=0)
        assert len(parts) == 3
        batches = [p.next_batch()[0] for p in parts]
        assert not np.array_equal(batches[0], batches[1])


class TestSharding:
    def test_one_shard_per_client(self):
        groups = assign_shards(64, 16, seed=0)
        assert len(groups) == 16
        flat = [s for g in groups for s in g]
        assert len(flat) == len(set(flat))
        assert all(len(g) == 4 for g in groups)

    def test_paper_setup_n_clients_n_shards(self):
        groups = assign_shards(64, 64)
        assert all(len(g) == 1 for g in groups)

    def test_too_many_clients_rejected(self):
        with pytest.raises(ValueError):
            assign_shards(4, 8)

    def test_deterministic_given_seed(self):
        assert assign_shards(16, 4, seed=3) == assign_shards(16, 4, seed=3)


# ----------------------------------------------------------------------
# Lazy cache windows: a stream serves the batches of the cache it walks
# ----------------------------------------------------------------------

_LAZY_KERNELS = ("pile", "c4", "two_successors", "permutation", "pad_leak")


def _lazy_source(kernel: str, vocab: int, seed: int) -> MarkovSource:
    """A Pile part at heterogeneity 1, a C4 shard, a 2-successor kernel
    at concentration 0.1, a permutation of the emittable states (no two
    walks ever merge, so no window past the start certifies), or a
    kernel whose emittable states leak into the absorbing pad token (a
    state outside ``[specials, vocab)`` the chain holds: a certificate
    that ignored it would be wrong on every window after the leak)."""
    if kernel == "pile":
        return SyntheticPile(vocab=vocab, seed=seed % 3).client_source(
            seed % 16, 16)
    if kernel == "c4":
        return SyntheticC4(num_shards=8, vocab=vocab,
                           seed=seed % 3).shard(seed % 8)
    if kernel == "two_successors":
        return MarkovSource(make_kernel(seed, vocab, 2, 0.1), seed=seed)
    if kernel == "pad_leak":
        leaky = make_kernel(seed, vocab, 4, 0.6)
        leaky[2:] *= 1.0 - 1e-2
        leaky[2:, 0] = 1e-2
        return MarkovSource(leaky, seed=seed)
    states = np.arange(2, vocab)
    permutation = np.zeros((vocab, vocab))
    permutation[[0, 1], [0, 1]] = 1.0
    permutation[states, np.random.default_rng(seed).permutation(states)] = 1.0
    return MarkovSource(permutation, seed=seed)


def _walked_batches(source, batch_size, seq_len, cache_tokens, seed):
    """The batches of a stream that walks its whole cache up front and
    slices it: what every :class:`CachedTokenStream` must serve."""
    cache = source.sample_tokens(cache_tokens,
                                 rng=np.random.default_rng(seed + 1))
    rng = np.random.default_rng(seed)
    offsets = np.arange(seq_len + 1)
    while True:
        starts = rng.integers(0, cache_tokens - seq_len - 1, size=batch_size)
        windows = cache[starts[:, None] + offsets]
        yield windows[:, :-1], windows[:, 1:]


def _batch_cost(windows: int, vocab: int, length: int) -> int:
    """What a read of ``windows`` windows that all certify at the first
    look-back costs, in positions of a cache walk."""
    return _READ_COST + windows * (_LOOKBACK * vocab // _STATES_PER_POSITION
                                   + length * _STEP_COST)


#: Every read spends at least ``_READ_COST``: a stream of the default
#: cache switches within this many batches.
_MOST_LAZY_BATCHES = 65_536 // _READ_COST + 1

_LAZY = dict(derandomize=True, deadline=None, database=None,
             suppress_health_check=[HealthCheck.too_slow])
_lazy_cells = dict(
    kernel=st.sampled_from(_LAZY_KERNELS),
    vocab=st.sampled_from([32, 64, 96, 256]),
    cache_tokens=st.sampled_from([512, 4_096, 65_536]),
    shape=st.sampled_from([(1, 1), (4, 16), (3, 31), (8, 7)]),
    seed=st.integers(0, 2**16),
    cut=st.integers(0, _MOST_LAZY_BATCHES + 1),
)


def _assert_lazy_is_walked(kernel, vocab, cache_tokens, shape, seed, cut):
    """Batch for batch, before and after the switch, and across a
    mid-run ``state_dict`` / ``load_state_dict`` into a new stream at
    batch ``cut``; then the windows at the pinned starts."""
    source = _lazy_source(kernel, vocab, seed)
    batch_size, seq_len = shape
    want = _walked_batches(source, batch_size, seq_len, cache_tokens, seed)
    stream = CachedTokenStream(source, batch_size, seq_len, cache_tokens,
                               seed=seed)
    walked_after = None  # the batch at which the (reloaded) stream walked
    for i in range(cut + _MOST_LAZY_BATCHES + 2):
        if i == cut:
            state = stream.state_dict()
            stream = CachedTokenStream(source, batch_size, seq_len,
                                       cache_tokens, seed=seed)
            stream.load_state_dict(state)
            walked_after = None
        for w, g in zip(next(want), stream.next_batch()):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)
        if walked_after is None and stream._cache is not None:
            walked_after = i
    assert walked_after is not None and walked_after < i  # sliced after it

    length = seq_len + 1
    starts = np.array([0, 1, _LOOKBACK - 1, _LOOKBACK, _LOOKBACK + 1,
                       cache_tokens - length])
    windows = source.cache_windows(cache_tokens, seed + 1).read(starts, length)
    if windows is not None:
        cache = stream.cache.astype(np.int64)
        np.testing.assert_array_equal(
            windows, cache[starts[:, None] + np.arange(length)])


class TestLazyWindows:
    """A :class:`CachedTokenStream` serves the batches of the cache it
    would walk, before and after it walks it, whatever its kernel,
    vocabulary, cache and shape."""

    @given(**_lazy_cells)
    @example(kernel="permutation", vocab=32, cache_tokens=65_536,
             shape=(4, 16), seed=1, cut=0)
    @example(kernel="two_successors", vocab=96, cache_tokens=4_096,
             shape=(3, 31), seed=7, cut=5)
    @example(kernel="pile", vocab=256, cache_tokens=65_536, shape=(8, 7),
             seed=2, cut=3)
    @example(kernel="pile", vocab=32, cache_tokens=65_536, shape=(4, 16),
             seed=2, cut=_MOST_LAZY_BATCHES)
    @settings(max_examples=8, **_LAZY)
    def test_stream_serves_its_walked_cache(self, kernel, vocab, cache_tokens,
                                            shape, seed, cut):
        _assert_lazy_is_walked(kernel, vocab, cache_tokens, shape, seed, cut)

    @pytest.mark.slow
    @given(**_lazy_cells)
    @settings(max_examples=200, **_LAZY)
    def test_stream_serves_its_walked_cache_deep(self, kernel, vocab,
                                                 cache_tokens, shape, seed,
                                                 cut):
        _assert_lazy_is_walked(kernel, vocab, cache_tokens, shape, seed, cut)

    @pytest.mark.parametrize("kernel", ["pile", "c4", "pad_leak"])
    def test_windows_certify_exactly(self, kernel):
        """The windows at the pinned starts, and far from them: on the
        kernels client streams are built from, and on one whose chain
        is absorbed by the pad token, every one certifies."""
        source = _lazy_source(kernel, 32, 5)
        cache = source.sample_tokens(65_536, rng=np.random.default_rng(9))
        starts = np.concatenate((
            [0, 1, _LOOKBACK - 1, _LOOKBACK, _LOOKBACK + 1,
             2 * _LOOKBACK - 1, 2 * _LOOKBACK, 2 * _LOOKBACK + 1,
             65_536 - 17],
            np.random.default_rng(1).integers(0, 65_536 - 17, size=32)))
        windows = source.cache_windows(65_536, 9).read(starts, 17)
        np.testing.assert_array_equal(
            windows, cache[starts[:, None] + np.arange(17)])

    def test_lazy_windows_are_counted(self):
        source = _lazy_source("pile", 32, 0)
        before = source.walk_stats
        stream = CachedTokenStream(source, 4, 16, seed=0)
        for _ in range(2):
            stream.next_batch()
        stats = source.walk_stats
        assert stats["windows_lazy"] - before["windows_lazy"] == 4 * 2
        assert stats["cache_switches"] == before["cache_switches"]
        assert stats["lanes_walked"] == before["lanes_walked"]  # no cache

    def test_a_longer_look_back_is_counted(self):
        """At V = 64 walks merge more slowly: some windows need twice
        the first look-back, and are exact all the same."""
        source = _lazy_source("pile", 64, 0)
        cache = source.sample_tokens(65_536, rng=np.random.default_rng(1))
        starts = np.random.default_rng(2).integers(_LOOKBACK + 1, 65_000,
                                                   size=16)
        before = source.walk_stats["windows_extended"]
        windows = source.cache_windows(65_536, 1).read(starts, 17)
        assert source.walk_stats["windows_extended"] > before
        np.testing.assert_array_equal(
            windows, cache[starts[:, None] + np.arange(17)])

    @pytest.mark.parametrize("vocab, shape", [(32, (4, 16)), (96, (8, 31))])
    def test_stream_switches_within_its_budget(self, vocab, shape):
        """The ski-rental bound: the lazy batches cost at most one walk
        of the cache, so at most ``cache_tokens`` over a batch's cost of
        them; then the cache is walked, once."""
        source = _lazy_source("pile", vocab, 1)
        batch_size, seq_len = shape
        most = 65_536 // _batch_cost(batch_size, vocab, seq_len + 1)
        stream = CachedTokenStream(source, batch_size, seq_len, seed=3)
        before = source.walk_stats
        lazy = 0
        for _ in range(most + 2):
            stream.next_batch()
            lazy += stream._cache is None
        stats = source.walk_stats
        assert 1 <= lazy <= most
        assert stats["cache_switches"] - before["cache_switches"] == 1
        assert (stats["windows_lazy"] - before["windows_lazy"]
                == batch_size * lazy)

    def test_a_batch_dearer_than_the_cache_walks_it(self):
        """Whatever the shape: 32 windows of 1,025 tokens would cost
        more than the walk of a 65,536-token cache, so the stream walks
        it at its first batch and serves no window lazily."""
        source = _lazy_source("pile", 32, 4)
        assert _batch_cost(32, 32, 1_025) > 65_536
        want = _walked_batches(source, 32, 1_024, 65_536, 6)
        stream = CachedTokenStream(source, 32, 1_024, seed=6)
        before = source.walk_stats
        for w, g in zip(next(want), stream.next_batch()):
            np.testing.assert_array_equal(g, w)
        stats = source.walk_stats
        assert stats["cache_switches"] - before["cache_switches"] == 1
        assert stats["windows_lazy"] == before["windows_lazy"]

    def test_never_certifying_kernel_switches_at_the_cap(self, monkeypatch):
        """No window of a permutation kernel past its first look-back
        certifies: the stream walks the cache at its first batch rather
        than look back further than ``_MAX_LOOKBACK``."""
        drawn = []
        bins = _CacheWindows._bins

        def spy(self, starts, width):
            drawn.append(int(starts.min()))
            return bins(self, starts, width)

        monkeypatch.setattr(_CacheWindows, "_bins", spy)
        source = _lazy_source("permutation", 32, 0)
        want = _walked_batches(source, 4, 16, 65_536, 2)
        stream = CachedTokenStream(source, 4, 16, seed=2)
        starts = np.random.default_rng(2).integers(0, 65_536 - 17, size=4)
        assert starts.min() > _MAX_LOOKBACK  # what the first batch reads
        before = source.walk_stats
        for w, g in zip(next(want), stream.next_batch()):
            np.testing.assert_array_equal(g, w)
        stats = source.walk_stats
        assert stats["cache_switches"] - before["cache_switches"] == 1
        assert stats["windows_lazy"] == before["windows_lazy"]
        assert stats["windows_extended"] - before["windows_extended"] == 4
        assert min(drawn) == starts.min() - _MAX_LOOKBACK
        assert stream._cache is not None
