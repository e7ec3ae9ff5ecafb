"""Cross-cutting property-based invariants (hypothesis).

These complement the per-module tests with properties that must hold
for *any* input in the domain: causality of the decoder, descent
directions, aggregation linearity, wall-time monotonicity, payload
error bounds, and partition exactness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import make_codec
from repro.config import ModelConfig, WallTimeConfig
from repro.data import CharTokenizer, make_source
from repro.data.stream import CachedTokenStream
from repro.fed import (
    DropLedger,
    FedAvg,
    PolynomialStaleness,
    adaptive_step_weights,
)
from repro.net import WallTimeModel
from repro.nn import DecoderLM
from repro.optim import WarmupCosine
from repro.parallel import ShardLayout
from repro.tensor import no_grad
from repro.utils import decode_state, encode_state, tree_mean, tree_scale

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32, seq_len=16)
_MODEL = DecoderLM(CFG, seed=0)


class TestDecoderProperties:
    @given(st.integers(0, 13), st.integers(2, 31))
    @settings(max_examples=15, deadline=None)
    def test_causality_full_model(self, position, replacement):
        """Changing token at position p never affects logits before p."""
        rng = np.random.default_rng(position * 131 + replacement)
        tokens = rng.integers(2, CFG.vocab_size, size=(1, 15))
        with no_grad():
            base = _MODEL(tokens).data.copy()
        mutated = tokens.copy()
        mutated[0, position] = replacement
        with no_grad():
            changed = _MODEL(mutated).data
        np.testing.assert_allclose(base[0, :position], changed[0, :position],
                                   atol=1e-4)

    @given(st.integers(1, 4), st.integers(2, 15))
    @settings(max_examples=10, deadline=None)
    def test_batch_independence(self, batch, seq):
        """Each row's logits equal the single-row forward."""
        rng = np.random.default_rng(batch * 7 + seq)
        tokens = rng.integers(2, CFG.vocab_size, size=(batch, seq))
        with no_grad():
            joint = _MODEL(tokens).data
            solo = _MODEL(tokens[:1]).data
        np.testing.assert_allclose(joint[0], solo[0], atol=1e-4)

    def test_gradient_is_descent_direction(self):
        """A small step along -grad reduces the loss."""
        model = DecoderLM(CFG, seed=1)
        rng = np.random.default_rng(0)
        tokens = rng.integers(2, CFG.vocab_size, size=(4, 15))
        x, y = tokens[:, :-1], tokens[:, 1:]
        loss = model.loss(x, y)
        model.zero_grad()
        loss.backward()
        before = float(loss.data)
        for p in model.parameters():
            if p.grad is not None:
                p.data -= 1e-3 * p.grad
        after = float(model.loss(x, y).data)
        assert after < before


class TestAggregationProperties:
    def _states(self, seed, n=3):
        rng = np.random.default_rng(seed)
        return [{"a": rng.normal(size=(4, 2)).astype(np.float32),
                 "b": rng.normal(size=3).astype(np.float32)} for _ in range(n)]

    @given(st.floats(0.1, 5.0), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_mean_is_homogeneous(self, alpha, seed):
        states = self._states(seed)
        scaled_mean = tree_mean([tree_scale(s, alpha) for s in states])
        mean_scaled = tree_scale(tree_mean(states), alpha)
        for k in scaled_mean:
            np.testing.assert_allclose(scaled_mean[k], mean_scaled[k],
                                       rtol=1e-4, atol=1e-5)

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_fedavg_fixed_point(self, seed):
        """Zero pseudo-gradient leaves the global model unchanged."""
        state = self._states(seed, n=1)[0]
        zero = tree_scale(state, 0.0)
        out = FedAvg(lr=1.0).step(state, zero)
        for k in state:
            np.testing.assert_array_equal(out[k], state[k])


class TestWallTimeProperties:
    @given(st.integers(2, 64), st.floats(10.0, 1000.0))
    @settings(max_examples=25, deadline=None)
    def test_ps_monotone_in_clients(self, clients, bandwidth):
        model = WallTimeModel(WallTimeConfig(throughput=1.0,
                                             bandwidth_mbps=bandwidth,
                                             model_mb=50.0))
        assert model.comm_s("ps", clients + 1) > model.comm_s("ps", clients)

    @given(st.integers(2, 64))
    @settings(max_examples=25, deadline=None)
    def test_comm_decreasing_in_bandwidth(self, clients):
        slow = WallTimeModel(WallTimeConfig(1.0, 10.0, 50.0))
        fast = WallTimeModel(WallTimeConfig(1.0, 100.0, 50.0))
        for topo in ("ps", "ar", "rar"):
            assert fast.comm_s(topo, clients) < slow.comm_s(topo, clients)

    @given(st.integers(2, 64), st.integers(1, 512))
    @settings(max_examples=25, deadline=None)
    def test_round_time_additivity(self, clients, steps):
        model = WallTimeModel(WallTimeConfig(2.0, 100.0, 50.0))
        timing = model.round_timing("rar", clients, steps)
        assert timing.total_s == pytest.approx(timing.compute_s + timing.comm_s)


class TestPayloadProperties:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_lossless_roundtrip_any_shape(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        state = {"w": rng.normal(size=(rows, cols)).astype(np.float32)}
        back = decode_state(encode_state(state))
        np.testing.assert_array_equal(back["w"], state["w"])

    @given(st.integers(0, 1000), st.floats(0.1, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_quantization_error_bound(self, seed, scale):
        rng = np.random.default_rng(seed)
        state = {"w": (scale * rng.normal(size=64)).astype(np.float32)}
        back = make_codec("int8", seed=seed).roundtrip(state)
        bound = np.abs(state["w"]).max() / 127.0  # stochastic rounding: < 1 step
        assert np.abs(back["w"] - state["w"]).max() <= bound * 1.0001


class TestFaultToleranceProperties:
    @given(st.floats(0.0, 5.0), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_staleness_weight_monotone_in_staleness(self, alpha, s):
        """More staleness never weighs more: w(s+1) <= w(s) <= 1."""
        w = PolynomialStaleness(alpha)
        assert 0.0 < w(s) <= 1.0
        assert w(s + 1) <= w(s)

    @given(st.lists(st.integers(1, 512), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_adaptive_step_weights_sum_to_one(self, steps):
        """Steps-proportional weights are a probability vector, ordered
        like the step counts."""
        weights = adaptive_step_weights(steps)
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)
        order = sorted(range(len(steps)), key=lambda i: steps[i])
        assert all(
            weights[order[i]] <= weights[order[i + 1]] + 1e-12
            for i in range(len(order) - 1)
        )

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("drop"), st.integers(0, 100), st.integers(0, 10_000)),
            st.tuples(st.just("late"), st.just(0), st.just(0)),
            st.tuples(st.just("flush"), st.just(0), st.just(0)),
        ),
        max_size=40,
    ))
    @settings(max_examples=50, deadline=None)
    def test_drop_ledger_conserves_accounting(self, ops):
        """Any interleaving of drops, late admits and flushes
        partitions exactly into windows: window sums (plus the open
        window) always equal the cumulative totals."""
        ledger = DropLedger()
        windows = []
        for op, steps, nbytes in ops:
            if op == "drop":
                ledger.record_drop(steps, nbytes)
            elif op == "late":
                ledger.record_late()
            else:
                windows.append(ledger.flush())
        windows.append(ledger.flush())  # close the open window
        assert sum(w["dropped_steps"] for w in windows) == ledger.total_dropped_steps
        assert sum(w["dropped_bytes"] for w in windows) == ledger.total_dropped_bytes
        assert (sum(w["deadline_misses"] for w in windows)
                == ledger.total_deadline_misses)


class TestScheduleProperties:
    @given(st.floats(1e-5, 1.0), st.integers(1, 50), st.integers(60, 500),
           st.integers(0, 600))
    @settings(max_examples=30, deadline=None)
    def test_lr_bounded_by_max(self, max_lr, warmup, total, step):
        sched = WarmupCosine(max_lr, warmup, total, alpha=0.1)
        lr = sched(step)
        assert 0.0 < lr <= max_lr * (1 + 1e-9)
        assert lr >= 0.1 * max_lr * (1 - 1e-6) or step < warmup


class TestDataProperties:
    @given(st.integers(1, 6), st.integers(2, 20), st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_stream_tokens_valid(self, batch, seq, seed):
        source = make_source("c4", vocab=32)
        stream = CachedTokenStream(source, batch_size=batch, seq_len=seq,
                                   cache_tokens=2048, seed=seed)
        x, y = stream.next_batch()
        for arr in (x, y):
            assert arr.min() >= 2
            assert arr.max() < 32

    @given(st.text(alphabet="abc .,\n", max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_tokenizer_never_crashes(self, text):
        tok = CharTokenizer()
        assert tok.decode(tok.encode(text)) == text


class TestShardProperties:
    @given(st.integers(1, 200), st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_layout_partitions_exactly(self, total, workers):
        layout = ShardLayout(total, workers)
        covered = np.zeros(total, dtype=int)
        for w in range(workers):
            covered[layout.slice_for(w)] += 1
        assert (covered == 1).all()
