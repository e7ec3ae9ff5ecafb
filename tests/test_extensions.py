"""Extension features: proximal clients, comm overlap, int8 codec,
parallel aggregation, hyperopt, cross-perplexity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compress import make_codec
from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.data import CachedTokenStream, SyntheticC4, make_source
from repro.data.synthetic import (
    cross_perplexity,
    make_kernel,
    stationary_distribution,
)
from repro.fed import (
    Aggregator,
    Candidate,
    LLMClient,
    Link,
    Photon,
    successive_halving,
)
from repro.fed.types import RoundInfo
from repro.net.walltime import RoundTiming, WallTimeModel
from repro.nn import DecoderLM
from repro.optim import ConstantLR
from repro.utils import encode_state, state_to_vector

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32, seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64, batch_size=4,
                    weight_decay=0.0)


def make_stream(shard=0, seed=0):
    c4 = SyntheticC4(num_shards=4, vocab=CFG.vocab_size, seed=1)
    return CachedTokenStream(c4.shard(shard), batch_size=4, seq_len=CFG.seq_len,
                             cache_tokens=2048, seed=seed)


class TestProximalClient:
    def test_large_mu_pins_client_to_global(self):
        global_state = DecoderLM(CFG, seed=7).state_dict()
        info = RoundInfo(0, 4, 0)

        free = LLMClient("free", CFG, make_stream(), OPTIM, ConstantLR(3e-3))
        pinned = LLMClient("pinned", CFG, make_stream(), OPTIM, ConstantLR(3e-3),
                           proximal_mu=100.0)
        free_update = free.train(global_state, info)
        pinned_update = pinned.train(global_state, info)

        free_norm = np.linalg.norm(state_to_vector(free_update.delta))
        pinned_norm = np.linalg.norm(state_to_vector(pinned_update.delta))
        assert pinned_norm < free_norm

    def test_zero_mu_is_default_behaviour(self):
        global_state = DecoderLM(CFG, seed=7).state_dict()
        info = RoundInfo(0, 2, 0)
        a = LLMClient("a", CFG, make_stream(seed=5), OPTIM, ConstantLR(3e-3))
        b = LLMClient("b", CFG, make_stream(seed=5), OPTIM, ConstantLR(3e-3),
                      proximal_mu=0.0)
        ua = a.train(global_state, info)
        ub = b.train(global_state, info)
        np.testing.assert_allclose(state_to_vector(ua.delta),
                                   state_to_vector(ub.delta), atol=1e-6)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            LLMClient("x", CFG, make_stream(), OPTIM, ConstantLR(3e-3),
                      proximal_mu=-1.0)


class TestOverlapTiming:
    def test_overlap_takes_max(self):
        timing = RoundTiming(compute_s=10.0, comm_s=4.0, overlapped=True)
        assert timing.total_s == 10.0
        plain = RoundTiming(compute_s=10.0, comm_s=4.0)
        assert plain.total_s == 14.0

    def test_model_overlap_flag(self):
        wt = WallTimeModel(WallTimeConfig(throughput=1.0, bandwidth_mbps=10.0,
                                          model_mb=100.0))
        plain = wt.round_timing("ps", 4, 10)
        overlapped = wt.round_timing("ps", 4, 10, overlap=True)
        assert overlapped.total_s < plain.total_s
        assert overlapped.total_s == max(plain.compute_s, plain.comm_s)


class TestInt8Codec:
    def test_roundtrip_error_bounded(self, rng):
        state = {"w": rng.normal(size=(32, 16)).astype(np.float32)}
        back = make_codec("int8").roundtrip(state)
        scale = np.abs(state["w"]).max() / 127.0
        assert np.abs(back["w"] - state["w"]).max() <= scale * 1.0001

    def test_payload_shrinks(self, rng):
        state = {"w": rng.normal(size=(64, 64)).astype(np.float32)}
        full = encode_state(state, compress=False)
        assert len(make_codec("int8").stage_payload(state)) < len(full) / 2.5

    def test_zero_tensor_roundtrip(self):
        state = {"w": np.zeros(16, dtype=np.float32)}
        back = make_codec("int8").roundtrip(state)
        np.testing.assert_array_equal(back["w"], state["w"])

    def test_link_quantized_mode(self, rng):
        link = Link(uplink_codec=make_codec("int8"),
                    downlink_codec=make_codec("int8"))
        state = {"w": rng.normal(size=(16, 16)).astype(np.float32)}
        message = link.send_state(state, "a", "b")
        received, _ = link.recv_state(message)
        assert np.abs(received["w"] - state["w"]).max() < 0.1


class TestParallelAggregation:
    """The fork pool (``local_plane="procpool"``) against the
    sequential plane: same weights, same bytes."""

    def make_aggregator(self, max_workers):
        clients = {
            f"c{i}": LLMClient(f"c{i}", CFG, make_stream(shard=i, seed=i),
                               OPTIM, ConstantLR(3e-3))
            for i in range(3)
        }
        c4 = SyntheticC4(num_shards=4, vocab=CFG.vocab_size, seed=1)
        val = CachedTokenStream(c4.validation(), batch_size=4, seq_len=CFG.seq_len,
                                cache_tokens=2048, seed=99)
        plane = "sequential" if max_workers == 1 else "procpool"
        return Aggregator(CFG, clients, val_stream=val, max_workers=max_workers,
                          local_plane=plane)

    def test_parallel_matches_sequential(self):
        seq = self.make_aggregator(max_workers=1)
        par = self.make_aggregator(max_workers=2)
        seq.run(1, 2)
        par.run(1, 2)
        np.testing.assert_array_equal(
            state_to_vector(seq.global_state),
            state_to_vector(par.global_state),
        )

    def test_parallel_byte_accounting_exact(self):
        seq = self.make_aggregator(max_workers=1)
        par = self.make_aggregator(max_workers=2)
        r_seq, = seq.run(1, 1)
        r_par, = par.run(1, 1)
        assert r_seq.comm_bytes_down == r_par.comm_bytes_down
        assert r_seq.comm_bytes_up == r_par.comm_bytes_up

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            self.make_aggregator(max_workers=0)
        # Workers are fork-pool processes: no thread pool stands behind
        # max_workers on any other plane.
        clients = {"c0": LLMClient("c0", CFG, make_stream(shard=0, seed=0),
                                   OPTIM, ConstantLR(3e-3))}
        for plane in ("sequential", "batched"):
            with pytest.raises(ValueError, match="needs local_plane='procpool'"):
                Aggregator(CFG, clients, max_workers=2, local_plane=plane)


class TestHyperopt:
    @pytest.mark.slow
    def test_successive_halving_converges_to_one(self):
        fed = FedConfig(population=2, clients_per_round=2, local_steps=2, rounds=4)
        candidates = [Candidate(max_lr=3e-3), Candidate(max_lr=1e-6),
                      Candidate(max_lr=1e-3), Candidate(max_lr=3e-7)]
        results = successive_halving(CFG, fed, OPTIM, candidates,
                                     initial_rounds=1)
        assert results[0].best_perplexity <= results[-1].best_perplexity
        # The tiny LRs cannot win against a working one.
        assert results[0].candidate.max_lr >= 1e-3

    @pytest.mark.slow
    def test_single_candidate_short_circuit(self):
        fed = FedConfig(population=1, clients_per_round=1, local_steps=2, rounds=2)
        results = successive_halving(CFG, fed, OPTIM, [Candidate(max_lr=3e-3)],
                                     initial_rounds=1)
        assert len(results) == 1

    def test_validation(self):
        fed = FedConfig(population=1, clients_per_round=1, local_steps=1, rounds=1)
        with pytest.raises(ValueError):
            successive_halving(CFG, fed, OPTIM, [])
        with pytest.raises(ValueError):
            successive_halving(CFG, fed, OPTIM,
                               [Candidate(1e-3), Candidate(1e-3)])


class TestCrossPerplexity:
    def test_self_cross_is_optimal(self):
        source = make_source("c4", vocab=32)
        self_ppl = cross_perplexity(source.kernel, source.kernel)
        assert self_ppl == pytest.approx(source.optimal_perplexity(), rel=0.02)

    def test_mismatched_predictor_is_worse(self):
        a = make_source("c4", vocab=32)
        b = make_source("gutenberg", vocab=32)
        mix = 0.5 * a.kernel + 0.5 * b.kernel
        assert cross_perplexity(a.kernel, mix) > a.optimal_perplexity()

    def test_stationary_distribution_valid(self):
        kernel = make_kernel(seed=0, vocab=16, successors=4, concentration=0.5)
        pi = stationary_distribution(kernel)
        assert pi.sum() == pytest.approx(1.0)
        assert (pi[:2] == 0).all()
        # Stationarity: pi K = pi.
        np.testing.assert_allclose(pi @ kernel, pi, atol=1e-6)


class TestHardTasks:
    def test_hard_bigram_examples_plausible(self):
        from repro.eval import HardBigramTask

        source = make_source("c4", vocab=32)
        task = HardBigramTask(source, seed=0)
        for _ in range(10):
            ex = task.make_example()
            row = source.kernel[int(ex.prompt[-1])]
            assert row[ex.correct] >= row[ex.distractor] > 0


class TestPhotonWithExtensions:
    @pytest.mark.slow
    def test_quantized_link_still_converges(self):
        photon = Photon(
            CFG,
            FedConfig(population=2, clients_per_round=2, local_steps=8, rounds=3),
            OPTIM,
        )
        photon.aggregator.link = Link(uplink_codec=make_codec("int8"),
                                      downlink_codec=make_codec("int8"))
        history = photon.train()
        assert history.val_perplexities[-1] < history.val_perplexities[0]
