"""Hardware modelling, strategy selection, and DDP/FSDP equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, PAPER_MODELS
from repro.data import CachedTokenStream, SyntheticC4
from repro.nn import DecoderLM
from repro.optim import SGD, AdamW
from repro.parallel import (
    A100_40GB,
    H100,
    DDPEngine,
    FSDPEngine,
    GPUSpec,
    NodeSpec,
    ShardLayout,
    SiloSpec,
    calc_batch_size,
    select_strategy,
)


class TestHardware:
    def test_gpu_vram_bytes(self):
        assert H100.vram_bytes == 80 * 2**30

    def test_node_requires_gpus(self):
        with pytest.raises(ValueError):
            NodeSpec(())

    def test_silo_requires_nodes(self):
        with pytest.raises(ValueError):
            SiloSpec("empty", ())

    def test_single_node_has_rdma(self):
        silo = SiloSpec.multi_gpu(4)
        assert silo.has_rdma

    def test_multi_node_rdma_threshold(self):
        fast = SiloSpec("fast", (NodeSpec((H100,)), NodeSpec((H100,))),
                        inter_bw_gbps=200.0)
        slow = SiloSpec("slow", (NodeSpec((H100,)), NodeSpec((H100,))),
                        inter_bw_gbps=10.0)
        assert fast.has_rdma
        assert not slow.has_rdma

    def test_gpu_counts(self):
        silo = SiloSpec("s", (NodeSpec((H100, H100)), NodeSpec((H100,))))
        assert silo.n_gpus == 3
        assert silo.n_nodes == 2


class TestCalcBatchSize:
    def test_125m_fits_h100_with_large_batch(self):
        cfg = PAPER_MODELS["125M"]
        batch = calc_batch_size(cfg.n_params, cfg.d_model, cfg.n_blocks,
                                cfg.seq_len, H100.vram_bytes)
        # Paper: Bl = 32 on one H100 for the 125M model; the packing
        # heuristic should allow at least that.
        assert batch >= 32

    def test_7b_does_not_fit_single_h100(self):
        cfg = PAPER_MODELS["7B"]
        batch = calc_batch_size(cfg.n_params, cfg.d_model, cfg.n_blocks,
                                cfg.seq_len, H100.vram_bytes)
        assert batch == 0  # needs sharding / multiple GPUs (Table 1: 8xH100)

    def test_batch_is_power_of_two(self):
        cfg = PAPER_MODELS["125M"]
        batch = calc_batch_size(cfg.n_params, cfg.d_model, cfg.n_blocks,
                                cfg.seq_len, H100.vram_bytes)
        assert batch & (batch - 1) == 0

    def test_monotone_in_vram(self):
        cfg = PAPER_MODELS["350M"]
        small = calc_batch_size(cfg.n_params, cfg.d_model, cfg.n_blocks,
                                cfg.seq_len, A100_40GB.vram_bytes)
        large = calc_batch_size(cfg.n_params, cfg.d_model, cfg.n_blocks,
                                cfg.seq_len, H100.vram_bytes)
        assert large >= small


class TestStrategySelection:
    def test_single_gpu(self):
        plan = select_strategy(SiloSpec.single_gpu(), PAPER_MODELS["125M"])
        assert plan.strategy == "single_gpu"
        assert plan.n_workers == 1

    def test_multi_gpu_ddp_when_model_fits(self):
        plan = select_strategy(SiloSpec.multi_gpu(4), PAPER_MODELS["125M"])
        assert plan.strategy == "ddp"
        assert plan.n_workers == 4

    def test_multi_gpu_fsdp_when_model_too_big(self):
        plan = select_strategy(SiloSpec.multi_gpu(8), PAPER_MODELS["7B"])
        assert plan.strategy == "fsdp"
        assert plan.n_workers == 8

    def test_multi_node_slow_links_sub_federates(self):
        silo = SiloSpec("campus", (NodeSpec((H100,)), NodeSpec((H100,))),
                        inter_bw_gbps=1.0)
        plan = select_strategy(silo, PAPER_MODELS["125M"])
        assert plan.strategy == "sub_federation"
        assert plan.n_workers == 2

    def test_multi_node_fast_links_use_ddp(self):
        silo = SiloSpec("dc", (NodeSpec((H100,)), NodeSpec((H100,))),
                        inter_bw_gbps=400.0)
        plan = select_strategy(silo, PAPER_MODELS["125M"])
        assert plan.strategy == "ddp"

    def test_target_batch_caps_plan(self):
        plan = select_strategy(SiloSpec.single_gpu(), PAPER_MODELS["125M"],
                               target_batch=8)
        assert plan.per_worker_batch == 8

    def test_model_too_big_raises(self):
        tiny_gpu = GPUSpec("toy", vram_gb=0.001, bf16_tflops=1.0)
        silo = SiloSpec("toy", (NodeSpec((tiny_gpu,)),))
        with pytest.raises(ValueError):
            select_strategy(silo, PAPER_MODELS["7B"])


def _train_setup(seed=0, batch=8):
    cfg = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2,
                      vocab_size=32, seq_len=16)
    model = DecoderLM(cfg, seed=seed)
    c4 = SyntheticC4(num_shards=1, vocab=cfg.vocab_size, seed=1)
    stream = CachedTokenStream(c4.shard(0), batch_size=batch, seq_len=cfg.seq_len,
                               cache_tokens=2048, seed=2)
    return cfg, model, stream


class TestDDPEquivalence:
    def test_ddp_matches_single_worker_full_batch(self):
        """The defining DDP property: k-way gradient averaging over
        shards == one step on the full batch."""
        _, model_a, stream = _train_setup(seed=0)
        _, model_b, _ = _train_setup(seed=0)
        x, y = stream.next_batch()

        opt_a = SGD(model_a.parameters(), lr=0.1)
        single = DDPEngine(model_a, opt_a, n_workers=1, grad_clip=None)
        loss_a = single.step(x, y)

        opt_b = SGD(model_b.parameters(), lr=0.1)
        ddp = DDPEngine(model_b, opt_b, n_workers=4, grad_clip=None)
        loss_b = ddp.step(x, y)

        np.testing.assert_allclose(loss_a, loss_b, rtol=1e-4)
        for (_, pa), (_, pb) in zip(model_a.named_parameters(),
                                    model_b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-3, atol=1e-5)

    def test_indivisible_batch_rejected(self):
        _, model, stream = _train_setup(batch=6)
        engine = DDPEngine(model, SGD(model.parameters(), lr=0.1), n_workers=4)
        x, y = stream.next_batch()
        with pytest.raises(ValueError):
            engine.step(x, y)

    def test_comm_events_counted(self):
        _, model, stream = _train_setup()
        engine = DDPEngine(model, SGD(model.parameters(), lr=0.1), n_workers=2)
        for _ in range(3):
            x, y = stream.next_batch()
            engine.step(x, y)
        assert engine.comm_events == 3

    def test_invalid_worker_count(self):
        _, model, _ = _train_setup()
        with pytest.raises(ValueError):
            DDPEngine(model, SGD(model.parameters(), lr=0.1), n_workers=0)


class TestShardLayout:
    def test_partition_exact(self):
        layout = ShardLayout(10, 3)
        sizes = layout.shard_sizes()
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_slices_disjoint_and_cover(self):
        layout = ShardLayout(17, 4)
        seen = np.zeros(17, dtype=int)
        for w in range(4):
            seen[layout.slice_for(w)] += 1
        assert (seen == 1).all()

    def test_out_of_range_worker(self):
        with pytest.raises(IndexError):
            ShardLayout(10, 2).slice_for(2)

    def test_allgather_bytes_positive(self):
        layout = ShardLayout(100, 4)
        assert layout.allgather_bytes() == 2 * (100 - 25)


class TestFSDP:
    def test_fsdp_matches_ddp(self):
        _, model_a, stream = _train_setup(seed=0)
        _, model_b, _ = _train_setup(seed=0)
        x, y = stream.next_batch()

        ddp = DDPEngine(model_a, SGD(model_a.parameters(), lr=0.1),
                        n_workers=2, grad_clip=None)
        ddp.step(x, y)

        fsdp = FSDPEngine(model_b, SGD(model_b.parameters(), lr=0.1),
                          n_workers=2, grad_clip=None)
        fsdp.step(x, y)

        state_a = model_a.state_dict()
        state_b = fsdp.full_state()
        for k in state_a:
            np.testing.assert_allclose(state_a[k], state_b[k], rtol=1e-4, atol=1e-6)

    def test_worker_memory_fraction(self):
        _, model, _ = _train_setup()
        fsdp = FSDPEngine(model, SGD(model.parameters(), lr=0.1), n_workers=4)
        total = sum(fsdp.worker_param_count(w) for w in range(4))
        assert total == fsdp.layout.total_params
        assert fsdp.worker_param_count(0) <= total // 4 + 1

    def test_gather_bytes_accumulate(self):
        _, model, stream = _train_setup()
        fsdp = FSDPEngine(model, AdamW(model.parameters(), lr=1e-3), n_workers=2)
        x, y = stream.next_batch()
        fsdp.step(x, y)
        assert fsdp.bytes_gathered > 0
