"""Multi-tenant serving: batched adapter engine, cache, replayer —
plus regressions for the LoRA-era inference and personalization bugs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig, OptimConfig
from repro.data import CachedTokenStream, SyntheticC4
from repro.fed import personalize
from repro.nn import (
    DecoderLM,
    InferenceEngine,
    apply_lora,
    load_lora_state_dict,
    lora_state_dict,
    merge_lora,
)
from repro.obs import MeterRegistry, MetricsSink, Tracer
from repro.serve import (
    Adapter,
    AdapterCache,
    MultiAdapterEngine,
    Request,
    RequestReplayer,
    StaleAdapterError,
    SyntheticTrace,
    synthetic_adapter,
)

from helpers import FACTORED_LORA_ULPS, GEMM_SHAPE_ULPS, assert_within_ulps

CFG = ModelConfig("micro", n_blocks=2, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=24)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=4, weight_decay=0.0)
RANK = 2
VERSION = 5


def make_stream(batch=4, seed=0):
    c4 = SyntheticC4(num_shards=2, vocab=CFG.vocab_size, seed=1)
    return CachedTokenStream(c4.shard(0), batch_size=batch,
                             seq_len=CFG.seq_len, cache_tokens=2048, seed=seed)


@pytest.fixture(scope="module")
def base_model():
    return DecoderLM(CFG, seed=0)


def lora_template(rank):
    probe = DecoderLM(CFG, seed=0)
    apply_lora(probe, rank=rank, seed=1)
    return lora_state_dict(probe)


@pytest.fixture(scope="module")
def template():
    return lora_template(RANK)


def make_adapter(template, user, version=VERSION, **kw):
    return synthetic_adapter(template, user, version, **kw)


def merged_reference(adapter, base=None):
    """The sequential path: fold the adapter densely, one engine per
    request (what serving replaces)."""
    model = DecoderLM(CFG if base is None else base.config, seed=0)
    if base is not None:
        model.load_state_dict(base.state_dict())
    apply_lora(model, rank=adapter.rank, seed=1)
    names = ("qkv", "proj", "up", "down")
    load_lora_state_dict(model, {
        f"lora{i}.{names[i % 4]}.{part}": arr
        for i, pair in enumerate(adapter.pairs)
        for part, arr in zip("ab", pair)
    })
    merge_lora(model)
    return InferenceEngine(model)


@pytest.mark.parametrize("alibi", [True, False], ids=["alibi", "causal"])
def test_fp32_tolerance_half_of_the_exactness_contract(template, alibi):
    """README "Exactness contract": the two guarantees that are *not*
    bit-exact, bounded in float32 spacings over whole sequences (prefill
    and every decode step) instead of per-test ``rtol``.  Incremental
    logits run training's kernels over differently shaped GEMMs;
    factored LoRA adds ``(x·A)·B·s`` where the merged engine folds it
    into ``W``."""
    cfg = CFG.scaled(alibi=alibi)
    rng = np.random.default_rng(0)
    model = DecoderLM(cfg, seed=0)
    for p in model.parameters():  # non-trivial affines and biases
        p.data = p.data + rng.normal(0, 0.05, size=p.shape).astype(np.float32)
    sequence = rng.integers(0, cfg.vocab_size, size=cfg.seq_len)

    def decode(feed_prompt, feed_token):
        return np.stack([feed_prompt(sequence[:5]),
                         *(feed_token(int(t)) for t in sequence[5:-1])])

    want = model(sequence[None, :-1]).data[0, 4:]
    engine = InferenceEngine(model)
    assert_within_ulps(decode(engine.prefill, engine.decode_step), want,
                       GEMM_SHAPE_ULPS)

    adapter = make_adapter(template, 3)
    serving = MultiAdapterEngine(model, base_version=VERSION, max_streams=2)
    serving.open("r", adapter)
    factored = decode(lambda p: serving.prefill("r", p),
                      lambda t: serving.decode({"r": t})["r"])
    merged = merged_reference(adapter, model)
    assert_within_ulps(factored, decode(merged.prefill, merged.decode_step),
                       FACTORED_LORA_ULPS)


class TestAdapter:
    def test_from_state_dict_roundtrip(self, template):
        adapter = Adapter.from_state_dict("u", template, 3)
        assert adapter.n_slots == 4 * CFG.n_blocks
        assert adapter.rank == RANK
        assert adapter.base_version == 3
        assert adapter.nbytes == sum(v.nbytes for v in template.values())

    def test_scaling_is_alpha_over_rank(self, template):
        adapter = Adapter.from_state_dict("u", template, 0, alpha=16.0)
        assert adapter.scaling(0) == pytest.approx(16.0 / RANK)

    def test_malformed_state_rejected(self, template):
        with pytest.raises(ValueError):
            Adapter.from_state_dict("u", {}, 0)
        bad = dict(template)
        del bad["lora0.qkv.a"]
        bad["lora99.qkv.a"] = np.zeros((4, 2))
        with pytest.raises(ValueError):
            Adapter.from_state_dict("u", bad, 0)

    def test_synthetic_adapter_deterministic(self, template):
        a1 = make_adapter(template, 3, seed=9)
        a2 = make_adapter(template, 3, seed=9)
        other = make_adapter(template, 4, seed=9)
        for (x1, y1), (x2, y2) in zip(a1.pairs, a2.pairs):
            np.testing.assert_array_equal(x1, x2)
            np.testing.assert_array_equal(y1, y2)
        assert any(not np.array_equal(p1[0], p2[0])
                   for p1, p2 in zip(a1.pairs, other.pairs))


class TestMultiAdapterEngine:
    def test_batched_matches_sequential_merge(self, base_model, template, rng):
        """The core guarantee: K-stream factored serving equals
        per-request merge-and-decode, request by request."""
        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=3)
        requests = {
            f"r{u}": (make_adapter(template, u),
                      rng.integers(2, CFG.vocab_size, size=4 + u))
            for u in range(3)
        }
        batched = engine.generate_batch(requests, max_new_tokens=8)
        for rid, (adapter, prompt) in requests.items():
            reference = merged_reference(adapter).generate(
                prompt, max_new_tokens=8, temperature=0.0)
            np.testing.assert_array_equal(batched[rid], reference)

    def test_batched_logits_close_to_merged(self, base_model, template, rng):
        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=2)
        adapter = make_adapter(template, 0)
        prompt = rng.integers(2, CFG.vocab_size, size=6)
        engine.open("r", adapter)
        factored = engine.prefill("r", prompt)
        merged = merged_reference(adapter).prefill(prompt)
        assert_within_ulps(factored, merged, FACTORED_LORA_ULPS)

    def test_shared_adapter_rows_grouped(self, base_model, template, rng):
        """Two requests from the same tenant (the same factors in two
        rows of the stacks) decode exactly like separate merged
        engines."""
        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=2)
        adapter = make_adapter(template, 7)
        p1 = rng.integers(2, CFG.vocab_size, size=5)
        p2 = rng.integers(2, CFG.vocab_size, size=8)
        out = engine.generate_batch(
            {"a": (adapter, p1), "b": (adapter, p2)}, max_new_tokens=6)
        ref = merged_reference(adapter)
        np.testing.assert_array_equal(
            out["a"], ref.generate(p1, max_new_tokens=6, temperature=0.0))
        np.testing.assert_array_equal(
            out["b"], ref.generate(p2, max_new_tokens=6, temperature=0.0))

    def test_no_adapter_matches_base_engine(self, base_model, rng):
        engine = MultiAdapterEngine(base_model, max_streams=1)
        prompt = rng.integers(2, CFG.vocab_size, size=6)
        out = engine.generate_batch({"r": (None, prompt)}, max_new_tokens=8)
        ref = InferenceEngine(base_model).generate(prompt, max_new_tokens=8,
                                                   temperature=0.0)
        np.testing.assert_array_equal(out["r"], ref)

    def test_stale_adapter_rejected(self, base_model, template):
        engine = MultiAdapterEngine(base_model, base_version=VERSION)
        stale = make_adapter(template, 0, version=VERSION - 1)
        with pytest.raises(StaleAdapterError):
            engine.open("r", stale)
        assert engine.active == 0

    def test_shape_mismatch_rejected(self, base_model, template):
        engine = MultiAdapterEngine(base_model, base_version=VERSION)
        adapter = make_adapter(template, 0)
        wrong = Adapter(adapter.adapter_id, adapter.base_version,
                        adapter.alpha, adapter.pairs[:4])
        with pytest.raises(ValueError):
            engine.open("r", wrong)

    def test_stream_lifecycle(self, base_model, template, rng):
        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=1)
        engine.open("r", make_adapter(template, 0))
        with pytest.raises(ValueError):
            engine.open("r", None)  # duplicate id
        with pytest.raises(RuntimeError):
            engine.open("r2", None)  # over capacity
        engine.close("r")
        with pytest.raises(KeyError):
            engine.close("r")
        engine.open("r2", None)  # slot freed
        with pytest.raises(KeyError):
            engine.prefill("ghost", rng.integers(0, CFG.vocab_size, size=3))

    def test_lora_wrapped_base_rejected(self):
        model = DecoderLM(CFG, seed=0)
        apply_lora(model, rank=RANK)
        with pytest.raises(ValueError):
            MultiAdapterEngine(model)

    def test_snapshot_isolated_from_training(self, base_model, template, rng):
        """Mutating the live model after engine construction must not
        change what the engine serves."""
        model = DecoderLM(CFG, seed=3)
        engine = MultiAdapterEngine(model, base_version=VERSION)
        prompt = rng.integers(2, CFG.vocab_size, size=5)
        engine.open("r", make_adapter(template, 0))
        before = engine.prefill("r", prompt).copy()
        for p in model.parameters():
            p.data += 1.0
        engine.close("r")
        engine.open("r", make_adapter(template, 0))
        np.testing.assert_array_equal(engine.prefill("r", prompt), before)


    def test_malformed_adapter_rejected_before_a_slot_is_taken(
            self, base_model, template):
        """An Adapter built directly (not through ``from_state_dict``)
        with factors that disagree on the inner rank, are not 2-D, or
        hold NaN/inf used to pass ``open()`` and fail — or poison the
        shared K/V buffers — in the middle of a wave."""
        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=3)
        engine.open("held", make_adapter(template, 0))
        good = make_adapter(template, 1)
        a, b = good.pairs[5]

        def broken(pair):
            pairs = list(good.pairs)
            pairs[5] = pair
            return Adapter("userX", VERSION, good.alpha, tuple(pairs))

        poisoned = a.copy()
        poisoned[3, 1] = np.nan
        overflowed = b.copy()
        overflowed[0, 0] = np.inf
        free = list(engine._free)
        for pair in [(a, b[:1]),               # inner ranks 2 and 1
                     (a[:, 0], b),             # 1-D factor
                     (a[None], b),             # 3-D factor
                     (poisoned, b), (a, overflowed)]:
            with pytest.raises(ValueError, match=r"'userX' slot 5"):
                engine.open("r", broken(pair))
            assert engine.active == 1
            assert engine._free == free
        engine.open("r", good)  # the id and the slot are still available
        assert engine.active == 2


class TestTokenValidation:
    """Token ids are checked at the engine boundary, over the whole
    call, before any slot is written."""

    #: (prompt, the same fault as a single decode token)
    BAD = [
        ([-1, 3], -1),                        # decoded as emb[-1] before
        ([3, CFG.vocab_size], CFG.vocab_size),  # numpy's bare IndexError
        (np.array([1.0, 2.0]), 2.0),          # float ids
        (np.array([True, False]), True),      # bools are not ids
        (np.array([[1, 2], [3, 4]]), np.array([[3]])),  # served as 4 ids before
        (np.array([[1, 2]]), np.array([3])[None]),      # a batch of one too
    ]

    @pytest.mark.parametrize("prompt, token", BAD)
    def test_serving_engine_names_the_request(self, base_model, prompt,
                                              token):
        engine = MultiAdapterEngine(base_model, max_streams=2)
        engine.open("a")
        engine.open("b")
        with pytest.raises(ValueError, match="request 'a'"):
            engine.prefill("a", prompt)
        with pytest.raises(ValueError, match="request 'b'"):
            engine.prefill_batch({"a": [1, 2], "b": prompt})
        engine.prefill_batch({"a": [1, 2], "b": [3]})
        with pytest.raises(ValueError, match="request 'b'"):
            engine.decode({"a": 1, "b": token})

    @pytest.mark.parametrize("prompt, token", BAD)
    def test_inference_engine(self, base_model, prompt, token):
        engine = InferenceEngine(base_model)
        with pytest.raises(ValueError):
            engine.prefill(prompt)
        with pytest.raises(ValueError):
            engine.generate(prompt, max_new_tokens=2, temperature=0.0)
        engine.reset()
        engine.prefill([1, 2])
        with pytest.raises(ValueError):
            engine.decode_step(token)
        assert engine.position == 2

    @pytest.mark.parametrize("prompt", [np.array([[1, 2], [3, 4]]),
                                        np.array([[1, 2]])])
    def test_generators_agree_on_2d_prompts(self, base_model, prompt):
        """Neither generator serves a 2-D array as one flat prompt."""
        for generator in (base_model, InferenceEngine(base_model)):
            with pytest.raises(ValueError, match="one sequence"):
                generator.generate(prompt, max_new_tokens=2,
                                   temperature=0.0)

    def test_rejected_call_moves_no_stream(self, base_model, template):
        """Every way a call can be refused — bad ids, an empty prompt,
        a full context, an unknown request — leaves every open stream's
        position and next logits as a twin engine that never saw the
        call has them."""
        engines = [MultiAdapterEngine(base_model, base_version=VERSION,
                                      max_streams=3) for _ in range(2)]
        for engine in engines:
            engine.open("a", make_adapter(template, 0))
            engine.open("b", None)
            engine.prefill_batch({"a": [5, 6, 7], "b": [8, 9]})
        engine, twin = engines
        room = CFG.seq_len - 2
        for error, call in [
            (ValueError, lambda: engine.decode({"a": 3, "b": 99})),
            (ValueError, lambda: engine.decode({"a": 3, "b": -1})),
            (ValueError, lambda: engine.decode({"a": 3, "b": 2.5})),
            (ValueError, lambda: engine.prefill_batch({"a": [1, 2], "b": []})),
            (ValueError, lambda: engine.prefill_batch(
                {"a": [1, 2], "b": np.array([[3, 4]])})),
            (ValueError, lambda: engine.prefill_batch(
                {"a": [1], "b": [1] * (room + 1)})),
            (KeyError, lambda: engine.decode({"a": 3, "ghost": 1})),
        ]:
            with pytest.raises(error):
                call()
            np.testing.assert_array_equal(engine.positions, twin.positions)
        feed = {"a": 3, "b": 4}
        got, want = engine.decode(feed), twin.decode(feed)
        for rid in feed:
            np.testing.assert_array_equal(got[rid], want[rid])


class TestSlotAddressedDecoding:
    """The hazards of sharing one set of K/V buffers and one attention
    call between requests: none of them may show in a request's output."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_logits_independent_of_batch_composition(self, base_model,
                                                     template, data):
        """Teacher-forced: a request's logits alone in a one-slot
        engine equal its logits among random co-runners that open,
        prefill, decode and close around it, whatever slot it lands in."""
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
        user = draw(st.one_of(st.none(), st.integers(0, 3)), label="user")
        adapter = None if user is None else make_adapter(template, user)
        prompt = rng.integers(0, CFG.vocab_size,
                              size=draw(st.integers(1, 6), label="prompt"))
        forced = rng.integers(0, CFG.vocab_size,
                              size=draw(st.integers(1, 8), label="steps"))

        alone = MultiAdapterEngine(base_model, base_version=VERSION,
                                   max_streams=1)
        alone.open("x", adapter)
        want = [alone.prefill("x", prompt)]
        want += [alone.decode({"x": int(t)})["x"] for t in forced]

        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=4)
        held: dict[str, int] = {}  # co-runner -> tokens in its slot

        def churn() -> dict:
            """Open, close or keep each co-runner; returns what to feed
            the open ones — a prompt if new, else one token."""
            feed = {}
            for rid in "abc":
                move = draw(st.sampled_from(["open", "close", "keep"]),
                            label=rid)
                if rid in held and (move == "close"
                                    or held[rid] >= CFG.seq_len - 1):
                    engine.close(rid)
                    del held[rid]
                elif rid not in held and move == "open":
                    engine.open(rid, draw(st.sampled_from(
                        [None, make_adapter(template, 4)]), label="adapter"))
                    held[rid] = 0
                if rid in held:
                    size = 1 if held[rid] else int(rng.integers(1, 9))
                    feed[rid] = rng.integers(0, CFG.vocab_size, size=size)
                    held[rid] += size
            return feed

        engine.prefill_batch(churn())  # the request's slot varies with this
        engine.open("x", adapter)
        for step, tokens in enumerate([prompt, *forced[:, None]]):
            got = engine.prefill_batch({**churn(), "x": tokens})["x"]
            assert_within_ulps(got, want[step], GEMM_SHAPE_ULPS)

    def test_slot_reuse_never_leaks(self, base_model, template, rng):
        """Requests decoded in slots whose previous occupants held
        longer contexts (under another adapter) equal a fresh engine
        bit for bit: a slot's stale tail is masked, never read."""
        def wave(engine):
            engine.open("a", make_adapter(template, 1))
            engine.open("b", None)
            out = [engine.prefill_batch({"a": [4, 5, 6, 7, 8], "b": [9, 10]})]
            out += [engine.decode({"a": t, "b": t + 1}) for t in range(6)]
            return out

        fresh = MultiAdapterEngine(base_model, base_version=VERSION,
                                   max_streams=2)
        reused = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=2)
        for rid in ("old0", "old1"):
            reused.open(rid, make_adapter(template, 2))
        reused.prefill_batch({
            rid: rng.integers(0, CFG.vocab_size, size=CFG.seq_len)
            for rid in ("old0", "old1")})
        reused.close("old0")
        reused.close("old1")
        assert np.abs(reused.k[:, :, :, 12:]).min() > 0  # tails are dirty
        for got, want in zip(wave(reused), wave(fresh)):
            for rid in want:
                np.testing.assert_array_equal(got[rid], want[rid])

    def test_mixed_ranks_and_no_adapter_in_one_wave(self, base_model, rng):
        """Ranks 2 and 8 and an adapter-less row share the stacked LoRA
        product (zero-padded to rank 8, zero rows for the bare request);
        each decodes its own merged engine's tokens."""
        narrow = synthetic_adapter(lora_template(2), 1, VERSION)
        wide = synthetic_adapter(lora_template(8), 2, VERSION)
        requests = {
            "narrow": (narrow, rng.integers(2, CFG.vocab_size, size=5)),
            "wide": (wide, rng.integers(2, CFG.vocab_size, size=7)),
            "bare": (None, rng.integers(2, CFG.vocab_size, size=3)),
        }
        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=3)
        out = engine.generate_batch(requests, max_new_tokens=8)
        for rid, (adapter, prompt) in requests.items():
            reference = (InferenceEngine(base_model) if adapter is None
                         else merged_reference(adapter))
            np.testing.assert_array_equal(
                out[rid], reference.generate(prompt, max_new_tokens=8,
                                             temperature=0.0))

    def test_kv_buffers_never_reallocated(self, template):
        """The K/V buffers after 100 decode steps are the memory the
        engine was built with — written in place, not regrown per token."""
        model = DecoderLM(CFG.scaled(seq_len=128), seed=0)
        engine = MultiAdapterEngine(model, base_version=VERSION, max_streams=2)
        k, v = engine.k, engine.v
        assert k.shape == v.shape == (CFG.n_blocks, 2, CFG.n_heads, 128,
                                      CFG.head_dim)
        engine.open("a", make_adapter(template, 0))
        engine.open("b", None)
        engine.prefill_batch({"a": [1, 2, 3, 4], "b": [5, 6]})
        for step in range(100):
            engine.decode({"a": step % 7, "b": step % 5})
        for now, then in ((engine.k, k), (engine.v, v)):
            assert now.shape == then.shape and np.shares_memory(now, then)
            assert now.__array_interface__["data"] == then.__array_interface__["data"]
        assert engine.positions.tolist() == [104, 102]
        assert np.abs(k[:, 0, :, :104]).min() > 0  # and they were written

    def test_inference_engine_is_the_one_slot_configuration(self, base_model,
                                                            rng):
        """``InferenceEngine`` and the serving engine at
        ``max_streams=1`` without adapter are the same decoder: equal
        logits bit for bit, prefill and decode."""
        single = InferenceEngine(base_model)
        serving = MultiAdapterEngine(base_model, max_streams=1)
        serving.open("r")
        prompt = rng.integers(0, CFG.vocab_size, size=7)
        np.testing.assert_array_equal(single.prefill(prompt),
                                      serving.prefill("r", prompt))
        for token in rng.integers(0, CFG.vocab_size, size=10):
            np.testing.assert_array_equal(
                single.decode_step(int(token)),
                serving.decode({"r": int(token)})["r"])
        assert single.position == serving.positions[0] == 17


class TestAdapterCache:
    def test_lru_eviction_order(self, template):
        cache = AdapterCache(capacity=2)
        for user in range(3):
            cache.put(make_adapter(template, user))
        assert "user0" not in cache
        assert "user1" in cache and "user2" in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self, template):
        cache = AdapterCache(capacity=2)
        cache.put(make_adapter(template, 0))
        cache.put(make_adapter(template, 1))
        cache.get("user0", base_version=VERSION)
        cache.put(make_adapter(template, 2))
        assert "user0" in cache and "user1" not in cache

    def test_pinned_never_evicted(self, template):
        """Satellite guarantee: eviction pressure cannot remove an
        adapter an in-flight request holds pinned."""
        cache = AdapterCache(capacity=1)
        cache.put(make_adapter(template, 0), pin=True)
        for user in range(1, 5):
            cache.put(make_adapter(template, user))
        assert "user0" in cache
        cache.unpin("user0")
        cache.put(make_adapter(template, 9))
        assert "user0" not in cache

    def test_put_pin_survives_fully_pinned_cache(self, template):
        """An admission into a cache whose whole capacity is pinned
        must not evict its own adapter (it rides over capacity)."""
        cache = AdapterCache(capacity=2)
        cache.put(make_adapter(template, 0), pin=True)
        cache.put(make_adapter(template, 1), pin=True)
        cache.put(make_adapter(template, 2), pin=True)
        assert cache.resident == 3  # temporarily over capacity
        cache.unpin("user0")
        cache.unpin("user1")
        cache.unpin("user2")
        assert cache.resident == cache.capacity

    def test_stale_version_is_miss_and_dropped(self, template):
        """Satellite guarantee: a lookup naming the serving base never
        returns an adapter trained against another checkpoint."""
        cache = AdapterCache(capacity=4)
        cache.put(make_adapter(template, 0, version=VERSION - 1))
        assert cache.get("user0", base_version=VERSION) is None
        assert cache.stale_drops == 1
        assert "user0" not in cache  # dropped, forces re-personalization
        # Unversioned lookups still see whatever is resident.
        cache.put(make_adapter(template, 1, version=VERSION - 1))
        assert cache.get("user1") is not None

    def test_pin_requires_residency_and_balances(self, template):
        cache = AdapterCache(capacity=2)
        with pytest.raises(KeyError):
            cache.pin("user0")
        cache.put(make_adapter(template, 0))
        cache.pin("user0")
        cache.pin("user0")
        cache.unpin("user0")
        assert cache.pinned("user0")
        cache.unpin("user0")
        with pytest.raises(KeyError):
            cache.unpin("user0")

    def test_hit_rate_and_bytes(self, template):
        cache = AdapterCache(capacity=2)
        adapter = make_adapter(template, 0)
        cache.put(adapter)
        cache.get("user0", base_version=VERSION)
        cache.get("user1", base_version=VERSION)
        assert cache.hit_rate == pytest.approx(0.5)
        assert cache.resident_bytes == adapter.nbytes

    def test_meters_mirrored(self, template):
        meters = MeterRegistry()
        cache = AdapterCache(capacity=1, meters=meters)
        cache.put(make_adapter(template, 0))
        cache.put(make_adapter(template, 1))
        cache.get("user1", base_version=VERSION)
        cache.get("user0", base_version=VERSION)
        snap = meters.snapshot()
        assert snap["serve/cache_hits"] == 1
        assert snap["serve/cache_misses"] == 1
        assert snap["serve/cache_evictions"] == 1
        assert snap["serve/adapters_resident"] == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AdapterCache(capacity=0)


def count_calls(engine, name, record=lambda arg: arg):
    """Wrap ``engine.<name>`` on the instance; returns the list that
    ``record(first argument)`` is appended to on every call."""
    calls = []
    method = getattr(engine, name)

    def counted(arg, *args):
        calls.append(record(arg))
        return method(arg, *args)

    setattr(engine, name, counted)
    return calls


def serve_mixed_like(n_waves, model, seed=0):
    """``serve_mixed``'s shape at test size: per 8 requests, 6 short
    and 2 long ones at random positions, Zipf users."""
    rng = np.random.default_rng(seed)
    zipf = np.arange(1, 25, dtype=np.float64) ** -1.1
    requests = []
    for _ in range(n_waves):
        long = set(rng.choice(8, 2, replace=False).tolist())
        for pos in range(8):
            prompt_len, gen = (((8, 16), (96, 128)) if pos in long
                               else ((4, 8), (8, 16)))
            requests.append(Request(
                f"r{len(requests)}", int(rng.choice(24, p=zipf / zipf.sum())),
                rng.integers(0, model.vocab_size,
                             size=int(rng.integers(*prompt_len))),
                int(rng.integers(*gen))))
    return requests


class TestReplayer:
    def make_replayer(self, base_model, template, *, capacity=3, batch=4,
                      tracer=None, temperature=0.0, seed=0,
                      adapter_source=None):
        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=batch)
        cache = AdapterCache(capacity,
                             meters=tracer.meters if tracer else None)
        return RequestReplayer(
            engine, cache,
            adapter_source or (lambda u: make_adapter(template, u)),
            batch_size=batch, temperature=temperature, seed=seed,
            tracer=tracer)

    def run_replay(self, base_model, template, *, n_requests=12, **kw):
        trace = SyntheticTrace(n_requests, 5, vocab_size=CFG.vocab_size,
                               seed=0)
        return self.make_replayer(base_model, template, **kw).run(trace)

    def test_trace_seeded_and_zipf_skewed(self):
        t1 = SyntheticTrace(50, 10, vocab_size=CFG.vocab_size, seed=4)
        t2 = SyntheticTrace(50, 10, vocab_size=CFG.vocab_size, seed=4)
        for r1, r2 in zip(t1, t2):
            assert r1.user_id == r2.user_id
            np.testing.assert_array_equal(r1.prompt, r2.prompt)
        counts = np.bincount([r.user_id for r in t1], minlength=10)
        assert counts[0] > counts[5:].max()  # head user dominates the tail

    def test_replay_deterministic(self, base_model, template):
        """Satellite guarantee: a fixed seed fixes every output token,
        independent of the host's timing."""
        r1 = self.run_replay(base_model, template)
        r2 = self.run_replay(base_model, template)
        assert r1.outputs.keys() == r2.outputs.keys()
        for rid in r1.outputs:
            np.testing.assert_array_equal(r1.outputs[rid], r2.outputs[rid])

    def test_replay_deterministic_when_sampling(self, base_model, template):
        r1 = self.run_replay(base_model, template, temperature=0.9, seed=11)
        r2 = self.run_replay(base_model, template, temperature=0.9, seed=11)
        for rid in r1.outputs:
            np.testing.assert_array_equal(r1.outputs[rid], r2.outputs[rid])

    def test_replay_outputs_match_sequential(self, base_model, template):
        """Every replayed request decodes exactly as its own merged
        engine would have, at any number of concurrent streams."""
        trace = SyntheticTrace(10, 5, vocab_size=CFG.vocab_size, seed=0)
        expected = {
            r.request_id: merged_reference(make_adapter(template, r.user_id))
            .generate(r.prompt, r.max_new_tokens, temperature=0.0)
            for r in trace}
        for batch in (1, 3, 8):
            result = self.run_replay(base_model, template, batch=batch,
                                     n_requests=10)
            assert result.outputs.keys() == expected.keys()
            for rid, want in expected.items():
                np.testing.assert_array_equal(result.outputs[rid], want)

    def test_metrics_populated(self, base_model, template):
        replayer = self.make_replayer(base_model, template)
        prefills = count_calls(replayer.engine, "prefill_batch")
        result = replayer.run(SyntheticTrace(12, 5, vocab_size=CFG.vocab_size,
                                             seed=0))
        assert result.requests == 12
        # Admission rounds: one prefill call each, at least ceil(12 / 4).
        assert result.waves == len(prefills) >= 3
        assert sum(len(prompts) for prompts in prefills) == 12
        assert result.tokens_out > 0
        assert result.p99_ms >= result.p50_ms > 0
        assert result.tokens_per_s > 0
        assert result.cache_hits + result.cache_misses == 12
        assert 0 < result.cache_hit_rate < 1
        assert result.adapters_resident <= 3
        assert result.adapter_bytes > 0
        assert len(result.latencies_ms) == 12
        d = result.as_dict()
        assert {"p50_ms", "p99_ms", "tokens_per_s", "cache_hit_rate",
                "adapter_bytes"} <= d.keys()

    def test_tracer_spans_and_meters(self, base_model, template, tmp_path):
        sink = MetricsSink(tmp_path / "serve.metrics.jsonl")
        tracer = Tracer(tmp_path / "serve.json", metrics_every=1, sink=sink)
        replayer = self.make_replayer(base_model, template, tracer=tracer)
        decodes = count_calls(replayer.engine, "decode")
        result = replayer.run(SyntheticTrace(
            10, 5, vocab_size=CFG.vocab_size, seed=0))
        summary = tracer.summary()
        # admit + prefill per round, one decode per step, one per request
        assert summary["host_spans"] == 2 * result.waves + len(decodes) + 10
        assert sink.lines == 3  # one snapshot per 4 completed requests
        meters = summary["meters"]
        assert meters["serve/requests"] == 10
        assert meters["serve/latency_ms"]["count"] == 10
        assert meters["serve/tokens_out"] == result.tokens_out
        assert tracer.export() is not None

    def test_tracing_does_not_change_outputs(self, base_model, template,
                                             tmp_path):
        for temperature in (0.0, 0.9):
            plain = self.run_replay(base_model, template,
                                    temperature=temperature)
            traced = self.run_replay(base_model, template,
                                     temperature=temperature,
                                     tracer=Tracer(tmp_path / "t.json"))
            assert plain.outputs.keys() == traced.outputs.keys()
            for rid in plain.outputs:
                np.testing.assert_array_equal(plain.outputs[rid],
                                              traced.outputs[rid])

    def test_sampled_outputs_independent_of_batch_size(self, base_model,
                                                       template):
        """Regression: the sampling stream was keyed on the wave's first
        index, so at temperature > 0 half the requests of a 16-request
        trace drew other tokens at batch 4 than at batch 8."""
        runs = [self.run_replay(base_model, template, batch=batch,
                                n_requests=16, temperature=0.9, seed=11)
                for batch in (1, 3, 8)]
        for run in runs[1:]:
            assert run.outputs.keys() == runs[0].outputs.keys()
            for rid in run.outputs:
                np.testing.assert_array_equal(run.outputs[rid],
                                              runs[0].outputs[rid])

    def test_same_user_same_prompt_draws_its_own_stream(self, base_model,
                                                        template):
        """Regression: two requests of one user in one wave shared a
        sampling stream, so identical prompts sampled identical text."""
        prompt = np.arange(5)
        trace = [Request("a", 2, prompt, 12), Request("b", 2, prompt, 12)]
        result = self.make_replayer(base_model, template, batch=2,
                                    temperature=0.9, seed=3).run(trace)
        assert not np.array_equal(result.outputs["a"], result.outputs["b"])
        np.testing.assert_array_equal(result.outputs["a"][:5], prompt)

    def test_no_decode_step_while_a_slot_is_free_and_a_request_waits(
            self, base_model, template):
        replayer = self.make_replayer(base_model, template, batch=3)
        engine = replayer.engine
        opened = count_calls(engine, "open")
        steps = count_calls(engine, "decode",
                            lambda feed: (engine.active, len(opened)))
        replayer.run(SyntheticTrace(14, 5, vocab_size=CFG.vocab_size, seed=0))
        assert len(opened) == 14 and steps
        for active, admitted in steps:
            assert active == 3 or admitted == 14

    def test_run_releases_every_slot_and_pin(self, base_model, template):
        replayer = self.make_replayer(base_model, template, capacity=2,
                                      batch=3)
        replayer.run(SyntheticTrace(14, 5, vocab_size=CFG.vocab_size, seed=0))
        assert replayer.engine.active == 0
        assert sorted(replayer.engine._free) == [0, 1, 2]
        assert not any(replayer.cache.pinned(f"user{u}") for u in range(5))
        assert replayer.cache.resident <= 2  # pins drained, cache shrank

    @pytest.mark.parametrize("fault", ["raises", "wrong_id", "stale"])
    def test_failed_admission_leaks_nothing(self, base_model, template,
                                            fault):
        """Regression: a fault admitting the third request of a wave
        left the first two open and pinned, so the engine and cache
        were unusable afterwards."""
        def source(user):
            if user != 2:
                return make_adapter(template, user)
            if fault == "raises":
                raise OSError("personalization store unavailable")
            if fault == "wrong_id":
                return make_adapter(template, 0)
            return make_adapter(template, user, version=VERSION - 1)

        replayer = self.make_replayer(base_model, template, capacity=4,
                                      adapter_source=source)
        trace = [Request(f"r{u}", u, np.arange(1, 4 + u), 6)
                 for u in (0, 1, 2, 3)]
        with pytest.raises((OSError, ValueError)):
            replayer.run(trace)
        assert replayer.engine.active == 0
        assert not any(replayer.cache.pinned(f"user{u}") for u in range(4))
        replayer.adapter_source = lambda u: make_adapter(template, u)
        assert replayer.run(trace).requests == 4  # both still usable

    def test_rows_per_decode_step_on_a_serve_mixed_trace(self, template):
        """A wave lived as long as its longest request, so a step fed
        ~2.4 rows of 8; a freed slot now takes the next request."""
        model = DecoderLM(CFG.scaled(seq_len=160), seed=0)
        engine = MultiAdapterEngine(model, base_version=VERSION,
                                    max_streams=8)
        decodes = count_calls(engine, "decode")
        trace = serve_mixed_like(24, model.config)
        result = RequestReplayer(engine, AdapterCache(4),
                                 lambda u: make_adapter(template, u),
                                 batch_size=8).run(trace)
        rows = sum(len(feed) for feed in decodes)
        assert rows == sum(r.max_new_tokens - 1 for r in trace)
        assert rows / len(decodes) >= 0.8 * 8
        assert result.waves > len(trace) // 8

    def test_batch_size_validated(self, base_model, template):
        engine = MultiAdapterEngine(base_model, base_version=VERSION,
                                    max_streams=2)
        cache = AdapterCache(2)
        with pytest.raises(ValueError):
            RequestReplayer(engine, cache, lambda u: None, batch_size=4)


class TestInferenceSnapshotRegressions:
    """The two InferenceEngine construction bugs this PR fixes."""

    def test_engine_accepts_lora_wrapped_model(self, rng):
        """Regression: the dense-block guard evaluated ``qkv.bias`` on
        LoRALinear (no ``bias`` attribute) and crashed with
        AttributeError instead of serving the adapted model."""
        model = DecoderLM(CFG, seed=0)
        apply_lora(model, rank=RANK, seed=1)
        model.blocks._blocks[0].attn.qkv.lora_b.data += 0.05
        engine = InferenceEngine(model)  # used to raise AttributeError
        prompt = rng.integers(2, CFG.vocab_size, size=6)
        expected = model(prompt[None, :]).data[0, -1]
        assert_within_ulps(engine.prefill(prompt), expected, FACTORED_LORA_ULPS)

    def test_lora_engine_matches_merged_engine(self, rng):
        model = DecoderLM(CFG, seed=0)
        apply_lora(model, rank=RANK, seed=1)
        model.blocks._blocks[0].mlp.up.lora_b.data += 0.03
        prompt = rng.integers(2, CFG.vocab_size, size=5)
        direct = InferenceEngine(model).generate(prompt, max_new_tokens=6,
                                                 temperature=0.0)
        merge_lora(model)
        merged = InferenceEngine(model).generate(prompt, max_new_tokens=6,
                                                 temperature=0.0)
        np.testing.assert_array_equal(direct, merged)

    def test_engine_construction_leaves_model_unchanged(self):
        model = DecoderLM(CFG, seed=0)
        apply_lora(model, rank=RANK, seed=1)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        InferenceEngine(model)
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(after[key], before[key])
        assert isinstance(model.blocks._blocks[0].attn.qkv,
                          type(model.blocks._blocks[1].attn.qkv))

    def test_snapshot_not_aliased_to_live_weights(self, rng):
        """Regression: ``_BlockWeights`` kept references to the live
        ``.data`` arrays, so training the model mutated a running
        engine's "snapshot" in place."""
        model = DecoderLM(CFG, seed=0)
        engine = InferenceEngine(model)
        prompt = rng.integers(2, CFG.vocab_size, size=6)
        before = engine.prefill(prompt).copy()
        for p in model.parameters():
            p.data += 0.5  # in-place, the aliasing failure mode
        engine.reset()
        np.testing.assert_array_equal(engine.prefill(prompt), before)

    def test_missing_qkv_still_rejected(self):
        class Fake:
            pass

        model = DecoderLM(CFG, seed=0)
        block = model.blocks._blocks[0]
        orig = block.attn
        block.attn = Fake()
        try:
            with pytest.raises(ValueError):
                InferenceEngine(model)
        finally:
            block.attn = orig


class TestPersonalizeEvalRegression:
    """The eval-stream drift bug this PR fixes."""

    def test_zero_lr_reports_zero_improvement(self):
        """Regression: with the default ``eval_stream = stream``,
        training advanced the shared iterator between the before/after
        readings, so even a no-op fine-tune (lr=0) reported a spurious
        improvement from comparing different batches."""
        model = DecoderLM(CFG, seed=0)
        frozen = OptimConfig(max_lr=0.0, warmup_steps=2, schedule_steps=64,
                             batch_size=4, weight_decay=0.0)
        result = personalize(model.state_dict(), CFG, make_stream(seed=3),
                             steps=5, optim=frozen)
        assert result.ppl_after == pytest.approx(result.ppl_before, rel=1e-6)
        assert result.improvement == pytest.approx(0.0, abs=1e-6)

    def test_eval_stream_position_restored(self):
        model = DecoderLM(CFG, seed=0)
        eval_stream = make_stream(seed=11)
        baseline = eval_stream.state_dict()
        personalize(model.state_dict(), CFG, make_stream(seed=3), steps=3,
                    optim=OPTIM, eval_stream=eval_stream)
        # The after-eval re-read the same batches the before-eval saw:
        # the stream advanced past them exactly once.
        resumed = eval_stream.state_dict()
        assert resumed["tokens_served"] > baseline["tokens_served"]

    def test_non_checkpointable_eval_stream_rejected(self):
        class Plain:
            def next_batch(self):  # pragma: no cover - never reached
                raise AssertionError

        model = DecoderLM(CFG, seed=0)
        with pytest.raises(TypeError):
            personalize(model.state_dict(), CFG, make_stream(seed=3),
                        steps=1, optim=OPTIM, eval_stream=Plain())

    def test_real_finetune_still_improves(self):
        model = DecoderLM(CFG, seed=0)
        result = personalize(model.state_dict(), CFG, make_stream(seed=3),
                             steps=12, optim=OPTIM)
        assert result.ppl_after < result.ppl_before
