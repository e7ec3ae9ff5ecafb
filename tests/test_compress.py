"""Update-compression subsystem: codec round-trips, quantization error
bounds, top-k energy capture, error-feedback conservation, and the
load-bearing regression — ``compression="none"`` is bit-exact with the
legacy lossless Link in both engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compress import (
    Codec,
    CodecRegistry,
    ErrorFeedback,
    make_codec,
)
from repro.config import FedConfig, ModelConfig, OptimConfig
from repro.fed import Photon
from repro.fed.link import Link
from repro.utils.serialization import state_bytes, unpack_tree

from helpers import compress_broadcast

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)

ALL_SPECS = ["fp16", "int8", "int4", "topk:0.1", "randk:0.1",
             "topk:0.1+fp16", "int8+fp16"]


def make_state(seed=0, shapes=((24, 16), (17,), ())):
    rng = np.random.default_rng(seed)
    return {
        f"t{i}": rng.normal(0, 0.01, size=s).astype(np.float32)
        for i, s in enumerate(shapes)
    }


def make_photon(**kwargs):
    fed_keys = ("compression", "error_feedback", "mode", "seed")
    fk = {k: kwargs.pop(k) for k in fed_keys if k in kwargs}
    fed = FedConfig(population=3, clients_per_round=3, local_steps=2,
                    rounds=2, **fk)
    return Photon(CFG, fed, OPTIM, num_shards=3, val_batches=2, **kwargs)


def trace(history):
    return (history.val_perplexities, history.train_losses,
            [r.pseudo_grad_norm for r in history])


class TestCodecRoundTrip:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_shapes_keys_dtypes_survive(self, spec):
        state = make_state()
        back = make_codec(spec, seed=1).roundtrip(state, "c0", "agg")
        assert set(back) == set(state)
        for k in state:
            assert back[k].shape == state[k].shape
            assert back[k].dtype == np.float32

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_encode_is_deterministic_per_channel(self, spec):
        state = make_state()
        a, b = make_codec(spec, seed=3), make_codec(spec, seed=3)
        # Same channel, same draw index -> identical payloads; the
        # stream survives consecutive encodes.
        assert a.encode(state, "c0", "agg") == b.encode(state, "c0", "agg")
        assert a.encode(state, "c0", "agg") == b.encode(state, "c0", "agg")

    def test_channels_are_independent_streams(self):
        state = make_state()
        codec = make_codec("int8", seed=3)
        solo = make_codec("int8", seed=3)
        # Interleaving another channel's draws must not disturb c0's.
        first = codec.encode(state, "c0", "agg")
        codec.encode(state, "c1", "agg")
        second = codec.encode(state, "c0", "agg")
        assert first == solo.encode(state, "c0", "agg")
        assert second == solo.encode(state, "c0", "agg")

    def test_zero_state_and_odd_sizes(self):
        state = {"z": np.zeros((5, 3), dtype=np.float32),
                 "odd": np.ones(7, dtype=np.float32)}
        for spec in ("int8", "int4", "topk:0.3"):
            back = make_codec(spec, seed=0).roundtrip(state, "c", "a")
            assert np.array_equal(back["z"], state["z"])
            assert back["odd"].shape == (7,)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_empty_tensors_pass_through(self, spec):
        state = {"empty": np.zeros((0,), dtype=np.float32),
                 "also": np.zeros((3, 0), dtype=np.float32),
                 "real": np.ones((4,), dtype=np.float32)}
        back = make_codec(spec, seed=0).roundtrip(state, "c", "a")
        assert back["empty"].shape == (0,)
        assert back["also"].shape == (3, 0)
        assert back["real"].shape == (4,)

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError):
            make_codec("fp16").decode(b"ZLB0garbage")


class TestRegistry:
    def test_none_returns_none(self):
        assert make_codec("none") is None

    @pytest.mark.parametrize("bad", [
        "nope", "topk", "topk:0", "topk:1.5", "topk:x", "randk",
        "none+fp16", "fp16:3", "int8:2",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            make_codec(bad)

    def test_duplicate_registration_rejected(self):
        registry = CodecRegistry()
        registry.register("x", lambda arg, seed: None)
        with pytest.raises(ValueError):
            registry.register("x", lambda arg, seed: None)

    def test_chain_seeds_differ_per_stage(self):
        # Two stochastic stages in one chain must not mirror draws:
        # each stage gets a distinct seed offset by its position.
        codec = make_codec("topk:0.5+int8", seed=7)
        assert codec.stages[0].seed == 7
        assert codec.stages[1].seed == 1007
        assert [s.name for s in codec.stages] == ["topk", "int8"]


@settings(max_examples=20, deadline=None)
@given(hnp.arrays(np.float32, st.integers(1, 200),
                  elements=st.floats(-10, 10, width=32)))
def test_int8_error_bounded_by_scale(value):
    """Stochastic rounding: |decoded − x| < scale elementwise."""
    state = {"v": value}
    back = make_codec("int8", seed=0).roundtrip(state, "c", "a")
    scale = float(np.abs(value).max()) / 127 if np.abs(value).max() else 1.0
    assert np.abs(back["v"] - value).max() <= scale + 1e-6


@settings(max_examples=20, deadline=None)
@given(hnp.arrays(np.float32, st.integers(1, 200),
                  elements=st.floats(-10, 10, width=32)))
def test_int4_error_bounded_by_scale(value):
    state = {"v": value}
    back = make_codec("int4", seed=0).roundtrip(state, "c", "a")
    scale = float(np.abs(value).max()) / 7 if np.abs(value).max() else 1.0
    assert np.abs(back["v"] - value).max() <= scale + 1e-6


def test_int8_stochastic_rounding_unbiased():
    """E[decoded] = x: the mean over independent encodes converges."""
    value = np.full(64, 0.3, dtype=np.float32)  # lands between codes
    codec = make_codec("int8", seed=0)
    total = np.zeros(64)
    reps = 200
    for _ in range(reps):
        total += codec.roundtrip({"v": value}, "c", "a")["v"]
    scale = 0.3 / 127
    assert abs(total.mean() / reps - 0.3) < 3 * scale / np.sqrt(64 * reps)


@settings(max_examples=20, deadline=None)
@given(hnp.arrays(np.float32, st.integers(10, 400),
                  elements=st.floats(-5, 5, width=32)),
       st.floats(0.05, 0.9))
# The spec rounds 0.30373833606504685 to 0.303738: k = round(32.4999...) = 32
# for the codec, where the unrounded fraction gives round(32.5000...) = 33.
@example(value=np.linspace(0.1, 5.0, 107).astype(np.float32),
         fraction=0.30373833606504685)
def test_topk_captures_max_energy(value, fraction):
    """The kept support carries at least as much L2 energy as any
    other k-subset — in particular at least k/n of the total."""
    fraction = float(f"{fraction:g}")  # the fraction the codec spec carries
    back = make_codec(f"topk:{fraction:g}", seed=0).roundtrip(
        {"v": value}, "c", "a")["v"]
    k = max(1, int(round(fraction * value.size)))
    total = float(np.sum(value.astype(np.float64) ** 2))
    kept = float(np.sum(back.astype(np.float64) ** 2))
    assert np.count_nonzero(back) <= k
    assert kept >= (k / value.size) * total - 1e-6
    # fp16 tolerance not needed: plain topk ships exact fp32 values.
    kept_exact = np.sort(np.abs(value))[-k:]
    assert kept == pytest.approx(float(np.sum(kept_exact.astype(np.float64) ** 2)),
                                 rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["int8", "int4",
                                                   "topk:0.2", "randk:0.2"]))
def test_error_feedback_conserves_mass(seed, spec):
    """delta + residual_old == decoded + residual_new: no gradient
    mass is ever lost, only deferred."""
    codec = make_codec(spec, seed=1)
    ef = ErrorFeedback()
    rng = np.random.default_rng(seed)
    for _ in range(3):
        delta = {"w": rng.normal(0, 0.01, size=(13, 7)).astype(np.float32)}
        before = ef.residual("c0")
        sent = ef.apply("c0", delta)
        decoded = codec.roundtrip(sent, "c0", "agg")
        ef.record("c0", sent, decoded)
        lhs = delta["w"].astype(np.float64) + (
            before["w"].astype(np.float64) if before is not None else 0.0)
        rhs = decoded["w"].astype(np.float64) + \
            ef.residual("c0")["w"].astype(np.float64)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestErrorFeedback:
    def test_lossless_codec_keeps_residual_zero(self):
        ef = ErrorFeedback()
        delta = make_state(3)
        sent = ef.apply("c", delta)
        ef.record("c", sent, sent)
        assert ef.residual_norm("c") == 0.0

    def test_reset(self):
        ef = ErrorFeedback()
        ef.record("a", make_state(1), make_state(2))
        ef.record("b", make_state(1), make_state(2))
        assert len(ef) == 2 and ef.total_residual_norm() > 0
        ef.reset("a")
        assert len(ef) == 1
        ef.reset()
        assert len(ef) == 0 and ef.total_residual_norm() == 0.0

    def test_snapshot_restore_rewinds(self):
        """The sync engine rewinds residuals consumed by a discarded
        round attempt; later records must not leak into a snapshot."""
        ef = ErrorFeedback()
        ef.record("a", make_state(1), make_state(2))
        before = ef.snapshot()
        kept = {k: v.copy() for k, v in ef.residual("a").items()}
        ef.record("a", make_state(3), make_state(4))
        ef.record("b", make_state(3), make_state(4))
        ef.restore(before)
        assert len(ef) == 1
        for k, v in ef.residual("a").items():
            assert np.array_equal(v, kept[k])


    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec", ["int8", "int4"])
    def test_non_finite_update_is_rejected_before_any_draw(self, spec, poison):
        """One non-finite coordinate made the tensor's quantization
        step non-finite: all of its codes decoded to NaN and the
        client's residual was NaN from then on, with a RuntimeWarning
        as the only sign.  The encode is refused instead, naming the
        tensor, and a refused encode moves neither a rounding stream
        nor the residual bank."""
        codec = make_codec(spec, seed=1)
        link = Link(uplink_codec=codec)
        ef = ErrorFeedback()

        def exchange(delta):  # the engine's _finish_update
            sent = ef.apply("c0", delta)
            decoded, _ = link.recv_state(link.send_state(sent, "c0", "agg"))
            ef.record("c0", sent, decoded)
            return decoded

        exchange(make_state(0))
        streams = codec.state_dict()
        residual = {k: v.copy() for k, v in ef.residual("c0").items()}
        meters = link.state_dict()

        bad = make_state(1)
        bad["t1"][3] = poison  # t0, before it, is clean and would draw
        for sender in ("c0", "c1"):  # a used and a never-opened channel
            with pytest.raises(ValueError, match=rf"{spec} stage.*'t1'.*{sender}"):
                link.send_state(ef.apply(sender, bad), sender, "agg")
        assert codec.state_dict() == streams
        assert link.state_dict() == meters
        assert ef.residual("c0").keys() == residual.keys()
        for k, v in residual.items():
            assert np.array_equal(ef.residual("c0")[k], v)
        # The channel carries on as if the bad update never happened.
        twin = make_codec(spec, seed=1)
        twin.encode(make_state(0), "c0", "agg")
        follow_up = ef.apply("c0", make_state(2))
        assert (codec.encode(follow_up, "c0", "agg")
                == twin.encode(follow_up, "c0", "agg"))
        assert all(np.isfinite(v).all() for v in exchange(make_state(3)).values())


class TestLinkCodecs:
    def test_uplink_codec_shrinks_wire_not_raw(self):
        state = make_state(0, shapes=((64, 32),))
        plain = Link()
        lossy = Link(uplink_codec=make_codec("int8", seed=0))
        for link in (plain, lossy):
            msg = link.send_state(state, sender="c0", receiver="agg")
            link.recv_state(msg)
        assert lossy.uplink_wire_bytes < plain.uplink_wire_bytes
        assert lossy.uplink_raw_bytes == plain.uplink_raw_bytes
        assert plain.uplink_raw_bytes == \
            state_bytes(state) + Link.METADATA_OVERHEAD

    def test_downlink_codec_only_touches_broadcast(self):
        state = make_state(0, shapes=((64, 32),))
        link = Link(downlink_codec=make_codec("fp16"))
        down = link.send_state(state, sender="agg", receiver="c0")
        up = link.send_state(state, sender="c0", receiver="agg")
        assert unpack_tree(down.payload)["t0"].dtype == np.float16
        assert unpack_tree(up.payload)["t0"].dtype == np.float32
        assert link.downlink_wire_bytes < link.uplink_wire_bytes


class TestFedConfigCompression:
    def test_defaults_off(self):
        fed = FedConfig()
        assert fed.compression == "none"
        assert not fed.error_feedback

    @pytest.mark.parametrize("bad", ["nope", "topk", "topk:2", "none+fp16"])
    def test_bad_spec_rejected(self, bad):
        with pytest.raises(ValueError):
            FedConfig(compression=bad)

    def test_registered_stages_are_usable_through_config(self):
        """FedConfig validates against the live registry, so an
        extension stage registered at runtime works end to end."""
        from repro.compress import DEFAULT_REGISTRY, Fp16Stage

        DEFAULT_REGISTRY.register(
            "testhalf", lambda arg, seed: Fp16Stage())
        try:
            fed = FedConfig(compression="testhalf")
            assert make_codec(fed.compression) is not None
        finally:
            del DEFAULT_REGISTRY._factories["testhalf"]


class TestEngineCompression:
    def test_none_is_bit_exact_with_legacy(self):
        """The regression anchor: compression='none' (even with error
        feedback configured) reproduces the legacy run bit-exactly —
        same trace, same final parameters, same wire bytes."""
        legacy = make_photon()
        explicit = make_photon(compression="none", error_feedback=True)
        h0, h1 = legacy.train(), explicit.train()
        assert trace(h0) == trace(h1)
        assert [r.comm_bytes_up for r in h0] == [r.comm_bytes_up for r in h1]
        for k, v in legacy.aggregator.global_state.items():
            assert np.array_equal(v, explicit.aggregator.global_state[k])

    def test_lossy_uplink_records_raw_vs_wire(self):
        photon = make_photon(compression="int8", error_feedback=True)
        history = photon.train()
        record = history.records[0]
        assert record.raw_bytes_up > record.comm_bytes_up
        assert record.compression_ratio > 1.0
        result = photon.result()
        assert result.total_raw_bytes > result.total_comm_bytes
        assert result.compression_ratio > 1.0
        link = photon.aggregator.link
        assert link.uplink_raw_bytes / link.uplink_wire_bytes > 2.0
        # EF memory exists for every participating client.
        assert len(photon.aggregator.error_feedback) == 3

    @pytest.mark.slow
    def test_lossy_run_is_rerun_identical(self):
        a = make_photon(compression="int8", error_feedback=True)
        b = make_photon(compression="int8", error_feedback=True)
        assert trace(a.train()) == trace(b.train())

    def test_async_none_bit_exact(self):
        legacy = make_photon(mode="async")
        explicit = make_photon(mode="async", compression="none",
                               error_feedback=True)
        assert trace(legacy.train()) == trace(explicit.train())

    def test_sync_retry_rewinds_error_feedback(self):
        """A retried round (RAR semantics) discards its survivors'
        deltas; their EF residuals are rewound so the conservation
        invariant holds for the attempt the server actually applies."""
        from repro.fed import FailureModel

        photon = make_photon(compression="int8", error_feedback=True,
                             failure_model=FailureModel(
                                 scripted={(0, "client0")}))
        history = photon.train()
        assert history.records[0].retries == 1
        ef = photon.aggregator.error_feedback
        # Residuals reflect exactly one applied exchange per client:
        # re-running the applied attempt's conservation identity from
        # a fresh engine would diverge if the discarded attempt's
        # records had leaked through the rewind.
        assert len(ef) == 3
        assert ef.total_residual_norm() > 0

    @pytest.mark.slow
    def test_compressed_broadcast_shrinks_downlink(self):
        photon = compress_broadcast(make_photon(compression="fp16"))
        photon.train()
        link = photon.aggregator.link
        assert link.downlink_raw_bytes / link.downlink_wire_bytes > 1.5
