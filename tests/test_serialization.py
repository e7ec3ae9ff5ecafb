"""State-dict serialization, tree arithmetic, and metric aggregation."""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils import (
    History,
    PayloadError,
    RoundRecord,
    aggregate_metrics,
    decode_state,
    encode_state,
    pack_tree,
    state_bytes,
    state_to_vector,
    tree_add,
    tree_mean,
    tree_norm,
    tree_scale,
    tree_sub,
    tree_zeros_like,
    unpack_tree,
    vector_to_state,
)
from repro.utils.serialization import MAGIC


def sample_state(rng, keys=("a", "b.c")) -> dict:
    return {k: rng.normal(size=(3, 2)).astype(np.float32) for k in keys}


class TestVectorRoundtrip:
    def test_roundtrip(self, rng):
        state = sample_state(rng)
        vec = state_to_vector(state)
        back = vector_to_state(vec, state)
        for k in state:
            np.testing.assert_array_equal(back[k], state[k])

    def test_vector_is_key_sorted(self, rng):
        state = {"z": np.array([1.0], dtype=np.float32),
                 "a": np.array([2.0], dtype=np.float32)}
        np.testing.assert_array_equal(state_to_vector(state), [2.0, 1.0])

    def test_size_mismatch_rejected(self, rng):
        state = sample_state(rng)
        with pytest.raises(ValueError):
            vector_to_state(np.zeros(3), state)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            state_to_vector({})

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        state = {"w": rng.normal(size=(rows, cols)).astype(np.float32)}
        back = vector_to_state(state_to_vector(state), state)
        np.testing.assert_array_equal(back["w"], state["w"])


def same(a, b) -> bool:
    """Type-, dtype-, shape- and bit-equality of two trees (tuples
    decode as lists; NaN payloads and -0.0 count)."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, list) and len(a) == len(b)
                and all(map(same, a, b)))
    if isinstance(a, float):
        return isinstance(b, float) and struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


@st.composite
def arrays(draw):
    """Any carried dtype, 0-d and empty shapes included, in C, Fortran
    or strided (non-contiguous) memory layout."""
    dtype = draw(st.sampled_from(
        ["?", "i1", "u1", "i8", "u4", "f2", "f4", "f8", "c8"]))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    array = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(array)
    if layout == "strided" and array.ndim:
        wide = np.zeros((*shape[:-1], 2 * shape[-1]), dtype=dtype)
        wide[..., ::2] = array
        return wide[..., ::2]
    return array


KEYS = st.one_of(st.text(max_size=6),
                 st.sampled_from(["a/b", "k:v::q8", "ü.weight", "层.0"]))
TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**130, 2**130),
              st.floats(), st.text(max_size=8), st.binary(max_size=16),
              arrays()),
    lambda leaf: st.one_of(st.lists(leaf, max_size=4),
                           st.dictionaries(KEYS, leaf, max_size=4)),
    max_leaves=10,
)


def seal(rest: bytes) -> bytes:
    """``rest`` behind the magic and a *valid* checksum: what gets a
    malformed container past the CRC to the bounds checks."""
    return MAGIC + struct.pack("<I", zlib.crc32(rest)) + rest


def frame(nodes: bytes, data: bytes = b"") -> bytes:
    return seal(struct.pack("<I", len(nodes)) + nodes + data)


def scribble(node) -> None:
    if isinstance(node, np.ndarray):
        node.fill(1)
    elif isinstance(node, (dict, list)):
        for child in (node.values() if isinstance(node, dict) else node):
            scribble(child)


class TestTreeContainer:
    """The one serializer behind the Link, the codecs, RunState
    checkpoints and replica snapshots."""

    @given(TREES)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_exact_and_independent(self, tree):
        payload = pack_tree(tree)
        assert same(tree, unpack_tree(payload))
        assert same(tree, unpack_tree(zlib.compress(payload, 1)))
        # A held payload decodes to trees that alias neither each
        # other, nor the payload, nor the packed original.
        first, second = unpack_tree(payload), unpack_tree(payload)
        scribble(first)
        assert same(tree, second)
        assert payload == pack_tree(tree)

    @given(tree=TREES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hostile_input_raises_payload_error_only(self, tree, data):
        payload = pack_tree(tree)
        rest = payload[8:]
        offsets = st.lists(st.integers(0, len(payload) - 1), max_size=4)
        cuts = {0, 1, 4, 7, 8, 11, 12, 13, len(payload) - 1,
                *data.draw(offsets)}
        hostile = [payload[:c] for c in cuts if c < len(payload)]
        hostile += [seal(rest[:c]) for c in cuts if c < len(rest)]
        for bit in data.draw(st.lists(st.integers(0, 8 * len(payload) - 1),
                                      min_size=1, max_size=4)):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            hostile.append(bytes(flipped))
        hostile.append(data.draw(st.binary(max_size=64)))
        hostile += [payload + b"N", seal(rest + b"N"), frame(b"NN"),
                    frame(b"?"), frame(b"a" + b"x\x04\x00")]
        # Declared sizes far beyond the bytes present: an array, a
        # string and a list, each behind a valid checksum.
        dims = data.draw(st.lists(st.integers(2**16, 2**32 - 1),
                                  min_size=1, max_size=4))
        hostile.append(frame(b"a" + struct.pack(
            f"<cBB{len(dims)}I", b"f", 8, len(dims), *dims), rest))
        hostile.append(frame(b"s" + struct.pack("<I", dims[0]) + rest))
        hostile.append(frame(b"l" + struct.pack("<I", dims[0]) + rest))
        hostile.append(frame(b"l\x01\x00\x00\x00" * 100 + b"N"))  # too deep
        deflated = zlib.compress(payload, 1)
        hostile += [deflated[:-1], deflated[:len(deflated) // 2],
                    zlib.compress(hostile[0], 1)]
        tracemalloc.start()
        try:
            for bad in hostile:
                with pytest.raises(PayloadError):
                    unpack_tree(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(payload) + 2**18, "a declared length was allocated"

    def test_flat_state_size_is_closed_form(self, rng):
        state = {"blocks.0.attn.qkv.weight": rng.normal(size=(4, 12)),
                 "ln.bias": rng.normal(size=4), "step": np.array(3)}
        assert len(pack_tree(state)) == 17 + sum(
            6 + len(k.encode()) + 4 * v.ndim + v.nbytes
            for k, v in state.items())


class TestByteEncoding:
    @staticmethod
    def _link_boundary_is_float32(rng, compress):
        state = {"w": rng.normal(size=(3, 2)), "n": np.arange(4)}
        back = decode_state(encode_state(state, compress=compress))
        for k in state:
            assert back[k].dtype == np.float32
            np.testing.assert_array_equal(back[k], state[k].astype(np.float32))

    def test_compressed_roundtrip(self, rng):
        self._link_boundary_is_float32(rng, compress=True)

    def test_raw_roundtrip(self, rng):
        self._link_boundary_is_float32(rng, compress=False)

    def test_compression_shrinks_redundant_payloads(self):
        state = {"w": np.zeros((256, 256), dtype=np.float32)}
        compressed = encode_state(state, compress=True)
        raw = encode_state(state, compress=False)
        assert len(compressed) < len(raw) / 10

    def test_bad_magic_rejected(self):
        with pytest.raises(PayloadError):
            decode_state(b"XXXXgarbage")
        with pytest.raises(PayloadError, match="float32 state dict"):
            decode_state(pack_tree({"n": np.arange(4)}))

    def test_state_bytes(self):
        state = {"w": np.zeros((10, 10), dtype=np.float32)}
        assert state_bytes(state) == 400
        assert state_bytes(state, bytes_per_param=2) == 200


class TestTreeMath:
    def test_add_sub_inverse(self, rng):
        a, b = sample_state(rng), sample_state(rng)
        back = tree_sub(tree_add(a, b), b)
        for k in a:
            np.testing.assert_allclose(back[k], a[k], rtol=1e-6)

    def test_scale(self, rng):
        a = sample_state(rng)
        doubled = tree_scale(a, 2.0)
        for k in a:
            np.testing.assert_allclose(doubled[k], 2 * a[k])

    def test_mean_uniform(self, rng):
        states = [sample_state(rng) for _ in range(3)]
        mean = tree_mean(states)
        for k in states[0]:
            expected = np.mean([s[k] for s in states], axis=0)
            np.testing.assert_allclose(mean[k], expected, rtol=1e-5, atol=1e-6)

    def test_mean_weighted(self, rng):
        a, b = sample_state(rng), sample_state(rng)
        mean = tree_mean([a, b], weights=[3.0, 1.0])
        for k in a:
            np.testing.assert_allclose(mean[k], 0.75 * a[k] + 0.25 * b[k],
                                       rtol=1e-5, atol=1e-6)

    def test_mean_weight_validation(self, rng):
        a = sample_state(rng)
        with pytest.raises(ValueError):
            tree_mean([a], weights=[0.0])
        with pytest.raises(ValueError):
            tree_mean([a, a], weights=[1.0])
        with pytest.raises(ValueError):
            tree_mean([])

    def test_key_mismatch_rejected(self, rng):
        a = sample_state(rng, keys=("a",))
        b = sample_state(rng, keys=("b",))
        with pytest.raises(KeyError):
            tree_add(a, b)

    def test_zeros_like_and_norm(self, rng):
        a = sample_state(rng)
        zeros = tree_zeros_like(a)
        assert tree_norm(zeros) == 0.0
        expected = np.sqrt(sum(float((v**2).sum()) for v in a.values()))
        assert tree_norm(a) == pytest.approx(expected, rel=1e-5)

    @given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_scale_linearity(self, alpha, beta):
        rng = np.random.default_rng(0)
        a = sample_state(rng)
        left = tree_scale(a, alpha + beta)
        right = tree_add(tree_scale(a, alpha), tree_scale(a, beta))
        for k in a:
            np.testing.assert_allclose(left[k], right[k], atol=1e-4)


class TestMetrics:
    def test_aggregate_uniform(self):
        out = aggregate_metrics([{"loss": 1.0}, {"loss": 3.0}])
        assert out["loss"] == pytest.approx(2.0)

    def test_aggregate_weighted(self):
        out = aggregate_metrics([{"loss": 1.0}, {"loss": 3.0}], weights=[3.0, 1.0])
        assert out["loss"] == pytest.approx(1.5)

    def test_partial_keys(self):
        out = aggregate_metrics([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
        assert out["a"] == pytest.approx(2.0)
        assert out["b"] == pytest.approx(2.0)

    def test_empty(self):
        assert aggregate_metrics([]) == {}

    def test_history_accessors(self):
        history = History()
        for i, ppl in enumerate([30.0, 20.0, 25.0]):
            history.append(RoundRecord(i, ppl, np.log(ppl), ["c0"],
                                       comm_bytes_up=10, comm_bytes_down=5))
        assert history.best_perplexity() == 20.0
        assert history.rounds_to_target(21.0) == 1
        assert history.rounds_to_target(10.0) is None
        assert history.total_comm_bytes == 45
        assert len(history) == 3

    def test_round_record_train_ppl(self):
        record = RoundRecord(0, 10.0, np.log(8.0), ["c0"])
        assert record.train_perplexity == pytest.approx(8.0)

    def test_empty_history_best_raises(self):
        with pytest.raises(ValueError):
            History().best_perplexity()
