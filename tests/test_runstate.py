"""RunState subsystem: per-component ``state_dict`` identity,
checkpoint-codec error bounds, and the CheckpointManager failure modes
and concurrency fixes (PR 5)."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import ErrorFeedback, make_codec
from repro.data import CachedTokenStream, MixedStream, SyntheticC4, TokenStream
from repro.fed import (
    AvailabilityModel,
    CheckpointManager,
    ClientPopulation,
    ClientScheduler,
    DropLedger,
    FailureModel,
    FedAdam,
    FedAvg,
    FedMom,
    Link,
    NesterovOuter,
    RunStateCheckpointer,
    UniformSampler,
)
from repro.fed import runstate
from repro.fed.runstate import RUNSTATE_VERSION
from repro.net.walltime import JitterModel
from repro.utils import PayloadError, pack_tree, unpack_tree

from helpers import assert_states_equal, per_client, rank_ids


# ----------------------------------------------------------------------
# pack_tree / unpack_tree on RunState-shaped trees (the container's own
# properties live in test_serialization.py::TestTreeContainer)
# ----------------------------------------------------------------------

class TestPackTree:
    def test_round_trip_mixed_tree(self):
        tree = {
            "weights": {"w": np.arange(6, dtype=np.float64).reshape(2, 3)},
            "codes": np.array([1, -2, 3], dtype=np.int8),
            "payload": b"\x00\x01\xffbytes",
            "events": [[0.5, 1, "client0"], [1.25, 2, "client1"]],
            "flags": {"started": True, "steps": None, "alpha": 0.5},
            "name": "run",
        }
        out = unpack_tree(pack_tree(tree))
        assert out["weights"]["w"].dtype == np.float64
        np.testing.assert_array_equal(out["weights"]["w"], tree["weights"]["w"])
        assert out["codes"].dtype == np.int8
        assert {k: out[k] for k in ("payload", "events", "flags", "name")} == \
            {k: tree[k] for k in ("payload", "events", "flags", "name")}

    def test_rng_state_survives_json(self):
        rng = np.random.default_rng(7)
        rng.random(13)
        restored = unpack_tree(pack_tree({"rng": rng.bit_generator.state}))
        other = np.random.default_rng()
        other.bit_generator.state = restored["rng"]
        np.testing.assert_array_equal(rng.random(5), other.random(5))

    def test_rejects_non_string_keys_and_objects(self):
        for bad in ({1: "x"}, {"x": object()},
                    {"x": np.array(["s"])}, {"x": np.array([None])}):
            with pytest.raises(TypeError):
                pack_tree(bad)


# ----------------------------------------------------------------------
# Component state_dict round trips: capture mid-sequence, restore into
# a freshly built twin, and require identical future behavior.
# ----------------------------------------------------------------------

class TestComponentRoundTrips:
    @given(st.integers(0, 2**31 - 1), st.integers(0, 40))
    @settings(max_examples=15, deadline=None)
    def test_jitter_model_stream(self, seed, burn):
        model = JitterModel(0.4, seed=seed)
        for _ in range(burn):
            model.factor("c")
        twin = JitterModel(0.4, seed=seed)
        twin.load_state_dict(model.state_dict())
        assert [model.factor("c") for _ in range(8)] == \
               [twin.factor("c") for _ in range(8)]

    @given(st.integers(0, 2**31 - 1), st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_failure_model_stream(self, seed, burn):
        model = FailureModel(crash_prob=0.3, seed=seed,
                             scripted={(99, "x"), (7, "y")})
        for i in range(burn):
            model.should_fail("c", i)
        twin = FailureModel(crash_prob=0.3, seed=seed)
        twin.load_state_dict(model.state_dict())
        assert twin.scripted == model.scripted
        assert [model.should_fail("c", i) for i in range(12)] == \
               [twin.should_fail("c", i) for i in range(12)]

    @given(st.integers(0, 2**31 - 1), st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_sampler_and_availability_streams(self, seed, burn):
        population = [f"c{i}" for i in range(6)]
        sampler = UniformSampler(3, seed=seed)
        avail = AvailabilityModel(0.7, seed=seed)
        for i in range(burn):
            sampler.sample(population, i)
            avail.available(population, i)
        sampler_twin = UniformSampler(3, seed=seed)
        sampler_twin.load_state_dict(sampler.state_dict())
        avail_twin = AvailabilityModel(0.7, seed=seed)
        avail_twin.load_state_dict(avail.state_dict())
        for i in range(6):
            assert sampler.sample(population, i) == \
                sampler_twin.sample(population, i)
            assert avail.available(population, i) == \
                avail_twin.available(population, i)

    def test_scheduler_counters(self):
        pop = ClientPopulation(["a", "b", "c"])
        scheduler = ClientScheduler(pop, "utility", deadline_s=5.0,
                                    stat_utility_weight=0.5)
        for v, cid in enumerate(["a", "b", "a", "c"]):
            scheduler.note_selected(cid, v)
            scheduler.note_result(cid, 2.0 - 0.1 * v)
        twin = ClientScheduler(pop, "utility", deadline_s=5.0,
                               stat_utility_weight=0.5)
        # Through the container, as a checkpoint carries it.
        twin.load_state_dict(unpack_tree(pack_tree(scheduler.state_dict())))
        assert pack_tree(twin.state_dict()) == pack_tree(scheduler.state_dict())
        unit = per_client(lambda c: 1.0, pop)
        ranked = rank_ids(scheduler, ["a", "b", "c"], 4, unit, 5.0)
        assert rank_ids(twin, ["a", "b", "c"], 4, unit, 5.0) == ranked

    def test_drop_ledger_window(self):
        ledger = DropLedger()
        ledger.record_drop(8, 1024)
        ledger.record_salvage(3, 5)
        ledger.record_late()
        twin = DropLedger()
        twin.load_state_dict(ledger.state_dict())
        assert twin.flush() == ledger.flush()
        assert twin.state_dict() == ledger.state_dict()

    def test_error_feedback_residuals(self):
        ef = ErrorFeedback()
        sent = {"w": np.array([1.0, 2.0], dtype=np.float32)}
        decoded = {"w": np.array([0.75, 2.25], dtype=np.float32)}
        ef.record("c0", sent, decoded)
        twin = ErrorFeedback()
        twin.load_state_dict(ef.state_dict())
        assert_states_equal(twin.residual("c0"), ef.residual("c0"))

    def test_link_counters_and_codec_streams(self):
        link = Link(uplink_codec=make_codec("int8", seed=3))
        state = {"w": np.linspace(-1, 1, 32, dtype=np.float32)}
        for _ in range(3):
            message = link.send_state(state, sender="c0", receiver="agg")
            link.recv_state(message)
        twin = Link(uplink_codec=make_codec("int8", seed=3))
        twin.load_state_dict(link.state_dict())
        assert twin.bytes_sent == link.bytes_sent
        assert twin.messages_sent == link.messages_sent
        # Stochastic rounding continues mid-stream: identical payloads.
        assert (twin.send_state(state, sender="c0", receiver="agg").payload
                == link.send_state(state, sender="c0", receiver="agg").payload)

    @pytest.mark.parametrize("make_opt", [
        lambda: FedAvg(lr=1.0),
        lambda: FedMom(lr=0.7, momentum=0.9),
        lambda: FedAdam(lr=0.02),
        lambda: NesterovOuter(lr=0.3, momentum=0.9),
    ])
    def test_server_opt_moments(self, make_opt, rng):
        opt, twin = make_opt(), make_opt()
        state = {"w": rng.normal(size=(4, 3)).astype(np.float32)}
        grads = [
            {"w": rng.normal(size=(4, 3)).astype(np.float32)}
            for _ in range(3)
        ]
        for g in grads[:2]:
            state = opt.step(state, g)
        twin.load_state_dict(opt.state_dict())
        assert_states_equal(opt.step(dict(state), grads[2]),
                            twin.step(dict(state), grads[2]))

    def test_stream_round_trips(self):
        c4 = SyntheticC4(num_shards=2, vocab=32, seed=5)
        cached = CachedTokenStream(c4.shard(0), 2, 16, cache_tokens=2048, seed=1)
        online = TokenStream(c4.shard(1), 2, 16, seed=2)
        mixed = MixedStream(
            [CachedTokenStream(c4.shard(s), 2, 16, cache_tokens=2048, seed=3 + s)
             for s in range(2)], seed=4)
        for stream, fresh in (
            (cached, CachedTokenStream(c4.shard(0), 2, 16, cache_tokens=2048, seed=1)),
            (online, TokenStream(c4.shard(1), 2, 16, seed=2)),
            (mixed, MixedStream(
                [CachedTokenStream(c4.shard(s), 2, 16, cache_tokens=2048, seed=3 + s)
                 for s in range(2)], seed=4)),
        ):
            for _ in range(3):
                stream.next_batch()
            fresh.load_state_dict(stream.state_dict())
            xa, ya = stream.next_batch()
            xb, yb = fresh.next_batch()
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)


# ----------------------------------------------------------------------
# RunStateCheckpointer: versioning + checkpoint-codec error bounds on
# the ServerOpt moments.
# ----------------------------------------------------------------------

def _stepped_fedadam(rng) -> FedAdam:
    opt = FedAdam(lr=0.02)
    state = {"w": rng.normal(size=(8, 4)).astype(np.float32),
             "b": rng.normal(size=(4,)).astype(np.float32)}
    for _ in range(3):
        grad = {k: rng.normal(size=v.shape).astype(np.float32)
                for k, v in state.items()}
        state = opt.step(state, grad)
    return opt


class _OptOnlyEngine:
    """Minimal engine facade: just a ServerOpt behind the checkpoint
    protocol, to exercise the codec path in isolation."""

    def __init__(self, opt):
        self.server_opt = opt

    def state_dict(self):
        return {"server_opt": self.server_opt.state_dict()}

    def load_state_dict(self, state):
        self.server_opt.load_state_dict(state["server_opt"])


class TestRunStateCheckpointer:
    @pytest.mark.parametrize("spec", ["none", "fp16", "int8", "int4",
                                      "topk:1.0", "randk:1.0"])
    def test_moment_codec_bounds(self, spec, tmp_path, rng):
        opt = _stepped_fedadam(rng)
        ckpt = RunStateCheckpointer(tmp_path, codec=spec)
        ckpt.save(_OptOnlyEngine(opt), step=1)
        twin = _OptOnlyEngine(FedAdam(lr=0.02))
        assert ckpt.restore(twin) == 1
        original, restored = opt.state_dict(), twin.server_opt.state_dict()
        assert restored["t"] == original["t"]
        # First moments travel in the linear domain; second moments in
        # the sqrt domain (what FedAdam's denominator actually uses),
        # so their codec bounds apply to sqrt(v).
        for key, value in original["m"].items():
            got = restored["m"][key]
            if spec in ("none", "topk:1.0", "randk:1.0"):
                # Full-support sparsification is a permutation:
                # lossless like the untouched path.
                np.testing.assert_array_equal(got, value)
            elif spec == "fp16":
                np.testing.assert_allclose(got, value, rtol=1.5e-3, atol=1e-7)
            else:
                levels = 127 if spec == "int8" else 7
                bound = np.abs(value).max() / levels + 1e-12
                assert np.abs(got - value).max() <= bound
        for key, value in original["v"].items():
            got = restored["v"][key]
            root, got_root = np.sqrt(value), np.sqrt(restored["v"][key])
            if spec == "none":
                np.testing.assert_array_equal(got, value)
            elif spec in ("topk:1.0", "randk:1.0"):
                # Lossless transport of sqrt(v); only the float32
                # sqrt→square round trip (≤2 eps relative) remains.
                np.testing.assert_allclose(got, value, rtol=5e-7, atol=0.0)
            elif spec == "fp16":
                np.testing.assert_allclose(got_root, root, rtol=1.6e-3,
                                           atol=1e-7)
            else:
                levels = 127 if spec == "int8" else 7
                bound = np.abs(root).max() / levels + 1e-6
                assert np.abs(got_root - root).max() <= bound

    def test_int8_sqrt_domain_bounds_the_adam_denominator(self, tmp_path):
        """The PR 5 caveat, retired: FedAdam divides by
        ``sqrt(v_hat) + eps``, and the old linear-domain int8 bound
        (proportional to ``max |v|``) let the *denominator* error
        explode for small second moments.  Quantizing in the sqrt
        domain bounds the denominator directly, across the orders of
        magnitude a real moment tree spans."""
        opt = FedAdam(lr=0.02)
        v = np.array([1e-8, 1e-6, 1e-4, 1e-2, 1.0], dtype=np.float32)
        opt._m = {"w": np.zeros(5, dtype=np.float32)}
        opt._v = {"w": v}
        opt._t = 3
        ckpt = RunStateCheckpointer(tmp_path, codec="int8")
        ckpt.save(_OptOnlyEngine(opt), step=1)
        twin = _OptOnlyEngine(FedAdam(lr=0.02))
        ckpt.restore(twin)
        got_v = twin.server_opt.state_dict()["v"]["w"]
        # sqrt-domain guarantee: |sqrt(got) - sqrt(v)| <= max sqrt(v)/127.
        denom_err = np.abs(np.sqrt(got_v) - np.sqrt(v))
        assert denom_err.max() <= np.sqrt(v).max() / 127 + 1e-7
        # The linear-domain scheme's bound was max|v|/127 ≈ 7.9e-3 on
        # v itself — a ~88x denominator error at v=1e-8.  The sqrt
        # scheme keeps every denominator within 1% of the max scale.
        assert denom_err.max() <= 0.01 * np.sqrt(v).max()

    def test_premigration_checkpoint_without_sqrt_marker_loads(self, tmp_path,
                                                               rng):
        """A codec-wrapped ServerOpt tree without the sqrt marker
        restores unchanged."""
        opt = _stepped_fedadam(rng)
        ckpt = RunStateCheckpointer(tmp_path, codec="fp16")
        tree = {"server_opt": runstate._codec_wrap(
            opt.state_dict(), ckpt.codec)}
        ckpt.manager.save(1, tree, metadata={
            "runstate_version": RUNSTATE_VERSION, "codec": "fp16"})
        twin = _OptOnlyEngine(FedAdam(lr=0.02))
        assert ckpt.restore(twin) == 1
        np.testing.assert_allclose(twin.server_opt.state_dict()["v"]["w"],
                                   opt.state_dict()["v"]["w"],
                                   rtol=1.5e-3, atol=1e-7)

    def test_sqrt_transform_skips_velocity_trees(self, tmp_path):
        """FedMom's velocity has no division — it must pass through
        the sqrt transform untouched (negative values would NaN)."""
        opt = FedMom(lr=1.0, momentum=0.9)
        opt._velocity = {"w": np.array([-2.0, -0.5, 0.0, 1.5],
                                       dtype=np.float32)}
        ckpt = RunStateCheckpointer(tmp_path, codec="topk:1.0")
        ckpt.save(_OptOnlyEngine(opt), step=1)
        twin = _OptOnlyEngine(FedMom(lr=1.0, momentum=0.9))
        ckpt.restore(twin)
        np.testing.assert_array_equal(
            twin.server_opt.state_dict()["velocity"]["w"],
            opt.state_dict()["velocity"]["w"])

    def test_fp16_representable_moments_are_bit_exact(self, tmp_path):
        opt = FedMom(lr=1.0, momentum=0.9)
        velocity = np.arange(-8, 8, dtype=np.float32) / 4.0  # exact in fp16
        opt._velocity = {"w": velocity}
        ckpt = RunStateCheckpointer(tmp_path, codec="fp16")
        ckpt.save(_OptOnlyEngine(opt), step=1)
        twin = _OptOnlyEngine(FedMom(lr=1.0, momentum=0.9))
        ckpt.restore(twin)
        np.testing.assert_array_equal(
            twin.server_opt.state_dict()["velocity"]["w"], velocity)

    def test_version_mismatch_fails_loudly(self, tmp_path):
        """A newer layout, and version 1 (per-client dicts in the
        scheduler, wall-time and client subtrees): no shim reads it."""
        for step, version in enumerate((RUNSTATE_VERSION + 1, 1), start=1):
            ckpt = RunStateCheckpointer(tmp_path, codec="none")
            ckpt.manager.save(step, {}, metadata={
                "runstate_version": version, "codec": "none"})
            with pytest.raises(ValueError, match="runstate version"):
                ckpt.load_tree()

    def test_latest_step_and_rotation(self, tmp_path, rng):
        engine = _OptOnlyEngine(_stepped_fedadam(rng))
        ckpt = RunStateCheckpointer(tmp_path, codec="none", keep=2)
        assert ckpt.latest_step() is None
        for step in (1, 2, 3):
            ckpt.save(engine, step=step)
        assert ckpt.latest_step() == 3
        assert ckpt.manager.list_checkpoints() == [2, 3]

    def test_missing_directory_raises(self, tmp_path):
        ckpt = RunStateCheckpointer(tmp_path / "empty")
        with pytest.raises(FileNotFoundError):
            ckpt.load_tree()

    def test_checkpoint_bytes_identical_across_hash_seeds(self, tmp_path):
        """The same run writes the same run-state bytes in any process:
        nothing in it (the history's metric keys included) may follow
        the interpreter's string-hash salt."""
        src = Path(__file__).resolve().parents[1] / "src"
        checkpoints = set()
        for hash_seed in ("1", "2"):
            directory = tmp_path / hash_seed
            subprocess.run(
                [sys.executable, "-m", "repro", "train", "--model", "tiny",
                 "--clients", "2", "--local-steps", "2", "--rounds", "1",
                 "--batch-size", "2", "--checkpoint-dir", str(directory)],
                check=True, capture_output=True,
                env={**os.environ, "PYTHONPATH": str(src),
                     "PYTHONHASHSEED": hash_seed})
            checkpoints.add(
                (directory / "runstate_00000001.ckpt").read_bytes())
        assert len(checkpoints) == 1


# ----------------------------------------------------------------------
# CheckpointManager: unreadable directories and files fail loudly and
# locally; async writes are safe against the prune rotation.
# ----------------------------------------------------------------------

class TestCheckpointManagerFixes:
    def test_legacy_npz_directory_is_named_not_reported_empty(self, tmp_path):
        np.savez(tmp_path / "runstate_00000003.npz", a0=np.zeros(2))
        (tmp_path / "runstate_00000003.json").write_text("{}")
        with pytest.raises(ValueError, match=r"\.npz.*pre-container format"):
            RunStateCheckpointer(tmp_path).load_tree()

    @pytest.mark.parametrize("damage", ["truncate", "bitflip", "wrong tree"])
    def test_damaged_newest_file_raises_payload_error_naming_it(
            self, tmp_path, damage):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2):
            path = manager.save(step, {"w": np.arange(64, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        if damage == "truncate":
            blob = blob[:len(blob) // 2]
        elif damage == "bitflip":
            blob[len(blob) // 2] ^= 0x10
        else:
            blob = pack_tree({"state": {}})
        path.write_bytes(blob)
        with pytest.raises(PayloadError, match=path.name):
            manager.load()
        assert manager.load(1)[0] == 1  # the older file is untouched

    def test_save_preserves_dtypes(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        state = {
            "f64": np.array([1.0000000001], dtype=np.float64),
            "i64": np.array([2**40], dtype=np.int64),
            "u8": np.array([0, 255], dtype=np.uint8),
            "f16": np.array([0.5], dtype=np.float16),
        }
        path = manager.save(4, state, metadata={"who": ["c0"]})
        # One complete file under its final name, nothing beside it.
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert manager.last_nbytes == path.stat().st_size
        _, loaded, metadata = manager.load()
        assert metadata == {"step": 4, "who": ["c0"]}
        for key, value in state.items():
            assert loaded[key].dtype == value.dtype, key
            np.testing.assert_array_equal(loaded[key], value)

    def test_stale_async_write_cannot_resurrect_pruned_step(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        state = {"w": np.zeros(4, dtype=np.float32)}
        release = threading.Event()
        original_save = manager.save

        def delayed_save(step, payload, metadata=None):
            release.wait(timeout=10)
            return original_save(step, payload, metadata)

        thread = threading.Thread(target=delayed_save, args=(1, state))
        thread.start()
        # Rotation moves past step 1 while its write is still pending.
        for step in (5, 6, 7):
            manager.save(step, state)
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert manager.list_checkpoints() == [6, 7]
