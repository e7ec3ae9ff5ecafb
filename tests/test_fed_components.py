"""Samplers, Link, secure aggregation, post-processing, checkpoints."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fed import (
    AvailabilityModel,
    CheckpointManager,
    ClipUpdate,
    Compose,
    DPGaussianNoise,
    FullParticipation,
    Identity,
    Link,
    SecureAggregator,
    UniformSampler,
)
from repro.utils import tree_norm


class TestSamplers:
    POPULATION = [f"client{i}" for i in range(8)]

    def test_uniform_sample_size(self):
        sampler = UniformSampler(k=3, seed=0)
        selected = sampler.sample(self.POPULATION, 0)
        assert len(selected) == 3
        assert len(set(selected)) == 3
        assert all(c in self.POPULATION for c in selected)

    def test_uniform_caps_at_population(self):
        sampler = UniformSampler(k=20, seed=0)
        assert len(sampler.sample(self.POPULATION, 0)) == 8

    def test_uniform_varies_across_rounds(self):
        sampler = UniformSampler(k=4, seed=0)
        draws = {tuple(sampler.sample(self.POPULATION, r)) for r in range(20)}
        assert len(draws) > 1

    def test_uniform_covers_population_eventually(self):
        sampler = UniformSampler(k=2, seed=1)
        seen: set[str] = set()
        for r in range(100):
            seen.update(sampler.sample(self.POPULATION, r))
        assert seen == set(self.POPULATION)

    def test_full_participation(self):
        assert FullParticipation().sample(self.POPULATION, 5) == self.POPULATION

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            UniformSampler(k=1).sample([], 0)
        with pytest.raises(ValueError):
            FullParticipation().sample([], 0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            UniformSampler(k=0)

    def test_availability_full_uptime(self):
        model = AvailabilityModel(uptime=1.0)
        assert model.available(self.POPULATION, 0) == self.POPULATION

    def test_availability_partial(self):
        model = AvailabilityModel(uptime=0.5, seed=0)
        counts = [len(model.available(self.POPULATION, r)) for r in range(200)]
        mean = np.mean(counts)
        assert 3.0 < mean < 5.2  # ~ uptime * population
        assert min(counts) >= 1  # never empty

    def test_availability_bounds(self):
        with pytest.raises(ValueError):
            AvailabilityModel(uptime=0.0)
        with pytest.raises(ValueError):
            AvailabilityModel(uptime=1.5)


class TestLink:
    def make_state(self, rng):
        return {"w": rng.normal(size=(16, 8)).astype(np.float32)}

    def test_roundtrip(self, rng):
        link = Link()
        state = self.make_state(rng)
        message = link.send_state(state, "agg", "client0", {"round": 3})
        received, metadata = link.recv_state(message)
        np.testing.assert_array_equal(received["w"], state["w"])
        assert metadata == {"round": 3}

    def test_byte_accounting_symmetric(self, rng):
        link = Link()
        state = self.make_state(rng)
        message = link.send_state(state, "a", "b")
        link.recv_state(message)
        assert link.bytes_sent == link.bytes_received
        assert link.bytes_sent > 0
        assert link.messages_sent == 1

    def test_compression_toggle(self, rng):
        state = {"w": np.zeros((64, 64), dtype=np.float32)}
        compressed = Link(compress=True).send_state(state, "a", "b")
        raw = Link(compress=False).send_state(state, "a", "b")
        assert compressed.nbytes < raw.nbytes


class TestSecureAggregation:
    def test_masks_cancel_in_sum(self, rng):
        ids = ["a", "b", "c"]
        agg = SecureAggregator(ids, seed=1, mask_scale=0.01)
        states = {i: {"w": rng.normal(size=8).astype(np.float32)} for i in ids}
        masked = [agg.mask(i, states[i]) for i in ids]
        total = SecureAggregator.unmasked_sum(masked)
        expected = sum(states[i]["w"] for i in ids)
        np.testing.assert_allclose(total["w"], expected, atol=1e-3)

    def test_individual_updates_are_hidden(self, rng):
        ids = ["a", "b"]
        agg = SecureAggregator(ids, seed=1, mask_scale=10.0)
        state = {"w": rng.normal(size=32).astype(np.float32)}
        masked = agg.mask("a", state)
        # The masked update is far from the raw one.
        assert np.abs(masked["w"] - state["w"]).mean() > 1.0

    def test_masks_identical_across_hash_seeds(self):
        """Both ends of a pair derive the mask in their own process:
        it must not depend on the interpreter's string-hash salt."""
        script = (
            "import numpy as np\n"
            "from repro.fed import SecureAggregator\n"
            "agg = SecureAggregator(['a', 'b', 'c'], seed=3)\n"
            "state = {'w': np.zeros(16, dtype=np.float32)}\n"
            "print(agg.mask('b', state)['w'].tobytes().hex())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        masks = {
            subprocess.run(
                [sys.executable, "-c", script], check=True, text=True,
                capture_output=True,
                env={**os.environ, "PYTHONPATH": str(src),
                     "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("1", "2")
        }
        assert len(masks) == 1

    def test_needs_two_clients(self):
        with pytest.raises(ValueError):
            SecureAggregator(["solo"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SecureAggregator(["a", "a"])

    def test_unknown_client_rejected(self, rng):
        agg = SecureAggregator(["a", "b"])
        with pytest.raises(KeyError):
            agg.mask("zz", {"w": np.zeros(2, dtype=np.float32)})

    @given(st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_cancellation_any_cohort_size(self, n):
        rng = np.random.default_rng(n)
        ids = [f"c{i}" for i in range(n)]
        agg = SecureAggregator(ids, seed=0, mask_scale=0.01)
        states = {i: {"w": rng.normal(size=4).astype(np.float32)} for i in ids}
        total = SecureAggregator.unmasked_sum([agg.mask(i, states[i]) for i in ids])
        expected = sum(states[i]["w"] for i in ids)
        np.testing.assert_allclose(total["w"], expected, atol=1e-2)


class TestPostProcess:
    def test_identity(self, rng):
        state = {"w": rng.normal(size=4).astype(np.float32)}
        assert Identity()(state) is state

    def test_clip_reduces_norm(self, rng):
        state = {"w": np.full(100, 10.0, dtype=np.float32)}
        clipped = ClipUpdate(max_norm=1.0)(state)
        assert tree_norm(clipped) == pytest.approx(1.0, rel=1e-4)

    def test_clip_noop_below_threshold(self, rng):
        state = {"w": np.array([0.1], dtype=np.float32)}
        assert ClipUpdate(max_norm=1.0)(state) is state

    def test_dp_noise_changes_update(self, rng):
        state = {"w": np.zeros(64, dtype=np.float32)}
        noised = DPGaussianNoise(clip_norm=1.0, noise_multiplier=1.0, seed=0)(state)
        assert np.abs(noised["w"]).max() > 0

    def test_dp_zero_noise_is_just_clipping(self, rng):
        state = {"w": np.full(4, 10.0, dtype=np.float32)}
        out = DPGaussianNoise(clip_norm=1.0, noise_multiplier=0.0)(state)
        assert tree_norm(out) == pytest.approx(1.0, rel=1e-4)

    def test_compose_order(self):
        state = {"w": np.full(100, 10.0, dtype=np.float32)}
        noise = DPGaussianNoise(clip_norm=10.0, noise_multiplier=1.0, seed=0)
        pipeline = Compose([noise, ClipUpdate(1.0)])
        out = pipeline(state)
        assert tree_norm(out) <= 1.0 + 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            ClipUpdate(0.0)
        with pytest.raises(ValueError):
            DPGaussianNoise(clip_norm=0.0, noise_multiplier=1.0)


class TestCheckpointManager:
    def make_state(self):
        return {"w": np.arange(4, dtype=np.float32)}

    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(3, self.make_state(), metadata={"note": "x"})
        step, state, metadata = manager.load()
        assert step == 3
        np.testing.assert_array_equal(state["w"], self.make_state()["w"])
        assert metadata["note"] == "x"

    def test_rotation_keeps_latest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in range(5):
            manager.save(step, self.make_state())
        assert manager.list_checkpoints() == [3, 4]

    def test_load_specific_step(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        for step in (1, 2):
            state = self.make_state()
            state["w"] = state["w"] + step
            manager.save(step, state)
        step, state, _ = manager.load(1)
        assert step == 1
        np.testing.assert_array_equal(state["w"], self.make_state()["w"] + 1)

    def test_missing_checkpoint_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(FileNotFoundError):
            manager.load()
        manager.save(0, self.make_state())
        with pytest.raises(FileNotFoundError):
            manager.load(99)

    def test_invalid_keep(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)
