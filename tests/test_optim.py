"""Optimizers, schedules and clipping."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import (
    SGD,
    AdamW,
    ConstantLR,
    WarmupCosine,
    clip_grad_norm,
    federated_schedule_steps,
    global_grad_norm,
    linear_lr_scaling,
)
from repro.tensor import Parameter


def make_param(values) -> Parameter:
    p = Parameter(np.asarray(values, dtype=np.float32))
    return p


class TestAdamW:
    def test_first_step_matches_reference(self):
        p = make_param([1.0])
        p.grad = np.array([0.5], dtype=np.float32)
        opt = AdamW([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
        opt.step()
        # Bias-corrected first step moves by ~lr * sign(grad).
        np.testing.assert_allclose(p.data, [1.0 - 0.1], rtol=1e-4)

    def test_decoupled_weight_decay(self):
        p = make_param([2.0])
        p.grad = np.zeros(1, dtype=np.float32)
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.step()
        # Zero gradient: only decay applies, multiplicatively.
        np.testing.assert_allclose(p.data, [2.0 * (1 - 0.1 * 0.5)], rtol=1e-5)

    def test_skips_params_without_grad(self):
        p1, p2 = make_param([1.0]), make_param([1.0])
        p1.grad = np.array([1.0], dtype=np.float32)
        opt = AdamW([p1, p2], lr=0.1, weight_decay=0.0)
        opt.step()
        assert p1.data[0] != 1.0
        assert p2.data[0] == 1.0

    def test_state_roundtrip(self):
        p = make_param([1.0])
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([0.3], dtype=np.float32)
        opt.step()
        state = opt.state_dict()
        opt2 = AdamW([make_param([1.0])], lr=0.1)
        opt2.load_state_dict(state)
        assert opt2.t == 1
        np.testing.assert_allclose(opt2.m[0], opt.m[0])

    def test_reset_state_zeroes_momenta(self):
        p = make_param([1.0])
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([0.3], dtype=np.float32)
        opt.step()
        opt.reset_state()
        assert opt.t == 0
        np.testing.assert_array_equal(opt.m[0], np.zeros(1))

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            AdamW([], lr=0.1)

    def test_converges_on_quadratic(self):
        p = make_param([5.0])
        opt = AdamW([p], lr=0.2, weight_decay=0.0)
        for _ in range(300):
            p.grad = 2 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 0.1


class TestSGD:
    def test_plain_step(self):
        p = make_param([1.0])
        p.grad = np.array([0.5], dtype=np.float32)
        SGD([p], lr=0.2).step()
        np.testing.assert_allclose(p.data, [0.9])


class TestSchedules:
    def test_warmup_is_linear(self):
        sched = WarmupCosine(1.0, warmup_steps=10, total_steps=100)
        assert sched(0) == pytest.approx(0.1)
        assert sched(4) == pytest.approx(0.5)
        assert sched(9) == pytest.approx(1.0)

    def test_cosine_reaches_min(self):
        sched = WarmupCosine(1.0, warmup_steps=10, total_steps=100, alpha=0.1)
        assert sched(99) == pytest.approx(0.1, abs=1e-2)
        assert sched(100) == pytest.approx(0.1)
        assert sched(10_000) == pytest.approx(0.1)

    def test_cosine_midpoint(self):
        sched = WarmupCosine(1.0, warmup_steps=0, total_steps=100, alpha=0.0)
        # Halfway through a zero-floor cosine = max/2.
        assert sched(50) == pytest.approx(0.5, abs=0.02)

    def test_monotone_decay_after_warmup(self):
        sched = WarmupCosine(1.0, warmup_steps=5, total_steps=50)
        values = [sched(s) for s in range(5, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            WarmupCosine(1.0, warmup_steps=10, total_steps=10)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            WarmupCosine(1.0, 1, 10)(-1)

    def test_constant(self):
        assert ConstantLR(0.3)(12345) == 0.3

    def test_federated_schedule_stretch_matches_table5(self):
        # Table 5, 125M row: 5 120 centralized steps at batch 256
        # stretch to 40 960 federated steps at batch 32.
        assert federated_schedule_steps(5_120, 256, 32) == 40_960

    def test_linear_lr_scaling(self):
        assert linear_lr_scaling(6e-4, 256, 32) == pytest.approx(7.5e-5)

    @given(st.integers(1, 1000), st.integers(1, 512), st.integers(1, 512))
    @settings(max_examples=30, deadline=None)
    def test_stretch_inverse_property(self, steps, big, small):
        stretched = federated_schedule_steps(steps, big, small)
        assert stretched == pytest.approx(steps * big / small, abs=0.51)


class TestClipping:
    def test_norm_computation(self):
        p1, p2 = make_param([3.0]), make_param([4.0])
        p1.grad = np.array([3.0], dtype=np.float32)
        p2.grad = np.array([4.0], dtype=np.float32)
        assert global_grad_norm([p1, p2]) == pytest.approx(5.0)

    def test_clip_scales_down(self):
        p = make_param([0.0, 0.0])
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert math.isclose(float(np.linalg.norm(p.grad)), 1.0, rel_tol=1e-5)

    def test_clip_leaves_small_grads(self):
        p = make_param([0.0])
        p.grad = np.array([0.5], dtype=np.float32)
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_clip_invalid_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([make_param([1.0])], max_norm=0.0)

    def test_none_grads_ignored(self):
        p = make_param([1.0])
        assert global_grad_norm([p]) == 0.0
