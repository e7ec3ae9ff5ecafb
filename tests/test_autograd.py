"""Gradient correctness of the autograd engine (finite differences +
property-based checks) and graph-mechanics behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor, concatenate, no_grad, stack, tensor, where
from repro.tensor.autograd import unbroadcast

from helpers import check_gradients


def arrays(shape):
    return hnp.arrays(
        np.float64, shape,
        elements=st.floats(-2.0, 2.0, allow_nan=False, width=32),
    )


class TestElementwise:
    def test_add_gradients(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        check_gradients(lambda x, y: x + y, [a, b])

    def test_add_broadcast_gradients(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4,))
        check_gradients(lambda x, y: x + y, [a, b])

    def test_mul_gradients(self, rng):
        a, b = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        check_gradients(lambda x, y: x * y, [a, b])

    def test_sub_and_neg(self, rng):
        a, b = rng.normal(size=(4,)), rng.normal(size=(4,))
        check_gradients(lambda x, y: x - y, [a, b])
        check_gradients(lambda x: -x, [a])

    def test_div_gradients(self, rng):
        a = rng.normal(size=(3, 3))
        b = rng.uniform(0.5, 2.0, size=(3, 3))
        check_gradients(lambda x, y: x / y, [a, b])

    def test_pow_gradients(self, rng):
        a = rng.uniform(0.5, 2.0, size=(5,))
        check_gradients(lambda x: x**3, [a])

    def test_scalar_coercion(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        out = (2.0 * t + 1.0).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0])


class TestMatmul:
    def test_2d(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_batched(self, rng):
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_broadcast_batched(self, rng):
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_vector_matrix(self, rng):
        a, b = rng.normal(size=(4,)), rng.normal(size=(4, 3))
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_matrix_vector(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4,))
        check_gradients(lambda x, y: x @ y, [a, b])


class TestShapes:
    def test_reshape(self, rng):
        a = rng.normal(size=(2, 6))
        check_gradients(lambda x: x.reshape(3, 4), [a])

    def test_transpose(self, rng):
        a = rng.normal(size=(2, 3, 4))
        check_gradients(lambda x: x.transpose(2, 0, 1), [a])

    def test_swapaxes(self, rng):
        a = rng.normal(size=(2, 3, 4))
        check_gradients(lambda x: x.swapaxes(-1, -2), [a])

    def test_getitem(self, rng):
        a = rng.normal(size=(4, 5))
        check_gradients(lambda x: x[1:3, ::2], [a])

    def test_getitem_strided_and_newaxis(self, rng):
        """Basic indices take the plain-assignment backward."""
        a = rng.normal(size=(6, 5, 4))
        check_gradients(lambda x: x[::-2, 1, None, ..., 1::2], [a])
        t = Tensor(a, requires_grad=True)
        t[4:0:-3].sum().backward()
        expected = np.zeros_like(a)
        expected[[4, 1]] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_getitem_duplicate_fancy_indices_accumulate(self):
        """Integer-array indices can repeat an element: the backward
        must add every occurrence, not keep the last one."""
        t = Tensor(np.zeros((4, 3)), requires_grad=True)
        rows = np.array([1, 1, 3, 1])
        (t[rows] * Tensor([[1.0], [2.0], [4.0], [8.0]])).sum().backward()
        expected = np.zeros((4, 3), dtype=np.float32)
        expected[1] = 11.0
        expected[3] = 4.0
        np.testing.assert_array_equal(t.grad, expected)
        t.zero_grad()
        t[rows, np.array([0, 0, 2, 0])].sum().backward()
        assert t.grad[1, 0] == 3.0 and t.grad[3, 2] == 1.0 and t.grad.sum() == 4.0

    def test_concatenate(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        check_gradients(lambda x, y: concatenate([x, y], axis=1), [a, b])

    def test_stack(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        check_gradients(lambda x, y: stack([x, y], axis=0), [a, b])


class TestReductionsAndNonlinearities:
    def test_sum_axis(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda x: x.sum(axis=1), [a])
        check_gradients(lambda x: x.sum(axis=0, keepdims=True), [a])

    def test_gelu(self, rng):
        a = rng.normal(size=(8,))
        check_gradients(lambda x: x.gelu(), [a])

    def test_where(self, rng):
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        cond = rng.random((4, 4)) > 0.5
        check_gradients(lambda x, y: where(cond, x, y), [a, b])


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = tensor([2.0], requires_grad=True)
        y = x * x + x  # x used twice in the product, once in the sum
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_no_grad_blocks_taping(self):
        x = tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_requires_scalar_without_seed(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_seed_gradient(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_backward_seed_shape_validated(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 3).backward(np.array([1.0]))

    def test_deep_chain_no_recursion_error(self):
        x = tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_grad_not_required_stays_none(self):
        x = tensor([1.0])
        y = tensor([2.0], requires_grad=True)
        (x * y).sum().backward()
        assert x.grad is None
        np.testing.assert_allclose(y.grad, [1.0])

    def test_repeated_backward_accumulates_in_leaf(self):
        x = tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])


def _linear_dag(program):
    """Build a DAG of adds, subs, constant muls and reshapes over three
    leaves from ``program`` (``(op, i, j)`` triples over earlier
    nodes); returns the leaves, the nodes and each node's exact integer
    coefficients with respect to the leaves."""
    leaves = [Tensor(np.ones(3), requires_grad=True) for _ in range(3)]
    nodes = [leaf * 1.0 for leaf in leaves]
    coeffs = [np.eye(3, dtype=np.int64)[i] for i in range(3)]
    for op, i, j in program:
        a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
        ca, cb = coeffs[i % len(nodes)], coeffs[j % len(nodes)]
        if op == "add":
            nodes.append(a + b)
            coeffs.append(ca + cb)
        elif op == "sub":
            nodes.append(a - b)
            coeffs.append(ca - cb)
        elif op == "double_add":
            nodes.append(a * 2.0 + b)
            coeffs.append(2 * ca + cb)
        else:  # a reshape backward hands its parent a view
            nodes.append(a.reshape(3, 1).reshape(3) + b)
            coeffs.append(ca + cb)
    return leaves, nodes, coeffs


class TestSharedSubexpressions:
    """A backward may hand one array to several parents (``__add__``,
    ``__sub__``, ``reshape``); accumulating into it in place would
    corrupt a gradient slot that is still pending."""

    def test_aliased_parent_gradients_are_not_mutated(self):
        leaves = [Tensor(np.ones(3), requires_grad=True) for _ in range(3)]
        n = [x * 1.0 for x in leaves]
        n3 = n[0] * 2.0 + n[1]
        n4 = n3 * 2.0 + n[2]
        n5 = n[2] * 2.0 + n3
        (n5 + n3 + n4).sum().backward()
        for leaf, expected in zip(leaves, (8.0, 4.0, 3.0)):
            np.testing.assert_array_equal(leaf.grad, np.full(3, expected))

    @given(
        program=st.lists(
            st.tuples(st.sampled_from(["add", "sub", "double_add", "reshape"]),
                      st.integers(0, 11), st.integers(0, 11)),
            min_size=2, max_size=9),
        outputs=st.lists(st.integers(0, 11), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_linear_dag_matches_closed_form(self, program, outputs):
        """Every node is an integer combination of the leaves, so the
        exact gradient is the summed coefficient — no tolerance."""
        leaves, nodes, coeffs = _linear_dag(program)
        picked = [k % len(nodes) for k in outputs]
        loss = nodes[picked[0]]
        for k in picked[1:]:
            loss = loss + nodes[k]
        loss.sum().backward()
        expected = sum(coeffs[k] for k in picked)
        for leaf, c in zip(leaves, expected):
            got = np.zeros(3) if leaf.grad is None else leaf.grad
            np.testing.assert_array_equal(got, np.full(3, float(c)))


class TestUnbroadcast:
    @given(arrays((3, 4)))
    @settings(max_examples=25, deadline=None)
    def test_sum_grad_matches_shape(self, data):
        grad = np.asarray(data, dtype=np.float32)
        reduced = unbroadcast(grad, (4,))
        assert reduced.shape == (4,)
        np.testing.assert_allclose(reduced, grad.sum(axis=0), rtol=1e-5, atol=1e-5)

    def test_keepdim_axis(self):
        grad = np.ones((3, 4), dtype=np.float32)
        reduced = unbroadcast(grad, (3, 1))
        np.testing.assert_allclose(reduced, np.full((3, 1), 4.0))

    def test_identity(self):
        grad = np.ones((2, 2), dtype=np.float32)
        assert unbroadcast(grad, (2, 2)) is grad


class TestHypothesisGradients:
    """Property-based gradcheck: linearity of backward and agreement
    with finite differences on random shapes."""

    @given(arrays((2, 3)), arrays((2, 3)))
    @settings(max_examples=20, deadline=None)
    def test_add_backward_is_identity(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones_like(a), atol=1e-6)
        np.testing.assert_allclose(tb.grad, np.ones_like(b), atol=1e-6)

    @given(arrays((3, 3)))
    @settings(max_examples=20, deadline=None)
    def test_mul_by_self_grad(self, a):
        t = Tensor(a, requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * t.data, rtol=1e-4, atol=1e-4)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shapes(self, m, k, n):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        out = a @ b
        assert out.shape == (m, n)
        out.sum().backward()
        assert a.grad.shape == (m, k)
        assert b.grad.shape == (k, n)
