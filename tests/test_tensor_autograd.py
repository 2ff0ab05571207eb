"""Autograd engine tests: every op is checked against finite differences."""

import threading

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    concat,
    dropout,
    elu,
    exp,
    is_grad_enabled,
    leaky_relu,
    log,
    log_softmax,
    no_grad,
    relu,
    sigmoid,
)


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def check_grad(op, x_data: np.ndarray, atol: float = 1e-5) -> None:
    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x)
    loss = (out * out).sum()
    loss.backward()

    def scalar(v):
        return float((op(Tensor(v)).data ** 2).sum())

    expected = numerical_grad(scalar, x_data.copy())
    assert np.allclose(x.grad, expected, atol=atol), f"analytic {x.grad} vs numeric {expected}"


class TestElementaryOps:
    def test_add_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 4)))
        assert np.allclose(b.grad, np.ones((3, 4)))

    def test_add_broadcast_bias(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        (a + bias).sum().backward()
        assert np.allclose(bias.grad, np.full(4, 3.0))

    def test_mul_backward(self, rng):
        x = rng.standard_normal((2, 3))
        check_grad(lambda t: t * 3.0, x)

    def test_div_backward(self, rng):
        a = Tensor(rng.standard_normal((2, 2)) + 5.0, requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)) + 5.0, requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, 1.0 / b.data)
        assert np.allclose(b.grad, -a.data / b.data ** 2)

    def test_matmul_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))

    def test_pow_backward(self, rng):
        x = np.abs(rng.standard_normal((2, 3))) + 0.5
        check_grad(lambda t: t ** 3, x)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg_sub(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        (1.0 - a).sum().backward()
        assert np.allclose(a.grad, -np.ones(3))

    def test_sum_axis_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        a.sum(axis=0).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 4)))

    def test_mean_backward(self, rng):
        a = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, np.full((2, 5), 1 / 10))

    def test_reshape_transpose(self, rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        (a.reshape(3, 4).T * 2.0).sum().backward()
        assert np.allclose(a.grad, np.full((2, 6), 2.0))

    def test_getitem_backward(self, rng):
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        a[np.array([0, 0, 2])].sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        assert np.allclose(a.grad, expected)

    def test_grad_accumulates_on_reuse(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        (a + a).sum().backward()
        assert np.allclose(a.grad, np.full(3, 2.0))


class TestNonlinearities:
    def test_relu_grad(self, rng):
        check_grad(relu, rng.standard_normal((3, 3)) + 0.3)

    def test_relu_matches_dense_kernel_and_masks_at_zero(self):
        # the fused epilogue claims bitwise parity with this forward
        from repro.kernels.dense import relu as dense_relu

        data = np.array([[-2.0, -0.0, 0.0], [1e-300, 3.0, -1e-300]])
        x = Tensor(data, requires_grad=True)
        out = relu(x)
        assert np.array_equal(out.data, dense_relu(data))
        out.sum().backward()
        assert np.array_equal(x.grad, [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])

    def test_leaky_relu_grad(self, rng):
        check_grad(lambda t: leaky_relu(t, 0.1), rng.standard_normal((3, 3)) + 0.3)

    def test_elu_grad(self, rng):
        check_grad(elu, rng.standard_normal((3, 3)))

    def test_exp_log_grad(self, rng):
        check_grad(exp, rng.standard_normal((2, 2)))
        check_grad(log, np.abs(rng.standard_normal((2, 2))) + 1.0)

    def test_sigmoid_grad(self, rng):
        check_grad(sigmoid, rng.standard_normal((3, 2)))

    def test_log_softmax_grad(self, rng):
        check_grad(log_softmax, rng.standard_normal((4, 5)))

    def test_log_softmax_rows_normalised(self, rng):
        out = log_softmax(Tensor(rng.standard_normal((3, 4))))
        assert np.allclose(np.exp(out.data).sum(axis=1), 1.0)


class TestGraphMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()
        (t * 2).backward(np.ones(2))
        assert np.allclose(t.grad, [2.0, 2.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad

    def test_no_grad_is_per_thread(self):
        """An op on thread B records its tape while thread A sits inside
        ``no_grad``; a thread starts with recording on."""
        t = Tensor([1.0], requires_grad=True)
        entered, done = threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                entered.set()
                done.wait(timeout=30)
                seen["a"] = (t * 2).requires_grad

        def thread_b():
            entered.wait(timeout=30)
            seen["b"] = (t * 2).requires_grad
            seen["b_enabled"] = is_grad_enabled()
            done.set()

        workers = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert seen == {"a": False, "b": True, "b_enabled": True}
        assert is_grad_enabled()

    def test_detach(self):
        t = Tensor([1.0], requires_grad=True)
        assert not t.detach().requires_grad

    def test_diamond_graph(self, rng):
        # y = (x*2) + (x*3); dy/dx = 5
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        ((x * 2.0) + (x * 3.0)).sum().backward()
        assert np.allclose(x.grad, np.full(4, 5.0))

    def test_deep_chain_iterative_topo(self):
        # A 5000-op chain would blow Python's recursion limit with a
        # recursive topological sort.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward()
        assert np.allclose(x.grad, [1.0])

    def test_dropout_train_and_eval(self, rng):
        x = Tensor(np.ones((100, 10)), requires_grad=True)
        out = dropout(x, 0.5, rng, training=True)
        kept = out.data != 0
        assert 0.2 < kept.mean() < 0.8
        assert np.allclose(out.data[kept], 2.0)  # inverted scaling
        out_eval = dropout(x, 0.5, rng, training=False)
        assert out_eval is x

    def test_dropout_invalid_p(self, rng):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_concat_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (3, 6)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, np.full((3, 2), 2.0))
        assert np.allclose(b.grad, np.full((3, 4), 2.0))
