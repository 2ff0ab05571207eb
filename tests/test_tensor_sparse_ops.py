"""Gradient checks for the sparse autograd ops against dense equivalents."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    edge_softmax,
    gather_rows,
    gsddmm_add_uv,
    row_broadcast,
    sddmm_dot,
    spmm,
    spmm_edge,
)

from helpers import random_csr


def dense_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


class TestSpmm:
    def test_forward_matches_dense(self, rng):
        adj = random_csr(rng, 6, 8, density=0.3)
        x = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        assert np.allclose(spmm(adj, x).data, adj.to_dense() @ x.data)

    def test_backward_is_transpose(self, rng):
        adj = random_csr(rng, 6, 8, density=0.3)
        x = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        spmm(adj, x).sum().backward()
        assert np.allclose(x.grad, adj.to_dense().T @ np.ones((6, 3)))

    def test_unweighted_adjacency(self, rng):
        adj = random_csr(rng, 5, 5, density=0.4, weighted=False)
        x = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        out = spmm(adj, x)
        pattern = (adj.to_dense() != 0).astype(float)
        assert np.allclose(out.data, pattern @ x.data)
        out.sum().backward()
        assert np.allclose(x.grad, pattern.T @ np.ones((5, 2)))

    def test_numeric_gradcheck(self, rng):
        adj = random_csr(rng, 4, 4, density=0.5)
        x0 = rng.standard_normal((4, 2))
        x = Tensor(x0.copy(), requires_grad=True)
        (spmm(adj, x) ** 2).sum().backward()
        expected = dense_grad(lambda v: float(((adj.to_dense() @ v) ** 2).sum()), x0.copy())
        assert np.allclose(x.grad, expected, atol=1e-5)


class TestSpmmEdge:
    def test_forward(self, rng):
        pattern = random_csr(rng, 5, 5, density=0.4, weighted=False)
        e = Tensor(rng.random(pattern.nnz), requires_grad=True)
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        out = spmm_edge(pattern, e, x)
        assert np.allclose(out.data, pattern.with_values(e.data).to_dense() @ x.data)

    def test_edge_value_grads(self, rng):
        pattern = random_csr(rng, 4, 4, density=0.5, weighted=False)
        e0 = rng.random(pattern.nnz)
        x0 = rng.standard_normal((4, 2))
        e = Tensor(e0.copy(), requires_grad=True)
        x = Tensor(x0.copy(), requires_grad=True)
        (spmm_edge(pattern, e, x) ** 2).sum().backward()

        def loss_of_e(ev):
            return float(((pattern.with_values(ev).to_dense() @ x0) ** 2).sum())

        def loss_of_x(xv):
            return float(((pattern.with_values(e0).to_dense() @ xv) ** 2).sum())

        assert np.allclose(e.grad, dense_grad(loss_of_e, e0.copy()), atol=1e-5)
        assert np.allclose(x.grad, dense_grad(loss_of_x, x0.copy()), atol=1e-5)

    def test_misaligned_edge_values(self, rng):
        pattern = random_csr(rng, 3, 3, density=0.4, weighted=False)
        with pytest.raises(ValueError):
            spmm_edge(pattern, Tensor(np.zeros(pattern.nnz + 1)), Tensor(np.zeros((3, 1))))


class TestSddmmDot:
    def test_forward(self, rng):
        pattern = random_csr(rng, 5, 5, density=0.4, weighted=False)
        u = Tensor(rng.standard_normal((5, 3)))
        v = Tensor(rng.standard_normal((5, 3)))
        out = sddmm_dot(pattern, u, v)
        rows, cols = pattern.row_ids(), pattern.indices
        expected = np.einsum("ek,ek->e", u.data[rows], v.data[cols])
        assert np.allclose(out.data, expected)

    def test_gradcheck(self, rng):
        pattern = random_csr(rng, 4, 4, density=0.5, weighted=False)
        u0 = rng.standard_normal((4, 2))
        v0 = rng.standard_normal((4, 2))
        u = Tensor(u0.copy(), requires_grad=True)
        v = Tensor(v0.copy(), requires_grad=True)
        (sddmm_dot(pattern, u, v) ** 2).sum().backward()
        rows, cols = pattern.row_ids(), pattern.indices

        def loss_u(uv):
            return float((np.einsum("ek,ek->e", uv[rows], v0[cols]) ** 2).sum())

        def loss_v(vv):
            return float((np.einsum("ek,ek->e", u0[rows], vv[cols]) ** 2).sum())

        assert np.allclose(u.grad, dense_grad(loss_u, u0.copy()), atol=1e-5)
        assert np.allclose(v.grad, dense_grad(loss_v, v0.copy()), atol=1e-5)


class TestGsddmmAddUV:
    def test_forward_and_grad(self, rng):
        pattern = random_csr(rng, 5, 5, density=0.4, weighted=False)
        us0 = rng.standard_normal(5)
        vs0 = rng.standard_normal(5)
        us = Tensor(us0.copy(), requires_grad=True)
        vs = Tensor(vs0.copy(), requires_grad=True)
        out = gsddmm_add_uv(pattern, us, vs)
        rows, cols = pattern.row_ids(), pattern.indices
        assert np.allclose(out.data, us0[rows] + vs0[cols])
        (out ** 2).sum().backward()

        def loss_u(u):
            return float(((u[rows] + vs0[cols]) ** 2).sum())

        assert np.allclose(us.grad, dense_grad(loss_u, us0.copy()), atol=1e-5)


class TestEdgeSoftmax:
    def test_forward_rows_normalised(self, rng):
        pattern = random_csr(rng, 6, 6, density=0.4, weighted=False)
        logits = Tensor(rng.standard_normal(pattern.nnz))
        alpha = edge_softmax(pattern, logits)
        sums = np.bincount(pattern.row_ids(), weights=alpha.data, minlength=6)
        deg = pattern.row_degrees()
        assert np.allclose(sums[deg > 0], 1.0)

    def test_gradcheck(self, rng):
        pattern = random_csr(rng, 4, 4, density=0.6, weighted=False)
        l0 = rng.standard_normal(pattern.nnz)
        logits = Tensor(l0.copy(), requires_grad=True)
        target = rng.random(pattern.nnz)
        out = edge_softmax(pattern, logits)
        ((out - Tensor(target)) ** 2).sum().backward()
        rows = pattern.row_ids()

        def loss(lv):
            shifted = np.exp(lv)
            denom = np.bincount(rows, weights=shifted, minlength=4)[rows]
            a = shifted / denom
            return float(((a - target) ** 2).sum())

        assert np.allclose(logits.grad, dense_grad(loss, l0.copy()), atol=1e-5)


class TestRowBroadcastAndGather:
    def test_row_broadcast(self, rng):
        d = rng.random(4)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = row_broadcast(d, x)
        assert np.allclose(out.data, d[:, None] * x.data)
        out.sum().backward()
        assert np.allclose(x.grad, np.tile(d[:, None], (1, 3)))

    def test_gather_rows(self, rng):
        x = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        idx = np.array([1, 1, 3])
        out = gather_rows(x, idx)
        assert np.allclose(out.data, x.data[idx])
        out.sum().backward()
        expected = np.zeros((5, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.allclose(x.grad, expected)
