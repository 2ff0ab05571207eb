"""Unit tests for dense primitives, broadcasts and normalization kernels."""

import numpy as np
import pytest

from repro.kernels import (
    KernelCall,
    col_broadcast,
    degrees_by_binning,
    degrees_from_indptr,
    elementwise_add,
    elementwise_mul,
    elu,
    gemm,
    gemm_flops,
    get_primitive,
    leaky_relu,
    log_softmax_rows,
    norm_diagonal,
    relu,
    row_broadcast,
    row_broadcast_flops,
    sigmoid,
    softmax_rows,
)

from helpers import random_csr


class TestGemm:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        assert np.allclose(gemm(a, b), a @ b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gemm(np.ones((2, 3)), np.ones((4, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            gemm(np.ones(3), np.ones((3, 2)))

    def test_flops(self):
        assert gemm_flops(10, 20, 30) == 2 * 10 * 20 * 30


class TestBroadcasts:
    def test_row_broadcast(self, rng):
        d = rng.random(4)
        b = rng.standard_normal((4, 6))
        assert np.allclose(row_broadcast(d, b), np.diag(d) @ b)

    def test_col_broadcast(self, rng):
        d = rng.random(6)
        b = rng.standard_normal((4, 6))
        assert np.allclose(col_broadcast(b, d), b @ np.diag(d))

    def test_row_broadcast_shape_checks(self):
        with pytest.raises(ValueError):
            row_broadcast(np.ones(3), np.ones((4, 2)))
        with pytest.raises(ValueError):
            row_broadcast(np.ones((3, 1)), np.ones((3, 2)))

    def test_col_broadcast_shape_checks(self):
        with pytest.raises(ValueError):
            col_broadcast(np.ones((4, 2)), np.ones(3))

    def test_flops(self):
        assert row_broadcast_flops(10, 5) == 50


class TestNonlinearities:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_leaky_relu(self):
        out = leaky_relu(np.array([-10.0, 5.0]), negative_slope=0.1)
        assert np.allclose(out, [-1.0, 5.0])

    def test_elu(self):
        out = elu(np.array([-1.0, 1.0]))
        assert out[1] == 1.0
        assert out[0] == pytest.approx(np.exp(-1.0) - 1.0)

    def test_sigmoid_stable(self):
        out = sigmoid(np.array([-1e3, 0.0, 1e3]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_softmax_rows(self, rng):
        x = rng.standard_normal((4, 5))
        s = softmax_rows(x)
        assert np.allclose(s.sum(axis=1), 1.0)
        assert np.all(s > 0)

    def test_log_softmax_consistent(self, rng):
        x = rng.standard_normal((3, 6))
        assert np.allclose(np.exp(log_softmax_rows(x)), softmax_rows(x))

    def test_elementwise(self, rng):
        a, b = rng.random((2, 3)), rng.random((2, 3))
        assert np.allclose(elementwise_add(a, b), a + b)
        assert np.allclose(elementwise_mul(a, b), a * b)


class TestNormalization:
    def test_degree_kernels_agree(self, rng):
        adj = random_csr(rng, 20, 20, density=0.15, weighted=False)
        assert np.array_equal(degrees_from_indptr(adj), degrees_by_binning(adj))

    def test_norm_diagonal_power(self, rng):
        adj = random_csr(rng, 10, 10, density=0.3, weighted=False).add_self_loops()
        d = norm_diagonal(adj, power=-0.5)
        deg = adj.row_degrees().astype(float)
        assert np.allclose(d.diag, deg ** -0.5)

    def test_norm_diagonal_binning_method(self, rng):
        adj = random_csr(rng, 10, 10, density=0.3, weighted=False)
        a = norm_diagonal(adj, -1.0, method="indptr")
        b = norm_diagonal(adj, -1.0, method="binning")
        assert np.allclose(a.diag, b.diag)

    def test_norm_diagonal_bad_method(self, rng):
        with pytest.raises(ValueError):
            norm_diagonal(random_csr(rng, 3, 3), method="magic")

    def test_norm_diagonal_zero_degree(self):
        from repro.sparse import CSRMatrix

        adj = CSRMatrix.from_coo([0], [1], None, (3, 3))
        d = norm_diagonal(adj, power=-0.5)
        assert d.diag[2] == 0.0  # isolated node maps to zero, not inf


class TestRegistry:
    def test_lookup(self):
        assert get_primitive("gemm").kind == "dense"
        assert get_primitive("spmm").kind == "sparse"
        with pytest.raises(KeyError):
            get_primitive("nope")

    def test_kernel_call_flops(self):
        call = KernelCall("gemm", {"m": 4, "k": 5, "n": 6})
        assert call.flops == 240
        assert call.kind == "dense"

    def test_kernel_call_validates_name(self):
        with pytest.raises(KeyError):
            KernelCall("not_a_primitive", {})

    def test_spmm_unweighted_cheaper(self):
        weighted = KernelCall("spmm", {"nnz": 100, "k": 8}).flops
        unweighted = KernelCall("spmm_unweighted", {"nnz": 100, "k": 8}).flops
        assert unweighted < weighted

    def test_describe(self):
        call = KernelCall("spmm", {"nnz": 10, "k": 2})
        assert "spmm" in call.describe()
        assert "nnz=10" in call.describe()
