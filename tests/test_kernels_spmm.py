"""Unit tests for g-SpMM against dense references."""

import numpy as np
import pytest

from repro.kernels import (
    SPMM_STRATEGIES,
    get_semiring,
    gspmm,
    gspmm_flops,
    spmm,
    spmm_unweighted,
)
from repro.sparse import CSRMatrix

from helpers import random_csr, spmm_cases, strategy_for_case


def dense_gspmm(adj: CSRMatrix, x: np.ndarray, reduce_name: str, binary_name: str):
    """Slow dense reference for the generalized SpMM."""
    n, k = adj.shape[0], x.shape[1]
    identity = {"sum": 0.0, "mean": 0.0, "max": -np.inf, "min": np.inf}[reduce_name]
    out = np.full((n, k), identity)
    vals = adj.effective_values()
    rows, cols = adj.row_ids(), adj.indices
    binary = {
        "mul": lambda e, u: e * u,
        "add": lambda e, u: e + u,
        "sub": lambda e, u: e - u,
        "div": lambda e, u: e / u,
        "copy_lhs": lambda e, u: e,
        "copy_rhs": lambda e, u: u,
    }[binary_name]
    counts = np.zeros(n)
    for e in range(adj.nnz):
        msg = binary(vals[e], x[cols[e]])
        if reduce_name in ("sum", "mean"):
            out[rows[e]] += msg
        elif reduce_name == "max":
            out[rows[e]] = np.maximum(out[rows[e]], msg)
        else:
            out[rows[e]] = np.minimum(out[rows[e]], msg)
        counts[rows[e]] += 1
    if reduce_name == "mean":
        out /= np.maximum(counts, 1)[:, None]
    if reduce_name in ("max", "min"):
        out[counts == 0] = identity
    return out


class TestStandardSpMM:
    def test_matches_dense_matmul(self, rng):
        adj = random_csr(rng, 10, 12, density=0.3)
        x = rng.standard_normal((12, 5))
        assert np.allclose(spmm(adj, x), adj.to_dense() @ x)

    def test_unweighted_uses_pattern(self, rng):
        adj = random_csr(rng, 8, 8, density=0.3, weighted=False)
        x = rng.standard_normal((8, 4))
        pattern = (adj.to_dense() != 0).astype(float)
        assert np.allclose(spmm_unweighted(adj, x), pattern @ x)

    def test_vector_rhs_promoted(self, rng):
        adj = random_csr(rng, 6, 6, density=0.4)
        x = rng.standard_normal(6)
        out = spmm(adj, x)
        assert out.shape == (6, 1)
        assert np.allclose(out[:, 0], adj.to_dense() @ x)

    def test_shape_mismatch(self, rng):
        adj = random_csr(rng, 4, 4)
        with pytest.raises(ValueError):
            spmm(adj, np.ones((5, 2)))

    def test_empty_rows_produce_zero(self):
        adj = CSRMatrix.from_coo([0], [1], [2.0], (3, 2))
        out = spmm(adj, np.ones((2, 3)))
        assert np.array_equal(out[1], np.zeros(3))
        assert np.array_equal(out[2], np.zeros(3))

    def test_empty_matrix(self):
        adj = CSRMatrix([0, 0], [], None, (1, 3))
        assert np.array_equal(spmm(adj, np.ones((3, 2))), np.zeros((1, 2)))


@pytest.mark.parametrize("case", spmm_cases())
@pytest.mark.parametrize("reduce_name", ["sum", "mean", "max", "min"])
@pytest.mark.parametrize("binary_name", ["mul", "add", "copy_lhs", "copy_rhs"])
def test_generalized_semiring_matches_reference(
    rng, case, reduce_name, binary_name, monkeypatch
):
    strategy = strategy_for_case(case, monkeypatch)
    adj = random_csr(rng, 9, 11, density=0.25)
    # strictly positive values so div/sub are stable if added later
    adj = adj.with_values(np.abs(adj.values) + 0.1)
    x = rng.standard_normal((11, 3))
    semiring = get_semiring(reduce_name, binary_name)
    got = gspmm(adj, x, semiring, strategy=strategy)
    expected = dense_gspmm(adj, x, reduce_name, binary_name)
    if binary_name == "copy_lhs":
        assert got.shape == (9, 1)
        expected = dense_gspmm(adj, np.zeros((11, 1)), reduce_name, binary_name)
    assert np.allclose(got, expected)


@pytest.mark.parametrize("case", spmm_cases())
@pytest.mark.parametrize("reduce_name", ["sum", "mean", "max", "min"])
@pytest.mark.parametrize("binary_name", ["mul", "add", "copy_lhs", "copy_rhs"])
def test_unweighted_semiring_matches_reference(
    rng, case, reduce_name, binary_name, monkeypatch
):
    """A pattern-only adjacency folds with implicit unit edge values."""
    strategy = strategy_for_case(case, monkeypatch)
    adj = random_csr(rng, 9, 11, density=0.25, weighted=False)
    assert not adj.is_weighted
    x = rng.standard_normal((11, 3))
    got = gspmm(adj, x, get_semiring(reduce_name, binary_name), strategy=strategy)
    if binary_name == "copy_lhs":
        x = np.zeros((11, 1))
    assert np.allclose(got, dense_gspmm(adj, x, reduce_name, binary_name))


def test_strategies_agree(rng):
    adj = random_csr(rng, 30, 30, density=0.1)
    x = rng.standard_normal((30, 8))
    a = gspmm(adj, x, strategy="row_segment")
    for strategy in SPMM_STRATEGIES[1:]:
        assert np.allclose(a, gspmm(adj, x, strategy=strategy)), strategy


def test_unknown_strategy(rng):
    with pytest.raises(ValueError):
        gspmm(random_csr(rng, 3, 3), np.ones((3, 1)), strategy="quantum")


def test_flops_counts():
    assert gspmm_flops(nnz=100, k=8, weighted=True) == 1600
    assert gspmm_flops(nnz=100, k=8, weighted=False) == 800
