"""Unit tests for COO matrices and structural sparse operations."""

import numpy as np
import pytest

from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    degree_vector,
    is_symmetric_pattern,
)

from helpers import random_csr, random_symmetric_csr


class TestCOO:
    def test_round_trip(self, rng):
        csr = random_csr(rng, 7, 9, density=0.3)
        rows, cols, vals = csr.to_coo()
        coo = COOMatrix(rows, cols, vals, csr.shape)
        assert np.allclose(coo.to_csr().to_dense(), csr.to_dense())
        assert coo.nnz == csr.nnz

    def test_from_edges_symmetrize(self):
        coo = COOMatrix.from_edges([0, 1], [1, 1], n=3, symmetrize=True)
        dense = coo.to_csr().to_dense()
        assert dense[0, 1] == 1 and dense[1, 0] == 1
        assert dense[1, 1] == 1  # self-loop kept once, not mirrored

    def test_from_edges_symmetrize_weighted(self):
        coo = COOMatrix.from_edges([0], [2], n=3, values=[5.0], symmetrize=True)
        dense = coo.to_csr().to_dense()
        assert dense[0, 2] == 5.0 and dense[2, 0] == 5.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            COOMatrix([0, 1], [0], None, (2, 2))
        with pytest.raises(ValueError):
            COOMatrix([0], [0], [1.0, 2.0], (1, 1))


class TestStructuralOps:
    def test_is_symmetric_pattern(self, rng):
        sym = random_symmetric_csr(rng, 20, density=0.1)
        assert is_symmetric_pattern(sym)
        asym = CSRMatrix.from_coo([0], [1], None, (2, 2))
        assert not is_symmetric_pattern(asym)
        assert not is_symmetric_pattern(random_csr(rng, 2, 3))

    def test_degree_vector_unweighted(self):
        mat = CSRMatrix.from_coo([0, 0, 1], [1, 2, 0], None, (3, 3))
        assert np.array_equal(degree_vector(mat, "out"), [2, 1, 0])
        assert np.array_equal(degree_vector(mat, "in"), [1, 1, 1])

    def test_degree_vector_weighted(self):
        mat = CSRMatrix.from_coo([0, 0, 1], [1, 2, 0], [2.0, 3.0, 4.0], (3, 3))
        assert np.allclose(degree_vector(mat, "out"), [5, 4, 0])
        assert np.allclose(degree_vector(mat, "in"), [4, 2, 3])

    def test_degree_vector_bad_direction(self):
        with pytest.raises(ValueError):
            degree_vector(CSRMatrix.eye(2), "sideways")
