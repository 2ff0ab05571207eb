"""Regression tests for kernel edge-case fixes.

Pins two classes of bug:

- ``edge_softmax`` produced NaN on fully-masked rows (all-``-inf``
  logits): ``-inf - (-inf)`` in the max-shift, then ``0 / 0`` in the
  normalisation.  Masked attention (padding, subgraph masking) makes
  such rows routine.
- the 1-D ``segment_sum`` / ``segment_max`` under ``edge_softmax`` left
  the lockstep ``segment_reduce`` (an argsort plus ~40 ``searchsorted``
  calls per call) for the compiled CSR fold and ``maximum.reduceat``;
  the lockstep fold stays the reference they are checked against.
- CSR structural arrays silently inherited narrow integer dtypes from
  caller input (or from ``np.bincount``'s platform-dependent ``intp``),
  risking int32 overflow in cumulative sums near 2**31 nonzeros.
"""

import numpy as np
import pytest

from repro.core.verify import adversarial_battery
from repro.graphs import isolated_union, star
from repro.kernels import edge_softmax, segment_max, segment_sum
from repro.kernels.segment import segment_reduce
from repro.sparse import CSRMatrix


def csr_from_rows(row_lists, n_cols=None):
    """Build an unweighted CSR from per-row column lists."""
    indptr = np.cumsum([0] + [len(r) for r in row_lists])
    indices = np.concatenate([np.asarray(r, dtype=np.int64) for r in row_lists if r] or [np.empty(0, dtype=np.int64)])
    n_cols = n_cols or (int(indices.max()) + 1 if indices.size else 1)
    return CSRMatrix(indptr, indices, None, (len(row_lists), n_cols))


class TestEdgeSoftmaxMaskedRows:
    def test_fully_masked_row_yields_zeros_not_nan(self):
        adj = csr_from_rows([[0, 1], [1, 2]], n_cols=3)
        logits = np.array([-np.inf, -np.inf, 0.5, 1.5])
        out = edge_softmax(adj, logits)
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values[:2], 0.0)
        # the untouched row still softmaxes normally
        np.testing.assert_allclose(out.values[2:].sum(), 1.0)

    def test_all_rows_masked(self):
        adj = csr_from_rows([[0], [0, 1]], n_cols=2)
        logits = np.full(3, -np.inf)
        out = edge_softmax(adj, logits)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_partially_masked_row_renormalises(self):
        adj = csr_from_rows([[0, 1, 2]], n_cols=3)
        logits = np.array([-np.inf, 0.0, 0.0])
        out = edge_softmax(adj, logits)
        np.testing.assert_allclose(out.values, [0.0, 0.5, 0.5])

    def test_unmasked_rows_unchanged_by_guard(self):
        rng = np.random.default_rng(3)
        adj = csr_from_rows([[0, 1, 2], [1, 3], [0, 2, 3, 4]], n_cols=5)
        logits = rng.standard_normal(adj.nnz)
        out = edge_softmax(adj, logits)
        for r in range(3):
            seg = out.values[adj.indptr[r]:adj.indptr[r + 1]]
            expected = np.exp(logits[adj.indptr[r]:adj.indptr[r + 1]])
            np.testing.assert_allclose(seg, expected / expected.sum())

    def test_empty_rows_and_empty_graph(self):
        adj = csr_from_rows([[], [0], []], n_cols=2)
        out = edge_softmax(adj, np.array([2.0]))
        np.testing.assert_allclose(out.values, [1.0])
        empty = csr_from_rows([[], []], n_cols=2)
        out = edge_softmax(empty, np.empty(0))
        assert out.values.shape == (0,)

    def test_extreme_finite_logits_stay_stable(self):
        adj = csr_from_rows([[0, 1]], n_cols=2)
        out = edge_softmax(adj, np.array([1e4, -1e4]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-300)


class TestEdgeSegmentFolds:
    """1-D ``segment_sum`` / ``segment_max`` against the lockstep fold."""

    # star(200): one row of > 128 edges, which the lockstep fold reduces
    # pairwise and the compiled fold left to right
    GRAPHS = adversarial_battery(quick=False) + [
        star(200), isolated_union(30, 30, seed=3),
    ]

    @pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.name)
    def test_match_lockstep_reference(self, graph):
        for pattern in (graph.adj, graph.adj_with_self_loops()):
            values = np.random.default_rng(7).standard_normal(pattern.nnz)
            np.testing.assert_allclose(
                segment_sum(values, pattern.indptr),
                segment_reduce(values, pattern.indptr, np.add, 0.0),
                rtol=1e-12, atol=1e-12,
            )
            np.testing.assert_array_equal(
                segment_max(values, pattern.indptr),
                segment_reduce(values, pattern.indptr, np.maximum, -np.inf),
            )

    def test_empty_rows_yield_the_identity(self):
        indptr = np.array([0, 0, 2, 2, 3, 3])
        values = np.array([1.0, -4.0, 0.5])
        np.testing.assert_array_equal(
            segment_sum(values, indptr), [0.0, -3.0, 0.0, 0.5, 0.0]
        )
        np.testing.assert_array_equal(
            segment_max(values, indptr), [-np.inf, 1.0, -np.inf, 0.5, -np.inf]
        )
        no_rows = np.array([0])
        assert segment_sum(np.empty(0), no_rows).shape == (0,)
        assert segment_max(np.empty(0), no_rows).shape == (0,)

    def test_fully_masked_rows_stay_minus_inf_and_zero(self):
        indptr = np.array([0, 2, 4])
        values = np.array([-np.inf, -np.inf, 0.5, 1.5])
        np.testing.assert_array_equal(segment_max(values, indptr), [-np.inf, 1.5])
        np.testing.assert_array_equal(
            segment_sum(np.exp(values), indptr), [0.0, np.exp(0.5) + np.exp(1.5)]
        )

    def test_value_count_is_validated(self):
        with pytest.raises(ValueError):
            segment_sum(np.ones(3), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            segment_max(np.ones((2, 2)), np.array([0, 1, 2]))

    def test_edge_softmax_on_the_battery(self):
        for graph in self.GRAPHS:
            adj = graph.adj
            logits = np.random.default_rng(11).standard_normal(adj.nnz)
            if adj.nnz:
                logits[adj.indptr[np.argmax(adj.row_degrees())]:][:1] = -np.inf
            alpha = edge_softmax(adj, logits).values
            assert np.isfinite(alpha).all()
            sums = segment_reduce(alpha, adj.indptr, np.add, 0.0)
            np.testing.assert_allclose(sums[adj.row_degrees() > 0], 1.0)


class TestCSRIndexDtypes:
    def test_constructor_coerces_int32_inputs(self):
        indptr = np.array([0, 1, 2], dtype=np.int32)
        indices = np.array([1, 0], dtype=np.int32)
        m = CSRMatrix(indptr, indices, None, (2, 2))
        assert m.indptr.dtype == np.int64
        assert m.indices.dtype == np.int64

    def test_from_coo_int32_inputs_end_to_end(self):
        rows = np.array([1, 0, 1, 0], dtype=np.int32)
        cols = np.array([0, 1, 0, 0], dtype=np.int32)
        m = CSRMatrix.from_coo(rows, cols, None, (2, 2))
        assert m.indptr.dtype == np.int64
        assert m.indices.dtype == np.int64
        assert m.row_ids().dtype == np.int64
        assert m.row_degrees().dtype == np.int64
        # duplicates collapsed, structure intact
        np.testing.assert_array_equal(m.to_dense(), [[1, 1], [1, 0]])

    def test_transpose_preserves_int64(self):
        rows = np.array([0, 2, 1], dtype=np.int32)
        cols = np.array([2, 0, 1], dtype=np.int32)
        m = CSRMatrix.from_coo(rows, cols, None, (3, 3))
        t = m.transpose()
        assert t.indptr.dtype == np.int64
        assert t.indices.dtype == np.int64

    def test_derived_matrices_stay_int64(self):
        rows = np.array([0, 1, 2], dtype=np.int32)
        cols = np.array([1, 2, 0], dtype=np.int32)
        m = CSRMatrix.from_coo(rows, cols, None, (3, 3))
        assert m.add_self_loops().indptr.dtype == np.int64
        sub = m.submatrix(np.array([0, 1], dtype=np.int32), np.array([0, 1], dtype=np.int32))
        assert sub.indptr.dtype == np.int64
        assert sub.indices.dtype == np.int64
        w = m.with_values(np.ones(m.nnz))
        assert w.indptr.dtype == np.int64
