"""Regression tests: caches must never serve one graph's data to another.

Model caches were once keyed by *shape*, which silently reused stale
values across two same-sized graphs.  Per-graph executor setup (Ñ, B) is
keyed on the graph object: the tests here pin that for live graphs that
alternate, and ``test_core_runtime.py::TestOptimize::
test_fresh_graphs_at_recycled_addresses_get_their_own_setup`` for graphs
built at a dead graph's address.  ``TestCSRAuxCache`` pins the CSR memos.
"""

import pickle

import numpy as np
import pytest

from repro.core import GraniiEngine
from repro.graphs import erdos_renyi
from repro.models import (
    APPNPLayer,
    GCNLayer,
    GINLayer,
    SGCLayer,
    TAGCNLayer,
)
from repro.sparse import CSRMatrix
from repro.tensor import Tensor


def same_sized_graphs():
    """Two different graphs with identical node counts."""
    return erdos_renyi(40, 6, seed=101), erdos_renyi(40, 6, seed=202)


@pytest.mark.parametrize(
    "make,norm",
    [
        (lambda rng: GCNLayer(6, 3, rng=rng), "precompute"),
        (lambda rng: GCNLayer(6, 3, rng=rng), "dynamic"),
        (lambda rng: SGCLayer(6, 3, hops=2, rng=rng), "precompute"),
        (lambda rng: TAGCNLayer(6, 3, hops=2, rng=rng), "precompute"),
        (lambda rng: APPNPLayer(6, 3, hops=2, rng=rng), "precompute"),
        (lambda rng: GINLayer(6, 3, rng=rng), "precompute"),
    ],
    ids=["gcn-precompute", "gcn-dynamic", "sgc-precompute",
         "tagcn-precompute", "appnp-precompute", "gin-precompute"],
)
def test_cached_composition_tracks_graph(rng, make, norm):
    g1, g2 = same_sized_graphs()
    layer = make(rng)
    engine = GraniiEngine()
    planned = engine.compile_for(layer, g1).find(norm=norm)[0]
    layer.attach_executor(engine.make_executor(layer, planned, guarded=False))
    feat = Tensor(rng.standard_normal((40, 6)))

    out1_first = layer(g1, feat).data
    out2 = layer(g2, feat).data  # same size, different structure
    out1_again = layer(g1, feat).data
    expected2 = layer.forward(layer.as_mp_graph(g2), feat).data
    assert np.allclose(out2, expected2, atol=1e-10)
    assert np.allclose(out1_first, out1_again, atol=1e-10)
    assert not np.allclose(out1_first, out2)


class TestCSRAuxCache:
    """The CSR memo dict must never serve stale data to derived matrices.

    ``row_degrees``/``col_degrees``/``row_ids``/``effective_values`` and
    the transpose back-link are memoised per matrix; derived matrices
    (``with_values``, ``submatrix``, ``add_self_loops``) share only what
    their construction provably preserves — the pattern-derived entries.
    """

    def weighted(self):
        return CSRMatrix.from_coo(
            np.array([0, 0, 1, 2, 2]),
            np.array([1, 2, 0, 0, 2]),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            (3, 3),
        )

    def test_with_values_shares_pattern_aux_only(self):
        m = self.weighted()
        # populate every memo on the source matrix
        m.row_degrees(), m.col_degrees(), m.row_ids()
        m.effective_values()
        mt = m.transpose()
        w = m.with_values(np.full(m.nnz, 7.0))
        assert "row_degrees" in w._aux and "row_ids" in w._aux
        # values-derived and transpose entries must NOT carry over:
        # w's transpose has different values, w's effective_values differ
        assert "transpose" not in w._aux
        assert "effective_values" not in w._aux
        np.testing.assert_array_equal(w.effective_values(), 7.0)
        np.testing.assert_array_equal(
            w.transpose().to_dense(), w.to_dense().T
        )
        # and the original's cached transpose is untouched
        assert m._aux["transpose"] is mt

    def test_with_values_shared_degrees_are_correct(self):
        m = self.weighted()
        deg_before = m.row_degrees()
        w = m.with_values(None)
        np.testing.assert_array_equal(w.row_degrees(), deg_before)
        np.testing.assert_array_equal(w.row_degrees(), [2, 1, 2])

    def test_transpose_back_link_round_trips(self):
        m = self.weighted()
        t = m.transpose()
        assert t.transpose() is m  # A.T.T is A, via the back-link
        np.testing.assert_array_equal(t.to_dense(), m.to_dense().T)
        # the link is value-aware: reweighting breaks the chain safely
        w = m.with_values(np.arange(1.0, 6.0) * 10)
        np.testing.assert_array_equal(w.transpose().to_dense(), w.to_dense().T)

    def test_submatrix_builds_fresh_aux(self):
        m = self.weighted()
        m.row_degrees(), m.row_ids(), m.transpose()
        sub = m.submatrix(np.array([0, 2]), np.array([0, 2]))
        np.testing.assert_array_equal(sub.row_degrees(), [1, 2])
        np.testing.assert_array_equal(
            sub.to_dense(), m.to_dense()[np.ix_([0, 2], [0, 2])]
        )
        np.testing.assert_array_equal(
            sub.transpose().to_dense(), sub.to_dense().T
        )

    def test_add_self_loops_does_not_reuse_degrees(self):
        m = self.weighted().unweighted()
        np.testing.assert_array_equal(m.row_degrees(), [2, 1, 2])
        # node 2 already has a self-loop; only rows 0 and 1 gain one
        looped = m.add_self_loops()
        np.testing.assert_array_equal(looped.row_degrees(), [3, 2, 2])

    def test_pickle_drops_aux_and_recomputes(self):
        m = self.weighted()
        m.row_degrees(), m.transpose(), m.effective_values()
        clone = pickle.loads(pickle.dumps(m))
        assert clone._aux == {}
        np.testing.assert_array_equal(clone.row_degrees(), m.row_degrees())
        np.testing.assert_array_equal(
            clone.transpose().to_dense(), m.to_dense().T
        )

    def test_inspection_memo_follows_the_pattern_and_nothing_else(self):
        """The feature vector and the pattern digest are read off
        ``indptr``/``indices``: ``with_values`` keeps the pattern and so
        the memo; anything that builds a new pattern (or crosses a
        pickle) starts without one and recomputes its own."""
        from repro.core.features import inspect_graph, known_inspection
        from repro.graphs import Graph

        m = self.weighted()
        inspection = inspect_graph(Graph(m))
        digest = m.pattern_sha1()
        w = m.with_values(np.full(m.nnz, 7.0))
        assert known_inspection(Graph(w)) is inspection
        assert w.pattern_sha1() is digest
        assert known_inspection(Graph(m.unweighted())) is inspection

        looped = m.add_self_loops()
        sub = m.submatrix(np.array([0, 2]), np.array([0, 2]))
        clone = pickle.loads(pickle.dumps(m))
        for derived in (looped, sub, clone):
            assert known_inspection(Graph(derived)) is None
            assert "pattern_sha1" not in derived._aux
        # a new pattern gets its own digest; the same pattern the same one
        assert looped.pattern_sha1().hexdigest() != digest.hexdigest()
        assert clone.pattern_sha1().hexdigest() == digest.hexdigest()
        np.testing.assert_array_equal(
            inspect_graph(Graph(clone)), inspection
        )
        assert not inspection.flags.writeable

    def test_self_loop_count_and_column_scan_follow_the_pattern_only(self):
        """``nnz_with_self_loops`` and the column-order scan are read off
        ``indptr``/``indices``: ``with_values`` carries both, and
        ``add_self_loops``, ``submatrix`` and pickle start without them."""
        m = self.weighted()
        count = m.nnz_with_self_loops()
        assert m._aux["nnz_with_self_loops"] == count == m.add_self_loops().nnz
        assert m._aux["columns_increase"] is True
        w = m.with_values(np.full(m.nnz, 7.0))
        assert w._aux["nnz_with_self_loops"] == count
        assert w._aux["columns_increase"] is True
        assert m.unweighted()._aux["nnz_with_self_loops"] == count

        looped = m.add_self_loops()
        sub = m.submatrix(np.array([0, 2]), np.array([0, 2]))
        clone = pickle.loads(pickle.dumps(m))
        for derived in (looped, sub, clone):
            assert "nnz_with_self_loops" not in derived._aux
            assert "columns_increase" not in derived._aux
        # each derived pattern counts its own loops
        assert looped.nnz_with_self_loops() == looped.nnz
        assert sub.nnz_with_self_loops() == sub.add_self_loops().nnz
        assert clone.nnz_with_self_loops() == count

    def test_an_unsorted_pattern_keeps_its_own_verdict(self):
        """A pattern whose columns do not increase is remembered as such:
        its count is the COO merge's, and its re-weightings agree."""
        m = CSRMatrix(
            np.array([0, 3, 4, 6]), np.array([2, 0, 1, 2, 2, 0]), None, (3, 3)
        )
        assert m.nnz_with_self_loops() == m.add_self_loops().nnz
        assert m._aux["columns_increase"] is False
        w = m.with_values(np.ones(m.nnz))
        assert w._aux["columns_increase"] is False
        assert w.nnz_with_self_loops() == w.add_self_loops().nnz
