"""Tests for graph coarsening and the changing-sparsity experiment."""

import numpy as np
import pytest

from repro.graphs import (
    coarsen,
    coarsen_hierarchy,
    erdos_renyi,
    path,
    rmat,
)


class TestCoarsen:
    def test_roughly_halves_nodes(self):
        g = erdos_renyi(200, 8, seed=1)
        level = coarsen(g)
        assert g.num_nodes * 0.4 <= level.num_coarse_nodes <= g.num_nodes * 0.75

    def test_membership_covers_all_fine_nodes(self):
        g = erdos_renyi(100, 6, seed=2)
        level = coarsen(g)
        assert level.membership.shape == (100,)
        assert level.membership.min() >= 0
        assert level.membership.max() == level.num_coarse_nodes - 1
        # each coarse node has 1 or 2 fine members (matching)
        counts = np.bincount(level.membership)
        assert set(counts) <= {1, 2}

    def test_coarse_edges_project_fine_edges(self):
        g = erdos_renyi(60, 5, seed=3)
        level = coarsen(g)
        fine = g.adj.to_dense()
        m = level.membership
        coarse = level.graph.adj.to_dense()
        rows, cols = np.nonzero(fine)
        for r, c in zip(rows, cols):
            if m[r] != m[c]:
                assert coarse[m[r], m[c]] != 0

    def test_no_self_loops_in_coarse_graph(self):
        g = erdos_renyi(80, 6, seed=4)
        level = coarsen(g)
        assert not np.any(level.graph.adj.row_ids() == level.graph.adj.indices)

    def test_pool_matrix_rows_mean(self, rng):
        g = erdos_renyi(50, 5, seed=5)
        level = coarsen(g)
        pool = level.pool_matrix()
        x = rng.standard_normal((50, 3))
        pooled = pool.to_dense() @ x
        for cid in range(level.num_coarse_nodes):
            members = np.flatnonzero(level.membership == cid)
            assert np.allclose(pooled[cid], x[members].mean(axis=0))

    def test_hierarchy_shrinks_monotonically(self):
        g = rmat(512, 16, seed=6)
        hierarchy = coarsen_hierarchy(g, 3)
        sizes = [g.num_nodes] + [lvl.num_coarse_nodes for lvl in hierarchy]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_hierarchy_validates(self):
        with pytest.raises(ValueError):
            coarsen_hierarchy(erdos_renyi(50, 4, seed=7), 0)
        with pytest.raises(ValueError):
            coarsen_hierarchy(path(4), 2, min_nodes=8)

    def test_hierarchy_stops_at_min_nodes(self):
        g = erdos_renyi(64, 5, seed=8)
        hierarchy = coarsen_hierarchy(g, 10, min_nodes=20)
        assert hierarchy[-1].graph.num_nodes <= 40  # stopped early


class TestChangingSparsityExperiment:
    def test_decisions_adapt_across_levels(self):
        from repro.experiments import changing_sparsity

        result = changing_sparsity.run(scale="small", levels=3)
        assert len(result.rows) == 4  # base + 3 levels
        # GRANII never worse than freezing the level-0 decision
        assert result.granii_total <= result.frozen_total + 1e-12
        # and close to per-level hindsight
        assert result.granii_total <= 1.1 * result.optimal_total
        assert "Level" in result.render()
