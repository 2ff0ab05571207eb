"""Tests for node and neighborhood sampling."""

import numpy as np

from repro.graphs import (
    erdos_renyi,
    neighbor_sample,
    rmat,
    sample_blocks,
    sample_nodes,
)


class TestSampleNodes:
    def test_size_and_structure(self, rng):
        g = erdos_renyi(200, 10, seed=5)
        sub = sample_nodes(g, 50, rng)
        assert sub.num_nodes == 50
        assert sub.is_undirected()

    def test_size_clamped(self, rng):
        g = erdos_renyi(20, 4, seed=5)
        sub = sample_nodes(g, 100, rng)
        assert sub.num_nodes == 20

    def test_subgraph_edges_exist_in_parent(self, rng):
        g = erdos_renyi(60, 8, seed=6)
        nodes = np.sort(rng.choice(60, size=25, replace=False))
        sub = g.induced_subgraph(nodes)
        parent = g.adj.to_dense()
        child = sub.adj.to_dense()
        assert np.array_equal(child, parent[np.ix_(nodes, nodes)])


class TestNeighborSample:
    def test_fanout_respected(self, rng):
        g = rmat(256, 30, seed=7)
        seeds = rng.choice(256, size=32, replace=False)
        block = neighbor_sample(g.adj, seeds, fanout=5, rng=rng)
        assert block.shape == (32, 256)
        assert np.all(block.row_degrees() <= 5)

    def test_small_neighborhoods_kept_whole(self, rng):
        g = erdos_renyi(100, 3, seed=8)
        seeds = np.arange(10)
        block = neighbor_sample(g.adj, seeds, fanout=1000, rng=rng)
        assert np.array_equal(
            block.row_degrees(), g.adj.row_degrees()[:10]
        )

    def test_sampled_edges_are_real(self, rng):
        g = erdos_renyi(80, 6, seed=9)
        seeds = np.arange(20)
        block = neighbor_sample(g.adj, seeds, fanout=3, rng=rng)
        dense = g.adj.to_dense()
        rows, cols, _ = block.to_coo()
        for r, c in zip(rows, cols):
            assert dense[seeds[r], c] != 0


class TestSampleBlocks:
    def test_block_chain_shapes(self, rng):
        g = rmat(256, 20, seed=10)
        seeds = rng.choice(256, size=16, replace=False)
        blocks = sample_blocks(g, seeds, fanouts=[10, 5], rng=rng)
        assert len(blocks) == 2
        # Innermost (first executed) block produces the layer-1 inputs.
        assert blocks[-1].adj.shape[0] == 16
        assert np.array_equal(blocks[-1].output_nodes, seeds)
        # Chaining: layer 0's outputs are layer 1's inputs.
        assert blocks[0].adj.shape[0] == blocks[1].adj.shape[1]
        assert np.array_equal(blocks[0].output_nodes, blocks[1].input_nodes)

    def test_seeds_present_in_inputs(self, rng):
        g = rmat(128, 10, seed=11)
        seeds = np.array([3, 77])
        blocks = sample_blocks(g, seeds, fanouts=[4], rng=rng)
        assert set(seeds) <= set(blocks[0].input_nodes)

    def test_remapped_indices_in_range(self, rng):
        g = rmat(128, 16, seed=12)
        seeds = rng.choice(128, size=8, replace=False)
        for block in sample_blocks(g, seeds, fanouts=[6, 6], rng=rng):
            if block.adj.nnz:
                assert block.adj.indices.min() >= 0
                assert block.adj.indices.max() < block.adj.shape[1]
