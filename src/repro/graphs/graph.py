"""The Graph container consumed by models and by GRANII's runtime."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sparse import CSRMatrix, is_symmetric_pattern

__all__ = ["Graph"]


class Graph:
    """An (optionally weighted) graph over a square adjacency matrix.

    The adjacency convention matches the kernels: ``adj[i, j]`` stored means
    an edge from source ``j`` to destination ``i``, so ``adj @ X`` aggregates
    neighbor features at each destination.  For the undirected evaluation
    graphs the distinction is moot (the pattern is symmetric).
    """

    def __init__(
        self,
        adj: CSRMatrix,
        name: str = "graph",
        node_features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
    ) -> None:
        if adj.shape[0] != adj.shape[1]:
            raise ValueError("graph adjacency must be square")
        self.adj = adj
        self.name = name
        self.node_features = node_features
        self.labels = labels
        self._with_loops: Optional[CSRMatrix] = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adj.shape[0]

    @property
    def num_edges(self) -> int:
        return self.adj.nnz

    @property
    def density(self) -> float:
        return self.adj.density

    @property
    def avg_degree(self) -> float:
        return self.num_edges / self.num_nodes if self.num_nodes else 0.0

    def degrees(self) -> np.ndarray:
        return self.adj.row_degrees()

    def is_undirected(self) -> bool:
        return is_symmetric_pattern(self.adj)

    def adj_with_self_loops(self) -> CSRMatrix:
        """Ã = A + I, cached — every evaluated model starts from this."""
        if self._with_loops is None:
            self._with_loops = self.adj.add_self_loops()
        return self._with_loops

    def num_edges_with_self_loops(self) -> int:
        """``adj_with_self_loops().nnz``: read off Ã when this graph holds
        it, otherwise counted once per pattern without building it
        (:meth:`CSRMatrix.nnz_with_self_loops`)."""
        if self._with_loops is not None:
            return self._with_loops.nnz
        return self.adj.nnz_with_self_loops()

    # ------------------------------------------------------------------
    def with_features(
        self, node_features: np.ndarray, labels: Optional[np.ndarray] = None
    ) -> "Graph":
        """A copy of this graph carrying node features (and labels)."""
        node_features = np.asarray(node_features, dtype=np.float64)
        if node_features.shape[0] != self.num_nodes:
            raise ValueError("one feature row per node required")
        out = Graph(self.adj, self.name, node_features, labels)
        out._with_loops = self._with_loops
        return out

    def induced_subgraph(self, nodes: np.ndarray, name: Optional[str] = None) -> "Graph":
        """Node-induced subgraph (used by Figure 9's sampling study)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        sub_adj = self.adj.submatrix(nodes, nodes)
        feats = None if self.node_features is None else self.node_features[nodes]
        labels = None if self.labels is None else self.labels[nodes]
        return Graph(sub_adj, name or f"{self.name}[{nodes.shape[0]}]", feats, labels)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Graph({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, density={self.density:.2e})"
        )
