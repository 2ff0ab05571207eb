"""Gradient-boosted regression trees — the XGBoost stand-in (§IV-E2).

Squared-error boosting: each round fits a shallow regression tree to the
current residuals and adds it with shrinkage.  Row subsampling
(stochastic gradient boosting) and early stopping on a validation split
are supported; this matches how the paper trains one lightweight model
per (primitive, device) pair on profiled data.
"""

from __future__ import annotations

import base64
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tree import RegressionTree, sort_columns

__all__ = ["Forest", "GradientBoostedTrees", "PACKED", "descend"]

# The ensemble's node columns as :func:`descend` reads them (all trees
# stacked, children as indices from the ensemble's first node, a leaf
# pointing at itself), with the little-endian dtype each saves as.
PACKED = (
    ("feature", "<i8"),
    ("threshold", "<f8"),
    ("left", "<i8"),
    ("right", "<i8"),
    ("value", "<f8"),
)


def _encode(array: np.ndarray, dtype: str) -> str:
    """Raw array bytes as JSON-safe text: floats survive bit for bit."""
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype).tobytes()).decode()


def _decode(text: str, dtype: str) -> np.ndarray:
    """A read-only array over the decoded bytes (no copy)."""
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


def descend(nodes, x, at, offset, depth: int) -> np.ndarray:
    """The leaf each (row, tree) pair of a batch reaches.

    ``nodes`` is ``(feature, threshold, left, right)`` of packed
    ensembles (:data:`PACKED`); ``at`` holds each row's tree roots,
    ``offset`` where each row's ensemble starts in ``nodes`` (children
    are indices from there) and ``x`` each row's features.  All trees
    descend together, one level per step, for ``depth`` levels; a leaf
    points at itself, so a shallower tree idles at its leaf.  Every
    comparison is the one the tree-by-tree walk makes.  Returns the
    leaves' positions in ``nodes``, shaped like ``at``.
    """
    feature, threshold, left, right = nodes
    shape = at.shape
    # per pair: where its row starts in flat x, and its ensemble in nodes
    row_start = np.repeat(np.arange(shape[0]) * x.shape[1], shape[1])
    x = np.ascontiguousarray(x).ravel()
    offset = np.broadcast_to(offset, shape).ravel()
    at = at.ravel() + offset
    for _ in range(depth):
        go_left = x.take(row_start + feature.take(at)) <= threshold.take(at)
        at = np.where(go_left, left.take(at), right.take(at))
        at += offset
    return at.reshape(shape)


def _leaf_sums(value, leaves, rate, base, count) -> np.ndarray:
    """Per row, ``base`` plus ``rate ·`` each of its first ``count``
    trees' leaves, added left to right in tree order."""
    terms = np.empty((leaves.shape[0], leaves.shape[1] + 1))
    terms[:, 0] = base
    np.multiply(rate, value[leaves], out=terms[:, 1:])
    return terms.cumsum(axis=1)[np.arange(leaves.shape[0]), count]


class GradientBoostedTrees:
    """An additive ensemble of regression trees for least-squares regression."""

    def __init__(
        self,
        num_rounds: int = 150,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
        subsample: float = 1.0,
        early_stopping_rounds: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.early_stopping_rounds = early_stopping_rounds
        self.seed = seed
        self._base: float = 0.0
        # the fitted trees, or None for a loaded model until something
        # asks for them (:attr:`_trees`); predict_one's packed arrays,
        # built on demand from the trees or read straight from a file
        self._tree_list: Optional[List[RegressionTree]] = []
        self._packed: Optional[tuple] = None
        self.best_round_: Optional[int] = None

    @property
    def _trees(self) -> List[RegressionTree]:
        """The ensemble's trees, in boosting order (a loaded model unpacks
        them from its packed columns on first use)."""
        if self._tree_list is None:
            self._tree_list = self._unpack()
        return self._tree_list

    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        eval_set: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be (n, d) and y (n,)")
        rng = np.random.default_rng(self.seed)
        self._base = float(y.mean())
        trees: List[RegressionTree] = []
        self._tree_list = trees
        self._packed = None
        pred = np.full(y.shape[0], self._base)
        val_pred = None
        best_val = np.inf
        rounds_since_best = 0
        if eval_set is not None:
            x_val = np.asarray(eval_set[0], dtype=np.float64)
            y_val = np.asarray(eval_set[1], dtype=np.float64)
            val_pred = np.full(y_val.shape[0], self._base)
        # x is the same every round and a subsample only a mask: its
        # columns are sorted once for the whole ensemble
        orders = sort_columns(x)
        for round_idx in range(self.num_rounds):
            residual = y - pred
            rows = None
            if self.subsample < 1.0:
                take = rng.random(x.shape[0]) < self.subsample
                if not take.any():
                    take[rng.integers(0, x.shape[0])] = True
                rows = np.flatnonzero(take)
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit(x, residual, rows=rows, orders=orders)
            trees.append(tree)
            pred += self.learning_rate * tree.predict(x)
            if eval_set is not None and self.early_stopping_rounds:
                val_pred += self.learning_rate * tree.predict(x_val)
                val_mse = float(((y_val - val_pred) ** 2).mean())
                if val_mse < best_val - 1e-15:
                    best_val = val_mse
                    self.best_round_ = round_idx
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        del trees[self.best_round_ + 1 :]
                        break
        return self

    def predict_one(self, x: np.ndarray) -> float:
        """Scalar prediction for a single feature vector: :meth:`predict`
        of one row."""
        return float(self.predict(x)[0])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """One prediction per row of ``x``.

        The rows descend every tree together over the ensemble's nodes
        stacked in flat arrays (:meth:`_pack`, :func:`descend`) and the
        leaves are added left to right in tree order, so each result is
        the tree-by-tree walk's float.  A loaded model builds no tree.
        """
        if self.num_trees == 0:
            raise RuntimeError("model is not fitted")
        feature, threshold, left, right, value, roots, depth = self._packed_arrays()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        at = np.broadcast_to(roots, (x.shape[0], roots.shape[0]))
        leaves = descend((feature, threshold, left, right), x, at, 0, depth)
        return _leaf_sums(
            value, leaves, self.learning_rate, self._base, roots.shape[0]
        )

    def _packed_arrays(self) -> tuple:
        if self._packed is None:
            if not self._trees:
                raise RuntimeError("model is not fitted")
            self._packed = self._pack()
        return self._packed

    def _pack(self) -> tuple:
        """``(feature, threshold, left, right, value, roots, depth)``.

        Node ``i`` of tree ``t`` sits at ``roots[t] + i``.  A leaf points
        at itself (and tests feature 0, which then decides nothing), so
        trees shallower than ``depth`` idle at their leaf.
        """
        columns = [tree.columns() for tree in self._trees]
        sizes = [len(c[0]) for c in columns]
        total = sum(sizes)

        def stacked(field: int, dtype) -> np.ndarray:
            values = chain.from_iterable(c[field] for c in columns)
            return np.fromiter(values, dtype=dtype, count=total)

        raw_feature = stacked(0, np.int64)
        threshold = stacked(1, np.float64)
        value = stacked(2, np.float64)
        roots = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        first = np.repeat(roots, sizes)
        leaf = raw_feature < 0
        itself = np.arange(total, dtype=np.int64)
        left = np.where(leaf, itself, first + stacked(3, np.int64))
        right = np.where(leaf, itself, first + stacked(4, np.int64))
        # the deepest tree: descend every tree's internal nodes level by level
        depth, at = 0, roots[~leaf[roots]]
        while at.size:
            depth += 1
            at = np.concatenate([left[at], right[at]])
            at = at[~leaf[at]]
        return (
            np.where(leaf, 0, raw_feature), threshold, left, right, value,
            roots, depth,
        )

    def _unpack(self) -> List[RegressionTree]:
        """The trees :meth:`_pack` stacked, as separate node columns."""
        feature, threshold, left, right, value, roots, _ = self._packed
        total = len(feature)
        sizes = np.diff(np.append(roots, total))
        first = np.repeat(roots, sizes)
        leaf = left == np.arange(total)
        columns = (  # in the tree's own COLUMNS order
            np.where(leaf, -1, feature),
            threshold,
            value,
            np.where(leaf, -1, left - first),
            np.where(leaf, -1, right - first),
        )
        return [
            RegressionTree.from_columns(
                [c[a:a + n].tolist() for c in columns],
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )
            for a, n in zip(roots.tolist(), sizes.tolist())
        ]

    @property
    def num_trees(self) -> int:
        if self._tree_list is None:
            return len(self._packed[5])
        return len(self._tree_list)

    def feature_importances(self, num_features: int) -> np.ndarray:
        """Normalised split-count importances across the ensemble."""
        total = np.zeros(num_features)
        for tree in self._trees:
            total += tree.feature_importances(num_features) * tree.num_nodes
        s = total.sum()
        return total / s if s else total

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form of the fitted ensemble: hyper-parameters,
        base, and :meth:`predict_one`'s packed arrays — the node columns
        (:data:`PACKED`) and per-tree offsets as raw little-endian bytes
        (base64), plus the descent depth."""
        packed = self._packed_arrays()
        data = {
            "num_rounds": self.num_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "subsample": self.subsample,
            "seed": self.seed,
            "base": self._base,
        }
        data["nodes"] = {
            name: _encode(column, dtype)
            for (name, dtype), column in zip(PACKED, packed)
        }
        data["roots"] = _encode(packed[5], "<i8")
        data["depth"] = packed[6]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GradientBoostedTrees":
        """Rebuild an ensemble saved by :meth:`to_dict`: the packed arrays
        are decoded as saved, with no per-tree objects."""
        model = cls(
            num_rounds=data["num_rounds"],
            learning_rate=data["learning_rate"],
            max_depth=data["max_depth"],
            min_samples_leaf=data["min_samples_leaf"],
            subsample=data["subsample"],
            seed=data["seed"],
        )
        model._base = data["base"]
        nodes = data["nodes"]
        columns = [_decode(nodes[name], dtype) for name, dtype in PACKED]
        roots = _decode(data["roots"], "<i8")
        total = len(columns[0])
        if (
            any(len(c) != total for c in columns)
            or not len(roots)
            or roots[0] != 0
            or np.any(np.diff(roots) <= 0)
            or roots[-1] >= total
        ):
            raise ValueError("packed tree columns are inconsistent")
        model._tree_list = None
        model._packed = (*columns, roots, int(data["depth"]))
        return model


class Forest:
    """Several fitted ensembles' packed node columns stacked into one set
    of arrays, so rows priced by different ensembles descend together
    (:meth:`predict`).

    Each ensemble's own packed columns become read-only views of the
    stack (its children stay indices from its own first node), so the
    stack costs no second copy and :meth:`GradientBoostedTrees.predict`
    reads the same bytes.  Refitting a stacked ensemble leaves the stack
    as it was.
    """

    def __init__(self, models: Sequence[GradientBoostedTrees]) -> None:
        packed = [model._packed_arrays() for model in models]
        sizes = [len(p[0]) for p in packed]
        starts = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        columns = []
        for i, (_, dtype) in enumerate(PACKED):
            column = np.concatenate(
                [p[i] for p in packed] or [np.empty(0, dtype=dtype)]
            )
            column.flags.writeable = False
            columns.append(column)
        for model, p, start, size in zip(models, packed, starts.tolist(), sizes):
            model._packed = (
                *(c[start:start + size] for c in columns), p[5], p[6]
            )
        self._nodes = tuple(columns[:4])
        self._value = columns[4]
        self._start = starts[:, None]
        counts = [len(p[5]) for p in packed]
        # each ensemble's roots, right-padded with its first root
        self._roots = np.zeros((len(packed), max(counts, default=0)), dtype=np.int64)
        for row, p in zip(self._roots, packed):
            row[:len(p[5])] = p[5]
        self._count = np.array(counts, dtype=np.int64)
        self._depth = np.array([p[6] for p in packed], dtype=np.int64)
        self._rate = np.array([m.learning_rate for m in models], dtype=np.float64)
        self._base = np.array([m._base for m in models], dtype=np.float64)

    def predict(self, which: Sequence[int], x: np.ndarray) -> np.ndarray:
        """Row ``i`` of ``x`` predicted by ensemble ``which[i]``, every
        row in one descent: each value is that ensemble's
        :meth:`GradientBoostedTrees.predict` of the row, bit for bit."""
        which = np.asarray(which, dtype=np.intp)
        count = self._count[which]
        leaves = descend(
            self._nodes, x, self._roots[which, :count.max()],
            self._start[which], int(self._depth[which].max()),
        )
        return _leaf_sums(
            self._value, leaves, self._rate[which, None], self._base[which], count
        )
