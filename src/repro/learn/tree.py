"""Regression trees with exact greedy splitting.

The building block of the gradient-boosted cost models (paper §IV-E2 uses
XGBoost; we implement the same additive-tree model class from scratch).
Splits minimise the sum of squared errors; the search is vectorised via
per-feature prefix sums over one stable sort per feature, made once per
fit and filtered down to each node (XGBoost's pre-sorted column blocks,
Chen & Guestrin 2016 §4.1), so a node costs O(features · n).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["COLUMNS", "RegressionTree", "sort_columns"]

# A saved tree: one list per node field, node ``i`` at position ``i``.
COLUMNS = ("feature", "threshold", "value", "left", "right")


def sort_columns(x: np.ndarray) -> np.ndarray:
    """Row ``f``: the row indices of ``x`` in stable ascending order of
    column ``f``."""
    return np.argsort(x, axis=0, kind="stable").T


class RegressionTree:
    """A CART-style regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum samples on each side of a split.
    min_gain:
        Minimum SSE reduction for a split to be accepted, as a fraction
        of the node's total SSE (scale-invariant, so targets spanning
        tiny ranges still split exactly).
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
        min_gain: float = 1e-12,
    ) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        # the tree as five node columns (:data:`COLUMNS`); a leaf has
        # feature -1 and children -1
        self._feature: List[int] = []
        self._threshold: List[float] = []
        self._value: List[float] = []
        self._left: List[int] = []
        self._right: List[int] = []

    def columns(self) -> Tuple[List, ...]:
        """The tree as five per-field lists, in :data:`COLUMNS` order."""
        return (self._feature, self._threshold, self._value, self._left, self._right)

    # ------------------------------------------------------------------
    def _best_split(self, x: np.ndarray, y: np.ndarray, rows, orders):
        """Best (feature, threshold, gain) over all features, or None.

        ``rows`` are the node's sample indices, ascending; row ``f`` of
        ``orders`` holds the same indices in a stable ascending order of
        feature ``f`` (the fit's one sort, filtered down to this node).
        Every feature is scanned at once, one row each.
        """
        n = rows.shape[0]
        node_y = y[rows]
        total_sum = node_y.sum()
        total_sse = ((node_y - total_sum / n) ** 2).sum()
        min_leaf = self.min_samples_leaf
        xs = x[orders, np.arange(orders.shape[0])[:, None]]
        ys = y[orders]
        # prefix sums along each row add left to right, as a 1-D cumsum
        prefix = np.cumsum(ys, axis=1)
        prefix_sq = np.cumsum(ys ** 2, axis=1)
        # candidate split after position i (left = [0..i])
        counts = np.arange(1, n)
        left_sum = prefix[:, :-1]
        left_sq = prefix_sq[:, :-1]
        right_sum = total_sum - left_sum
        right_sq = prefix_sq[:, -1:] - left_sq
        left_sse = left_sq - left_sum ** 2 / counts
        right_sse = right_sq - right_sum ** 2 / (n - counts)
        gain = total_sse - (left_sse + right_sse)
        # a split is only valid between distinct feature values and with
        # enough samples on both sides
        valid = (xs[:, 1:] != xs[:, :-1]) & (counts >= min_leaf) & ((n - counts) >= min_leaf)
        gain = np.where(valid, gain, -np.inf)
        at = np.argmax(gain, axis=1)
        best_gain = gain[np.arange(gain.shape[0]), at]
        # relative threshold: a degenerate-scale target (all values
        # within float-epsilon of each other) still gets its exact
        # split, while float noise on a constant target does not
        gain_floor = max(self.min_gain * total_sse, 1e-18)
        usable = valid.any(axis=1) & (best_gain > gain_floor)
        if not usable.any():
            return None
        # the first feature of the highest gain, as a scan keeping only a
        # strictly better one would find
        f = int(np.argmax(np.where(usable, best_gain, -np.inf)))
        i = int(at[f])
        threshold = 0.5 * (xs[f, i] + xs[f, i + 1])
        return f, float(threshold), float(best_gain[f])

    def _build(self, x: np.ndarray, y: np.ndarray, rows, orders, depth: int) -> int:
        node_id = len(self._value)
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._value.append(float(y[rows].mean()))
        self._left.append(-1)
        self._right.append(-1)
        if depth >= self.max_depth or rows.shape[0] < 2 * self.min_samples_leaf:
            return node_id
        split = self._best_split(x, y, rows, orders)
        if split is None:
            return node_id
        feature, threshold, _ = split
        # filtering a stable order by a mask gives the subset's own stable
        # order, so each child sums the same floats in the same order as a
        # fresh sort of its rows would; every row of ``orders`` keeps the
        # same number of entries, so the filtered rows stay a matrix
        goes_left = np.zeros(x.shape[0], dtype=bool)
        goes_left[rows] = x[rows, feature] <= threshold
        children = []
        for side in (goes_left, ~goes_left):
            kept = rows[side[rows]]
            children.append((kept, orders[side[orders]].reshape(len(orders), -1)))
        left = self._build(x, y, *children[0], depth + 1)
        right = self._build(x, y, *children[1], depth + 1)
        self._feature[node_id] = feature
        self._threshold[node_id] = threshold
        self._left[node_id] = left
        self._right[node_id] = right
        return node_id

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray, rows=None, orders=None) -> "RegressionTree":
        """Fit to ``x[rows]``, ``y[rows]`` (all rows by default).

        ``orders`` is :func:`sort_columns` of ``x``, for a caller that
        fits many trees on subsets of one ``x``; each column is sorted
        once per fit either way, never again per node.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be (n, d) and y (n,)")
        if orders is None:
            orders = sort_columns(x)
        if rows is None:
            rows = np.arange(x.shape[0])
        else:
            member = np.zeros(x.shape[0], dtype=bool)
            member[rows] = True
            orders = orders[member[orders]].reshape(len(orders), -1)
        if rows.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        (self._feature, self._threshold, self._value, self._left,
         self._right) = [], [], [], [], []
        self._build(x, y, rows, orders, depth=0)
        return self

    def predict_one(self, x: np.ndarray) -> float:
        """Fast scalar prediction for a single feature vector."""
        feature, threshold, _, left, right = self.columns()
        if not feature:
            raise RuntimeError("tree is not fitted")
        i = 0
        while feature[i] >= 0:
            i = left[i] if x[feature[i]] <= threshold[i] else right[i]
        return self._value[i]

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._feature:
            raise RuntimeError("tree is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[0] == 1:
            return np.array([self.predict_one(x[0])])
        feature = np.asarray(self._feature, dtype=np.int64)
        threshold = np.asarray(self._threshold, dtype=np.float64)
        left = np.asarray(self._left, dtype=np.int64)
        right = np.asarray(self._right, dtype=np.int64)
        # iterative routing, vectorised level by level
        idx = np.zeros(x.shape[0], dtype=np.int64)
        active = np.arange(x.shape[0])
        while active.size:
            active = active[feature[idx[active]] >= 0]
            at = idx[active]
            go_left = x[active, feature[at]] <= threshold[at]
            idx[active] = np.where(go_left, left[at], right[at])
        return np.asarray(self._value, dtype=np.float64)[idx]

    @property
    def num_nodes(self) -> int:
        return len(self._value)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if not self._feature:
            return 0
        feature, _, _, left, right = self.columns()

        def walk(i: int) -> int:
            if feature[i] < 0:
                return 0
            return 1 + max(walk(left[i]), walk(right[i]))

        return walk(0)

    def feature_importances(self, num_features: int) -> np.ndarray:
        """Split counts per feature (a cheap importance proxy)."""
        counts = np.zeros(num_features)
        for f in self._feature:
            if f >= 0:
                counts[f] += 1
        total = counts.sum()
        return counts / total if total else counts

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form of the fitted tree: its hyper-parameters
        plus the five node columns (:data:`COLUMNS`)."""
        data = {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_gain": self.min_gain,
        }
        data.update((name, list(c)) for name, c in zip(COLUMNS, self.columns()))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionTree":
        return cls.from_columns(
            [data[name] for name in COLUMNS],
            max_depth=data["max_depth"],
            min_samples_leaf=data["min_samples_leaf"],
            min_gain=data["min_gain"],
        )

    @classmethod
    def from_columns(cls, columns, **params) -> "RegressionTree":
        """A fitted tree from its five node columns (:data:`COLUMNS`
        order); ``params`` are the constructor's."""
        tree = cls(**params)
        columns = [list(c) for c in columns]
        if len({len(c) for c in columns}) != 1:
            raise ValueError("tree columns differ in length")
        (tree._feature, tree._threshold, tree._value, tree._left,
         tree._right) = columns
        return tree
