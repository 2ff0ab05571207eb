"""Gradient-boosted regression trees — the XGBoost stand-in (§IV-E2).

Squared-error boosting: each round fits a shallow regression tree to the
current residuals and adds it with shrinkage.  Row subsampling
(stochastic gradient boosting) and early stopping on a validation split
are supported; this matches how the paper trains one lightweight model
per (primitive, device) pair on profiled data.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from .tree import RegressionTree

__all__ = ["GradientBoostedTrees"]


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
        self._trees: List[RegressionTree] = []
        self._packed: Optional[tuple] = None  # predict_one's arrays, built on demand
        self.best_round_: Optional[int] = None

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
        self._trees = []
        self._packed = None
        pred = np.full(y.shape[0], self._base)
        val_pred = None
        best_val = np.inf
        rounds_since_best = 0
        if eval_set is not None:
            x_val = np.asarray(eval_set[0], dtype=np.float64)
            y_val = np.asarray(eval_set[1], dtype=np.float64)
            val_pred = np.full(y_val.shape[0], self._base)
        for round_idx in range(self.num_rounds):
            residual = y - pred
            if self.subsample < 1.0:
                take = rng.random(x.shape[0]) < self.subsample
                if not take.any():
                    take[rng.integers(0, x.shape[0])] = True
                x_fit, r_fit = x[take], residual[take]
            else:
                x_fit, r_fit = x, residual
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit(x_fit, r_fit)
            self._trees.append(tree)
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
                        self._trees = self._trees[: self.best_round_ + 1]
                        break
        return self

    def predict_one(self, x: np.ndarray) -> float:
        """Fast scalar prediction for a single feature vector.

        All trees descend together, one level per step, over the
        ensemble's nodes stacked in flat arrays (:meth:`_pack`): a cold
        prediction gathers from five compact arrays instead of chasing
        ~500 node objects through memory.  Every comparison is the one
        the tree-by-tree walk makes and the leaves are added left to
        right in tree order, so the result is that walk's float.
        """
        if not self._trees:
            raise RuntimeError("model is not fitted")
        if self._packed is None:
            self._packed = self._pack()
        feature, threshold, left, right, value, at, depth = self._packed
        x = np.asarray(x, dtype=np.float64)
        for _ in range(depth):
            at = np.where(x[feature[at]] <= threshold[at], left[at], right[at])
        total = self._base
        for leaf in (self.learning_rate * value[at]).tolist():
            total += leaf
        return total

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

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[0] == 1:
            return np.array([self.predict_one(x[0])])
        out = np.full(x.shape[0], self._base)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(x)
        return out

    @property
    def num_trees(self) -> int:
        return len(self._trees)

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
        """JSON-serialisable form of the fitted ensemble."""
        return {
            "num_rounds": self.num_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "subsample": self.subsample,
            "seed": self.seed,
            "base": self._base,
            "trees": [tree.to_dict() for tree in self._trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradientBoostedTrees":
        model = cls(
            num_rounds=data["num_rounds"],
            learning_rate=data["learning_rate"],
            max_depth=data["max_depth"],
            min_samples_leaf=data["min_samples_leaf"],
            subsample=data["subsample"],
            seed=data["seed"],
        )
        model._base = data["base"]
        model._trees = [RegressionTree.from_dict(t) for t in data["trees"]]
        return model
