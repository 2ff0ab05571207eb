"""Tests for the regression trees, boosting, and metrics."""

import numpy as np
import pytest

from repro.learn import (
    GradientBoostedTrees,
    RegressionTree,
    mean_absolute_percentage_error,
    r2_score,
    spearman_rank_correlation,
)


class TestRegressionTree:
    def test_fits_step_function_exactly(self):
        x = np.linspace(0, 1, 100)[:, None]
        y = (x[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2).fit(x, y)
        assert np.allclose(tree.predict(x), y)

    def test_depth_zero_predicts_mean(self, rng):
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        tree = RegressionTree(max_depth=0).fit(x, y)
        assert np.allclose(tree.predict(x), y.mean())
        assert tree.depth == 0

    def test_respects_max_depth(self, rng):
        x = rng.standard_normal((200, 4))
        y = rng.standard_normal(200)
        tree = RegressionTree(max_depth=3).fit(x, y)
        assert tree.depth <= 3

    def test_min_samples_leaf(self, rng):
        x = rng.standard_normal((20, 1))
        y = rng.standard_normal(20)
        tree = RegressionTree(max_depth=10, min_samples_leaf=10).fit(x, y)
        assert tree.depth <= 1

    def test_constant_target_no_split(self):
        x = np.arange(10, dtype=float)[:, None]
        y = np.full(10, 3.0)
        tree = RegressionTree(max_depth=5).fit(x, y)
        assert tree.depth == 0
        assert np.allclose(tree.predict([[100.0]]), 3.0)

    def test_duplicate_feature_values_handled(self):
        x = np.zeros((10, 1))
        y = np.arange(10, dtype=float)
        tree = RegressionTree(max_depth=5).fit(x, y)
        assert tree.depth == 0  # no valid split exists

    def test_reduces_error_vs_mean(self, rng):
        x = rng.standard_normal((300, 2))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1]
        tree = RegressionTree(max_depth=5).fit(x, y)
        assert r2_score(y, tree.predict(x)) > 0.8

    def test_validation_errors(self, rng):
        tree = RegressionTree()
        with pytest.raises(ValueError):
            tree.fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            tree.fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.ones((1, 2)))
        with pytest.raises(ValueError):
            RegressionTree(max_depth=-1)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)

    def test_feature_importances(self, rng):
        x = rng.standard_normal((300, 3))
        y = x[:, 1] * 10  # only feature 1 matters
        tree = RegressionTree(max_depth=4).fit(x, y)
        imp = tree.feature_importances(3)
        assert imp[1] == max(imp)
        assert imp.sum() == pytest.approx(1.0)


class TestGradientBoosting:
    def test_outperforms_single_tree(self, rng):
        x = rng.uniform(-2, 2, size=(400, 2))
        y = np.sin(2 * x[:, 0]) * np.cos(x[:, 1]) + 0.05 * rng.standard_normal(400)
        single = RegressionTree(max_depth=3).fit(x, y)
        boosted = GradientBoostedTrees(num_rounds=100, max_depth=3).fit(x, y)
        assert r2_score(y, boosted.predict(x)) > r2_score(y, single.predict(x))

    def test_generalizes(self, rng):
        x = rng.uniform(-2, 2, size=(600, 2))
        y = x[:, 0] ** 2 + x[:, 1]
        model = GradientBoostedTrees(num_rounds=80, max_depth=3).fit(x[:400], y[:400])
        assert r2_score(y[400:], model.predict(x[400:])) > 0.9

    def test_early_stopping_truncates(self, rng):
        x = rng.standard_normal((300, 2))
        y = x[:, 0] + 0.01 * rng.standard_normal(300)
        model = GradientBoostedTrees(
            num_rounds=300, max_depth=2, early_stopping_rounds=5
        ).fit(x[:200], y[:200], eval_set=(x[200:], y[200:]))
        assert model.num_trees < 300
        assert model.best_round_ is not None

    def test_subsample_deterministic_with_seed(self, rng):
        x = rng.standard_normal((200, 2))
        y = x[:, 0] * 2
        m1 = GradientBoostedTrees(num_rounds=20, subsample=0.7, seed=5).fit(x, y)
        m2 = GradientBoostedTrees(num_rounds=20, subsample=0.7, seed=5).fit(x, y)
        assert np.allclose(m1.predict(x), m2.predict(x))

    def test_predict_one_follows_a_refit(self, rng):
        """The packed arrays ``predict_one`` descends belong to one fit."""
        x = rng.standard_normal((200, 3))
        model = GradientBoostedTrees(num_rounds=15, max_depth=3).fit(x, x[:, 0])
        assert model.predict_one(x[0]) == pytest.approx(model.predict(x[:2])[0])
        model.fit(x, -5 * x[:, 1])
        assert model.predict_one(x[0]) == pytest.approx(model.predict(x[:2])[0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(num_rounds=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=1.5)
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.ones((1, 2)))

    def test_feature_importances_identify_signal(self, rng):
        x = rng.standard_normal((400, 4))
        y = 5 * x[:, 2]
        model = GradientBoostedTrees(num_rounds=30, max_depth=2).fit(x, y)
        imp = model.feature_importances(4)
        assert np.argmax(imp) == 2


class TestMetrics:
    def test_r2_perfect_and_mean(self, rng):
        y = rng.standard_normal(50)
        assert r2_score(y, y) == pytest.approx(1.0)
        assert r2_score(y, np.full(50, y.mean())) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        y = np.full(10, 2.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1) == 0.0

    def test_mape(self):
        assert mean_absolute_percentage_error([2.0, 4.0], [1.0, 4.0]) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([0.0], [1.0])

    def test_spearman_monotone(self, rng):
        x = rng.standard_normal(100)
        assert spearman_rank_correlation(x, np.exp(x)) == pytest.approx(1.0)
        assert spearman_rank_correlation(x, -x) == pytest.approx(-1.0)

    def test_spearman_validation(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            spearman_rank_correlation(np.ones(1), np.ones(1))
