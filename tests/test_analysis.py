"""From-scratch classifiers and the Table 1 pipeline."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import (
    FEATURE_NAMES,
    FEATURE_SUBSETS,
    DecisionTreeClassifier,
    LogisticRegression,
    generate_dataset,
    run_scenario,
    table1,
)
from repro.apps import build_app


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n // 2, 2))
    X1 = rng.normal(5.0, 1.0, size=(n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    return X, y


class TestDecisionTree:
    def test_fits_separable(self):
        X, y = separable_data()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.score(X, y) >= 0.99

    def test_depth_limit(self):
        X, y = separable_data()
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_constant_labels_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        y = np.ones(50, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth() == 0
        assert np.all(tree.predict(X) == 1)

    def test_predict_proba_bounds(self):
        X, y = separable_data()
        tree = DecisionTreeClassifier().fit(X, y)
        proba = tree.predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_validation(self):
        tree = DecisionTreeClassifier()
        with pytest.raises(RuntimeError):
            tree.predict(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((3, 2)), np.array([0, 1, 2]))  # non-binary
        with pytest.raises(ValueError):
            tree.fit(np.zeros(3), np.array([0, 1, 0]))  # 1-D X
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)

    def test_predict_shape_check(self):
        X, y = separable_data()
        tree = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((4, 5)))

    @given(
        n=st.integers(min_value=12, max_value=60),
        shift=st.floats(min_value=3.0, max_value=10.0),
    )
    @example(n=53, shift=3.0)  # overlapping clouds before they were clipped
    @settings(max_examples=20, deadline=None)
    def test_separable_always_learned(self, n, shift):
        rng = np.random.default_rng(n)
        # Each cloud is clipped to within 1.25 of its centre, so for any
        # shift >= 3.0 the classes sit at least 0.5 apart: separable by
        # construction, never by luck of the draw.
        X = np.vstack([
            np.clip(rng.normal(0, 0.5, (n, 1)), -1.25, 1.25),
            np.clip(rng.normal(shift, 0.5, (n, 1)), shift - 1.25, shift + 1.25),
        ])
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        tree = DecisionTreeClassifier(max_depth=2, min_samples_leaf=1).fit(X, y)
        assert tree.score(X, y) == 1.0


class TestLogisticRegression:
    def test_fits_separable(self):
        X, y = separable_data()
        clf = LogisticRegression().fit(X, y)
        assert clf.score(X, y) >= 0.98

    def test_proba_bounds(self):
        X, y = separable_data()
        clf = LogisticRegression().fit(X, y)
        p = clf.predict_proba(X)
        assert np.all((p > 0) & (p < 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression(learning_rate=0.0)
        clf = LogisticRegression()
        with pytest.raises(RuntimeError):
            clf.predict(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((3, 2)), np.array([0.0, 0.5, 1.0]))

    def test_constant_feature_no_nan(self):
        X = np.ones((40, 2))
        X[:20, 0] = 0.0
        y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
        clf = LogisticRegression().fit(X, y)
        assert np.isfinite(clf.predict_proba(X)).all()


class TestDataset:
    def test_shapes_and_labels(self):
        app = build_app("sockshop")
        data = generate_dataset(app, ("carts",), n_intervals=20, seed=0)
        assert data.X.shape == (20 * app.n_services, len(FEATURE_NAMES))
        assert set(np.unique(data.y)) <= {0, 1}
        assert data.y.sum() > 0  # some positives

    def test_split(self):
        app = build_app("sockshop")
        data = generate_dataset(app, ("carts",), n_intervals=20, seed=0)
        X_tr, y_tr, X_te, y_te = data.split(test_fraction=0.25, seed=1)
        assert X_tr.shape[0] + X_te.shape[0] == data.X.shape[0]
        assert X_te.shape[0] == pytest.approx(0.25 * data.X.shape[0], abs=1)

    def test_validation(self):
        app = build_app("sockshop")
        with pytest.raises(ValueError):
            generate_dataset(app, ("zzz",), n_intervals=5)
        with pytest.raises(ValueError):
            generate_dataset(app, (), n_intervals=5)
        data = generate_dataset(app, ("carts",), n_intervals=5)
        with pytest.raises(ValueError):
            data.split(test_fraction=1.5)


class TestTable1:
    def test_scenario_beats_majority_baseline(self):
        result = run_scenario("sockshop", ("carts",), n_intervals=60, seed=0)
        # Majority class (not-bottleneck) would score ~(1 - 1/13 * 0.5).
        assert result.accuracy > 0.96

    def test_util_throttle_among_best_subsets(self):
        result = run_scenario(
            "sockshop", ("carts", "orders"), n_intervals=60, seed=1,
            compare_subsets=True,
        )
        accs = result.subset_accuracies
        assert accs["util+throttle"] >= accs["memory"] - 1e-9
        assert accs["util+throttle"] >= 0.95

    def test_all_rows_accurate(self):
        rows = table1(n_intervals=40, seed=0)
        assert len(rows) == 6
        for row in rows:
            assert row.accuracy >= 0.90  # paper band: 94-100%

    def test_unknown_subset(self):
        with pytest.raises(KeyError):
            run_scenario("sockshop", ("carts",), feature_subset="zzz")

    def test_feature_subset_indices_valid(self):
        for cols in FEATURE_SUBSETS.values():
            assert all(0 <= c < len(FEATURE_NAMES) for c in cols)


class TestDESDataset:
    def test_des_dataset_shapes_and_learnability(self):
        """Real-span features from the DES still separate bottlenecked
        services (smaller but higher-fidelity study)."""
        from repro.analysis import generate_dataset_des

        app = build_app("sockshop")
        data = generate_dataset_des(
            app, ("carts",), workload_rps=150.0, n_intervals=12,
            sim_seconds=3.0, seed=2,
        )
        assert data.X.shape == (12 * app.n_services, len(FEATURE_NAMES))
        assert data.y.sum() > 0
        X_tr, y_tr, X_te, y_te = data.split(seed=3)
        tree = DecisionTreeClassifier(max_depth=4)
        tree.fit(X_tr[:, (0, 1)], y_tr)  # util + throttle
        # Beats always-negative by an observable margin.
        baseline = 1.0 - y_te.mean()
        assert tree.score(X_te[:, (0, 1)], y_te) >= baseline - 1e-9

    def test_des_dataset_validation(self):
        from repro.analysis import generate_dataset_des

        app = build_app("sockshop")
        with pytest.raises(ValueError):
            generate_dataset_des(app, ("zzz",), n_intervals=2)
        with pytest.raises(ValueError):
            generate_dataset_des(app, (), n_intervals=2)
