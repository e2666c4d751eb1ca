import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from injurycast.errors import EmptyNode, EmptyTable, MissingFeature
from injurycast.learners import default_grid
from injurycast.resampling import ResamplingConfig, adasyn
from injurycast.tree import DecisionTreeModel, TreeHyperParams, fit_tree, gini

from conftest import planted_table, rand_table


def _reference_split(values, ones, min_leaf):
    """Best (threshold, weighted child impurity) for one feature via a sorted sweep.

    Returns (None, None) when no valid split exists.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = ones[order]
    cum_pos = np.cumsum(sy)

    sizes_l = np.arange(1, n)  # left child takes the first i elements
    valid = (sv[:-1] < sv[1:]) & (sizes_l >= min_leaf) & (n - sizes_l >= min_leaf)
    if not np.any(valid):
        return None, None
    pos_l = cum_pos[:-1]
    pos_r = cum_pos[-1] - pos_l
    sizes_r = n - sizes_l
    gini_l = 1.0 - ((pos_l / sizes_l) ** 2 + ((sizes_l - pos_l) / sizes_l) ** 2)
    gini_r = 1.0 - ((pos_r / sizes_r) ** 2 + ((sizes_r - pos_r) / sizes_r) ** 2)
    weighted = (sizes_l * gini_l + sizes_r * gini_r) / n
    weighted = np.where(valid, weighted, np.inf)
    best = int(np.argmin(weighted))
    threshold = 0.5 * (sv[best] + sv[best + 1])
    return float(threshold), float(weighted[best])


def reference_fit_tree(X, y, feature_names, hp=TreeHyperParams(), seed=0,
                       max_features=None):
    """The recursive fitter that sorts every feature at every node; fit_tree must
    reproduce its models byte for byte."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    p = X.shape[1]
    feature_order = rng.permutation(p)

    model = DecisionTreeModel(feature_names, hp)
    raw_importance = np.zeros(p)
    n_total = len(y)

    def grow(idx, depth):
        ones = y[idx]
        n = len(idx)
        counts = (n - ones.sum(), ones.sum())
        node_id = model._add_node(counts)
        impurity = gini(counts)
        if (impurity == 0.0
                or n < hp.min_samples_split
                or (hp.max_depth is not None and depth >= hp.max_depth)):
            return node_id

        cand = feature_order
        if max_features is not None and max_features < p:
            cand = rng.choice(p, size=max_features, replace=False)

        best_feat, best_thr, best_child_imp = -1, 0.0, np.inf
        for f in cand:
            thr, child_imp = _reference_split(X[idx, f], ones, hp.min_samples_leaf)
            if thr is not None and child_imp < best_child_imp:
                best_feat, best_thr, best_child_imp = int(f), thr, child_imp
        decrease = impurity - best_child_imp
        if best_feat < 0 or decrease <= 1e-12:
            return node_id

        left_idx = idx[X[idx, best_feat] <= best_thr]
        right_idx = idx[X[idx, best_feat] > best_thr]
        model.feature[node_id] = best_feat
        model.threshold[node_id] = best_thr
        raw_importance[best_feat] += (n / n_total) * decrease
        model.left[node_id] = grow(left_idx, depth + 1)
        model.right[node_id] = grow(right_idx, depth + 1)
        return node_id

    grow(np.arange(n_total), 0)
    model._finalize()
    model._raw_importance = raw_importance
    return model


def exhaustive_best_split(X, y, min_leaf=1):
    """Brute-force minimal weighted child impurity over every feature/threshold."""
    n = len(y)
    best = np.inf
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            left = X[:, f] <= thr
            nl, nr = left.sum(), n - left.sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            gl = gini((nl - y[left].sum(), y[left].sum()))
            gr = gini((nr - y[~left].sum(), y[~left].sum()))
            best = min(best, (nl * gl + nr * gr) / n)
    return best


def tree_depth(model, node=0):
    if model.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(model, model.left[node]),
                   tree_depth(model, model.right[node]))


def leaf_ids(model):
    return np.flatnonzero(model.feature < 0)


class TestGini:
    def test_known_values(self):
        assert gini((1, 1)) == 0.5
        assert gini((0, 7)) == 0.0
        assert gini((2, 6)) == pytest.approx(0.375)

    def test_symmetry(self):
        assert gini((3, 9)) == gini((9, 3))

    def test_empty_node(self):
        with pytest.raises(EmptyNode):
            gini((0, 0))


class TestFitTree:
    def test_root_split_is_exhaustive_optimum(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n = int(rng.integers(4, 21))
            p = int(rng.integers(1, 5))
            X = rng.normal(size=(n, p))
            y = rng.integers(0, 2, size=n)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            model = fit_tree(X, y, hp=TreeHyperParams(max_depth=1), seed=trial)
            oracle = exhaustive_best_split(X, y)
            if model.feature[0] < 0:
                # no split found: the oracle must not improve on the root either
                assert oracle >= gini((n - y.sum(), y.sum())) - 1e-12
                continue
            f, thr = model.feature[0], model.threshold[0]
            left = X[:, f] <= thr
            nl, nr = left.sum(), n - left.sum()
            achieved = (nl * gini((nl - y[left].sum(), y[left].sum()))
                        + nr * gini((nr - y[~left].sum(), y[~left].sum()))) / n
            assert achieved == pytest.approx(oracle, abs=1e-12)

    def test_perfect_1d_separation(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_tree(X, y, feature_names=["x"], hp=TreeHyperParams(max_depth=1))
        assert model.threshold[0] == pytest.approx(1.5)
        pred, score = model.predict(X)
        np.testing.assert_array_equal(pred, y)
        np.testing.assert_array_equal(score, y.astype(float))

    def test_max_depth_respected(self):
        t = planted_table(n=200, seed=1)
        for depth in (1, 2, 4):
            model = fit_tree(t, hp=TreeHyperParams(max_depth=depth))
            assert tree_depth(model) <= depth

    def test_min_samples_leaf_respected(self):
        t = rand_table(n=60, p=4, n_pos=25, seed=2)
        model = fit_tree(t, hp=TreeHyperParams(min_samples_leaf=7))
        for leaf in leaf_ids(model):
            assert model.counts[leaf].sum() >= 7

    def test_min_samples_split_respected(self):
        t = rand_table(n=60, p=4, n_pos=25, seed=2)
        model = fit_tree(t, hp=TreeHyperParams(min_samples_split=20))
        for node in np.flatnonzero(model.feature >= 0):
            assert model.counts[node].sum() >= 20

    def test_training_accuracy_at_least_majority(self):
        for seed in range(6):
            t = rand_table(n=50, p=3, n_pos=17, seed=seed)
            model = fit_tree(t)
            pred, _ = model.predict(t.X)
            majority = max(np.mean(t.y == 0), np.mean(t.y == 1))
            assert np.mean(pred == t.y) >= majority

    def test_leaf_scores_are_class_fractions(self):
        t = rand_table(n=80, p=3, n_pos=30, seed=3)
        model = fit_tree(t, hp=TreeHyperParams(max_depth=2))
        _, scores = model.predict(t.X)
        fractions = {tuple(c): c[1] / c.sum() for c in model.counts[leaf_ids(model)]}
        assert set(np.round(scores, 12)) <= set(np.round(list(fractions.values()), 12))

    def test_count_tie_predicts_no_injury(self):
        X = np.zeros((4, 1))  # unsplittable: one distinct value
        y = np.array([0, 0, 1, 1])
        model = fit_tree(X, y)
        pred, score = model.predict(np.zeros((1, 1)))
        assert pred[0] == 0 and score[0] == 0.5

    def test_boundary_routes_left(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        model = fit_tree(X, y, feature_names=["x"])
        pred, _ = model.predict(np.array([[model.threshold[0]]]))
        assert pred[0] == 0

    def test_importances(self):
        t = planted_table(n=250, seed=4)
        model = fit_tree(t, hp=TreeHyperParams(max_depth=4))
        imp = model.importances()
        assert sum(imp.values()) == pytest.approx(1.0)
        assert all(v > 0 for v in imp.values())
        # the planted signal carries nearly all the importance
        assert imp.get("sig_a", 0) + imp.get("sig_b", 0) > 0.9

    def test_raw_importance_conserves_impurity_decrease(self):
        t = rand_table(n=70, p=4, n_pos=28, seed=5)
        model = fit_tree(t)
        n = model.counts[0].sum()
        leaves = leaf_ids(model)
        leaf_term = sum(model.counts[l].sum() / n * gini(model.counts[l])
                        for l in leaves)
        assert model._raw_importance.sum() == pytest.approx(
            gini(model.counts[0]) - leaf_term)

    def test_errors(self):
        with pytest.raises(EmptyTable):
            fit_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyTable):
            fit_tree(np.zeros((3, 0)), np.zeros(3, dtype=int))
        model = fit_tree(np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(MissingFeature):
            model.predict(np.zeros((1, 3)))
        with pytest.raises(MissingFeature):
            model.predict(np.zeros((1, 1)))

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            TreeHyperParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeHyperParams(min_samples_leaf=0)

    def test_seed_determinism(self):
        t = rand_table(n=60, p=5, n_pos=20, seed=6)
        a = fit_tree(t, seed=9)
        b = fit_tree(t, seed=9)
        assert a.to_json() == b.to_json()

    def test_json_round_trip(self):
        t = planted_table(n=150, seed=7)
        model = fit_tree(t, hp=TreeHyperParams(max_depth=3))
        back = DecisionTreeModel.from_json(model.to_json())
        grid = np.random.default_rng(0).uniform(size=(200, t.X.shape[1]))
        p1, s1 = model.predict(grid)
        p2, s2 = back.predict(grid)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(s1, s2)
        assert back.hyperparams == model.hyperparams
        assert back.importances() == model.importances()

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 25), st.integers(1, 4)),
                      elements=st.floats(-100, 100, allow_nan=False)),
           st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_never_crashes_and_is_consistent(self, X, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=len(X))
        model = fit_tree(X, y, seed=seed)
        pred, score = model.predict(X)
        # prediction is exactly the thresholded leaf score
        np.testing.assert_array_equal(pred, (score > 0.5).astype(int))


@pytest.fixture(scope="module")
def balanced_season(small_table):
    return adasyn(small_table, ResamplingConfig(seed=7))


class TestMatchesReferenceFitter:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("max_features", [None, 7])
    def test_balanced_season_every_grid_point(self, balanced_season, seed, max_features):
        t = balanced_season
        for hp in default_grid() + [TreeHyperParams()]:
            got = fit_tree(t, hp=hp, seed=seed, max_features=max_features)
            want = reference_fit_tree(t.X, t.y, t.feature_names, hp=hp, seed=seed,
                                      max_features=max_features)
            assert got.to_json() == want.to_json(), hp

    def test_duplicate_values_and_tied_gains(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(2, 40))
            p = int(rng.integers(1, 6))
            # few distinct values: long runs of equal values and many equal gains
            X = rng.integers(0, 4, size=(n, p)).astype(float)
            X[:, rng.integers(p)] = X[:, 0]
            y = rng.integers(0, 2, size=n)
            hp = TreeHyperParams(max_depth=[None, 1, 3][trial % 3],
                                 min_samples_leaf=int(rng.integers(1, 4)),
                                 min_samples_split=int(rng.integers(1, 6)))
            max_features = [None, 1, 2][trial % 3]
            names = [f"f{i}" for i in range(p)]
            got = fit_tree(X, y, names, hp=hp, seed=trial, max_features=max_features)
            want = reference_fit_tree(X, y, names, hp=hp, seed=trial,
                                      max_features=max_features)
            assert got.to_json() == want.to_json(), trial

    def test_table_and_array_inputs_agree(self, balanced_season):
        t = balanced_season
        hp = TreeHyperParams(max_depth=4)
        assert (fit_tree(t, hp=hp, seed=3).to_json()
                == fit_tree(t.X, t.y, t.feature_names, hp=hp, seed=3).to_json())

    def test_deep_chain_needs_no_recursion(self):
        # alternating labels on one feature: every split peels off one row, so
        # the tree is 3,000 levels deep (the recursive fitter hit RecursionError)
        X = np.arange(3000, dtype=float)[:, None]
        y = np.arange(3000) % 2
        model = fit_tree(X, y)
        assert model.n_nodes == 5999
        pred, _ = model.predict(X)
        np.testing.assert_array_equal(pred, y)
