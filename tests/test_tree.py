import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from injurycast import tree
from injurycast.data_model import assign_labels
from injurycast.errors import EmptyNode, EmptyTable, MissingColumn
from injurycast.features import TrainingTable, build_training_table
from injurycast.generator import GeneratorConfig, generate
from injurycast.learners import default_grid, rfecv, tune
from injurycast.metrics import stratified_kfold
from injurycast.resampling import ResamplingConfig, adasyn
from injurycast.tree import (DecisionTreeModel, Presorted, TreeHyperParams, _grow, fit_tree,
                             gini)

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
        node_id = model._add_node(counts, depth)
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
        with pytest.raises(MissingColumn):
            model.predict(np.zeros((1, 3)))
        with pytest.raises(MissingColumn):
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


@pytest.fixture(scope="module", params=[(26, 7), (26, 11), (104, 7)],
                ids=["26x23-7", "26x23-11", "104x23-7"])
def season_and_seed(request):
    n_players, seed = request.param
    log, _ = generate(GeneratorConfig(n_players=n_players, weeks=23, seed=seed))
    table, _ = build_training_table(assign_labels(log), log.players)
    return table, seed


class TestRowOrder:
    """A tree does not depend on the order of its rows: ties never sit at a valid
    split, so neither a split, a count nor a threshold can see which of two tied
    rows comes first."""

    @pytest.mark.parametrize("hp", [TreeHyperParams(max_depth=5),
                                    TreeHyperParams(min_samples_leaf=2)],
                             ids=["depth-5", "unbounded-leaf-2"])
    @pytest.mark.parametrize("max_features", [None, 7])
    def test_shuffled_season_fits_the_same_tree(self, season_and_seed, hp, max_features):
        table, seed = season_and_seed
        shuffled = table.take(np.random.default_rng(seed).permutation(len(table)))
        assert (fit_tree(shuffled, hp=hp, seed=seed, max_features=max_features).to_json()
                == fit_tree(table, hp=hp, seed=seed, max_features=max_features).to_json())

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_shuffled_tie_heavy_table_fits_the_same_tree(self, data):
        n = data.draw(st.integers(2, 40))
        p = data.draw(st.integers(1, 4))
        # values 0..2: long runs of equal values, repeated rows, many equal gains
        X = data.draw(hnp.arrays(np.int64, (n, p), elements=st.integers(0, 2))).astype(float)
        y = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
        perm = np.array(data.draw(st.permutations(range(n))))
        hp = TreeHyperParams(max_depth=data.draw(st.sampled_from([None, 1, 3])),
                             min_samples_leaf=data.draw(st.integers(1, 3)))
        max_features = data.draw(st.sampled_from([None, 1, 2]))
        names = [f"f{i}" for i in range(p)]
        assert (fit_tree(X[perm], y[perm], names, hp=hp, max_features=max_features).to_json()
                == fit_tree(X, y, names, hp=hp, max_features=max_features).to_json())


def reference_predict(model, X):
    """predict by walking each row down from the root, one node at a time."""
    classes, scores = [], []
    for row in X:
        node = 0
        while model.feature[node] >= 0:
            go_left = row[model.feature[node]] <= model.threshold[node]
            node = model.left[node] if go_left else model.right[node]
        c0, c1 = model.counts[node]
        classes.append(int(c1 > c0))
        scores.append(c1 / (c0 + c1))
    return np.array(classes), np.array(scores)


class TestRouting:
    @pytest.mark.parametrize("hp", [TreeHyperParams(), TreeHyperParams(max_depth=3),
                                    TreeHyperParams(max_depth=6, min_samples_leaf=5)])
    def test_predict_matches_a_row_by_row_walk(self, balanced_season, hp):
        t = balanced_season
        X = np.vstack([t.X, np.random.default_rng(0).uniform(
            t.X.min(axis=0), t.X.max(axis=0), size=(300, t.X.shape[1]))])
        model = fit_tree(t, hp=hp, seed=2)
        for m in (model, DecisionTreeModel.from_json(model.to_json())):
            got, want = m.predict(X), reference_predict(m, X)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_cut_predicts_as_a_fresh_fit(self, balanced_season, seed):
        t = balanced_season
        data = Presorted(t)
        grid = default_grid() + [TreeHyperParams(None, 1, 9), TreeHyperParams(None, 2, 2)]
        deepest = {leaf: _grow(data, TreeHyperParams(None, leaf, 2), seed)
                   for leaf in {hp.min_samples_leaf for hp in grid}}
        for hp in grid:
            model = deepest[hp.min_samples_leaf]
            got = model._predict(t.X, model._cut(hp.max_depth, hp.min_samples_split))
            want = fit_tree(t, hp=hp, seed=seed).predict(t.X)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_cut_at_the_trees_own_settings_stops_only_at_leaves(self, balanced_season):
        hp = TreeHyperParams(max_depth=5, min_samples_leaf=2, min_samples_split=10)
        model = fit_tree(balanced_season, hp=hp)
        np.testing.assert_array_equal(model._cut(5, 10), model.feature < 0)


class TestApply:
    """_apply through a narrowed set's live map stops each row where routing the
    copied columns does, and where the fit counted it."""

    @pytest.fixture(scope="class")
    def narrowed(self):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 6, size=(150, 7)).astype(float)
        y = ((X[:, 1] + X[:, 4] - X[:, 6] + rng.integers(0, 4, size=150)) > 5).astype(int)
        return X, y, Presorted(X, y).drop(0).drop(2)  # live columns 1, 2, 4, 5, 6

    @staticmethod
    def _routed(model, X, y, data, stop, feature):
        got = model._apply(data.cols.T, stop, data.live[feature])
        want = model._apply(np.ascontiguousarray(X[:, data.live]), stop, feature)
        np.testing.assert_array_equal(got, want)
        assert stop[got].all()
        at = np.unique(got)
        np.testing.assert_array_equal(np.bincount(got)[at], model.counts[at].sum(axis=1))
        np.testing.assert_array_equal(np.bincount(got, weights=y)[at], model.counts[at, 1])

    @pytest.mark.parametrize("cut", [None, (2, 2), (3, 40), (None, 25)])
    def test_leaf_and_cut_stops(self, narrowed, cut):
        X, y, data = narrowed
        model = _grow(data, seed=1)
        stop = model.feature < 0 if cut is None else model._cut(*cut)
        self._routed(model, X, y, data, stop, model.feature)

    def test_changed_node_stops(self, narrowed):
        X, y, data = narrowed
        p = len(data.live)
        prev = _grow(data, seed=1)
        below_root = 0
        for dropped in range(p):
            _, winner, changed = tree._refit_plan(prev, dropped, np.arange(p - 1))
            self._routed(prev, X, y, data.drop(dropped), (prev.feature < 0) | changed, winner)
            below_root += changed.any() and not changed[0]
        assert below_root


class TestPresorted:
    def test_order_is_stable_argsort_of_each_column(self):
        t = rand_table(n=30, p=3, n_pos=9, seed=3)
        t.X[::3, 1] = 0.5  # ties must stay in row order
        rows = Presorted(t).rows
        for f in range(3):
            np.testing.assert_array_equal(rows[f], np.argsort(t.X[:, f], kind="stable"))

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_drop_equals_a_fresh_value_without_the_column(self, j):
        # chained drops read the parent's matrices through `live` and copy neither
        X = np.random.default_rng(4).integers(0, 5, size=(50, 5)).astype(float)
        y = (np.arange(50) % 3 == 0).astype(int)
        names = [f"c{i}" for i in range(5)]
        full = Presorted(X, y, names)
        got, kept = full, list(range(5))
        for k in (j, 1, 2):
            got = got.drop(k)
            kept.pop(k)
            want = Presorted(X[:, kept], y, [names[i] for i in kept])
            assert np.shares_memory(got.cols, full.cols)
            assert np.shares_memory(got.rows, full.rows)
            np.testing.assert_array_equal(got.cols[got.live], want.cols)
            np.testing.assert_array_equal(got.rows[got.live], want.rows)
            assert got.feature_names == want.feature_names

    @pytest.mark.parametrize("max_features", [None, 2])
    def test_grow_on_a_narrowed_set_equals_a_fit_on_the_selected_columns(self,
                                                                         max_features):
        rng = np.random.default_rng(6)
        X = rng.integers(0, 4, size=(90, 6)).astype(float)
        X[:, 4] = X[:, 1]
        t = table_of(X, rng.integers(0, 2, size=90))
        data, names = Presorted(t), list(t.feature_names)
        for k in (3, 0, 2, 1):
            data = data.drop(k)
            names.pop(k)
            for hp in (TreeHyperParams(), TreeHyperParams(max_depth=3, min_samples_leaf=4)):
                got = _grow(data, hp=hp, seed=k, max_features=max_features)
                want = fit_tree(t.select_features(names), hp=hp, seed=k,
                                max_features=max_features)
                assert got.to_json() == want.to_json(), (names, hp)

    def test_take_equals_a_presorted_taken_table(self):
        # few distinct values: long runs of ties, which must keep their row order
        rng = np.random.default_rng(9)
        X = rng.integers(0, 3, size=(70, 4)).astype(float)
        X[:, 2] = X[:, 0]
        t = table_of(X, rng.integers(0, 2, size=70))
        data = Presorted(t)
        folds = stratified_kfold(t.y, 3, 1)
        for idx in [train for train, _ in folds] + [np.sort(rng.choice(70, 9, replace=False))]:
            got, want = data.take(idx), Presorted(t.take(idx))
            assert got.cols.flags.c_contiguous
            for name in ("cols", "rows", "y", "live"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert got.feature_names == want.feature_names


@pytest.fixture(scope="module")
def balanced_default_season():
    log, _ = generate(GeneratorConfig(seed=7))
    table, _ = build_training_table(assign_labels(log), log.players)
    return adasyn(table, ResamplingConfig(seed=7))


class TestIndexWidth:
    """Row indices are int32 below tree._INT32_CELLS cells and intp from there;
    the limit cut to one cell sends every table down the intp path."""

    def test_width_follows_the_cell_count(self, monkeypatch):
        t = rand_table(n=30, p=3)
        assert Presorted(t).rows.dtype == np.int32
        monkeypatch.setattr(tree, "_INT32_CELLS", 90)
        assert Presorted(t).rows.dtype == np.intp
        monkeypatch.setattr(tree, "_INT32_CELLS", 91)
        assert Presorted(t).rows.dtype == np.int32

    def test_take_and_drop_keep_the_width(self, monkeypatch):
        t = rand_table(n=60, p=4, n_pos=15, seed=2)
        idx = np.flatnonzero(np.arange(60) % 3)
        for width in (np.int32, np.intp):
            if width is np.intp:
                monkeypatch.setattr(tree, "_INT32_CELLS", 1)
            data = Presorted(t)
            assert data.rows.dtype == width
            for got in (data.take(idx), data.drop(1), data.drop(1).take(idx)):
                assert got.rows.dtype == width

    @pytest.mark.parametrize("max_features", [None, 7])
    def test_fit_is_the_same(self, balanced_default_season, monkeypatch, max_features):
        fits = []
        for width in (np.int32, np.intp):
            if width is np.intp:
                monkeypatch.setattr(tree, "_INT32_CELLS", 1)
            data = Presorted(balanced_default_season)
            assert data.rows.dtype == width
            fits.append(_grow(data, hp=TreeHyperParams(max_depth=8), seed=7,
                              max_features=max_features))
        narrow, wide = fits
        assert wide.to_json() == narrow.to_json()
        if max_features is None:
            np.testing.assert_array_equal(wide._minima, narrow._minima)
        else:
            assert wide._minima is None and narrow._minima is None

    def test_tune_and_rfecv_are_the_same(self, balanced_default_season, monkeypatch):
        t = balanced_default_season
        narrow_hp, narrow_subset = tune(t, seed=7), rfecv(t, seed=7)
        monkeypatch.setattr(tree, "_INT32_CELLS", 1)
        assert tune(t, seed=7) == narrow_hp
        wide_subset = rfecv(t, seed=7)
        assert wide_subset.names == narrow_subset.names
        assert wide_subset.score_trace == narrow_subset.score_trace


def table_of(X, y):
    return TrainingTable([f"f{i}" for i in range(X.shape[1])], X, y,
                         [""] * len(y), [None] * len(y))


def reference_best_split(sv, sy, min_leaf):
    """_best_split as it was before its buffers: every intermediate a new array.
    The buffered search must return the same values bit for bit."""
    n = sv.shape[1]
    lo, hi = min_leaf - 1, n - min_leaf  # left child of i + 1 rows, i in [lo, hi)
    if hi <= lo:
        return None
    cum_pos = np.cumsum(sy, axis=1, dtype=float)  # exact: counts stay far below 2**53

    sizes_l = np.arange(lo + 1, hi + 1, dtype=float)
    valid = sv[:, lo:hi] < sv[:, lo + 1:hi + 1]
    pos_l = cum_pos[:, lo:hi]
    pos_r = cum_pos[:, -1:] - pos_l
    sizes_r = n - sizes_l
    gini_l = 1.0 - ((pos_l / sizes_l) ** 2 + ((sizes_l - pos_l) / sizes_l) ** 2)
    gini_r = 1.0 - ((pos_r / sizes_r) ** 2 + ((sizes_r - pos_r) / sizes_r) ** 2)
    weighted = (sizes_l * gini_l + sizes_r * gini_r) / n
    weighted = np.where(valid, weighted, np.inf)
    # the first candidate holding the minimum, at its first position
    row_min = weighted.min(axis=1)
    j = int(np.argmin(row_min))
    best = row_min[j]
    if best == np.inf:
        return None
    i = int(np.argmin(weighted[j]))
    threshold = 0.5 * (sv[j, lo + i] + sv[j, lo + i + 1])
    return j, float(threshold), float(best), row_min


class TestBufferedSplit:
    """_best_split into per-fit buffers must equal reference_best_split bit for bit."""

    @staticmethod
    def _node(values, labels):
        order = np.argsort(values, axis=1, kind="stable")
        return (np.take_along_axis(values, order, axis=1),
                np.take_along_axis(labels, order, axis=1))

    @staticmethod
    def _assert_bit_equal(sv, sy, min_leaf, room):
        # scratch larger than the node and filled with garbage, as a fit's
        # buffers are after a bigger node's search
        scratch = (np.full(room, np.nan), np.full(room, -np.inf), np.full(room, 7.5),
                   np.ones(room, dtype=bool))
        before = sv.copy(), sy.copy()
        got = tree._best_split(sv, sy, min_leaf, scratch)
        want = reference_best_split(sv, sy, min_leaf)
        np.testing.assert_array_equal(sv, before[0])
        np.testing.assert_array_equal(sy, before[1])
        if want is None:
            assert got is None
            return
        j, thr, imp, row_min = got
        assert (j, np.float64(thr).tobytes(), np.float64(imp).tobytes()) == (
            want[0], np.float64(want[1]).tobytes(), np.float64(want[2]).tobytes())
        assert row_min.tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    def test_random_and_tied_values(self, min_leaf):
        rng = np.random.default_rng(min_leaf)
        for trial in range(60):
            c, n = int(rng.integers(1, 8)), int(rng.integers(2, 120))
            values = (rng.normal(size=(c, n)) if trial % 2
                      else rng.integers(0, 4, size=(c, n)).astype(float))
            labels = rng.integers(0, 2, size=(c, n))
            sv, sy = self._node(values, labels)
            self._assert_bit_equal(sv, sy, min_leaf, c * n + int(rng.integers(0, 50)))

    def test_constant_columns_beside_a_splittable_one(self):
        rng = np.random.default_rng(3)
        values = np.vstack([np.full(40, 2.0), rng.normal(size=40), np.zeros(40)])
        sv, sy = self._node(values, np.tile(rng.integers(0, 2, size=40), (3, 1)))
        self._assert_bit_equal(sv, sy, 1, 3 * 40)
        self._assert_bit_equal(sv, sy, 3, 3 * 40)

    @pytest.mark.parametrize("values, min_leaf", [
        (np.full((3, 30), 1.0), 1),                    # every column constant
        (np.array([[0.0] * 7 + [9.0]] * 2), 2),        # the one boundary leaves 1 row
        (np.arange(8.0)[None].repeat(2, axis=0), 5),   # hi <= lo: no position at all
    ], ids=["constant", "child-below-min-leaf", "too-few-rows"])
    def test_no_valid_split(self, values, min_leaf):
        sy = np.arange(values.size).reshape(values.shape) % 2
        assert reference_best_split(values, sy, min_leaf) is None
        self._assert_bit_equal(values, sy, min_leaf, values.size * 3)

    def test_node_slices_of_a_fit(self, balanced_season):
        # the nodes of a real fit, each searched with buffers sized for its root
        t = balanced_season
        data = Presorted(t)
        model = fit_tree(t, hp=TreeHyperParams(max_depth=4), seed=1)
        room = data.rows.size
        for node in range(model.n_nodes):
            rows = self._rows_at(model, t.X, node)
            sv, sy = self._node(t.X[rows].T.copy(), np.tile(t.y[rows], (t.X.shape[1], 1)))
            for min_leaf in (1, 4):
                self._assert_bit_equal(sv, sy, min_leaf, room)

    @staticmethod
    def _rows_at(model, X, target):
        rows = []
        for r, x in enumerate(X):
            node = 0
            while node != target and model.feature[node] >= 0:
                node = (model.left[node] if x[model.feature[node]] <= model.threshold[node]
                        else model.right[node])
            if node == target:
                rows.append(r)
        return np.array(rows)


def _ties(model, node):
    """Every column at the split node's row minimum: the node's tie set."""
    minima = model._minima
    return np.flatnonzero(minima[node] == minima[node].min())


def _next_drop(model, step, rng):
    """Column to drop after `model`: in turn a split's winner, a tie-set member that
    did not win its node, and any column, so every branch of a refit runs."""
    split = np.flatnonzero(model.feature >= 0)
    winners = model.feature[split]
    losers = [f for node in split for f in _ties(model, node) if f != model.feature[node]]
    pools = [winners, losers, np.arange(len(model.feature_names))]
    pool = pools[step % 3] if len(pools[step % 3]) else pools[2]
    return int(rng.choice(pool))


def _drop_kind(model, dropped):
    split = np.flatnonzero(model.feature >= 0)
    if dropped in model.feature[split]:
        return "winner"
    if any(dropped in _ties(model, node) for node in split):
        return "tie"
    return "unused"


def _first_column(seed, p):
    """The column a fit with `seed` on p columns tries first (it wins exact ties)."""
    return int(np.random.default_rng(seed).permutation(p)[0])


@pytest.fixture
def split_rows(monkeypatch):
    """The (candidates, rows) shape of each _best_split call, in call order."""
    calls = []
    real = tree._best_split

    def counted(sv, *args):
        calls.append(sv.shape)
        return real(sv, *args)
    monkeypatch.setattr(tree, "_best_split", counted)
    return calls


class TestChainedRefit:
    """_grow given the previous size's tree must return fit_tree's model."""

    @pytest.fixture(scope="class", params=[7, 11])
    def season_table(self, request):
        log, _ = generate(GeneratorConfig(n_players=12, weeks=12, seed=request.param))
        table, _ = build_training_table(assign_labels(log), log.players)
        return adasyn(table, ResamplingConfig(seed=request.param))

    @pytest.mark.parametrize("hp", [TreeHyperParams(max_depth=5), TreeHyperParams(),
                                    TreeHyperParams(max_depth=8, min_samples_leaf=5)])
    def test_generated_season_every_size(self, season_table, hp):
        rng = np.random.default_rng(0)
        t = season_table
        names = list(t.feature_names)
        data = Presorted(t)
        model = _grow(data, hp=hp, seed=3)
        assert model.to_json() == fit_tree(t, hp=hp, seed=3).to_json()
        kinds = set()
        for step in range(len(names) - 1):
            dropped = _next_drop(model, step, rng)
            kinds.add(_drop_kind(model, dropped))
            names.pop(dropped)
            data = data.drop(dropped)
            model = _grow(data, hp=hp, seed=3, prev=model, dropped=dropped)
            want = fit_tree(t.select_features(names), hp=hp, seed=3)
            assert model.to_json() == want.to_json(), len(names)
        assert kinds == {"winner", "tie", "unused"}

    def test_tie_heavy_tables_with_duplicate_rows(self):
        rng = np.random.default_rng(5)
        kinds = set()
        for trial in range(80):
            n = int(rng.integers(2, 40))
            p = int(rng.integers(2, 7))
            # few distinct values, a copied column and repeated rows: many equal gains
            X = rng.integers(0, 3, size=(n, p)).astype(float)
            X[:, rng.integers(p)] = X[:, 0]
            X[n // 2:] = X[:n - n // 2]
            y = rng.integers(0, 2, size=n)
            hp = TreeHyperParams(max_depth=[None, 1, 3][trial % 3],
                                 min_samples_leaf=int(rng.integers(1, 4)),
                                 min_samples_split=int(rng.integers(1, 6)))
            names = [f"f{i}" for i in range(p)]
            model = _grow(Presorted(X, y, names), hp=hp, seed=trial)
            for step in range(p - 1):
                dropped = _next_drop(model, step, rng)
                kinds.add(_drop_kind(model, dropped))
                X = np.delete(X, dropped, axis=1)
                names.pop(dropped)
                model = _grow(Presorted(X, y, names), hp=hp, seed=trial, prev=model,
                              dropped=dropped)
                want = fit_tree(X, y, names, hp=hp, seed=trial)
                assert model.to_json() == want.to_json(), (trial, step)
        assert kinds == {"winner", "tie", "unused"}

    def test_kept_split_keeps_threshold_and_children(self):
        # the dropped column is unused and no tie set holds it: nothing is searched
        X = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        y = np.array([0, 0, 1, 1])
        prev = _grow(Presorted(X, y, ["x", "flat"]))
        model = _grow(Presorted(X[:, :1], y, ["x"]), prev=prev, dropped=1)
        assert model.to_json() == fit_tree(X[:, :1], y, ["x"]).to_json()
        assert model.threshold[0] == 1.5
        assert list(_ties(model, 0)) == [0]

    def test_refit_that_changes_nothing_is_skipped_whole(self, split_rows):
        # a constant column has no split, so it is in no tie set; continuous
        # columns leave no ties for the new feature_order to reorder
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.normal(size=(150, 3)), np.full(150, 2.0),
                             rng.normal(size=150)])
        y = (X[:, 0] + X[:, 2] + rng.normal(scale=0.7, size=150) > 0).astype(int)
        names = ["a", "b", "c", "flat", "d"]
        hp = TreeHyperParams(max_depth=4)
        prev = _grow(Presorted(X, y, names), hp=hp, seed=5)
        split_rows.clear()
        model = _grow(Presorted(X, y, names).drop(3), hp=hp, seed=5, prev=prev, dropped=3)
        assert model._reused and split_rows == []
        want = fit_tree(np.delete(X, 3, axis=1), y, names[:3] + names[4:], hp=hp, seed=5)
        assert model.to_json() == want.to_json()
        np.testing.assert_array_equal(model._minima, np.delete(prev._minima, 3, axis=1))

    def test_only_a_deep_subtree_is_searched(self, split_rows):
        # the labels are a conjunction of three columns, so the tree splits on a,
        # then b, then c at depth 2, and each other node is pure; without c that
        # node splits on noise, and only it and the subtree under it search
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(400, 5))
        y = ((X[:, 0] > 0.5) & (X[:, 1] > 0.5) & (X[:, 2] > 0.3)).astype(int)
        names = ["a", "b", "c", "noise0", "noise1"]
        hp = TreeHyperParams(max_depth=6)
        prev = _grow(Presorted(X, y, names), hp=hp)
        assert prev.feature.tolist() == [0, -1, 1, -1, 2, -1, -1]
        split_rows.clear()
        model = _grow(Presorted(X, y, names).drop(2), hp=hp, prev=prev, dropped=2)
        searches = list(split_rows)
        want = fit_tree(np.delete(X, 2, axis=1), y, names[:2] + names[3:], hp=hp)
        assert model.to_json() == want.to_json()
        # node 4 searches its new winner alone, then its subtree grows in full
        n_rows = prev.counts[4].sum()
        assert searches[0] == (1, n_rows) and len(searches) > 1
        assert all(rows < n_rows for _, rows in searches[1:])

    def test_winner_changes_through_the_new_tie_order_alone(self):
        # two copies of one column tie at every node; dropping a constant third
        # column reorders them, so each node's winner moves to the other copy
        rng = np.random.default_rng(2)
        a = rng.integers(0, 6, size=80).astype(float)
        y = ((a + rng.integers(0, 3, size=80)) > 4).astype(int)
        X = np.column_stack([a, a, np.zeros(80)])
        seed = next(s for s in range(100)
                    if (_first_column(s, 3), _first_column(s, 2)) == (0, 1))
        prev = _grow(Presorted(X, y, ["a", "copy", "flat"]), seed=seed)
        split = np.flatnonzero(prev.feature >= 0)
        assert len(split) and set(prev.feature[split]) == {0}
        assert not any(2 in _ties(prev, node) for node in split)
        model = _grow(Presorted(X[:, :2], y, ["a", "copy"]), seed=seed, prev=prev, dropped=2)
        assert set(model.feature[split]) == {1}
        assert model.to_json() == fit_tree(X[:, :2], y, ["a", "copy"], seed=seed).to_json()

    def test_dropped_winner_collides_with_its_neighbours_new_index(self):
        # the root splits on column 0; without it, column 1 takes index 0, so a
        # plan comparing shifted indices alone would keep the root and its
        # threshold, which belongs to the dropped column
        x = np.arange(12, dtype=float)
        y = (x > 6).astype(int)
        X = np.column_stack([x, 100.0 - 3.0 * x])
        seed = next(s for s in range(100) if _first_column(s, 2) == 0)
        prev = _grow(Presorted(X, y, ["x", "mirror"]), seed=seed)
        assert prev.feature[0] == 0 and list(_ties(prev, 0)) == [0, 1]
        model = _grow(Presorted(X[:, 1:], y, ["mirror"]), seed=seed, prev=prev, dropped=0)
        assert not model._reused
        assert model.to_json() == fit_tree(X[:, 1:], y, ["mirror"], seed=seed).to_json()

    def test_refit_cannot_subsample_features(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        y = np.array([0, 1, 0, 1])
        prev = _grow(Presorted(X, y))
        with pytest.raises(ValueError):
            _grow(Presorted(X[:, :1], y), prev=prev, dropped=1, max_features=1)


ONE_BLOCK = tree._BLOCK  # the package's block: every search in these tests fits in one


@pytest.fixture(params=[1, 80])
def small_blocks(request, monkeypatch):
    """_grow's search blocks cut to `param` values per buffer row: for 1, one
    candidate per block at every node; for 80, one at nodes of more than 40 rows
    and two or more below."""
    monkeypatch.setattr(tree, "_BLOCK", request.param)


@pytest.mark.usefixtures("small_blocks")
class TestMatchesReferenceFitterInSmallBlocks(TestMatchesReferenceFitter):
    """The reference fitter's oracles with each node's candidates searched a few at
    a time."""


class TestChainedRefitInSmallBlocks(TestChainedRefit):
    """Refits from blocked fits, checked against blocked fresh fits (whose models
    the class above checks against the reference fitter); blocks of 80 values
    alone, as every size of a generated season is fitted twice."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(tree, "_BLOCK", 80)


class TestBlockedSearch:
    def test_copies_in_different_blocks_tie_to_the_first_in_feature_order(
            self, monkeypatch, split_rows):
        # column 4 copies column 1, the only informative one, so the two tie at
        # the root; blocks of two candidates put them in different blocks
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 6))
        X[:, 4] = X[:, 1]
        y = (X[:, 1] + rng.normal(scale=0.3, size=200) > 0).astype(int)
        names = [f"f{i}" for i in range(6)]
        firsts = set()
        for seed in range(12):
            order = list(np.random.default_rng(seed).permutation(6))
            if order.index(1) // 2 == order.index(4) // 2:
                continue
            monkeypatch.setattr(tree, "_BLOCK", ONE_BLOCK)
            one_block = fit_tree(X, y, names, seed=seed)
            monkeypatch.setattr(tree, "_BLOCK", 2 * 200)
            split_rows.clear()
            blocked = fit_tree(X, y, names, seed=seed)
            assert split_rows[:3] == [(2, 200)] * 3
            first = min(1, 4, key=order.index)
            firsts.add(first)
            assert blocked.feature[0] == first
            assert blocked.to_json() == one_block.to_json()
            np.testing.assert_array_equal(blocked._minima, one_block._minima)
        assert firsts == {1, 4}

    def test_minima_of_a_blocked_fit_equal_one_blocks(self, balanced_season, small_blocks,
                                                      monkeypatch):
        t = balanced_season
        hp = TreeHyperParams(max_depth=6)
        blocked = fit_tree(t, hp=hp, seed=7)
        monkeypatch.setattr(tree, "_BLOCK", ONE_BLOCK)
        one_block = fit_tree(t, hp=hp, seed=7)
        assert blocked.to_json() == one_block.to_json()
        np.testing.assert_array_equal(blocked._minima, one_block._minima)

    def test_peak_memory_is_bounded_by_the_block(self):
        # one (candidates x rows) buffer row would be 20 x 30,000 values, and
        # five of them alone 5x X.nbytes
        table = rand_table(n=30000, p=20, n_pos=3000, seed=0)
        tracemalloc.start()
        try:
            fit_tree(table, hp=TreeHyperParams(max_depth=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * table.X.nbytes

    def test_int32_rows_keep_a_depth_5_fit_under_five_tables(self):
        # the fit's peak is 4.5x X.nbytes with int32 rows and 6.0x with intp rows
        table = rand_table(n=30000, p=20, n_pos=3000, seed=0)
        tracemalloc.start()
        try:
            fit_tree(table, hp=TreeHyperParams(max_depth=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * table.X.nbytes
