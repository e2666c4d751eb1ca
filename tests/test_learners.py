import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from injurycast import learners, tree
from injurycast.data_model import assign_labels
from injurycast.errors import NonConvergence
from injurycast.features import TrainingTable, build_training_table
from injurycast.generator import GeneratorConfig, generate
from injurycast.learners import (
    FeatureSubset,
    LinearModel,
    _cv_folds,
    _f1,
    _injury_f1,
    default_grid,
    fit_forest,
    fit_logit,
    fit_tree,
    logit_loss_grad,
    rfecv,
    tune,
)
from injurycast.metrics import stratified_kfold
from injurycast.resampling import ResamplingConfig, adasyn, standardize
from injurycast.tree import TreeHyperParams, _grow

from conftest import planted_table, rand_table


def table_from(X, y, names=None):
    names = names or [f"f{i}" for i in range(X.shape[1])]
    return TrainingTable(list(names), X, y, [""] * len(y), [None] * len(y))


def reference_rfecv(table, hp=TreeHyperParams(max_depth=5), folds=3, seed=0):
    """rfecv with every tree fitted from scratch by fit_tree on table folds; rfecv's
    chained refits must reproduce its subset and score trace exactly."""
    cv = [(table.take(train_idx), table.take(test_idx))
          for train_idx, test_idx in stratified_kfold(table.y, folds, seed)]
    current = list(table.feature_names)
    sub = table
    trace = {}
    subsets = {}
    while True:
        trace[len(current)] = float(np.mean([
            _injury_f1(fit_tree(train, hp=hp, seed=seed), test) for train, test in cv]))
        subsets[len(current)] = list(current)
        if len(current) == 1:
            break
        model = fit_tree(sub, hp=hp, seed=seed)
        imp = model.importances()
        drop = min(current, key=lambda n: (imp.get(n, 0.0), current.index(n)))
        current.remove(drop)
        sub = sub.select_features(current)
        cv = [(train.select_features(current), test.select_features(current))
              for train, test in cv]
    best_size = min(trace, key=lambda s: (-trace[s], s))
    return FeatureSubset(subsets[best_size], trace)


def reference_fold_f1(table, grid, folds=2, seed=0):
    """Each grid point's injury F1 on each of tune's folds, from a tree grown for
    that point alone."""
    cv = _cv_folds(table, folds, seed)
    return [[_injury_f1(_grow(train, hp, seed), test) for train, test in cv]
            for hp in grid]


def reference_tune(table, grid=None, folds=2, seed=0, fold_f1=None):
    """tune with one fit per grid point and fold, the refit loop that scoring by
    truncation replaced; tune must pick the same point. `fold_f1`, from
    reference_fold_f1 on this grid, saves the fits."""
    grid = list(grid) if grid is not None else default_grid()
    fold_f1 = fold_f1 or reference_fold_f1(table, grid, folds, seed)
    best_hp, best_key = None, None
    for hp, f1s in zip(grid, fold_f1):
        score = float(np.mean(f1s))
        depth = hp.max_depth if hp.max_depth is not None else np.inf
        key = (-score, depth, -hp.min_samples_leaf)
        if best_key is None or key < best_key:
            best_hp, best_key = hp, key
    return best_hp


# a caller's grid: max_depth None beside finite depths, several min_samples_split
# values within one min_samples_leaf, and leaf groups out of order
MIXED_GRID = [TreeHyperParams(max_depth=d, min_samples_leaf=l, min_samples_split=s)
              for l in (3, 1) for d in (None, 2, 7) for s in (2, 5, 40)]


@pytest.fixture(scope="module", params=[7, 11])
def balanced_default_season(request):
    """A default-size generated season, ADASYN-balanced, its seed and
    reference_fold_f1 over default_grid() + MIXED_GRID."""
    log, _ = generate(GeneratorConfig(seed=request.param))
    table, _ = build_training_table(assign_labels(log), log.players)
    table = adasyn(table, ResamplingConfig(seed=request.param))
    grid = default_grid() + MIXED_GRID
    return table, request.param, reference_fold_f1(table, grid, seed=request.param)


class TestGrid:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 48
        assert len(set(grid)) == 48
        depths = {hp.max_depth for hp in grid}
        assert depths == {2, 3, 4, 5, 6, 8}


class TestTune:
    def test_singleton_grid_is_returned(self):
        t = rand_table(n=40, p=3, n_pos=14, seed=0)
        only = TreeHyperParams(max_depth=4, min_samples_leaf=2)
        assert tune(t, [only], folds=2, seed=0) == only

    def test_prefers_config_that_separates(self):
        # an AND of two features needs depth 2; depth 1 cannot reach F1 = 1
        t = planted_table(n=240, seed=1, noise_features=0)
        grid = [TreeHyperParams(max_depth=1), TreeHyperParams(max_depth=2)]
        assert tune(t, grid, folds=2, seed=0).max_depth == 2

    def test_tie_break_prefers_shallower(self):
        # a wide margin makes every depth score a perfect CV F1, forcing a tie
        rng = np.random.default_rng(2)
        X = np.vstack([rng.uniform(0.0, 0.6, size=(150, 2)),
                       rng.uniform(0.8, 1.0, size=(50, 2))])
        y = np.array([0] * 150 + [1] * 50)
        t = table_from(X, y, ["sig_a", "sig_b"])
        grid = [TreeHyperParams(max_depth=6), TreeHyperParams(max_depth=2)]
        assert tune(t, grid, folds=2, seed=0).max_depth == 2

    def test_deterministic(self):
        t = rand_table(n=60, p=4, n_pos=20, seed=3)
        assert tune(t, folds=2, seed=5) == tune(t, folds=2, seed=5)


class TestTuneByTruncation:
    def test_every_fold_f1_equals_a_fresh_fit(self, balanced_default_season):
        table, seed, fold_f1 = balanced_default_season
        cv = _cv_folds(table, 2, seed)
        deepest = {leaf: [_grow(train, TreeHyperParams(None, leaf, 2), seed)
                          for train, _ in cv] for leaf in (1, 2, 3, 5, 10)}
        for hp, want in zip(default_grid() + MIXED_GRID, fold_f1):
            got = [_f1(test.y, model._predict(
                       test.X, model._cut(hp.max_depth, hp.min_samples_split))[0])
                   for model, (_, test) in zip(deepest[hp.min_samples_leaf], cv)]
            assert got == want, hp

    def test_matches_reference_on_balanced_seasons(self, balanced_default_season):
        table, seed, fold_f1 = balanced_default_season
        n = len(default_grid())
        assert tune(table, seed=seed) == reference_tune(table, seed=seed,
                                                        fold_f1=fold_f1[:n])
        assert tune(table, MIXED_GRID, seed=seed) == reference_tune(
            table, MIXED_GRID, seed=seed, fold_f1=fold_f1[n:])

    @pytest.mark.parametrize("table, grid", [
        (rand_table(n=40, p=3, n_pos=14, seed=0), [TreeHyperParams(4, 2)]),
        (planted_table(n=240, seed=1, noise_features=0),
         [TreeHyperParams(max_depth=1), TreeHyperParams(max_depth=2)]),
        (rand_table(n=60, p=4, n_pos=20, seed=3), None),
        (rand_table(n=60, p=4, n_pos=20, seed=3), MIXED_GRID),
        (planted_table(n=200, seed=8, noise_features=6), MIXED_GRID),
    ], ids=["singleton", "planted-depths", "random-default", "random-mixed",
            "planted-mixed"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_reference_on_small_tables(self, table, grid, seed):
        assert tune(table, grid, seed=seed) == reference_tune(table, grid, seed=seed)

    def test_margin_tie_matches_reference(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.uniform(0.0, 0.6, size=(150, 2)),
                       rng.uniform(0.8, 1.0, size=(50, 2))])
        t = table_from(X, np.array([0] * 150 + [1] * 50), ["sig_a", "sig_b"])
        grid = [TreeHyperParams(max_depth=6), TreeHyperParams(max_depth=2)]
        assert tune(t, grid, seed=0) == reference_tune(t, grid, seed=0)


class TestRfecv:
    def test_recovers_informative_features(self):
        t = planted_table(n=300, seed=4, noise_features=6)
        subset = rfecv(t, folds=3, seed=0)
        assert set(subset.names) == {"sig_a", "sig_b"}

    def test_score_trace_covers_all_sizes(self):
        t = planted_table(n=200, seed=5, noise_features=3)
        subset = rfecv(t, folds=3, seed=0)
        assert sorted(subset.score_trace) == [1, 2, 3, 4, 5]
        best = max(subset.score_trace.values())
        assert subset.score_trace[len(subset.names)] == best

    def test_smallest_subset_wins_ties(self):
        t = planted_table(n=300, seed=6, noise_features=4)
        subset = rfecv(t, folds=3, seed=0)
        tied = [s for s, v in subset.score_trace.items()
                if v == max(subset.score_trace.values())]
        assert len(subset.names) == min(tied)

    def test_deterministic(self):
        t = planted_table(n=200, seed=7)
        assert rfecv(t, folds=3, seed=2).names == rfecv(t, folds=3, seed=2).names


def test_skipped_refit_searches_and_routes_nothing(monkeypatch):
    # "flat" is constant: no split, no tie set and no importance, so rfecv drops
    # it first and every fold tree at size 1 is its size-2 tree. Narrowing copies
    # no (columns × rows) array and no test fold.
    rng = np.random.default_rng(3)
    x = rng.normal(size=120)
    y = (x + rng.normal(scale=0.5, size=120) > 0).astype(int)
    table = table_from(np.column_stack([np.zeros(120), x]), y, ["flat", "x"])
    hp = TreeHyperParams(max_depth=3)
    want = reference_rfecv(table, hp=hp, folds=3, seed=0)
    calls = []
    real_grow, real_split = learners._grow, tree._best_split
    real_apply = tree.DecisionTreeModel._apply
    real_select, real_delete = TrainingTable.select_features, np.delete
    n_rows = {len(table)} | {len(train) for train, _ in stratified_kfold(table.y, 3, 0)}

    def grow(*args, **kwargs):
        calls.append("refit" if kwargs.get("prev") is not None else "fit")
        return real_grow(*args, **kwargs)

    def split(*args):
        calls.append("search")
        return real_split(*args)

    def apply(self, *args):
        calls.append("apply")
        return real_apply(self, *args)

    def select(self, names):
        calls.append("select")
        return real_select(self, names)

    def delete(arr, *args, **kwargs):
        if n_rows & set(np.shape(arr)):
            calls.append("delete")
        return real_delete(arr, *args, **kwargs)
    monkeypatch.setattr(learners, "_grow", grow)
    monkeypatch.setattr(TrainingTable, "select_features", select)
    monkeypatch.setattr(np, "delete", delete)
    monkeypatch.setattr(tree, "_best_split", split)
    monkeypatch.setattr(tree.DecisionTreeModel, "_apply", apply)
    got = rfecv(table, hp=hp, folds=3, seed=0)
    assert (got.names, got.score_trace) == (want.names, want.score_trace)
    # size 2: three fold fits, their three test folds and the importance fit;
    # size 1: three refits that neither search nor route
    assert calls.count("apply") == 3
    assert calls[calls.index("refit"):] == ["refit"] * 3
    assert "select" not in calls and "delete" not in calls
    assert got.score_trace[1] == got.score_trace[2]


class TestRfecvMatchesReference:
    def _assert_same(self, table, **kwargs):
        got, want = rfecv(table, **kwargs), reference_rfecv(table, **kwargs)
        assert got.names == want.names
        assert got.score_trace == want.score_trace

    @pytest.mark.parametrize("seed", [0, 7])
    def test_balanced_season(self, small_table, seed):
        self._assert_same(adasyn(small_table, ResamplingConfig(seed=seed)), seed=seed)

    @pytest.mark.parametrize("hp", [TreeHyperParams(), TreeHyperParams(max_depth=2)])
    def test_planted_and_random_tables(self, hp):
        self._assert_same(planted_table(n=200, seed=8, noise_features=6), hp=hp, seed=1)
        self._assert_same(rand_table(n=90, p=8, n_pos=35, seed=9), hp=hp, seed=4)

    def test_tie_heavy_table_with_duplicate_rows(self):
        rng = np.random.default_rng(12)
        X = rng.integers(0, 3, size=(60, 7)).astype(float)
        X[:, 3] = X[:, 0]
        X[30:] = X[:30]
        y = rng.integers(0, 2, size=60)
        self._assert_same(table_from(X, y), hp=TreeHyperParams(), seed=2)


class TestLogit:
    def _random_problem(self, seed, n=40, p=4):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, size=n)
        w = rng.normal(size=p)
        b = float(rng.normal())
        return X, y, w, b

    def test_gradient_matches_finite_differences(self):
        h = 1e-6
        for seed in range(5):
            X, y, w, b = self._random_problem(seed)
            _, gw, gb = logit_loss_grad(w, b, X, y, l2=0.1)
            for j in range(len(w)):
                e = np.zeros_like(w)
                e[j] = h
                lp, _, _ = logit_loss_grad(w + e, b, X, y, l2=0.1)
                lm, _, _ = logit_loss_grad(w - e, b, X, y, l2=0.1)
                fd = (lp - lm) / (2 * h)
                assert abs(gw[j] - fd) <= 1e-4 * max(1.0, abs(fd))
            lp, _, _ = logit_loss_grad(w, b + h, X, y, l2=0.1)
            lm, _, _ = logit_loss_grad(w, b - h, X, y, l2=0.1)
            assert abs(gb - (lp - lm) / (2 * h)) <= 1e-4

    def test_loss_is_stable_at_extreme_margins(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([1, 0])
        loss, gw, gb = logit_loss_grad(np.array([5.0]), 0.0, X, y, l2=0.0)
        assert np.isfinite(loss) and np.all(np.isfinite(gw)) and np.isfinite(gb)

    def test_fit_separates_separable_data(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-2, 0.4, size=(40, 2)),
                       rng.normal(2, 0.4, size=(40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        model = fit_logit(table_from(X, y), seed=0)
        pred, score = model.predict(X)
        np.testing.assert_array_equal(pred, y)
        assert score[y == 1].min() > score[y == 0].max()

    def test_zero_model_scores_half(self):
        model = LinearModel(np.zeros(3), 0.0, ["a", "b", "c"])
        pred, score = model.predict(np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(score, 0.5)
        np.testing.assert_array_equal(pred, 1)  # >= 0.5 rounds toward injury

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        with pytest.raises(NonConvergence) as exc:
            fit_logit(table_from(X, y), max_iter=1, tol=1e-14, seed=0)
        assert exc.value.iterations == 1

    def test_l2_shrinks_weights(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(int)
        light = fit_logit(table_from(X, y), l2=1e-4, seed=0)
        heavy = fit_logit(table_from(X, y), l2=10.0, seed=0)
        assert np.linalg.norm(heavy.weights) < np.linalg.norm(light.weights)

    def test_fit_and_scores_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a 4x season's balanced table, standardized as the LR forecaster's is:
        # BLAS products split over 1 or 2 threads round this one differently
        log, _ = generate(GeneratorConfig(n_players=104, seed=7))
        table, _ = build_training_table(assign_labels(log), log.players)
        table = adasyn(table, ResamplingConfig(seed=7))
        np.save(tmp_path / "X.npy", standardize(table.X, table.X))
        np.save(tmp_path / "y.npy", table.y)
        child = ("import sys, numpy as np\n"
                 "from injurycast.features import TrainingTable\n"
                 "from injurycast.learners import fit_logit\n"
                 "X, y = np.load(sys.argv[1] + '/X.npy'), np.load(sys.argv[1] + '/y.npy')\n"
                 "t = TrainingTable([str(j) for j in range(X.shape[1])], X, y,"
                 " [''] * len(y), [None] * len(y))\n"
                 "m = fit_logit(t, tol=1e-4)\n"
                 "print(m.weights.tobytes().hex(), m.bias.hex(), m.predict(X)[1].tobytes().hex())\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            out.append(done.stdout)
        assert out[0] == out[1]


class TestForest:
    def test_scores_are_tree_averages(self):
        t = planted_table(n=150, seed=9)
        forest = fit_forest(t, n_trees=7, hp=TreeHyperParams(max_depth=3), seed=1)
        grid = np.random.default_rng(1).uniform(size=(50, t.X.shape[1]))
        pred, score = forest.predict(grid)
        per_tree = np.stack([m.predict(grid)[1] for m in forest.trees])
        np.testing.assert_allclose(score, per_tree.mean(axis=0))
        np.testing.assert_array_equal(pred, (score >= 0.5).astype(int))

    def test_learns_planted_signal(self):
        t = planted_table(n=300, seed=10)
        forest = fit_forest(t, n_trees=25, hp=TreeHyperParams(max_depth=4), seed=2)
        pred, _ = forest.predict(t.X)
        assert np.mean(pred == t.y) > 0.95

    def test_deterministic(self):
        t = planted_table(n=120, seed=11)
        a = fit_forest(t, n_trees=5, hp=TreeHyperParams(max_depth=3), seed=3)
        b = fit_forest(t, n_trees=5, hp=TreeHyperParams(max_depth=3), seed=3)
        grid = np.random.default_rng(2).uniform(size=(40, t.X.shape[1]))
        np.testing.assert_array_equal(a.predict(grid)[1], b.predict(grid)[1])
