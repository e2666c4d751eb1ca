"""Ensemble and linear learners plus hyperparameter tuning and RFECV feature selection."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTable, NonConvergence
from .metrics import ConfusionMatrix, metrics, stratified_kfold
from .tree import Presorted, TreeHyperParams, _grow, fit_tree

# the protocol's settings: RFECV's tree and folds, tune's folds, the forest's size,
# and the logistic regression's penalty and stopping rule
RFECV_HP = TreeHyperParams(max_depth=5)
RFECV_FOLDS = 3
TUNE_FOLDS = 2
FOREST_TREES = 50
LOGIT_L2 = 1e-3
LOGIT_MAX_ITER = 5000
LOGIT_TOL = 1e-4


def default_grid():
    """Search space for decision-tree tuning; small enough for repeated trials."""
    return [TreeHyperParams(max_depth=d, min_samples_leaf=l, min_samples_split=s)
            for d in (2, 3, 4, 5, 6, 8)
            for l in (1, 2, 5, 10)
            for s in (2, 10)]


@dataclass
class ForestModel:
    """Bagged CART ensemble with sqrt(p) feature subsampling per split."""
    trees: list

    def predict(self, X):
        scores = np.mean([t.predict(X)[1] for t in self.trees], axis=0)
        return (scores >= 0.5).astype(int), scores


def fit_forest(table, hp: TreeHyperParams = TreeHyperParams(), seed: int = 0) -> ForestModel:
    if len(table) == 0:
        raise EmptyTable("cannot fit a forest on an empty table")
    rng = np.random.default_rng(seed)
    max_features = max(1, int(round(np.sqrt(len(table.feature_names)))))
    trees = []
    for _ in range(FOREST_TREES):
        sub = table.take(rng.integers(0, len(table), size=len(table)))
        trees.append(fit_tree(sub, hp=hp, seed=int(rng.integers(2 ** 31)),
                              max_features=max_features))
    return ForestModel(trees)


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = 1.0 / (1.0 + np.exp(-(np.einsum("ij,j->i", X, self.weights) + self.bias)))
        return (scores >= 0.5).astype(int), scores


def logit_loss_grad(w, b, X, y, l2):
    """L2-regularized mean log-loss and its gradient w.r.t. (w, b).

    np.einsum without `optimize` forms both products in numpy's own loop, on the
    calling thread: X @ w would hand them to BLAS, whose sums are split, and so
    rounded, by the number of threads it runs."""
    z = np.einsum("ij,j->i", X, w) + b
    # stable log(1 + exp(z)) and sigmoid: exp only ever sees -|z|
    ez = np.exp(-np.abs(z))
    log1pexp = np.maximum(z, 0.0) + np.log1p(ez)
    loss = float(np.mean(log1pexp - y * z) + 0.5 * l2 * np.dot(w, w))
    sig = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    resid = sig - y
    grad_w = np.einsum("ij,i->j", X, resid) / len(y) + l2 * w
    grad_b = float(np.mean(resid))
    return loss, grad_w, grad_b


def fit_logit(table, seed: int = 0) -> LinearModel:
    """Logistic regression by gradient descent with backtracking line search.

    Expects standardized features; raises NonConvergence when the gradient
    norm stays above LOGIT_TOL after LOGIT_MAX_ITER iterations.
    """
    if len(table) == 0:
        raise EmptyTable("cannot fit a logit model on an empty table")
    X = np.asarray(table.X, dtype=float)
    y = np.asarray(table.y, dtype=float)
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=1e-3, size=X.shape[1])
    b = 0.0
    step = 1.0
    loss, gw, gb = logit_loss_grad(w, b, X, y, LOGIT_L2)
    for it in range(LOGIT_MAX_ITER + 1):
        gnorm = float(np.sqrt(np.dot(gw, gw) + gb * gb))
        if gnorm < LOGIT_TOL:
            return LinearModel(w, b)
        if it == LOGIT_MAX_ITER:
            raise NonConvergence(LOGIT_MAX_ITER, gnorm)
        while step > 1e-12:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new, gw_new, gb_new = logit_loss_grad(w_new, b_new, X, y, LOGIT_L2)
            if loss_new <= loss - 0.5 * step * gnorm ** 2:
                break
            step *= 0.5
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
        step = min(step * 2.0, 1e6)


def _cv_folds(table, folds, seed, data):
    """Seeded stratified k-fold of `table` as (train, test) pairs: the training
    rows presorted (tree.Presorted) and the test rows a table. Each training side
    is taken from `data`, the whole table presorted, so one sort serves every
    fold and every fit of a search. A fold with no training rows, which a
    table of at most one row per class leaves, raises EmptyTable."""
    cv = stratified_kfold(table.y, folds, seed)
    for k, (train_idx, _) in enumerate(cv):
        if len(train_idx) == 0:
            raise EmptyTable(f"{folds}-fold CV of {len(table)} rows leaves fold {k} "
                             "with no training rows")
    return [(data.take(train_idx), table.take(test_idx)) for train_idx, test_idx in cv]


def _fold_f1(model, test, stop, feature=None):
    """Injury F1 on the test table of model's predictions at the nodes the mask
    stop marks (DecisionTreeModel._apply). Routing reads column feature[node] of
    test in place (the model's own feature by default); leaves read none."""
    pred = model._predict(test.X, stop, feature)[0]
    return metrics(ConfusionMatrix.from_predictions(test.y, pred))["injury"]["f1"]


def tune(table, grid=None, seed: int = 0) -> TreeHyperParams:
    """Grid point maximizing mean injury-class F1 under stratified TUNE_FOLDS-fold CV.

    Ties prefer the smaller max_depth, then the larger min_samples_leaf.

    Each fold grows one tree per min_samples_leaf, with the largest max_depth
    (None if any point has None) and smallest min_samples_split of the points
    sharing it, and scores each point on that tree cut back to the point's own
    settings (DecisionTreeModel._cut), which predicts as the point's own fit.
    """
    grid = list(grid) if grid is not None else default_grid()
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    cv = _cv_folds(table, TUNE_FOLDS, seed, Presorted(table))
    deep = {}  # min_samples_leaf -> one tree per fold
    for leaf in dict.fromkeys(hp.min_samples_leaf for hp in grid):
        group = [hp for hp in grid if hp.min_samples_leaf == leaf]
        depths = [hp.max_depth for hp in group]
        deepest = TreeHyperParams(None if None in depths else max(depths), leaf,
                                  min(hp.min_samples_split for hp in group))
        deep[leaf] = [_grow(train, deepest, seed) for train, _ in cv]

    def key(hp):
        score = float(np.mean([
            _fold_f1(model, test, model._cut(hp.max_depth, hp.min_samples_split))
            for model, (_, test) in zip(deep[hp.min_samples_leaf], cv)]))
        depth = hp.max_depth if hp.max_depth is not None else np.inf
        return -score, depth, -hp.min_samples_leaf
    return min(grid, key=key)  # the first of tied points


@dataclass
class FeatureSubset:
    names: list  # selected feature names, in table column order
    score_trace: dict = field(default_factory=dict)  # subset size -> CV score

    def __post_init__(self):
        if not self.names:
            raise ValueError("feature subset must be non-empty")


def rfecv(table, seed: int = 0) -> FeatureSubset:
    """Recursive feature elimination (step 1) with cross-validated scoring.

    At each size the current subset is scored by stratified-CV injury F1 and
    the lowest-importance feature is dropped; the best-scoring subset wins,
    with ties resolved toward the smallest subset.

    Each fold's tree and the importance tree are refitted from their tree at
    the previous size (tree._grow), which searches only under the nodes whose
    winner the drop changes; the models are the ones fit_tree would give. A
    fold tree that the drop leaves unchanged (_reused) keeps its previous F1
    without routing the test fold again. Narrowing shares every sorted column
    (Presorted.drop), and a changed fold tree routes the whole test fold through
    the live columns, so no table is narrowed.
    """
    data = Presorted(table)
    cv = _cv_folds(table, RFECV_FOLDS, seed, data)
    fold_models = [None] * len(cv)
    fold_f1 = [None] * len(cv)
    model = None
    dropped = -1
    trace = {}
    subsets = {}
    while True:
        names = data.feature_names
        fold_models = [_grow(train, hp=RFECV_HP, seed=seed, prev=prev, dropped=dropped)
                       for (train, _), prev in zip(cv, fold_models)]
        fold_f1 = [f1 if m._reused else _fold_f1(m, test, m.feature < 0, data.live[m.feature])
                   for m, f1, (_, test) in zip(fold_models, fold_f1, cv)]
        trace[len(names)] = float(np.mean(fold_f1))
        subsets[len(names)] = names
        if len(names) == 1:
            break
        model = _grow(data, hp=RFECV_HP, seed=seed, prev=model, dropped=dropped)
        imp = model.importances()
        # drop the least important feature; unused features rank lowest,
        # ties resolved by column order
        dropped = min(range(len(names)), key=lambda i: (imp.get(names[i], 0.0), i))
        # narrowing keeps each column's sorted order: nothing is sorted again
        data = data.drop(dropped)
        cv = [(train.drop(dropped), test) for train, test in cv]
    best_size = min(trace, key=lambda s: (-trace[s], s))
    return FeatureSubset(subsets[best_size], trace)
