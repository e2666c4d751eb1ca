"""End-to-end evaluation pipeline: split, oversample, select, tune, cross-validate."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .baselines import Combine, baseline_predict, mono_forecast
from .errors import NonConvergence, OneClassOnly, SyntheticEvaluation
from .learners import fit_forest, fit_logit, rfecv, tune
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    auc,
    metrics,
    stratified_kfold,
    stratified_split,
)
from .resampling import ResamplingConfig, adasyn, standardize
from .tree import fit_tree


# the paper's protocol: a stratified 30 % tunes and selects, the other 70 % is
# evaluated by stratified k-fold CV
TRAIN_FRACTION = 0.3
EVAL_FOLDS = 2


def _oversampled(table, seed: int):
    if table.y.sum() < 2:
        return table
    return adasyn(table, ResamplingConfig(seed=seed))


def _select_and_tune(table, seed: int, names=None):
    """Oversample the table, select features by RFECV unless `names` is given, and
    tune the tree on the selection. Returns (the oversampled table's selected
    columns, hyperparams)."""
    balanced = _oversampled(table, seed)
    if names is None:
        names = rfecv(balanced, seed=seed).names
    selected = balanced.select_features(names)
    return selected, tune(selected, seed=seed)


def fit_forecaster(table, seed: int, names=None):
    """The deployable tree: fitted on _select_and_tune's selection with its
    hyperparameters; its feature_names are the selected columns."""
    selected, hp = _select_and_tune(table, seed, names)
    return fit_tree(selected, hp=hp, seed=seed)


def _evaluate(table, seed: int, forecast) -> dict:
    """The three-step procedure for every forecaster that `forecast(seed, fold,
    train columns, eval columns, eval fold, hyperparams)` yields on a fold as
    (name, predictions, scores); returns name -> EvalReport pooled over the folds.

    Step 1 splits the table into a 30% tuning part and a 70% test part,
    stratified. Step 2 oversamples the tuning part, selects features and fits
    hyperparameters. Step 3 runs a stratified CV on the test part where each
    training fold is oversampled and the evaluation fold never is.
    """
    # the split leaves c - round(0.3 c) >= 1 rows of each class of c >= 2 in the
    # test part, so with both labels present every pooled AUC sees both
    if len(table) and table.y.min() == table.y.max():
        raise OneClassOnly(f"every row of the table has label {table.y[0]}; "
                           "the protocol needs injury and no-injury rows")
    a_idx, b_idx = stratified_split(table.y, TRAIN_FRACTION, seed)
    t_test = table.take(b_idx)
    x_tune, hp = _select_and_tune(table.take(a_idx), seed)
    names = x_tune.feature_names

    runs = {}
    for f, (fit_idx, eval_idx) in enumerate(stratified_kfold(t_test.y, EVAL_FOLDS, seed + 1)):
        fold_eval = t_test.take(eval_idx)
        if fold_eval.synthetic.any():
            raise SyntheticEvaluation(f"evaluation fold {f} holds synthetic rows; "
                                      "a table to evaluate must be observed sessions only")
        x_train = _oversampled(t_test.take(fit_idx), seed + 100 + f).select_features(names)
        x_eval = fold_eval.select_features(names)
        for name, pred, score in forecast(seed, f, x_train, x_eval, fold_eval, hp):
            runs.setdefault(name, []).append((pred, score, fold_eval.y))
    reports = {}
    for name, folds in runs.items():
        pred, score, label = (np.concatenate(part) for part in zip(*folds))
        cm = ConfusionMatrix.from_predictions(label, pred)
        reports[name] = EvalReport(
            per_class=metrics(cm), auc=auc(score, label), confusion=cm, seed=seed,
            split_sizes={"train": len(a_idx), "test": len(b_idx)},
            selected_features=list(names), hyperparams=hp.to_dict())
    return reports


def _tree_forecast(seed, f, x_train, x_eval, fold_eval, hp):
    yield "DT", *fit_tree(x_train, hp=hp, seed=seed).predict(x_eval.X)


def run_pipeline(table, seed: int = 0) -> EvalReport:
    """The protocol (see _evaluate) with the decision tree."""
    return _evaluate(table, seed, _tree_forecast)["DT"]


def compare_forecasters(table, seed: int = 0, n_forest_trees: int = 50) -> dict:
    """Evaluate DT, RF, LR, the four baselines and the combined ACWR forecasters
    under the same split/fold protocol; returns forecaster name -> EvalReport."""
    def forecast(seed, f, x_train, x_eval, fold_eval, hp):
        yield from _tree_forecast(seed, f, x_train, x_eval, fold_eval, hp)
        forest = fit_forest(x_train, n_forest_trees, hp=hp, seed=seed)
        yield "RF", *forest.predict(x_eval.X)
        try:
            logit = fit_logit(replace(x_train, X=standardize(x_train.X, x_train.X)),
                              seed=seed, tol=1e-4)
        except NonConvergence:
            yield "LR", np.zeros(len(fold_eval), dtype=int), np.full(len(fold_eval), 0.5)
        else:
            yield "LR", *logit.predict(standardize(x_eval.X, x_train.X))
        for kind in ("B1", "B2", "B3", "B4"):
            pred = baseline_predict(kind, fold_eval, seed=seed + f)
            yield kind, pred, pred.astype(float)
        for combine, name in ((Combine.VOTE, "C_vote"), (Combine.ALL, "C_all"),
                              (Combine.ONE, "C_one")):
            pred = mono_forecast(fold_eval, combine)
            yield name, pred, pred.astype(float)

    return _evaluate(table, seed, forecast)


def comparison_rows(reports: dict) -> list:
    """Flatten compare_forecasters output into Table-2-layout rows."""
    rows = []
    for name, rep in reports.items():
        for cls_key, cls_label in (("no_injury", "NI"), ("injury", "I")):
            m = rep.per_class[cls_key]
            rows.append({"forecaster": name, "class": cls_label,
                         "precision": round(m["precision"], 4),
                         "recall": round(m["recall"], 4),
                         "f1": round(m["f1"], 4),
                         "auc": round(rep.auc, 4) if cls_label == "NI" else ""})
    return rows


def render_comparison(reports: dict, fmt: str = "text") -> str:
    rows = comparison_rows(reports)
    if fmt == "csv":
        lines = ["forecaster,class,precision,recall,f1,auc"]
        lines += [f'{r["forecaster"]},{r["class"]},{r["precision"]},{r["recall"]},'
                  f'{r["f1"]},{r["auc"]}' for r in rows]
        return "\n".join(lines) + "\n"
    header = f'{"forecaster":<10}{"class":<7}{"prec":>8}{"rec":>8}{"F1":>8}{"AUC":>8}'
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f'{r["forecaster"]:<10}{r["class"]:<7}{r["precision"]:>8.2f}'
                     f'{r["recall"]:>8.2f}{r["f1"]:>8.2f}'
                     + (f'{r["auc"]:>8.2f}' if r["auc"] != "" else f'{"":>8}'))
    return "\n".join(lines) + "\n"
