"""End-to-end evaluation pipeline: split, oversample, select, tune, cross-validate."""
from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0


def _oversampled(table, seed: int):
    if table.y.sum() < 2:
        return table
    return adasyn(table, ResamplingConfig(seed=seed))


def _select_and_tune(table, seed: int, names=None):
    """Oversample the table, select features by RFECV unless `names` is given, and
    tune the tree on the selection. Returns (oversampled table, names, hyperparams)."""
    balanced = _oversampled(table, seed)
    if names is None:
        names = rfecv(balanced, seed=seed).names
    hp = tune(balanced.select_features(names), seed=seed)
    return balanced, names, hp


def _evaluate(table, cfg: PipelineConfig, forecast):
    """Steps 1-3 of run_pipeline for every forecaster that `forecast` yields on a
    fold as (name, predictions, scores). Returns the split sizes, names,
    hyperparameters and, per forecaster, (confusion, scores, labels) over all folds."""
    a_idx, b_idx = stratified_split(table.y, TRAIN_FRACTION, cfg.seed)
    t_train = table.take(a_idx)
    t_test = table.take(b_idx)
    _, names, hp = _select_and_tune(t_train, cfg.seed)

    runs = {}
    for f, (fit_idx, eval_idx) in enumerate(
            stratified_kfold(t_test.y, EVAL_FOLDS, cfg.seed + 1)):
        fold_eval = t_test.take(eval_idx)
        if fold_eval.synthetic.any():
            raise SyntheticEvaluation(f"evaluation fold {f} holds synthetic rows; "
                                      "a table to evaluate must be observed sessions only")
        fold_train = _oversampled(t_test.take(fit_idx), cfg.seed + 100 + f)
        for name, pred, score in forecast(cfg, f, fold_train, fold_eval, names, hp):
            runs.setdefault(name, []).append((pred, score, fold_eval.y))
    pooled = {}
    for name, folds in runs.items():
        pred, score, label = (np.concatenate(part) for part in zip(*folds))
        pooled[name] = (ConfusionMatrix.from_predictions(label, pred), score, label)
    return {"train": len(t_train), "test": len(t_test)}, names, hp, pooled


def _tree_forecast(cfg, f, train, test, names, hp):
    model = fit_tree(train.select_features(names), hp=hp, seed=cfg.seed)
    yield "DT", *model.predict(test.select_features(names).X)


def run_pipeline(table, cfg: PipelineConfig = PipelineConfig()) -> EvalReport:
    """Execute the three-step procedure with the decision tree; pool metrics over the test folds.

    Step 1 splits the table into a 30% tuning part and a 70% test part,
    stratified. Step 2 oversamples the tuning part, selects features and fits
    hyperparameters. Step 3 runs a stratified CV on the test part where each
    training fold is oversampled and the evaluation fold never is.
    """
    split_sizes, names, hp, runs = _evaluate(table, cfg, _tree_forecast)
    cm, scores, labels = runs["DT"]
    return EvalReport(per_class=metrics(cm), auc=auc(scores, labels), confusion=cm,
                      seed=cfg.seed, split_sizes=split_sizes,
                      selected_features=list(names), hyperparams=hp.to_dict())


def compare_forecasters(table, cfg: PipelineConfig = PipelineConfig(),
                        n_forest_trees: int = 50) -> dict:
    """Evaluate DT, RF, LR, the four baselines and the combined ACWR forecasters
    under the same split/fold protocol; returns forecaster name -> EvalReport."""
    def forecast(cfg, f, train, test, names, hp):
        yield from _tree_forecast(cfg, f, train, test, names, hp)
        x_train, x_test = train.select_features(names), test.select_features(names)
        forest = fit_forest(x_train, n_forest_trees, hp=hp, seed=cfg.seed)
        yield "RF", *forest.predict(x_test.X)
        try:
            logit = fit_logit(replace(x_train, X=standardize(x_train.X, x_train.X)),
                              seed=cfg.seed, tol=1e-4)
        except NonConvergence:
            yield "LR", np.zeros(len(test), dtype=int), np.full(len(test), 0.5)
        else:
            yield "LR", *logit.predict(standardize(x_test.X, x_train.X))
        for kind in ("B1", "B2", "B3", "B4"):
            pred = baseline_predict(kind, test, seed=cfg.seed + f)
            yield kind, pred, pred.astype(float)
        for combine, name in ((Combine.VOTE, "C_vote"), (Combine.ALL, "C_all"),
                              (Combine.ONE, "C_one")):
            pred = mono_forecast(test, combine)
            yield name, pred, pred.astype(float)

    _, names, hp, runs = _evaluate(table, cfg, forecast)
    reports = {}
    for name, (cm, scores, labels) in runs.items():
        try:
            auc_val = auc(scores, labels)
        except OneClassOnly:
            auc_val = float("nan")
        reports[name] = EvalReport(per_class=metrics(cm), auc=auc_val,
                                   confusion=cm, seed=cfg.seed,
                                   selected_features=list(names),
                                   hyperparams=hp.to_dict())
    return reports


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
