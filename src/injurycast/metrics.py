"""Confusion-matrix metrics, AUC and stratified splitting."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClassTooSmall, EmptyTable, OneClassOnly


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn)

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionMatrix":
        y_true = np.asarray(y_true, dtype=int)
        y_pred = np.asarray(y_pred, dtype=int)
        return cls(tp=int(np.sum((y_true == 1) & (y_pred == 1))),
                   fp=int(np.sum((y_true == 0) & (y_pred == 1))),
                   tn=int(np.sum((y_true == 0) & (y_pred == 0))),
                   fn=int(np.sum((y_true == 1) & (y_pred == 0))))


def _prf(tp, fp, fn):
    prec = tp / (tp + fp) if tp + fp > 0 else 0.0
    rec = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return prec, rec, f1


def metrics(cm: ConfusionMatrix) -> dict:
    """Per-class precision/recall/F1; 0/0 cases resolve to 0 by convention."""
    p1, r1, f1 = _prf(cm.tp, cm.fp, cm.fn)
    p0, r0, f0 = _prf(cm.tn, cm.fn, cm.fp)
    return {
        "injury": {"precision": p1, "recall": r1, "f1": f1},
        "no_injury": {"precision": p0, "recall": r0, "f1": f0},
    }


def auc(scores, labels) -> float:
    """Rank-based AUC (Mann-Whitney U normalized); score ties count 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise OneClassOnly("AUC needs both classes present")
    # midranks avoid the O(n^2) pairwise loop: a group of tied values spanning
    # 1-based ranks a..b gets (a + b) / 2 = cumsum(counts) - (counts - 1) / 2
    _, group, counts = np.unique(np.concatenate([pos, neg]), return_inverse=True,
                                 return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    r_pos = ranks[:len(pos)].sum()
    u = r_pos - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


@dataclass
class EvalReport:
    per_class: dict  # metrics() output
    auc: float
    confusion: ConfusionMatrix
    seed: int = 0
    split_sizes: dict = field(default_factory=dict)
    selected_features: list = field(default_factory=list)
    hyperparams: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_class": self.per_class,
            "auc": self.auc,
            "confusion": {"tp": self.confusion.tp, "fp": self.confusion.fp,
                          "tn": self.confusion.tn, "fn": self.confusion.fn},
            "seed": self.seed,
            "split_sizes": self.split_sizes,
            "selected_features": self.selected_features,
            "hyperparams": self.hyperparams,
        }


def stratified_split(y, fraction: float, seed: int):
    """Seeded per-class split; part_a receives round(fraction * class count) of each class."""
    if not (0 < fraction < 1):
        raise ValueError("fraction must be in (0, 1)")
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise EmptyTable("cannot split an empty table")
    rng = np.random.default_rng(seed)
    part_a, part_b = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if len(idx) == 0:
            continue
        n_a = int(round(fraction * len(idx)))
        if n_a == 0 or n_a == len(idx):
            raise ClassTooSmall(
                f"class {cls} with {len(idx)} examples cannot be split at fraction {fraction}")
        perm = rng.permutation(idx)
        part_a.extend(perm[:n_a])
        part_b.extend(perm[n_a:])
    return np.sort(np.array(part_a)), np.sort(np.array(part_b))


def stratified_kfold(y, folds: int, seed: int):
    """Seeded stratified k-fold; yields (train_idx, test_idx) pairs."""
    y = np.asarray(y, dtype=int)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        assignments[idx] = np.arange(len(idx)) % folds
    splits = []
    for f in range(folds):
        test = np.flatnonzero(assignments == f)
        train = np.flatnonzero(assignments != f)
        splits.append((train, test))
    return splits
