"""Binary CART decision tree with Gini splits, grown greedily from presorted columns
(SLIQ-style attribute lists) with a vectorised all-feature split search."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyNode, EmptyTable, MissingFeature


@dataclass(frozen=True)
class TreeHyperParams:
    max_depth: int | None = None
    min_samples_leaf: int = 1
    min_samples_split: int = 2

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_leaf < 1 or self.min_samples_split < 1:
            raise ValueError("min_samples_leaf and min_samples_split must be >= 1")

    def to_dict(self) -> dict:
        return {"max_depth": self.max_depth,
                "min_samples_leaf": self.min_samples_leaf,
                "min_samples_split": self.min_samples_split}


def gini(class_counts) -> float:
    """Gini impurity 1 - sum(p_c^2) of a two-class count pair."""
    c0, c1 = class_counts
    total = c0 + c1
    if total == 0:
        raise EmptyNode("gini of an empty node is undefined")
    p0, p1 = c0 / total, c1 / total
    return 1.0 - (p0 * p0 + p1 * p1)


class DecisionTreeModel:
    """Fitted tree stored as parallel node arrays (an arena).

    feature[i] == -1 marks a leaf. Routing sends a sample left iff
    value <= threshold. Leaf score is the minority (injury) class fraction;
    count ties predict class 0.
    """

    def __init__(self, feature_names, hyperparams: TreeHyperParams):
        self.feature_names = list(feature_names)
        self.hyperparams = hyperparams
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.counts = []  # per node (n_class0, n_class1)
        self._raw_importance = None

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def _add_node(self, counts):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append((int(counts[0]), int(counts[1])))
        return len(self.feature) - 1

    def _finalize(self):
        self.feature = np.asarray(self.feature, dtype=int)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=int)
        self.right = np.asarray(self.right, dtype=int)
        self.counts = np.asarray(self.counts, dtype=int)

    def predict(self, X):
        """Vectorized routing; returns (classes, minority-fraction scores)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.feature_names):
            raise MissingFeature(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        node = np.zeros(len(X), dtype=int)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            f = self.feature[node[idx]]
            go_left = X[idx, f] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
            active = self.feature[node] >= 0
        c = self.counts[node]
        scores = c[:, 1] / c.sum(axis=1)
        classes = (c[:, 1] > c[:, 0]).astype(int)
        return classes, scores

    def importances(self) -> dict:
        """Normalized Gini importances over features actually used by splits."""
        raw = self._raw_importance
        if raw is None or raw.sum() == 0:
            return {}
        norm = raw / raw.sum()
        return {self.feature_names[i]: float(norm[i])
                for i in np.flatnonzero(raw > 0)}

    def to_dict(self) -> dict:
        return {
            "feature_names": self.feature_names,
            "hyperparams": self.hyperparams.to_dict(),
            "nodes": {
                "feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "left": self.left.tolist(),
                "right": self.right.tolist(),
                "counts": self.counts.tolist(),
            },
            "raw_importance": (self._raw_importance.tolist()
                               if self._raw_importance is not None else None),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTreeModel":
        model = cls(data["feature_names"], TreeHyperParams(**data["hyperparams"]))
        nodes = data["nodes"]
        model.feature = np.asarray(nodes["feature"], dtype=int)
        model.threshold = np.asarray(nodes["threshold"], dtype=float)
        model.left = np.asarray(nodes["left"], dtype=int)
        model.right = np.asarray(nodes["right"], dtype=int)
        model.counts = np.asarray(nodes["counts"], dtype=int)
        raw = data.get("raw_importance")
        model._raw_importance = np.asarray(raw, dtype=float) if raw is not None else None
        return model

    @classmethod
    def from_json(cls, text: str) -> "DecisionTreeModel":
        return cls.from_dict(json.loads(text))


def presort(X) -> np.ndarray:
    """(p, n) matrix whose row f lists the row indices of X in ascending order of
    column f, ties in row order."""
    return np.argsort(X.T, axis=1, kind="stable")


def _best_split(sv, sy, min_leaf):
    """Best split of one node over its candidate features, in one vectorised pass.

    Row j of sv holds the node's values of candidate j in ascending order and
    row j of sy their labels. Returns (j, threshold, weighted child impurity)
    for the lowest weighted child Gini, ties going to the first candidate and
    within it to the first position, or None when no candidate has a valid split.
    """
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
    # row-major argmin: the first candidate holding the minimum, at its first position
    j, i = divmod(int(np.argmin(weighted)), hi - lo)
    if weighted[j, i] == np.inf:
        return None
    threshold = 0.5 * (sv[j, lo + i] + sv[j, lo + i + 1])
    return j, float(threshold), float(weighted[j, i])


def fit_tree(table_or_X, y=None, feature_names=None,
             hp: TreeHyperParams = TreeHyperParams(), seed: int = 0,
             max_features: int | None = None) -> DecisionTreeModel:
    """Greedy CART fit maximizing size-weighted Gini decrease at every node.

    Accepts either a TrainingTable or (X, y, feature_names) arrays. The seed
    only breaks exact-gain ties, via a seeded permutation of the feature
    evaluation order; max_features enables per-node feature subsampling for
    random forests.

    Each column is sorted once per fit, or once per table when given a
    TrainingTable (TrainingTable.sorted_rows). A node searches all candidate
    features in one vectorised pass and hands its children a stable filter of
    its sorted rows. Nodes grow from an explicit stack in preorder, so depth
    is not bounded by the recursion limit.
    """
    if y is None:
        table = table_or_X
        X = table.X
        y = table.y
        feature_names = table.feature_names
    else:
        table = None
        X = np.asarray(table_or_X, dtype=float)
        y = np.asarray(y, dtype=int)
        if feature_names is None:
            feature_names = [f"f{i}" for i in range(X.shape[1])]
    if len(y) == 0:
        raise EmptyTable("cannot fit a tree on an empty table")
    if X.shape[1] == 0:
        raise EmptyTable("cannot fit a tree with no features")

    rng = np.random.default_rng(seed)
    p = X.shape[1]
    feature_order = rng.permutation(p)

    model = DecisionTreeModel(feature_names, hp)
    raw_importance = np.zeros(p)
    n_total = len(y)
    goes_left = np.zeros(n_total, dtype=bool)  # reused: a split reads only its own rows
    cols = np.ascontiguousarray(X.T)
    offsets = np.arange(p)[:, None] * n_total  # rows[f] + offsets[f] index cols.ravel()
    root = table.sorted_rows() if table is not None else presort(X)
    stack = [(root, 0, -1, model.left)]  # (sorted rows, depth, parent, parent's link)
    while stack:
        rows, depth, parent, link = stack.pop()
        ones = y.take(rows[0])
        n = len(ones)
        counts = (n - ones.sum(), ones.sum())
        node_id = model._add_node(counts)
        if parent >= 0:
            link[parent] = node_id
        impurity = gini(counts)
        if (impurity == 0.0
                or n < hp.min_samples_split
                or (hp.max_depth is not None and depth >= hp.max_depth)):
            continue

        cand = feature_order
        if max_features is not None and max_features < p:
            cand = rng.choice(p, size=max_features, replace=False)
        cand_rows = rows[cand]
        sv = cols.take(cand_rows + offsets[cand])
        split = _best_split(sv, y.take(cand_rows), hp.min_samples_leaf)
        if split is None:
            continue
        j, best_thr, best_child_imp = split
        best_feat = int(cand[j])
        decrease = impurity - best_child_imp
        if decrease <= 1e-12:
            continue

        goes_left[cand_rows[j]] = sv[j] <= best_thr
        left = goes_left.take(rows).ravel()
        model.feature[node_id] = best_feat
        model.threshold[node_id] = best_thr
        raw_importance[best_feat] += (n / n_total) * decrease
        # right is pushed first so the left subtree is grown first: preorder ids
        stack.append((np.compress(~left, rows).reshape(p, -1), depth + 1, node_id,
                      model.right))
        stack.append((np.compress(left, rows).reshape(p, -1), depth + 1, node_id,
                      model.left))

    model._finalize()
    model._raw_importance = raw_importance
    return model
