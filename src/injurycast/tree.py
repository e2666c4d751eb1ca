"""Binary CART decision tree with Gini splits, grown greedily from presorted columns
(SLIQ-style attribute lists) with a vectorised all-feature split search."""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, EmptyNode, EmptyTable, MissingFeature


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
        # (n_nodes, p): each feature's minimum weighted child impurity at each
        # split node, inf at leaves, so a refit without one column reads its
        # winners from it (_refit_plan); None for a tree grown with
        # max_features. Per node: its depth, so the tree can be cut back (_cut).
        # _reused marks a refit that changed no node: it routes every row as
        # the tree it came from did. None of them is serialised.
        self._minima = None
        self._depth = []
        self._reused = False

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def _add_node(self, counts, depth):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append((int(counts[0]), int(counts[1])))
        self._depth.append(depth)
        return len(self.feature) - 1

    def _finalize(self):
        self.feature = np.asarray(self.feature, dtype=int)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=int)
        self.right = np.asarray(self.right, dtype=int)
        self.counts = np.asarray(self.counts, dtype=int)
        self._depth = np.asarray(self._depth, dtype=int)

    def predict(self, X):
        """Vectorized routing; returns (classes, minority-fraction scores)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.feature_names):
            raise MissingFeature(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        return self._predict(X, self.feature < 0)

    def _predict(self, X, stop):
        """predict's result when routing ends at the first node where the per-node
        mask stop holds (every leaf must hold it); X is a float (rows, p) array."""
        node = np.zeros(len(X), dtype=int)
        active = ~stop[node]
        while np.any(active):
            idx = np.flatnonzero(active)
            f = self.feature[node[idx]]
            go_left = X[idx, f] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
            active = ~stop[node]
        c = self.counts[node]
        scores = c[:, 1] / c.sum(axis=1)
        classes = (c[:, 1] > c[:, 0]).astype(int)
        return classes, scores

    def _cut(self, max_depth, min_samples_split):
        """Stop mask (for _predict) of this tree cut back to max_depth and
        min_samples_split, both no looser than the tree's own.

        With no feature subsampling a node's split does not depend on max_depth
        or min_samples_split; they only decide whether _grow splits it. So the
        tree grown with these two settings (and the same rows, min_samples_leaf
        and seed) is this one with every node at max_depth, or with fewer than
        min_samples_split rows, made a leaf, and each such node keeps its
        counts (CART's nested subtrees)."""
        stop = (self.feature < 0) | (self.counts.sum(axis=1) < min_samples_split)
        if max_depth is not None:
            stop |= self._depth >= max_depth
        return stop

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
        """Inverse of to_dict; a missing field, a value of the wrong kind or node
        arrays that are not one tree over the named features raise ConfigInvalid."""
        try:
            model = cls(data["feature_names"], TreeHyperParams(**data["hyperparams"]))
            nodes = data["nodes"]
            model.feature = np.asarray(nodes["feature"], dtype=int)
            model.threshold = np.asarray(nodes["threshold"], dtype=float)
            model.left = np.asarray(nodes["left"], dtype=int)
            model.right = np.asarray(nodes["right"], dtype=int)
            model.counts = np.asarray(nodes["counts"], dtype=int)
            raw = data.get("raw_importance")
            model._raw_importance = np.asarray(raw, dtype=float) if raw is not None else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"not a model JSON ({exc!r})") from None
        feature, left, right, counts = model.feature, model.left, model.right, model.counts
        n, p = (len(feature) if feature.ndim == 1 else 0), len(model.feature_names)
        if n < 1 or any(a.shape != (n,) for a in (model.threshold, left, right)):
            raise ConfigInvalid("model nodes: the node arrays need one shared length >= 1")
        if counts.shape != (n, 2) or (counts < 0).any() or (counts.sum(axis=1) < 1).any():
            raise ConfigInvalid("model nodes: counts need one non-negative pair with a "
                                "positive total per node")
        if ((feature < -1) | (feature >= p)).any():
            raise ConfigInvalid(f"model nodes: a feature index is outside [-1, {p})")
        leaf = feature < 0
        if (left[leaf] != -1).any() or (right[leaf] != -1).any():
            raise ConfigInvalid("model nodes: a leaf has a child")
        # parent < child keeps routing acyclic; one parent each makes it a tree
        split = np.flatnonzero(~leaf)
        children = np.concatenate([left[split], right[split]])
        if ((children <= np.tile(split, 2)).any()
                or not np.array_equal(np.sort(children), np.arange(1, n))):
            raise ConfigInvalid("model nodes: children need parent < child < n and "
                                "every node but the root exactly one parent")
        raw = model._raw_importance
        if raw is not None and raw.shape != (p,):
            raise ConfigInvalid(f"model raw_importance: need null or {p} values")
        return model

    @classmethod
    def from_json(cls, text: str) -> "DecisionTreeModel":
        return cls.from_dict(json.loads(text))


class Presorted:
    """A training set as the tree grows from it: the columns as a C-ordered (p, n)
    matrix `cols`, each column's row indices in ascending order, ties in row order
    (`rows`, SLIQ's presorted attribute lists), the labels `y` and the column
    names. Sorted once; every fit on these rows shares it and none changes it.
    """

    def __init__(self, table_or_X, y=None, feature_names=None):
        """From a TrainingTable or from (X, y, feature_names) arrays."""
        if y is None:
            X, y, feature_names = table_or_X.X, table_or_X.y, table_or_X.feature_names
        else:
            X = np.asarray(table_or_X, dtype=float)
            y = np.asarray(y, dtype=int)
            if feature_names is None:
                feature_names = [f"f{i}" for i in range(X.shape[1])]
        if len(y) == 0:
            raise EmptyTable("cannot fit a tree on an empty table")
        if X.shape[1] == 0:
            raise EmptyTable("cannot fit a tree with no features")
        self.cols = np.ascontiguousarray(X.T)
        self.rows = np.argsort(self.cols, axis=1, kind="stable")
        self.y = y
        self.feature_names = list(feature_names)

    def drop(self, j) -> "Presorted":
        """The same rows without column j, sorted as before: the next size of a
        recursive feature elimination, one copy of the remaining columns."""
        out = copy.copy(self)
        out.cols = np.delete(self.cols, j, axis=0)
        out.rows = np.delete(self.rows, j, axis=0)
        out.feature_names = self.feature_names[:j] + self.feature_names[j + 1:]
        return out


def _best_split(sv, sy, min_leaf):
    """Best split of one node over its candidate features, in one vectorised pass.

    Row j of sv holds the node's values of candidate j in ascending order and
    row j of sy their labels. Returns (j, threshold, weighted child impurity,
    row_min) for the lowest weighted child Gini, ties going to the first
    candidate and within it to the first position, or None when no candidate
    has a valid split. row_min[j] is candidate j's own minimum (inf without a
    valid split); it depends only on row j of sv and sy.
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
    # the first candidate holding the minimum, at its first position
    row_min = weighted.min(axis=1)
    j = int(np.argmin(row_min))
    best = row_min[j]
    if best == np.inf:
        return None
    i = int(np.argmin(weighted[j]))
    threshold = 0.5 * (sv[j, lo + i] + sv[j, lo + i + 1])
    return j, float(threshold), float(best), row_min


def fit_tree(table_or_X, y=None, feature_names=None,
             hp: TreeHyperParams = TreeHyperParams(), seed: int = 0,
             max_features: int | None = None) -> DecisionTreeModel:
    """Greedy CART fit maximizing size-weighted Gini decrease at every node.

    Accepts either a TrainingTable or (X, y, feature_names) arrays, and leaves
    them as they are. The seed only breaks exact-gain ties, via a seeded
    permutation of the feature evaluation order; max_features enables per-node
    feature subsampling for random forests.

    Each column is sorted once per fit (Presorted); a search that fits many
    trees on the same rows builds one Presorted and calls _grow. A node searches
    all candidate features in one vectorised pass and hands its children a
    stable filter of its sorted rows. Nodes grow from an explicit stack in
    preorder, so depth is not bounded by the recursion limit.
    """
    return _grow(Presorted(table_or_X, y, feature_names), hp, seed, max_features)


def _refit_plan(prev: DecisionTreeModel, dropped: int, rank):
    """What refitting prev without column `dropped` changes, read from prev's
    minima alone. rank[f] is remaining column f's position in the refit's
    feature_order.

    Returns, per node of prev: `minima` without the column; `winner`, the
    column a full search would pick there (the first in feature_order at the
    row minimum: each entry is that column's own best split on the node's rows,
    which the drop leaves as they are); `changed`, the split nodes whose winner
    is another column than before; `walk`, the changed nodes and their
    ancestors, the only nodes whose rows a refit needs.
    """
    minima = np.delete(prev._minima, dropped, axis=1)
    at_min = minima == minima.min(axis=1, keepdims=True)
    winner = np.where(at_min, rank, len(rank)).argmin(axis=1)
    old = prev.feature
    # a dropped winner's shifted index is its right neighbour's new index, so it
    # is marked on its own
    changed = (old >= 0) & ((old == dropped) | (winner != old - (old > dropped)))
    split = np.flatnonzero(old >= 0)
    parent = np.full(len(old), -1)
    parent[prev.left[split]] = split
    parent[prev.right[split]] = split
    walk = changed.copy()
    up = np.flatnonzero(changed)
    while len(up):
        up = parent[up]
        up = up[up >= 0]
        up = up[~walk[up]]
        walk[up] = True
    return minima, winner, changed, walk


def _grow(data: Presorted, hp: TreeHyperParams = TreeHyperParams(), seed: int = 0,
          max_features: int | None = None, prev: DecisionTreeModel | None = None,
          dropped: int = -1) -> DecisionTreeModel:
    """fit_tree's grow loop. Given prev, a tree fitted with the same rows, hp and
    seed on these columns plus one more at index dropped, it returns the model
    fit_tree would, byte for byte (recursive feature elimination refits this way).

    A refit keeps each node of prev that _refit_plan does not mark changed and
    walks rows only down the paths to changed nodes; every other node takes its
    counts from prev. A changed node reads its winner and child impurity from
    the minima and searches that one column for the threshold; the subtree
    under it is grown in full. A refit that changes no node is prev with the
    column removed, marked _reused.
    """
    if prev is not None and max_features is not None:
        raise ValueError("a refit from a previous tree cannot subsample features")
    cols, y = data.cols, data.y
    p, n_total = cols.shape

    rng = np.random.default_rng(seed)
    feature_order = rng.permutation(p)
    rank = np.empty(p, dtype=int)  # position of each feature in feature_order
    rank[feature_order] = np.arange(p)

    if prev is not None:
        minima, winner, changed, walk = _refit_plan(prev, dropped, rank)
        if not changed.any():
            model = copy.copy(prev)
            model.feature_names = data.feature_names
            model.feature = prev.feature - (prev.feature > dropped)
            model._raw_importance = np.delete(prev._raw_importance, dropped)
            model._minima = minima
            model._reused = True
            return model

    model = DecisionTreeModel(data.feature_names, hp)
    raw_importance = np.zeros(p)
    memo = {}  # split node -> its row of model._minima
    goes_left = np.zeros(n_total, dtype=bool)  # reused: a split reads only its own rows
    offsets = np.arange(p)[:, None] * n_total  # rows[f] + offsets[f] index cols.ravel()
    # (sorted rows or None where no node below changes, depth, parent, parent's
    # link, prev's node with these rows or -1)
    stack = [(data.rows, 0, -1, model.left, 0 if prev is not None else -1)]
    while stack:
        rows, depth, parent, link, old = stack.pop()
        if old >= 0:
            counts = prev.counts[old]
        else:
            ones = y.take(rows[0])
            counts = (len(ones) - ones.sum(), ones.sum())
        n = counts[0] + counts[1]
        node_id = model._add_node(counts, depth)
        if parent >= 0:
            link[parent] = node_id
        impurity = gini(counts)
        if (impurity == 0.0
                or n < hp.min_samples_split
                or (hp.max_depth is not None and depth >= hp.max_depth)
                or (old >= 0 and prev.feature[old] < 0)):  # prev's leaf, see below
            continue

        if old >= 0:
            # prev's node has these rows and the candidates are its candidates
            # minus the dropped one. A leaf there stays a leaf: the stopping
            # tests read only rows, depth and hp, and the minimum child impurity
            # over fewer features cannot fall, so neither can a failed split
            # succeed. At a split the full search would pick the plan's winner
            # with its minimum; a kept winner splits at prev's threshold, so
            # each child is again reached with prev's rows.
            best_feat = int(winner[old])
            best_child_imp = minima[old, best_feat]
            memo_row = minima[old]
            best_thr, children = None, (-1, -1)
            if not changed[old]:
                best_thr = float(prev.threshold[old])
                children = (int(prev.left[old]), int(prev.right[old]))
        else:
            cand = feature_order
            if max_features is not None and max_features < p:
                cand = rng.choice(p, size=max_features, replace=False)
            cand_rows = rows[cand]
            sv = cols.take(cand_rows + offsets[cand])
            split = _best_split(sv, y.take(cand_rows), hp.min_samples_leaf)
            if split is None:
                continue
            j, best_thr, best_child_imp, row_min = split
            best_feat = int(cand[j])
            memo_row = row_min[rank] if max_features is None else None
            children = (-1, -1)
            goes_left[cand_rows[j]] = sv[j] <= best_thr
        decrease = impurity - best_child_imp
        if decrease <= 1e-12:
            continue
        if old >= 0 and rows is not None:
            win_rows = rows[best_feat]
            sv = cols[best_feat].take(win_rows)
            if best_thr is None:  # a changed node: search its winner alone
                best_thr = _best_split(sv[None], y.take(win_rows)[None],
                                       hp.min_samples_leaf)[1]
            goes_left[win_rows] = sv <= best_thr

        model.feature[node_id] = best_feat
        model.threshold[node_id] = best_thr
        if memo_row is not None:
            memo[node_id] = memo_row
        raw_importance[best_feat] += (n / n_total) * decrease
        if rows is not None:
            left = goes_left.take(rows).ravel()
        # right is pushed first so the left subtree is grown first: preorder ids;
        # a kept child with no changed node below it gets no rows
        for child, child_link, go_left in ((children[1], model.right, False),
                                           (children[0], model.left, True)):
            child_rows = None
            if rows is not None and (child < 0 or walk[child]):
                child_rows = np.compress(left == go_left, rows).reshape(p, -1)
            stack.append((child_rows, depth + 1, node_id, child_link, child))

    model._finalize()
    model._raw_importance = raw_importance
    if max_features is None:
        model._minima = np.full((model.n_nodes, p), np.inf)
        if memo:
            model._minima[list(memo)] = list(memo.values())
    return model
