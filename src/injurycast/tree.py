"""Binary CART decision tree with Gini splits, grown greedily from presorted columns
(SLIQ-style attribute lists) with a vectorised all-feature split search."""
from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigInvalid, EmptyNode, EmptyTable, MissingColumn


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
        return asdict(self)


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

    # the node arrays and their dtypes, in to_dict's order; counts per node (n_class0, n_class1)
    _NODES = (("feature", int), ("threshold", float), ("left", int), ("right", int),
              ("counts", int))

    def __init__(self, feature_names, hyperparams: TreeHyperParams):
        self.feature_names = list(feature_names)
        self.hyperparams = hyperparams
        for name, _ in self._NODES:
            setattr(self, name, [])
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
        for name, dtype in self._NODES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        self._depth = np.asarray(self._depth, dtype=int)

    def predict(self, X):
        """Vectorized routing; returns (classes, minority-fraction scores)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.feature_names):
            raise MissingColumn(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        return self._predict(X, self.feature < 0)

    def _predict(self, X, stop, feature=None):
        """predict's result for the nodes where _apply stops each row."""
        c = self.counts[self._apply(X, stop, feature)]
        return (c[:, 1] > c[:, 0]).astype(int), c[:, 1] / c.sum(axis=1)

    def _apply(self, X, stop, feature=None):
        """The node where each row of the float (rows, ·) array X stops: routing
        starts at the root and ends at the first node where the per-node mask stop
        holds (every leaf must hold it). A split node sends a row left iff its
        value in column feature[node] is <= the threshold; feature defaults to the
        tree's own, and a map into wider columns (a narrowed set's `live`) reads
        them in place. Only the rows still moving are gathered at each level."""
        feature = self.feature if feature is None else feature
        node = np.zeros(len(X), dtype=int)
        idx = np.flatnonzero(~stop[node])
        while len(idx):
            at = node[idx]
            at = np.where(X[idx, feature[at]] <= self.threshold[at],
                          self.left[at], self.right[at])
            node[idx] = at
            idx = idx[~stop[at]]
        return node

    def _cut(self, max_depth, min_samples_split):
        """Stop mask (for _apply) of this tree cut back to max_depth and
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
            "nodes": {name: getattr(self, name).tolist() for name, _ in self._NODES},
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
            names = data["feature_names"]
            if (not isinstance(names, list) or not all(isinstance(n, str) for n in names)
                    or len(set(names)) < len(names)):
                raise ConfigInvalid("model feature_names: need a list of distinct strings")
            hp = TreeHyperParams(**data["hyperparams"])
            _json_array([v for v in hp.to_dict().values() if v is not None], int, "hyperparams")
            model = cls(names, hp)
            nodes = data["nodes"]
            for name, dtype in cls._NODES:
                setattr(model, name, _json_array(nodes[name], dtype, f"nodes {name}"))
            raw = data.get("raw_importance")
            model._raw_importance = (_json_array(raw, float, "raw_importance")
                                     if raw is not None else None)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def _json_array(values, dtype, what):
    """The JSON list `values` (of pairs, for counts) as an array of dtype int or float;
    ConfigInvalid unless each entry is a JSON integer, or for float a finite number."""
    cells = np.asarray(values, dtype=object)
    kinds = (int,) if dtype is int else (int, float)
    if all(type(v) in kinds for v in cells.flat):
        array = cells.astype(dtype)
        if dtype is int or np.isfinite(array).all():
            return array
    kind = "integers" if dtype is int else "finite numbers"
    raise ConfigInvalid(f"model {what}: need {kind}")


# a (n, P) table of fewer cells than this keeps its sorted row indices in int32
_INT32_CELLS = 1 << 31


class Presorted:
    """A training set as the tree grows from it: the table `X`, a C-ordered (n, P)
    float array, each column's row indices in ascending order of its values, ties
    in row order, as a (P, n) array (`rows`, SLIQ's presorted attribute lists),
    the labels `y`, and `live`, the indices into X's columns and rows of the p
    columns the set holds, named `feature_names`. Sorted once; every fit on these
    rows shares it and none changes it. A float C-ordered table's array is held,
    not copied, so the table must not change while a fit reads it.

    The row indices are int32 while X has fewer than _INT32_CELLS cells and intp
    past that: the same values in half the bytes, so no split, count or minimum
    changes. A set taken from this one keeps its width.
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
        self.X = np.ascontiguousarray(X, dtype=float)
        width = np.int32 if self.X.size < _INT32_CELLS else np.intp
        self.rows = np.empty(self.X.shape[::-1], dtype=width)
        for f in range(len(self.rows)):  # one column's intp sort at a time
            self.rows[f] = np.argsort(self.X[:, f], kind="stable")
        self.y = y
        self.live = np.arange(len(self.rows))
        self.feature_names = list(feature_names)

    def drop(self, j) -> "Presorted":
        """The same rows without live column j, sorted as before: the next size of
        a recursive feature elimination. It shares X and rows with this set."""
        out = copy.copy(self)
        out.live = np.concatenate((self.live[:j], self.live[j + 1:]))
        out.feature_names = self.feature_names[:j] + self.feature_names[j + 1:]
        return out

    def take(self, idx) -> "Presorted":
        """The rows idx (ascending) of this set, renumbered 0..len(idx)-1 in that
        order: each column's sorted rows filtered stably, so ties keep their row
        order and nothing is sorted again (Presorted of the taken table)."""
        keep = np.zeros(len(self.y), dtype=bool)
        keep[idx] = True
        renumber = np.cumsum(keep, dtype=self.rows.dtype) - 1
        out = copy.copy(self)
        out.X = self.X[idx]
        out.rows = renumber.take(self.rows[keep.take(self.rows)]).reshape(len(self.rows), -1)
        out.y = self.y[idx]
        return out


# values per buffer row that a node search gathers at once, and cells per block
# that _split_rows filters at once (256 KiB per float row); a block changes no
# split, since each candidate's minimum is its own row's
_BLOCK = 1 << 15


def _shaped(buf, shape):
    """The first values of a flat buffer as a C-ordered array of `shape`."""
    return buf[:shape[0] * shape[1]].reshape(shape)


def _gini(pos, sizes, tmp):
    """1 - ((pos / sizes)**2 + ((sizes - pos) / sizes)**2), the same operations on
    the same values as that expression, written into pos; tmp is overwritten."""
    np.subtract(sizes, pos, out=tmp)
    np.divide(tmp, sizes, out=tmp)
    np.square(tmp, out=tmp)
    np.divide(pos, sizes, out=pos)
    np.square(pos, out=pos)
    np.add(pos, tmp, out=pos)
    return np.subtract(1.0, pos, out=pos)


def _best_split(sv, sy, min_leaf, scratch):
    """Best split of one node over a block of its candidate features, in one
    vectorised pass.

    Row j of sv holds the node's values of candidate j in ascending order and
    row j of sy their labels. Returns (j, threshold, weighted child impurity,
    row_min) for the lowest weighted child Gini, ties going to the first
    candidate and within it to the first position, or None when no candidate
    has a valid split. row_min[j] is candidate j's own minimum (inf without a
    valid split); it depends only on row j of sv and sy.

    Every (candidates × rows) intermediate is written into `scratch`, three
    float and one bool flat buffer of at least sv.size values each, allocated
    once per fit (_grow) and overwritten here; sv and sy are left as they are,
    unless the first buffer holds sy itself: the label sums then replace the
    float labels in place.
    """
    c, n = sv.shape
    lo, hi = min_leaf - 1, n - min_leaf  # left child of i + 1 rows, i in [lo, hi)
    if hi <= lo:
        return None
    cum_buf, right_buf, tmp_buf, mask_buf = scratch
    # exact: counts stay far below 2**53
    cum_pos = np.cumsum(sy, axis=1, dtype=float, out=_shaped(cum_buf, (c, n)))

    shape = (c, hi - lo)
    sizes_l = np.arange(lo + 1, hi + 1, dtype=float)
    invalid = np.less(sv[:, lo:hi], sv[:, lo + 1:hi + 1], out=_shaped(mask_buf, shape))
    np.logical_not(invalid, out=invalid)
    pos_l = cum_pos[:, lo:hi]
    pos_r = np.subtract(cum_pos[:, -1:], pos_l, out=_shaped(right_buf, shape))
    sizes_r = n - sizes_l
    tmp = _shaped(tmp_buf, shape)
    gini_l = _gini(pos_l, sizes_l, tmp)
    gini_r = _gini(pos_r, sizes_r, tmp)
    # (sizes_l * gini_l + sizes_r * gini_r) / n, inf where the split is invalid
    weighted = np.multiply(sizes_l, gini_l, out=tmp)
    np.multiply(sizes_r, gini_r, out=gini_r)
    np.add(weighted, gini_r, out=weighted)
    np.divide(weighted, n, out=weighted)
    np.copyto(weighted, np.inf, where=invalid)
    # the first candidate holding the minimum, at its first position
    row_min = weighted.min(axis=1)
    j = int(np.argmin(row_min))
    best = row_min[j]
    if best == np.inf:
        return None
    i = int(np.argmin(weighted[j]))
    threshold = 0.5 * (sv[j, lo + i] + sv[j, lo + i + 1])
    return j, float(threshold), float(best), row_min


def _split_rows(rows, mask, sizes):
    """A node's sorted rows, the (p, m) array rows, filtered by the row mask: each
    column's rows where mask holds, in their order, as a new (p, sizes[0]) array of
    rows' dtype, and, given a second size, those where it does not as a second.
    A block of at most _BLOCK cells is filtered at a time, so the mask and the intp
    indices that take and compress make for it stay that small."""
    p, m = rows.shape
    out = [np.empty((p, size), dtype=rows.dtype) for size in sizes]
    step = max(1, _BLOCK // m)
    for start in range(0, p, step):
        part = rows[start:start + step]
        keep = mask.take(part)
        for side, child in enumerate(out):
            if side:
                np.logical_not(keep, out=keep)
            np.compress(keep.ravel(), part, out=child[start:start + step].reshape(-1))
    return out


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
    its candidate features in a few vectorised blocks and hands its children a
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
    is another column than before.
    """
    minima = np.concatenate((prev._minima[:, :dropped], prev._minima[:, dropped + 1:]), axis=1)
    at_min = minima == minima.min(axis=1, keepdims=True)
    winner = np.where(at_min, rank, len(rank)).argmin(axis=1)
    old = prev.feature
    # a dropped winner's shifted index is its right neighbour's new index, so it
    # is marked on its own
    changed = (old >= 0) & ((old == dropped) | (winner != old - (old > dropped)))
    return minima, winner, changed


def _grow(data: Presorted, hp: TreeHyperParams = TreeHyperParams(), seed: int = 0,
          max_features: int | None = None, prev: DecisionTreeModel | None = None,
          dropped: int = -1) -> DecisionTreeModel:
    """fit_tree's grow loop. Given prev, a tree fitted with the same rows, hp and
    seed on these columns plus one more at index dropped, it returns the model
    fit_tree would, byte for byte (recursive feature elimination refits this way).

    A refit keeps each node of prev that _refit_plan does not mark changed, with
    prev's counts and no rows. It routes the training rows through prev once
    (_apply), stopping at leaves and changed nodes, and each changed node takes
    the mask of the rows that stop there. It reads its winner and child impurity
    from the minima and searches that one column for the threshold; the
    subtree under it is grown in full. A refit that changes no node is prev
    with the column removed, marked _reused.

    A narrowed data (Presorted.drop) is read through its live columns: a fit
    gathers their sorted rows once, when a node first searches them, and a
    node under a changed one filters them by its mask, so no kept node copies
    a (columns × rows) array. Values are read from the table X in place, at
    row * P + column of its flat array. A node searches its candidates in
    blocks of at most _BLOCK values per buffer row, or one candidate's rows if
    more, all written into one set of buffers allocated per call, and hands
    its children its sorted rows filtered in blocks of at most _BLOCK cells
    (_split_rows), so a fit's temporaries stay bounded however many columns
    the table has.
    """
    if prev is not None and max_features is not None:
        raise ValueError("a refit from a previous tree cannot subsample features")
    X, y, live = data.X, data.y, data.live
    p, (n_total, width) = len(live), X.shape
    labels = y.astype(float)  # gathered into the buffer row where their sums land

    rng = np.random.default_rng(seed)
    feature_order = rng.permutation(p)
    rank = np.empty(p, dtype=int)  # position of each feature in feature_order
    rank[feature_order] = np.arange(p)

    if prev is not None:
        minima, winner, changed = _refit_plan(prev, dropped, rank)
        if not changed.any():
            model = copy.copy(prev)
            model.feature_names = data.feature_names
            model.feature = prev.feature - (prev.feature > dropped)
            model._raw_importance = np.concatenate((prev._raw_importance[:dropped],
                                                     prev._raw_importance[dropped + 1:]))
            model._minima = minima
            model._reused = True
            return model
        # a kept node's winner is its own column, so prev routes as it did
        reached = prev._apply(X, (prev.feature < 0) | changed, live[winner])

    model = DecisionTreeModel(data.feature_names, hp)
    raw_importance = np.zeros(p)
    memo = {}  # split node -> its row of model._minima
    goes_left = np.zeros(n_total, dtype=bool)  # reused: a split reads only its own rows
    all_rows = data.rows if p == len(data.rows) else None  # live rows, gathered on use
    # the most rows a search reads: a refit searches only at and under changed nodes
    n_max = n_total if prev is None else prev.counts[changed].sum(axis=1).max()
    n_cand = p if max_features is None else min(max_features, p)
    size = min(n_cand * n_max, max(_BLOCK, n_max))
    # every (candidates × rows) array of a search block, in one buffer that nodes
    # reuse (and the allocator keeps for the next fit): each block's sorted rows,
    # float labels and values, and _best_split's scratch. The label sums replace
    # the labels in their row, and the row indices, dead once the labels and
    # values are taken, hold the right child's sums. The rows are gathered at
    # their width into the labels' row and widened to intp once: take would
    # widen int32 indices into a new array at each call.
    block = np.empty((4, size))
    gathered, sy_buf, sv_buf = block[0].view(np.intp), block[1], block[2]
    narrow = block[1].view(data.rows.dtype)
    scratch = (block[1], block[0], block[3], np.empty(size, dtype=bool))
    # (the node's sorted rows, or None; else a mask of its rows, or None; depth,
    # parent, parent's link, prev's node with these rows or -1). A new node has
    # sorted rows or a mask; a kept one neither.
    stack = [(None, None, 0, -1, model.left, 0) if prev is not None else
             (None, np.ones(n_total, dtype=bool), 0, -1, model.left, -1)]
    while stack:
        rows, member, depth, parent, link, old = stack.pop()
        if old >= 0:
            counts = prev.counts[old]
        else:
            ones = y.take(rows[0]) if rows is not None else y[member]
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
            if rows is None:  # the root, or a new node under a changed one
                if all_rows is None:
                    all_rows = data.rows[live]
                rows = all_rows if n == n_total else _split_rows(all_rows, member, (n,))[0]
                member = None
            cand = feature_order
            if max_features is not None and max_features < p:
                cand = rng.choice(p, size=max_features, replace=False)
            # blocks of candidates, in order: the first block holding the lowest
            # minimum wins, so ties go to the first candidate as in one pass
            step = max(1, _BLOCK // rows.shape[1])
            row_min = np.full(len(cand), np.inf)
            best_child_imp = np.inf
            for start in range(0, len(cand), step):
                part = cand[start:start + step]
                # mode="clip" (indices are in range) lets take write into out unbuffered
                shape = (len(part), rows.shape[1])
                index = _shaped(gathered, shape)
                np.copyto(index, np.take(rows, part, axis=0, out=_shaped(narrow, shape),
                                         mode="clip"))
                sy = np.take(labels, index, out=_shaped(sy_buf, shape), mode="clip")
                np.multiply(index, width, out=index)  # row * width + column in X.ravel()
                np.add(index, live[part, None], out=index)
                sv = np.take(X, index, out=_shaped(sv_buf, shape), mode="clip")
                split = _best_split(sv, sy, hp.min_samples_leaf, scratch)
                if split is None:
                    continue
                j, thr, child_imp, row_min[start:start + step] = split
                if child_imp < best_child_imp:
                    best_feat, best_thr, best_child_imp = int(part[j]), thr, child_imp
                    # taken now: the next block overwrites sv
                    goes_left[rows[best_feat]] = sv[j] <= thr
                    n_left = np.searchsorted(sv[j], thr, "right")  # sv[j] ascends
            if best_child_imp == np.inf:
                continue
            memo_row = row_min[rank] if max_features is None else None
            children = (-1, -1)
        decrease = impurity - best_child_imp
        if decrease <= 1e-12:
            continue
        if best_thr is None:  # a changed node: search its winner alone
            member = reached == old
            column = X[:, live[best_feat]]
            win_rows = data.rows[live[best_feat]]
            win_rows = win_rows[member.take(win_rows)]
            best_thr = _best_split(column.take(win_rows)[None], labels.take(win_rows)[None],
                                   hp.min_samples_leaf, scratch)[1]
            left = column <= best_thr

        model.feature[node_id] = best_feat
        model.threshold[node_id] = best_thr
        if memo_row is not None:
            memo[node_id] = memo_row
        raw_importance[best_feat] += (n / n_total) * decrease
        child_rows = child_member = (None, None)
        if rows is not None:
            child_rows = _split_rows(rows, goes_left, (n_left, n - n_left))
        elif member is not None:
            child_member = (member & left, member & ~left)
        # right is pushed first so the left subtree is grown first: preorder ids
        for side, child, child_link in ((1, children[1], model.right),
                                        (0, children[0], model.left)):
            stack.append((child_rows[side], child_member[side], depth + 1, node_id,
                          child_link, child))

    model._finalize()
    model._raw_importance = raw_importance
    if max_features is None:
        model._minima = np.full((model.n_nodes, p), np.inf)
        if memo:
            model._minima[list(memo)] = list(memo.values())
    return model
