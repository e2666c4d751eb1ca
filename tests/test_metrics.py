import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injurycast.errors import ClassTooSmall, EmptyTable, OneClassOnly
from injurycast.metrics import (
    ConfusionMatrix,
    EvalReport,
    auc,
    metrics,
    stratified_kfold,
    stratified_split,
)


def auc_pairwise(scores, labels):
    """O(n^2) Mann-Whitney oracle with half-credit for score ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 if p > n else (0.5 if p == n else 0.0)
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestConfusionMatrix:
    def test_from_predictions(self):
        cm = ConfusionMatrix.from_predictions([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 1, 1)
        assert cm.total == 5

    def test_addition(self):
        a = ConfusionMatrix(1, 2, 3, 4)
        b = ConfusionMatrix(5, 6, 7, 8)
        assert a + b == ConfusionMatrix(6, 8, 10, 12)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(-1, 0, 0, 0)


class TestMetrics:
    def test_formulas_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
            m = metrics(ConfusionMatrix(tp, fp, tn, fn))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert m["injury"]["precision"] == prec
            assert m["injury"]["recall"] == rec
            assert m["injury"]["f1"] == f1
            nprec = tn / (tn + fn) if tn + fn else 0.0
            nrec = tn / (tn + fp) if tn + fp else 0.0
            assert m["no_injury"]["precision"] == nprec
            assert m["no_injury"]["recall"] == nrec

    def test_empty_matrix_conventions(self):
        m = metrics(ConfusionMatrix(0, 0, 0, 0))
        assert m["injury"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


class TestAuc:
    def test_hand_values(self):
        assert auc([0.1, 0.9], [0, 1]) == 1.0
        assert auc([0.9, 0.1], [0, 1]) == 0.0
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = np.round(rng.uniform(size=n), 1)  # coarse grid forces ties
            assert auc(scores, labels) == pytest.approx(
                auc_pairwise(scores, labels), abs=1e-12)
            # tie-heavy: two or three distinct scores, long runs of equal values
            scores = rng.integers(0, int(rng.integers(2, 4)), size=n) / 2.0
            assert auc(scores, labels) == pytest.approx(
                auc_pairwise(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == pytest.approx(
            auc(np.exp(3 * scores), labels), abs=1e-12)

    def test_one_class_only(self):
        with pytest.raises(OneClassOnly):
            auc([0.1, 0.2], [1, 1])

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=40),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_complement_symmetry(self, scores, rnd):
        labels = [rnd.randint(0, 1) for _ in scores]
        if sum(labels) in (0, len(labels)):
            labels[0] = 1 - labels[0]
        # flipping labels and negating scores preserves the AUC
        flipped = auc([-s for s in scores], [1 - l for l in labels])
        assert auc(scores, labels) == pytest.approx(flipped, abs=1e-12)


class TestStratifiedSplit:
    def test_exact_per_class_rounding(self):
        y = np.array([0] * 930 + [1] * 23)
        a, b = stratified_split(y, 0.3, seed=0)
        assert len(a) == round(0.3 * 930) + round(0.3 * 23) == 279 + 7
        assert y[a].sum() == 7 and y[b].sum() == 16

    def test_partition(self):
        y = np.random.default_rng(3).integers(0, 2, size=101)
        a, b = stratified_split(y, 0.4, seed=1)
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(101))

    def test_deterministic_and_seed_sensitive(self):
        y = np.array([0] * 50 + [1] * 10)
        a1, _ = stratified_split(y, 0.3, seed=7)
        a2, _ = stratified_split(y, 0.3, seed=7)
        a3, _ = stratified_split(y, 0.3, seed=8)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(np.sort(a1), np.sort(a3))

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            stratified_split(np.array([0] * 50 + [1]), 0.3, seed=0)
        with pytest.raises(ClassTooSmall):
            stratified_split(np.array([0, 1]), 0.99, seed=0)  # takes everything

    def test_empty_labels(self):
        with pytest.raises(EmptyTable):
            stratified_split(np.array([], dtype=int), 0.3, seed=0)


class TestStratifiedKfold:
    def test_folds_partition_indices(self):
        y = np.random.default_rng(4).integers(0, 2, size=57)
        folds = list(stratified_kfold(y, 3, seed=0))
        assert len(folds) == 3
        all_eval = np.concatenate([e for _, e in folds])
        assert sorted(all_eval.tolist()) == list(range(57))
        for tr, ev in folds:
            assert set(tr) == set(range(57)) - set(ev)

    def test_minority_spread_across_folds(self):
        y = np.array([0] * 60 + [1] * 9)
        for _, ev in stratified_kfold(y, 3, seed=1):
            assert y[ev].sum() == 3

    def test_matches_per_element_loop(self):
        def loop_kfold(y, folds, seed):
            rng = np.random.default_rng(seed)
            assignments = np.empty(len(y), dtype=int)
            for cls in np.unique(y):
                idx = rng.permutation(np.flatnonzero(y == cls))
                for pos, i in enumerate(idx):
                    assignments[i] = pos % folds
            return [(np.flatnonzero(assignments != f), np.flatnonzero(assignments == f))
                    for f in range(folds)]

        rng = np.random.default_rng(9)
        for n in (1, 2, 7, 57, 300):
            for folds in (2, 3, 5):
                for seed in (0, 1, 13):
                    y = (rng.uniform(size=n) < 0.2).astype(int)
                    got = stratified_kfold(y, folds, seed)
                    want = loop_kfold(y, folds, seed)
                    assert len(got) == len(want)
                    for (tr, ev), (tr_w, ev_w) in zip(got, want):
                        np.testing.assert_array_equal(tr, tr_w)
                        np.testing.assert_array_equal(ev, ev_w)


class TestEvalReport:
    def test_to_dict_round_trips_fields(self):
        cm = ConfusionMatrix(3, 1, 20, 2)
        rep = EvalReport(per_class=metrics(cm), auc=0.8, confusion=cm, seed=5,
                         split_sizes={"train": 10, "test": 16},
                         selected_features=["a"], hyperparams={"max_depth": 3})
        d = rep.to_dict()
        assert d["auc"] == 0.8 and d["seed"] == 5
        assert d["confusion"] == {"tp": 3, "fp": 1, "tn": 20, "fn": 2}
        assert d["selected_features"] == ["a"]
