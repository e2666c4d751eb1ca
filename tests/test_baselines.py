import numpy as np
import pytest

from injurycast.baselines import (
    AcwrGroupLabel,
    Combine,
    Grouping,
    MURRAY_BOUNDS,
    MonoMethod,
    baseline_predict,
    group_likelihood,
    mono_forecast,
)
from injurycast.data_model import WORKLOAD_FEATURES
from injurycast.errors import MissingColumn
from injurycast.features import TrainingTable

from conftest import rand_table


def acwr_table(acwr_values_by_feature, y, extra=None):
    """Table exposing one _acwr column per workload feature (plus extras)."""
    names, cols = [], []
    for f in WORKLOAD_FEATURES:
        names.append(f + "_acwr")
        cols.append(np.asarray(acwr_values_by_feature[f], dtype=float))
    for name, vals in (extra or {}).items():
        names.append(name)
        cols.append(np.asarray(vals, dtype=float))
    X = np.column_stack(cols)
    return TrainingTable(names, X, np.asarray(y, dtype=int),
                         [""] * len(y), [None] * len(y))


class TestDegenerateBaselines:
    def test_b2_all_zero_b3_all_one(self):
        t = rand_table(n=25, p=3, n_pos=6, seed=0)
        assert not baseline_predict("B2", t).any()
        assert baseline_predict("B3", t).all()

    def test_b1_preserves_class_counts_and_seed(self):
        t = rand_table(n=40, p=3, n_pos=9, seed=1)
        p1 = baseline_predict("B1", t, seed=5)
        p2 = baseline_predict("B1", t, seed=5)
        p3 = baseline_predict("B1", t, seed=6)
        assert p1.sum() == 9
        np.testing.assert_array_equal(p1, p2)
        assert not np.array_equal(p1, p3)

    def test_b4_fires_on_prior_injury(self):
        pi = [0.0, 0.0, 0.3, 1.2, 0.0]
        t = TrainingTable(["pi_ewma"], np.array(pi).reshape(-1, 1),
                          np.zeros(5, dtype=int), [""] * 5, [None] * 5)
        np.testing.assert_array_equal(baseline_predict("B4", t), [0, 0, 1, 1, 0])

    def test_b4_needs_column(self):
        t = rand_table(n=10, p=2, n_pos=2, seed=2)
        with pytest.raises(MissingColumn):
            baseline_predict("B4", t)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            baseline_predict("B9", rand_table(n=10, p=2, n_pos=2, seed=0))


class TestMurrayGroups:
    def test_bounds_are_contiguous_and_total(self):
        labels = list(MURRAY_BOUNDS)
        for a, b in zip(labels[:-1], labels[1:]):
            assert MURRAY_BOUNDS[a][1] == MURRAY_BOUNDS[b][0]
        assert MURRAY_BOUNDS[labels[0]][0] == 0.0
        assert np.isinf(MURRAY_BOUNDS[labels[-1]][1])

    def test_group_likelihood_counts(self):
        # ten examples in the Moderate band, one injured: IL = 1/9
        vals = np.full(10, 1.2)
        t = TrainingTable(["d_tot_acwr"], vals.reshape(-1, 1),
                          np.array([1] + [0] * 9), [""] * 10, [None] * 10)
        groups = group_likelihood(t, "d_tot_acwr", Grouping.MURRAY)
        by_name = {g.group: g for g in groups}
        mod = by_name[AcwrGroupLabel.MODERATE.value]
        assert (mod.injured, mod.uninjured) == (1, 9)
        assert mod.il == pytest.approx(1 / 9)
        for name, g in by_name.items():
            if name != AcwrGroupLabel.MODERATE.value:
                assert (g.injured, g.uninjured) == (0, 0)
                assert g.il is None

    def test_quintile_grouping_balances_counts(self):
        vals = np.arange(100, dtype=float)
        t = TrainingTable(["x"], vals.reshape(-1, 1),
                          np.zeros(100, dtype=int), [""] * 100, [None] * 100)
        groups = group_likelihood(t, "x", Grouping.QUINTILE)
        assert [g.injured + g.uninjured for g in groups] == [20] * 5

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            group_likelihood(rand_table(n=10, p=2, n_pos=2, seed=0), "nope")


class TestMonoForecast:
    def test_single_requires_feature(self):
        t = acwr_table({f: [0.5, 1.5] for f in WORKLOAD_FEATURES}, [0, 1])
        with pytest.raises(ValueError, match="feature"):
            mono_forecast(t, combine=Combine.SINGLE)

    def test_single_acwr_fires_below_one(self):
        vals = {f: [1.5, 1.5] for f in WORKLOAD_FEATURES}
        vals["d_tot"] = [0.4, 1.4]
        t = acwr_table(vals, [0, 0])
        pred = mono_forecast(t, feature="d_tot", combine=Combine.SINGLE)
        np.testing.assert_array_equal(pred, [1, 0])

    def test_vote_all_one_combinators(self):
        # row 0 fires 12/12 predictors, row 1 fires 7, row 2 fires 1, row 3 none
        vals = {}
        for i, f in enumerate(WORKLOAD_FEATURES):
            vals[f] = [0.5,
                       0.5 if i < 7 else 1.5,
                       0.5 if i < 1 else 1.5,
                       1.5]
        t = acwr_table(vals, [0, 0, 0, 0])
        np.testing.assert_array_equal(
            mono_forecast(t, combine=Combine.VOTE), [1, 1, 0, 0])
        np.testing.assert_array_equal(
            mono_forecast(t, combine=Combine.ALL), [1, 0, 0, 0])
        np.testing.assert_array_equal(
            mono_forecast(t, combine=Combine.ONE), [1, 1, 1, 0])

    def test_mswr_quintile_freezes_training_edges(self):
        # training: the top mswr quintile holds all the injuries
        rng = np.random.default_rng(0)
        train_vals = np.sort(rng.uniform(0, 10, size=50))
        train_y = np.zeros(50, dtype=int)
        train_y[-5:] = 1  # highest values injured
        train = TrainingTable(["d_tot_mswr"], train_vals.reshape(-1, 1),
                              train_y, [""] * 50, [None] * 50)
        eval_vals = np.array([0.1, train_vals[-3], 9.9])
        t_eval = TrainingTable(["d_tot_mswr"], eval_vals.reshape(-1, 1),
                               np.zeros(3, dtype=int), [""] * 3, [None] * 3)
        pred = mono_forecast(t_eval, feature="d_tot",
                             method=MonoMethod.MSWR_QUINTILE,
                             combine=Combine.SINGLE, train_table=train)
        np.testing.assert_array_equal(pred, [0, 1, 1])

    def test_missing_columns_raise(self):
        t = rand_table(n=10, p=2, n_pos=2, seed=0)
        with pytest.raises(MissingColumn):
            mono_forecast(t, feature="d_tot", combine=Combine.SINGLE)
        with pytest.raises(MissingColumn):
            mono_forecast(t, feature="d_tot", method=MonoMethod.MSWR_QUINTILE,
                          combine=Combine.SINGLE)
