import numpy as np
import pytest

from injurycast.baselines import Combine, baseline_predict, mono_forecast
from injurycast.data_model import WORKLOAD_FEATURES
from injurycast.errors import MissingColumn
from injurycast.features import TrainingTable

from conftest import rand_table


def acwr_table(acwr_values_by_feature, y):
    """Table exposing one _acwr column per workload feature."""
    names = [f + "_acwr" for f in WORKLOAD_FEATURES]
    X = np.column_stack([np.asarray(acwr_values_by_feature[f], dtype=float)
                         for f in WORKLOAD_FEATURES])
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


class TestMonoForecast:
    def test_single_acwr_fires_below_one(self):
        # only d_tot is below 1.0 on row 0; on row 1 an ACWR of exactly 1.0
        # does not fire, and on row 2 0.999 does
        vals = {f: [1.5, 1.5, 1.5] for f in WORKLOAD_FEATURES}
        vals["d_tot"] = [0.4, 1.0, 0.999]
        t = acwr_table(vals, [0, 0, 0])
        np.testing.assert_array_equal(mono_forecast(t, Combine.ONE), [1, 0, 1])

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
            mono_forecast(t, Combine.VOTE), [1, 1, 0, 0])
        np.testing.assert_array_equal(
            mono_forecast(t, Combine.ALL), [1, 0, 0, 0])
        np.testing.assert_array_equal(
            mono_forecast(t, Combine.ONE), [1, 1, 1, 0])

    def test_missing_columns_raise(self):
        t = rand_table(n=10, p=2, n_pos=2, seed=0)
        with pytest.raises(MissingColumn):
            mono_forecast(t, Combine.VOTE)
