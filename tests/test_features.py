import csv
import dataclasses
import datetime as dt
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injurycast import generator
from injurycast.data_model import WORKLOAD_FEATURES, assign_labels
from injurycast.errors import EmptySeries, MissingWindow
from injurycast.features import (
    ACWR_ACUTE_DAYS,
    ACWR_CAP,
    ACWR_CHRONIC_DAYS,
    EWMA_SPAN,
    FEATURE_NAMES,
    MSWR_CAP,
    MSWR_WINDOW_DAYS,
    _PLAYER_DAYS,
    TrainingTable,
    _window,
    acwr,
    build_training_table,
    ewma,
    mswr,
    pi_ewma,
    rolling_mean,
)
from injurycast.generator import GeneratorConfig, generate
from injurycast.resampling import ResamplingConfig, adasyn
from injurycast.tree import TreeHyperParams, fit_tree

from conftest import day, make_log, planted_table, rand_table

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def ewma_closed_form(x, span):
    """Independent weighted-sum evaluation of the same recursion."""
    a = 2.0 / (span + 1)
    out = []
    for t in range(len(x)):
        v = (1 - a) ** t * x[0]
        v += sum(a * (1 - a) ** (t - i) * x[i] for i in range(1, t + 1))
        out.append(v)
    return np.array(out)


# The filter-based window statistics and the per-row builder that the sorted-date
# kernels and the column-wise build replaced; the package must match them bit for bit.
def reference_window_values(dates, values, window_days, as_of):
    lo = as_of - dt.timedelta(days=window_days - 1)
    return np.array([v for d, v in zip(dates, values) if lo <= d <= as_of], dtype=float)


def reference_rolling_mean(dates, values, window_days, as_of):
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    vals = reference_window_values(dates, values, window_days, as_of)
    if vals.size == 0:
        raise MissingWindow(f"no sessions in the {window_days}-day window ending {as_of}")
    return float(vals.mean())


def reference_acwr(dates, values, as_of):
    chronic = reference_rolling_mean(dates, values, ACWR_CHRONIC_DAYS, as_of)
    try:
        acute = reference_rolling_mean(dates, values, ACWR_ACUTE_DAYS, as_of)
    except MissingWindow:
        acute = 0.0
    if chronic <= 0.0:
        return 0.0 if acute <= 0.0 else ACWR_CAP
    return min(acute / chronic, ACWR_CAP)


def reference_mswr(dates, values, as_of):
    vals = reference_window_values(dates, values, MSWR_WINDOW_DAYS, as_of)
    if vals.size == 0:
        raise MissingWindow(f"no sessions in the {MSWR_WINDOW_DAYS}-day window ending {as_of}")
    if vals.size < 2:
        return MSWR_CAP
    std = float(vals.std(ddof=1))
    if std < 1e-9:
        return MSWR_CAP
    return min(float(vals.mean()) / std, MSWR_CAP)


def reference_build_X(labeling, profiles):
    """One row at a time: prefix slices, scalar reference calls, a dict per row."""
    by_player = {}
    for ls in labeling.labeled:
        by_player.setdefault(ls.session.player_id, []).append(ls)
    rows = []
    for pid in sorted(by_player):
        seq = sorted(by_player[pid], key=lambda ls: ls.session.date)
        profile = profiles[pid]
        sess_dates = [ls.session.date for ls in seq]
        series = {f: [ls.session.workload[f] for ls in seq] for f in WORKLOAD_FEATURES}
        ewma_series = {f: ewma(series[f], EWMA_SPAN) for f in WORKLOAD_FEATURES}
        pi_counts = np.cumsum([0] + [ls.label for ls in seq[:-1]])
        pi_ewma_series = pi_ewma(pi_counts)
        for t, ls in enumerate(seq):
            as_of = ls.session.date
            feats = {}
            for f in WORKLOAD_FEATURES:
                feats[f] = ls.session.workload[f]
                feats[f + "_ewma"] = ewma_series[f][t]
                feats[f + "_acwr"] = reference_acwr(sess_dates[:t + 1], series[f][:t + 1], as_of)
                feats[f + "_mswr"] = reference_mswr(sess_dates[:t + 1], series[f][:t + 1], as_of)
            feats.update(age=profile.age, bmi=profile.bmi, role=profile.role.code,
                         pi=float(pi_counts[t]), play_time=ls.session.play_time,
                         games=ls.session.games, pi_ewma=pi_ewma_series[t])
            rows.append([feats[name] for name in FEATURE_NAMES])
    return np.array(rows, dtype=float).reshape(-1, 55)


def reference_to_csv(table, path, include_meta=False):
    """TrainingTable.to_csv as first written: one csv.writer row per table row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        meta = ["player_id", "date", "synthetic"] if include_meta else []
        w.writerow(meta + list(table.feature_names) + ["label"])
        for i in range(len(table)):
            row = []
            if include_meta:
                date = table.dates[i]
                row += [table.player_ids[i],
                        date.isoformat() if date is not None else "",
                        int(table.synthetic[i])]
            row += [repr(float(v)) for v in table.X[i]]
            row.append(int(table.y[i]))
            w.writerow(row)


def outcome(f, *args):
    """f(*args), or MissingWindow when it raises that."""
    try:
        return f(*args)
    except MissingWindow:
        return MissingWindow


def assert_bit_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_statistic(ours, ref, *args):
    """Bit-equal values, or MissingWindow from both."""
    try:
        want = ref(*args)
    except MissingWindow:
        with pytest.raises(MissingWindow):
            ours(*args)
    else:
        assert_bit_equal(ours(*args), want)


class TestEwma:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for span in (1, 3, 6, 20):
            x = rng.normal(size=40)
            np.testing.assert_allclose(ewma(x, span), ewma_closed_form(x, span),
                                       rtol=0, atol=1e-10)

    def test_span_one_is_identity(self):
        x = np.array([3.0, -1.0, 7.0])
        np.testing.assert_array_equal(ewma(x, 1), x)

    def test_empty_and_bad_span(self):
        with pytest.raises(EmptySeries):
            ewma([], 6)
        with pytest.raises(ValueError):
            ewma([1.0], 0)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_series_range(self, x, span):
        out = ewma(x, span)
        assert np.all(out >= min(x) - 1e-9 * (1 + abs(min(x))))
        assert np.all(out <= max(x) + 1e-9 * (1 + abs(max(x))))

    @given(st.lists(finite_floats, min_size=1, max_size=30),
           st.floats(min_value=-10, max_value=10, allow_nan=False),
           st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_affine_equivariance(self, x, a, b):
        x = np.asarray(x)
        lhs = ewma(a * x + b, 6)
        rhs = a * ewma(x, 6) + b
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-6)

    def test_constant_series_stays_constant(self):
        np.testing.assert_allclose(ewma([4.2] * 10, 6), 4.2)

    def test_a_matrix_is_smoothed_down_each_column(self):
        # a (sessions x series) matrix: every column bit for bit its own 1-D EWMA
        x = np.random.default_rng(5).normal(size=(9, 4))
        out = ewma(x, 6)
        for j in range(x.shape[1]):
            np.testing.assert_array_equal(out[:, j], ewma(x[:, j], 6))


class TestPiEwma:
    def test_all_zero_history(self):
        np.testing.assert_array_equal(pi_ewma([0, 0, 0]), np.zeros(3))

    def test_step_response_geometry(self):
        # after the count steps 0 -> 1 the value approaches 1 geometrically
        beta = 5.0 / 7.0
        counts = [0, 0] + [1] * 6
        out = pi_ewma(counts, span=6)
        expected = [1.0 - beta ** k for k in range(1, 7)]
        np.testing.assert_allclose(out[2:], expected, atol=1e-12)

    def test_rejects_decreasing_counts(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            pi_ewma([0, 1, 0])

    def test_positive_after_first_injury(self):
        out = pi_ewma([0, 1, 1, 2])
        assert out[0] == 0.0 and np.all(out[1:] > 0)


class TestWindows:
    DATES = [day(0), day(2), day(5), day(9)]
    VALUES = [10.0, 20.0, 30.0, 40.0]

    def test_rolling_mean_window_inclusion(self):
        # 6-day window ending day 5 covers days 0..5 -> sessions 0, 2, 5
        assert rolling_mean(self.DATES, self.VALUES, 6, day(5)) == pytest.approx(20.0)
        # 1-day window only sees the as-of day itself
        assert rolling_mean(self.DATES, self.VALUES, 1, day(9)) == pytest.approx(40.0)

    def test_rolling_mean_missing_window(self):
        with pytest.raises(MissingWindow):
            rolling_mean(self.DATES, self.VALUES, 2, day(40))
        with pytest.raises(ValueError):
            rolling_mean(self.DATES, self.VALUES, 0, day(5))

    def test_an_empty_window_of_a_later_player_names_its_date(self):
        # the table build numbers a player's days rank * _PLAYER_DAYS + ordinal
        base = 3 * _PLAYER_DAYS
        days = np.array([base + day(0).toordinal()])
        with pytest.raises(MissingWindow, match=str(day(40))):
            _window(days, days + 40, MSWR_WINDOW_DAYS)

    def test_acwr_hand_value(self):
        # as of day 9: acute window days 4..9 -> {30, 40}; chronic days -17..9 -> all
        acute = (30 + 40) / 2
        chronic = (10 + 20 + 30 + 40) / 4
        assert acwr(self.DATES, self.VALUES, day(9)) == pytest.approx(acute / chronic)

    def test_acwr_empty_acute_is_zero_ratio(self):
        dates = [day(0), day(1)]
        # as of day 9 the 6-day acute window (days 4..9) is empty
        assert acwr(dates, [5.0, 5.0], day(9)) == 0.0

    def test_acwr_zero_chronic_conventions(self):
        dates = [day(0), day(9)]
        assert acwr(dates, [0.0, 0.0], day(9)) == 0.0
        assert acwr(dates, [0.0, 3.0], day(0)) == 0.0  # only the zero session
        # chronic mean zero but positive acute load cannot happen with
        # non-negative workloads unless all values are zero; cap still guards it
        assert acwr(dates, [0.0, 1.0], day(9)) <= ACWR_CAP

    def test_acwr_cap(self):
        # ten light sessions, then one heavy session alone in the acute window:
        # the uncapped ratio is 1000 / (1010 / 11), about 10.9
        dates = [day(2 * i) for i in range(10)] + [day(26)]
        assert acwr(dates, [1.0] * 10 + [1000.0], day(26)) == ACWR_CAP == 5.0

    def test_mswr_hand_value(self):
        dates = [day(3), day(5), day(7)]
        vals = [10.0, 14.0, 18.0]
        expected = np.mean(vals) / np.std(vals, ddof=1)
        assert mswr(dates, vals, day(7)) == pytest.approx(expected)

    def test_mswr_degenerate_cases_hit_cap(self):
        assert mswr([day(0)], [5.0], day(0)) == MSWR_CAP
        dates = [day(0), day(1), day(2)]
        assert mswr(dates, [7.0, 7.0, 7.0], day(2)) == MSWR_CAP
        with pytest.raises(MissingWindow):
            mswr(dates, [1.0, 2.0, 3.0], day(30))

    def test_mswr_cap_bounds_output(self):
        dates = [day(0), day(1)]
        assert mswr(dates, [100.0, 100.0001], day(1)) == MSWR_CAP

    def test_a_window_sum_that_overflows_gives_nan(self):
        # a finite value would be a wrong one (x / inf gives 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            # the squared deviations overflow from about 1e154
            assert np.isnan(mswr([day(0), day(1)], [1e200, 1.0], day(1)))
            # the chronic sum overflows; the acute window holds the second alone
            assert np.isnan(acwr([day(0), day(9)], [1.7e308, 1.7e308], day(9)))
            assert np.isnan(acwr([day(0), day(1)], [1.7e308, 1.7e308], day(1)))
        assert mswr([day(0), day(1)], [1e100, 1.0], day(1)) == pytest.approx(2 ** -0.5)
        assert acwr([day(0), day(9)], [1e307, 1e307], day(9)) == 1.0


class TestMatchesReference:
    @pytest.mark.parametrize("seed,n_players", [(7, 26), (11, 26), (7, 104)])
    def test_generated_season(self, seed, n_players):
        log, _ = generate(GeneratorConfig(seed=seed, n_players=n_players))
        labeling = assign_labels(log)
        table, _ = build_training_table(labeling, log.players)
        assert_bit_equal(table.X, reference_build_X(labeling, log.players))
        order = sorted(labeling.labeled, key=lambda ls: (ls.session.player_id, ls.session.date))
        assert table.player_ids == [ls.session.player_id for ls in order]
        assert table.dates == [ls.session.date for ls in order]
        np.testing.assert_array_equal(table.y, [ls.label for ls in order])

    def test_daily_season(self, monkeypatch):
        # a session every day, so chronic windows hold up to 27 sessions: every
        # window length from 1 to 27 is one block
        monkeypatch.setattr(generator, "SESSIONS_PER_WEEK", 7.0)
        log, _ = generate(GeneratorConfig(seed=3, n_players=4, weeks=12))
        labeling = assign_labels(log)
        table, _ = build_training_table(labeling, log.players)
        assert_bit_equal(table.X, reference_build_X(labeling, log.players))
        days = [d.toordinal() for d in table.dates]
        longest = max(sum(1 for j in range(max(0, i - 26), i + 1)
                          if table.player_ids[j] == table.player_ids[i]
                          and days[i] - days[j] < 27)
                      for i in range(len(days)))
        assert longest == 27

    def test_edge_case_season(self):
        # days 10 and 60 sit alone in their week; d_hsr is all zero (zero chronic
        # load); d_tot jumps 1 -> 1000 on day 40 (ACWR cap); d_met differs by 1e-12
        # (near-zero std); fi has mean/std near 2e5 (MSWR cap); the other workloads
        # are constant; days 20..28 give daily windows longer than eight sessions
        offsets = [0, 1, 2, 3, 10] + list(range(20, 29)) + [40, 41, 60]
        log = make_log(offsets, injury_specs=[(5, 3)], jitter=lambda i: {
            "d_hsr": 0.0,
            "d_tot": 1000.0 if offsets[i] == 40 else 1.0,
            "d_met": 100.0 + 1e-12 * i,
            "d_hml": float(i * 37 % 11 + 1),
            "fi": 100.0 + 0.001 * (i % 2)})
        labeling = assign_labels(log)
        table, _ = build_training_table(labeling, log.players)
        assert_bit_equal(table.X, reference_build_X(labeling, log.players))
        at = {name: table.column(name)[table.dates.index(day(40))] for name in FEATURE_NAMES}
        assert at["d_tot_acwr"] == ACWR_CAP and at["d_hsr_acwr"] == 0.0
        assert at["d_met_mswr"] == at["fi_mswr"] == MSWR_CAP
        assert np.all(table.column("d_hsr_mswr") == MSWR_CAP)

    def test_scalar_edge_cases(self):
        cases = [
            ([day(0), day(1)], [5.0, 5.0], day(9)),  # empty acute window
            ([day(0), day(9)], [0.0, 0.0], day(9)),  # zero chronic load
            ([day(0), day(20)], [-5.0, 5.0], day(20)),  # zero chronic, positive acute
            ([day(0), day(20)], [-9.0, -1.0], day(20)),  # negative chronic
            ([day(0), day(9)], [1.0, 2.0], day(9)),  # one-session week
            ([day(0), day(1), day(2)], [7.0, 7.0, 7.0 + 1e-12], day(2)),  # near-zero std
            ([day(2 * i) for i in range(10)] + [day(26)], [1.0] * 10 + [1000.0], day(26)),
            ([day(0), day(1)], [100.0, 100.0001], day(1)),  # MSWR cap
            ([day(0), day(0), day(3)], [1.0, 4.0, 2.0], day(3)),  # a shared date
        ]
        for dates, values, as_of in cases:
            assert_same_statistic(acwr, reference_acwr, dates, values, as_of)
            assert_same_statistic(mswr, reference_mswr, dates, values, as_of)
            for days in (1, 3, 27):
                assert_same_statistic(rolling_mean, reference_rolling_mean,
                                      dates, values, days, as_of)

    def test_windows_near_date_min(self):
        # the statistics depend only on the gaps between dates, so the reference on
        # the same dates a year later is the oracle; at date.min itself its window
        # start would fall before 0001-01-01
        d, later = dt.date(1, 1, 1), dt.timedelta(days=365)
        cases = [
            ([d, d + dt.timedelta(1)], [2.0, 4.0], d + dt.timedelta(1)),
            ([d], [5.0], d),
            ([d + dt.timedelta(2)], [5.0], d),  # as of a day before every session
            ([d, d + dt.timedelta(19)], [1.0, 9.0], d + dt.timedelta(19)),  # acute: one
            ([d, d + dt.timedelta(2)], [1.0, 9.0], d + dt.timedelta(40)),  # both empty
        ]
        seen = set()
        for dates, values, as_of in cases:
            moved = [x + later for x in dates]
            for ours, ref in ((acwr, reference_acwr), (mswr, reference_mswr)):
                got = outcome(ours, dates, values, as_of)
                assert got == outcome(ref, moved, values, as_of + later)
                seen.add(got is MissingWindow)
            for days in (1, 3, 27):
                assert (outcome(rolling_mean, dates, values, days, as_of)
                        == outcome(reference_rolling_mean, moved, values, days, as_of + later))
        assert seen == {True, False}

    def test_random_windows(self):
        # daily and sparse schedules, as-of dates inside, between and after sessions
        rng = np.random.default_rng(3)
        for _ in range(300):
            offsets = np.cumsum(rng.integers(0, 4, size=int(rng.integers(1, 40))))
            dates = [day(int(o)) for o in offsets]
            values = rng.choice([0.0, 1.0, 2.5, 1e3], size=len(dates)) + rng.normal(size=len(dates))
            as_of = day(int(rng.integers(0, offsets[-1] + 8)))
            assert_same_statistic(acwr, reference_acwr, dates, values, as_of)
            assert_same_statistic(mswr, reference_mswr, dates, values, as_of)
            assert_same_statistic(rolling_mean, reference_rolling_mean,
                                  dates, values, int(rng.integers(1, 30)), as_of)

    def test_unsorted_dates_raise(self):
        dates, values = [day(0), day(3), day(2)], [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="ascending"):
            acwr(dates, values, day(3))
        with pytest.raises(ValueError, match="ascending"):
            mswr(dates, values, day(3))
        with pytest.raises(ValueError, match="ascending"):
            rolling_mean(dates, values, 7, day(3))


class TestBuildTrainingTable:
    def test_feature_name_layout(self):
        assert len(FEATURE_NAMES) == 55
        assert FEATURE_NAMES[-1] == "pi_ewma"
        assert "d_hsr_ewma" in FEATURE_NAMES and "d_tot_mswr" in FEATURE_NAMES

    def test_columns_match_direct_computation(self):
        log = make_log([0, 2, 4, 7, 9],
                       jitter=lambda i: {"d_tot": 3000.0 + 400.0 * i,
                                         "d_hsr": 100.0 + 30.0 * i})
        labeling = assign_labels(log)
        table, summary = build_training_table(labeling, log.players)
        assert summary.n_examples == len(table) == 5
        dates = [day(o) for o in (0, 2, 4, 7, 9)]
        tot = [3000.0 + 400.0 * i for i in range(5)]
        np.testing.assert_allclose(table.column("d_tot"), tot)
        np.testing.assert_allclose(table.column("d_tot_ewma"), ewma(tot, 6))
        for t in range(5):
            assert table.column("d_tot_acwr")[t] == pytest.approx(
                acwr(dates[:t + 1], tot[:t + 1], dates[t]))
            assert table.column("d_tot_mswr")[t] == pytest.approx(
                mswr(dates[:t + 1], tot[:t + 1], dates[t]))
        assert np.all(table.column("age") == 25)
        assert np.all(table.column("bmi") == pytest.approx(75.0 / 1.8 ** 2))

    def test_pi_columns_track_prior_labels(self):
        # injury onset day 5 labels the day-4 session; later rows see pi = 1
        log = make_log([0, 2, 4, 11, 13], injury_specs=[(5, 4)])
        labeling = assign_labels(log)
        table, summary = build_training_table(labeling, log.players)
        assert summary.n_injury == 1
        np.testing.assert_array_equal(table.column("pi"), [0, 0, 0, 1, 1])
        np.testing.assert_allclose(table.column("pi_ewma"),
                                   pi_ewma([0, 0, 0, 1, 1], 6))

    def test_no_sessions_give_an_empty_table(self):
        table, summary = build_training_table(assign_labels(make_log([])), {})
        assert table.X.shape == (0, 55) and summary.n_examples == 0

    def test_peak_memory_is_a_few_tables(self):
        # the columns, the window statistics and X itself; a Python copy of every
        # value (X.tolist()) alone would add about 4x X.nbytes
        log, _ = generate(GeneratorConfig(seed=7))
        labeling = assign_labels(log)
        tracemalloc.start()
        try:
            table, _ = build_training_table(labeling, log.players)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * table.X.nbytes

    def test_summary_carries_label_bookkeeping(self):
        # the day-5 session falls inside the absence window; the day-9 one
        # is too far from the only onset to attach, so the injury orphans
        log = make_log([5, 9], injury_specs=[(3, 4)])
        _, summary = build_training_table(assign_labels(log), log.players)
        assert summary.excluded_sessions == 1
        assert summary.orphan_injuries == 1


class TestTrainingTable:
    def test_column_select_take(self):
        t = rand_table(n=10, p=4, n_pos=3, seed=1)
        np.testing.assert_array_equal(t.column("f2"), t.X[:, 2])
        sub = t.select_features(["f3", "f0"])
        np.testing.assert_array_equal(sub.X[:, 0], t.X[:, 3])
        np.testing.assert_array_equal(sub.X[:, 1], t.X[:, 0])
        part = t.take([4, 1])
        np.testing.assert_array_equal(part.y, t.y[[4, 1]])
        assert part.player_ids == [t.player_ids[4], t.player_ids[1]]

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            TrainingTable(["a"], np.zeros((3, 2)), np.zeros(3), ["x"] * 3, [None] * 3)
        with pytest.raises(ValueError, match="non-finite"):
            TrainingTable(["a"], np.array([[np.nan]]), np.zeros(1), ["x"], [None])

    def test_csv_round_trip_bit_exact(self, tmp_path):
        t = rand_table(n=15, p=3, n_pos=4, seed=2)
        t.dates = [day(i) for i in range(15)]
        path = tmp_path / "t.csv"
        t.to_csv(path, include_meta=True)
        back = TrainingTable.from_csv(path)
        np.testing.assert_array_equal(back.X, t.X)
        np.testing.assert_array_equal(back.y, t.y)
        assert back.player_ids == t.player_ids
        assert back.dates == t.dates
        assert back.feature_names == list(t.feature_names)

    @pytest.mark.parametrize("include_meta", [False, True])
    def test_csv_row_of_blank_cells_reads_as_absent(self, tmp_path, include_meta):
        t = rand_table(n=6, p=3, n_pos=2, seed=4)
        t.dates = [day(i) for i in range(6)]
        path = tmp_path / "t.csv"
        t.to_csv(path, include_meta=include_meta)
        lines = path.read_text().splitlines(keepends=True)
        blank = "," * lines[0].count(",") + "\r\n"
        path.write_text("".join(lines[:3] + [blank, "\r\n"] + lines[3:]))
        back = TrainingTable.from_csv(path)
        np.testing.assert_array_equal(back.X, t.X)
        np.testing.assert_array_equal(back.y, t.y)
        if include_meta:
            assert back.dates == t.dates

    @pytest.mark.parametrize("include_meta", [False, True])
    def test_csv_bytes_match_the_csv_writer(self, tmp_path, include_meta):
        season, _ = generate(GeneratorConfig(seed=7, n_players=4, weeks=6))
        generated, _ = build_training_table(assign_labels(season), season.players)
        odd = rand_table(n=30, p=4, n_pos=8, seed=3)
        odd.X[:4, 0] = [-0.0, 1e-300, 123456789.125, -7e22]
        odd.dates = [day(i) for i in range(30)]
        odd.player_ids = ["a,b", 'say "hi"', "two\nlines", "cr\r", "", " pad "] * 5
        # ADASYN rows: player "synthetic", date None, synthetic flag 1
        for table in (generated, odd, adasyn(odd, ResamplingConfig(seed=1))):
            ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
            table.to_csv(ours, include_meta=include_meta)
            reference_to_csv(table, ref, include_meta=include_meta)
            assert ours.read_bytes() == ref.read_bytes()
        back = TrainingTable.from_csv(ours)
        np.testing.assert_array_equal(back.X, table.X)
        if include_meta:
            assert back.player_ids == table.player_ids
            assert back.dates == table.dates
            np.testing.assert_array_equal(back.synthetic, table.synthetic)

    def test_csv_peak_memory_is_a_fraction_of_the_table(self, tmp_path):
        # a Python copy of every value (X.tolist()) alone would be about 4x X.nbytes
        log, _ = generate(GeneratorConfig(seed=7))
        table, _ = build_training_table(assign_labels(log), log.players)
        tracemalloc.start()
        try:
            table.to_csv(tmp_path / "t.csv", include_meta=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * table.X.nbytes

    def test_csv_read_peak_memory_is_a_few_tables(self, tmp_path):
        # each row is packed into float64 as it is read; a Python float for every
        # cell, kept to the end, alone would be about 4x X.nbytes
        log, _ = generate(GeneratorConfig(seed=7))
        table, _ = build_training_table(assign_labels(log), log.players)
        table.to_csv(tmp_path / "t.csv", include_meta=True)
        tracemalloc.start()
        try:
            back = TrainingTable.from_csv(tmp_path / "t.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.X.tobytes() == table.X.tobytes()
        assert peak < 4 * table.X.nbytes

    def test_fit_after_replace_matches_a_fresh_table(self):
        t = planted_table(n=120, seed=2)
        fit_tree(t, hp=TreeHyperParams(max_depth=3))
        changed = dataclasses.replace(t, X=t.X[:, ::-1] * -1.0)
        fresh = TrainingTable(list(t.feature_names), t.X[:, ::-1] * -1.0, t.y,
                              list(t.player_ids), list(t.dates))
        hp = TreeHyperParams(max_depth=3)
        assert fit_tree(changed, hp=hp).to_json() == fit_tree(fresh, hp=hp).to_json()

    def test_fit_leaves_x_the_same_writable_array(self):
        X = np.random.default_rng(0).uniform(size=(40, 3))
        want = X.copy()
        t = TrainingTable(["a", "b", "c"], X, np.arange(40) % 2, ["p"] * 40, [None] * 40)
        fit_tree(t)
        assert t.X is X and t.X.flags.writeable
        np.testing.assert_array_equal(t.X, want)

    def test_select_features_after_a_fit_matches_a_fresh_table(self):
        t = planted_table(n=200, seed=5)
        hp = TreeHyperParams(max_depth=4)
        fit_tree(t, hp=hp)
        names = ["noise1", "sig_b", "sig_a"]
        sub = t.select_features(names)
        fresh = TrainingTable(names, np.column_stack([t.column(n) for n in names]),
                              t.y, list(t.player_ids), list(t.dates))
        assert fit_tree(sub, hp=hp, seed=1).to_json() == fit_tree(fresh, hp=hp, seed=1).to_json()
