import dataclasses
import datetime as dt
from decimal import Decimal

import numpy as np
import pytest

from injurycast.cli import cli_main
from injurycast.data_model import SeasonLog, assign_labels, write_season_csvs
from injurycast.errors import InsufficientHistory
from injurycast.features import build_training_table
from injurycast.generator import GeneratorConfig, generate
from injurycast.simulate import (
    _week_tables,
    cost,
    feature_trace,
    savings,
    season_start,
    walk_forward,
    week_of,
)

from conftest import day, make_log


class TestCalendar:
    def test_week_of(self):
        start = day(0)
        assert week_of(day(0), start) == 1
        assert week_of(day(6), start) == 1
        assert week_of(day(7), start) == 2
        assert week_of(day(69), start) == 10

    def test_season_start(self):
        log = make_log([4, 9, 2])
        assert season_start(log) == day(2)
        with pytest.raises(InsufficientHistory):
            season_start(make_log([]))

    def test_too_short_season(self):
        log = make_log(list(range(0, 21, 2)))  # three weeks of sessions
        with pytest.raises(InsufficientHistory):
            walk_forward(log, start_week=6)

    @pytest.mark.parametrize("start_week", [0, -3])
    def test_start_week_before_the_first_week(self, small_season, start_week):
        log, _ = small_season
        with pytest.raises(ValueError, match="start_week"):
            walk_forward(log, start_week=start_week)


class TestCost:
    def test_exact_decimal_arithmetic(self):
        assert cost(107, 83) == Decimal("8881")
        assert cost(0, 83) == Decimal("0")
        assert cost(3, "83.5") == Decimal("250.5")
        assert isinstance(cost(1, 1), Decimal)

    def test_no_float_contamination(self):
        # 0.1 * 3 is not 0.3 in binary floats; it must be exact here
        assert cost(3, "0.1") == Decimal("0.3")

    def test_validation(self):
        with pytest.raises(ValueError):
            cost(-1, 83)
        with pytest.raises(ValueError):
            cost(1, -5)


@pytest.fixture(scope="module")
def outcomes_and_log(small_season):
    log, _ = small_season
    return walk_forward(log, seed=0, start_week=6), log


class TestWalkForward:
    def test_covers_forecast_weeks(self, outcomes_and_log):
        outcomes, log = outcomes_and_log
        start = season_start(log)
        last = max(s.date for seq in log.sessions.values() for s in seq)
        assert [o.week for o in outcomes] == list(range(6, week_of(last, start)))

    def test_no_look_ahead(self, outcomes_and_log):
        outcomes, log = outcomes_and_log
        start = season_start(log)
        for o in outcomes:
            assert o.cutoff == start + dt.timedelta(days=7 * o.week - 1)
            if o.train_max_date is not None:
                assert o.train_max_date <= o.cutoff
            for pid, date, _, _, onset in o.predictions:
                assert o.cutoff < date <= o.cutoff + dt.timedelta(days=7)

    def test_cumulative_matrix_is_running_sum(self, outcomes_and_log):
        outcomes, _ = outcomes_and_log
        running = None
        for o in outcomes:
            running = o.weekly_cm if running is None else running + o.weekly_cm
            assert o.cumulative_cm == running
            assert o.detected == o.weekly_cm.tp
            assert o.missed == o.weekly_cm.fn

    def test_degenerate_weeks_predict_nothing(self, outcomes_and_log):
        outcomes, _ = outcomes_and_log
        for o in outcomes:
            if o.degenerate:
                assert all(pr == 0 for _, _, pr, _, _ in o.predictions)
                assert o.selected_features == []

    def test_a_season_with_one_injury_is_degenerate_every_week(self, tmp_path):
        """No week ever knows two injury rows, so each predicts 0 for every row and
        selects nothing, and simulate writes degenerate 1 on every line."""
        log, _ = generate(GeneratorConfig(n_players=12, weeks=8, seed=7))
        log = SeasonLog(players=log.players, sessions=log.sessions, injuries=log.injuries[:1])
        outcomes = walk_forward(log, start_week=1)
        assert [o.week for o in outcomes] == list(range(1, 8))
        for o in outcomes:
            assert o.degenerate and o.selected_features == []
            assert o.predictions and all(pr == 0 for _, _, pr, _, _ in o.predictions)
        paths = [str(tmp_path / name) for name in ("s.csv", "i.csv", "p.csv", "o.csv")]
        write_season_csvs(log, *paths[:3])
        assert cli_main(["simulate", "--sessions", paths[0], "--injuries", paths[1],
                         "--players", paths[2], "--seed", "0", "--start-week", "1",
                         "--out", paths[3], "--report", str(tmp_path / "r.json")]) == 0
        lines = (tmp_path / "o.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [[str(w), "1"] for w in range(1, 8)]

    def test_deterministic(self, small_season):
        log, _ = small_season
        a = walk_forward(log, seed=0, start_week=6)
        b = walk_forward(log, seed=0, start_week=6)
        assert a == b

    def test_a_far_future_session_forecasts_only_the_weeks_holding_rows(self,
                                                                        small_season):
        # one session moved to the last date opens about 417,000 empty weeks
        log, _ = small_season
        pid = sorted(log.sessions)[0]
        far = dataclasses.replace(log.sessions[pid][-1], date=dt.date.max)
        moved = SeasonLog(players=log.players, injuries=log.injuries,
                          sessions={**log.sessions, pid: log.sessions[pid][:-1] + [far]})
        outcomes = walk_forward(moved, seed=0, start_week=6)
        start = season_start(moved)
        table, _ = build_training_table(assign_labels(moved), moved.players)
        holding = {week_of(d, start) - 1 for d in table.dates}
        assert [o.week for o in outcomes] == sorted(w for w in holding if w >= 6)
        assert outcomes[-1].week == week_of(dt.date.max, start) - 1
        assert [d for _, d, *_ in outcomes[-1].predictions] == [dt.date.max]


def truncated_week_tables(log, final_onsets, cutoff):
    """Reference: rebuild the table from the log cut at the end of the forecast
    week, then keep training labels whose onset is known by the cutoff."""
    next_cutoff = cutoff + dt.timedelta(days=7)
    visible = SeasonLog(
        players=dict(log.players),
        sessions={pid: [s for s in seq if s.date <= next_cutoff]
                  for pid, seq in log.sessions.items()},
        injuries=[i for i in log.injuries if i.onset_date <= next_cutoff])
    table, _ = build_training_table(assign_labels(visible), log.players)
    dates = np.array([d.toordinal() for d in table.dates])
    train = table.take(np.flatnonzero(dates <= cutoff.toordinal()))
    train.y = train.y * np.array(
        [final_onsets.get((p, d)) is not None and final_onsets[(p, d)] <= cutoff
         for p, d in zip(train.player_ids, train.dates)], dtype=int)
    forecast = table.take(np.flatnonzero((dates > cutoff.toordinal())
                                         & (dates <= next_cutoff.toordinal())))
    return train, forecast


def test_masked_season_table_equals_truncated_rebuild(small_season):
    log, _ = small_season
    labeling = assign_labels(log)
    table, _ = build_training_table(labeling, log.players)
    onsets = {(ls.session.player_id, ls.session.date): ls.injury_onset
              for ls in labeling.labeled}
    start = season_start(log)
    last = max(s.date for seq in log.sessions.values() for s in seq)
    weeks = range(6, week_of(last, start))
    assert len(weeks) >= 5
    for week in weeks:
        cutoff = start + dt.timedelta(days=7 * week - 1)
        train, forecast = _week_tables(table, onsets, cutoff)
        ref_train, ref_forecast = truncated_week_tables(log, onsets, cutoff)
        for got, ref in ((train, ref_train), (forecast, ref_forecast)):
            assert got.player_ids == ref.player_ids
            assert got.dates == ref.dates
            assert got.X.tobytes() == ref.X.tobytes()
        assert np.array_equal(train.y, ref_train.y)


class TestFeatureTrace:
    def _outcome(self, week, names):
        from injurycast.metrics import ConfusionMatrix
        from injurycast.simulate import WeeklyOutcome
        cm = ConfusionMatrix(0, 0, 0, 0)
        return WeeklyOutcome(week=week, degenerate=False, cutoff=day(7 * week),
                             train_max_date=None, predictions=[], detected=0,
                             missed=0, weekly_cm=cm, cumulative_cm=cm,
                             cumulative_f1=0.0, selected_features=list(names))

    def test_stabilization_week(self):
        outs = [self._outcome(6, ["a", "b"]), self._outcome(7, ["a"]),
                self._outcome(8, ["a", "c"]), self._outcome(9, ["c", "a"]),
                self._outcome(10, ["a", "c"])]
        trace = feature_trace(outs)
        assert trace["stabilization_week"] == 8  # set equality, order ignored
        assert trace["weeks"][7] == ["a"]

    def test_never_stabilizes(self):
        outs = [self._outcome(6, ["a"]), self._outcome(7, ["b"]),
                self._outcome(8, ["a"])]
        assert feature_trace(outs)["stabilization_week"] == 8
        outs.append(self._outcome(9, ["b"]))
        assert feature_trace(outs)["stabilization_week"] == 9


class TestSavings:
    def test_savings_accounting(self, small_season):
        log, _ = small_season
        outcomes = walk_forward(log, seed=0, start_week=6)
        report = savings(outcomes, log.injuries, 83)
        total = sum(i.days_absent for i in log.injuries)
        assert report.total_absence_days == total
        assert report.total_cost == Decimal(total) * Decimal(83)
        hits = {(p, o) for oc in outcomes
                for p, d, pr, lb, o in oc.predictions if pr == 1 and lb == 1}
        preventable = sum(i.days_absent for i in log.injuries
                          if (i.player_id, i.onset_date) in hits)
        assert report.preventable_days == preventable
        assert report.savings == Decimal(preventable) * Decimal(83)
        if total:
            assert report.percent_decrease == pytest.approx(preventable / total)
        assert report.to_dict()["assumes_full_prevention"] is True

    def test_zero_cost_season(self):
        report = savings([], [], 83)
        assert report.percent_decrease == 0.0
        assert report.total_cost == Decimal("0")
