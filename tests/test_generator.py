import dataclasses
import datetime as dt
import json

import numpy as np
import pytest

from injurycast import generator
from injurycast.data_model import assign_labels
from injurycast.errors import ConfigInvalid
from injurycast.features import (
    EWMA_SPAN,
    MSWR_CAP,
    MSWR_WINDOW_DAYS,
    _week_monotony,
    build_training_table,
    ewma,
    mswr,
)
from injurycast.generator import (
    DEFAULT_FEATURE_STATS,
    MAX_WEEKS,
    PLANTED_RULES,
    START_DATE,
    GeneratorConfig,
    PlantedRule,
    _tenths,
    generate,
    planted_feature_names,
)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = GeneratorConfig()
        assert cfg.n_players == 26 and cfg.weeks == 23

    def test_validation(self):
        """weeks is bounded so that the last week's last session, a day to its
        injury's onset and the longest absence, 15 days, end on or before date.max;
        one week more would not, and the constructor refuses it before generate's
        date arithmetic overflows."""
        with pytest.raises(ConfigInvalid):
            GeneratorConfig(n_players=0)
        assert GeneratorConfig(weeks=MAX_WEEKS).weeks == MAX_WEEKS
        last = START_DATE + dt.timedelta(days=7 * (MAX_WEEKS - 1) + 6 + 1 + 15)
        assert (dt.date.max - last).days < 7
        for weeks in (0, MAX_WEEKS + 1, 10 ** 30):
            with pytest.raises(ConfigInvalid, match="weeks must be in"):
                GeneratorConfig(weeks=weeks)

    def test_fields_are_size_and_seed(self):
        assert [f.name for f in dataclasses.fields(GeneratorConfig)] == [
            "n_players", "weeks", "seed"]

    def test_planted_feature_names(self):
        names = planted_feature_names()
        assert names == ["d_tot_mswr", "d_hsr_ewma", "pi_ewma"]


class TestPlantedRule:
    def test_fires_semantics(self):
        rule = PlantedRule("r", (("a", 1.0, None), ("b", None, 2.0)), 1.0)
        assert rule.fires({"a": 1.5, "b": 2.0})
        assert not rule.fires({"a": 1.0, "b": 2.0})  # lower bound is strict
        assert not rule.fires({"a": 1.5, "b": 2.1})  # upper bound is inclusive
        assert rule.features == ("a", "b")


@pytest.fixture(scope="module")
def season():
    return generate(GeneratorConfig(seed=0))


class TestGenerate:
    def test_shape(self, season):
        log, _ = season
        assert len(log.players) == 26
        start = START_DATE
        for seq in log.sessions.values():
            assert seq, "every player trains"
            assert all(start <= s.date < start + dt.timedelta(weeks=23)
                       for s in seq)

    def test_deterministic(self):
        a_log, a_ledger = generate(GeneratorConfig(seed=42))
        b_log, b_ledger = generate(GeneratorConfig(seed=42))
        assert a_log.sessions == b_log.sessions
        assert a_log.injuries == b_log.injuries
        assert a_ledger.to_json() == b_ledger.to_json()
        c_log, _ = generate(GeneratorConfig(seed=43))
        assert c_log.injuries != a_log.injuries

    def test_ledger_matches_injuries(self, season):
        log, ledger = season
        assert ledger.n_injuries == len(log.injuries)
        recorded = {(c["player_id"], c["onset"]) for c in ledger.causes}
        actual = {(i.player_id, i.onset_date.isoformat()) for i in log.injuries}
        assert recorded == actual
        assert sum(ledger.count_by_rule().values()) == ledger.n_injuries
        parsed = json.loads(ledger.to_json())
        assert set(parsed) == {"injuries", "by_rule"}

    def test_planted_causes_satisfy_their_rule(self, season):
        """Recompute the causal features from the raw log, compare them with the
        ledger's running values and re-check each rule."""
        log, ledger = season
        rules = {r.name: r for r in PLANTED_RULES}
        checked = 0
        for cause in ledger.causes:
            pid = cause["player_id"]
            sess_date = dt.date.fromisoformat(cause["session_date"])
            seq = [s for s in log.sessions[pid] if s.date <= sess_date]
            dates = [s.date for s in seq]
            hsr = [s.workload["d_hsr"] for s in seq]
            tot = [s.workload["d_tot"] for s in seq]
            onsets = [i.onset_date for i in log.player_injuries(pid)]
            pi_series = [sum(1 for o in onsets if o <= d) for d in dates]
            feats = {
                "d_hsr_ewma": float(ewma(hsr, EWMA_SPAN)[-1]),
                "d_tot_mswr": mswr(dates, tot, sess_date),
                "pi_ewma": float(ewma(pi_series, EWMA_SPAN)[-1]),
            }
            assert cause["features"] == {k: round(v, 4) for k, v in feats.items()}
            if cause["rule"] == "base_rate":
                continue
            assert rules[cause["rule"]].fires(feats)
            checked += 1
        assert checked > 0

    def test_prevalence_in_target_band(self, season):
        log, _ = season
        labeling = assign_labels(log)
        prevalence = labeling.n_positive / len(labeling.labeled)
        assert 0.015 <= prevalence <= 0.04

    def test_workload_calibration(self, season):
        log, _ = season
        for name, (mean, sd) in DEFAULT_FEATURE_STATS.items():
            vals = np.array([s.workload[name] for seq in log.sessions.values()
                             for s in seq])
            assert abs(vals.mean() - mean) <= 0.10 * mean, name
            assert abs(vals.std(ddof=1) - sd) <= 0.15 * sd, name

    def test_physical_orderings_hold(self, season):
        log, _ = season
        for seq in log.sessions.values():
            for s in seq:
                assert s.workload["d_hsr"] <= s.workload["d_tot"]
                assert s.workload["acc3"] <= s.workload["acc2"]
                assert s.workload["dec3"] <= s.workload["dec2"]

    def test_zero_rules_zero_base_rate_means_no_injuries(self, monkeypatch):
        monkeypatch.setattr(generator, "PLANTED_RULES", ())
        monkeypatch.setattr(generator, "BASE_INJURY_RATE", 0.0)
        log, ledger = generate(GeneratorConfig(n_players=6, weeks=6, seed=1))
        assert log.injuries == [] and ledger.n_injuries == 0

    def test_injured_sessions_pause_training(self, season):
        log, _ = season
        for inj in log.injuries:
            window_end = inj.onset_date + dt.timedelta(days=inj.days_absent)
            for s in log.sessions[inj.player_id]:
                assert not (inj.onset_date <= s.date <= window_end)

    def test_feeds_feature_builder(self, season):
        log, _ = season
        table, summary = build_training_table(assign_labels(log), log.players)
        assert len(table) == summary.n_examples > 500
        assert summary.n_injury >= 10


class TestPlainFloats:
    """generate's per-session monotony and rounding, bit for bit against the numpy
    code they stand in for."""

    @pytest.mark.parametrize("seed,n_players", [(7, 26), (11, 26), (7, 104), (11, 104)])
    def test_week_monotony_matches_mswr_on_every_session(self, seed, n_players):
        log, _ = generate(GeneratorConfig(seed=seed, n_players=n_players))
        table, _ = build_training_table(assign_labels(log), log.players)
        column = table.column("d_tot_mswr").tolist()
        assert len(column) == log.n_sessions  # every session is a row
        row = 0
        for pid in sorted(log.sessions):
            seq = log.sessions[pid]
            dates = [s.date for s in seq]
            tot = [s.workload["d_tot"] for s in seq]
            for s in seq:
                week = [t for d, t in zip(dates, tot)
                        if 0 <= (s.date - d).days < MSWR_WINDOW_DAYS]
                value = _week_monotony(week)
                assert value.hex() == mswr(dates, tot, s.date).hex() == column[row].hex()
                assert table.dates[row] == s.date
                row += 1

    def test_week_monotony_on_windows_of_one_to_seven(self):
        rng = np.random.default_rng(0)
        dates = [dt.date(2014, 1, 1) + dt.timedelta(days=i) for i in range(7)]
        windows = [[4000.0], [100.0, 100.0001], [0.0, 0.0]]
        for n in range(1, 8):
            windows.append([3882.94] * n)  # a std below 1e-9
            for _ in range(200):
                windows.append(rng.lognormal(8.0, rng.uniform(0.01, 1.5), size=n).tolist())
                windows.append(rng.uniform(-1e3, 1e3, size=n).tolist())
        for values in windows:
            expected = mswr(dates[:len(values)], values, dates[len(values) - 1])
            assert _week_monotony(values).hex() == expected.hex(), values
        assert _week_monotony([4000.0]) == MSWR_CAP  # a single value
        assert _week_monotony([3882.94] * 7) == MSWR_CAP
        assert _week_monotony([100.0, 100.0001]) == MSWR_CAP  # the ratio is capped
        with np.errstate(over="ignore"):  # squared deviations that overflow give NaN
            assert np.isnan(_week_monotony([1e200, 1.0]))
            assert np.isnan(mswr(dates[:2], [1e200, 1.0], dates[1]))

    def test_tenths_match_numpy_round(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate([rng.uniform(0, 95, size=10 ** 5), rng.normal(179, 5, 1000),
                                rng.normal(78, 8, 1000)])
        ours = np.array([_tenths(x) for x in draws.tolist()])
        np.testing.assert_array_equal(ours.view(np.uint64), np.round(draws, 1).view(np.uint64))
        for x in draws[:1000].tolist() + [0.25, 12.25, 94.75, 0.05, 0.15, 2.5]:
            assert _tenths(x).hex() == float(np.round(x, 1)).hex(), x
        # x * 10 is an exact half: both round it to the even neighbour
        assert [_tenths(x) for x in (0.25, 12.25, 94.75)] == [0.2, 12.2, 94.8]
