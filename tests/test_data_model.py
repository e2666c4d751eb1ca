import csv
import datetime as dt

import pytest

from injurycast.data_model import (
    SESSIONS_HEADER,
    InjuryRecord,
    Role,
    SeasonLog,
    TrainingSession,
    WORKLOAD_FEATURES,
    assign_labels,
    _short,
    parse_season,
    write_season_csvs,
)
from injurycast.errors import (
    DuplicateSession,
    MalformedRow,
    NegativeWorkload,
    UnknownPlayer,
)

from conftest import D0, day, make_log, make_profile, make_session, make_workload


class TestProfiles:
    def test_bmi(self):
        p = make_profile(height=180.0, mass=75.0)
        assert p.bmi == pytest.approx(75.0 / 1.80 ** 2)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            make_profile(age=0)
        with pytest.raises(ValueError):
            make_profile(height=-1.0)

    def test_role_codes_are_stable(self):
        assert [r.code for r in Role] == [0, 1, 2, 3, 4]
        assert Role.CENTRAL_BACK.code == 0 and Role.FORWARD.code == 4


class TestSessionValidation:
    def test_missing_workload_feature(self):
        w = make_workload()
        del w["fi"]
        with pytest.raises(NegativeWorkload, match="missing"):
            TrainingSession(player_id="P01", date=D0, workload=w,
                            play_time=0.0, games=0)

    def test_negative_workload(self):
        with pytest.raises(NegativeWorkload):
            make_session(d_met=-1.0)

    def test_threshold_ordering(self):
        with pytest.raises(NegativeWorkload, match="acc3"):
            make_session(acc2=5.0, acc3=6.0)
        with pytest.raises(NegativeWorkload, match="dec3"):
            make_session(dec2=5.0, dec3=6.0)
        with pytest.raises(NegativeWorkload, match="d_hsr"):
            make_session(d_tot=100.0, d_hsr=200.0)

    def test_injury_needs_positive_absence(self):
        with pytest.raises(ValueError):
            InjuryRecord("P01", D0, 0)


class TestSeasonLog:
    def test_sessions_sorted_by_date(self):
        log = make_log([5, 1, 3])
        assert [s.date for s in log.sessions["P01"]] == [day(1), day(3), day(5)]

    def test_unknown_player_in_sessions(self):
        with pytest.raises(UnknownPlayer):
            SeasonLog(players={}, sessions={"P99": [make_session(pid="P99")]},
                      injuries=[])

    def test_unknown_player_in_injuries(self):
        with pytest.raises(UnknownPlayer):
            SeasonLog(players={"P01": make_profile()}, sessions={"P01": []},
                      injuries=[InjuryRecord("P99", D0, 2)])

    def test_duplicate_session_dates(self):
        with pytest.raises(DuplicateSession):
            make_log([1, 1])

    def test_onsets_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_log([0, 10], injury_specs=[(2, 5), (2, 3)])

    def test_counts(self):
        log = make_log([0, 2, 4], injury_specs=[(3, 2)])
        assert log.n_sessions == 3
        assert len(log.player_injuries("P01")) == 1


class TestAssignLabels:
    def test_attaches_most_recent_session_within_horizon(self):
        # sessions on days 0 and 2; onset day 3 -> day-2 session labeled
        log = make_log([0, 2], injury_specs=[(3, 2)])
        res = assign_labels(log)
        labels = {ls.session.date: ls.label for ls in res.labeled}
        assert labels == {day(0): 0, day(2): 1}
        assert res.labeled[1].injury_onset == day(3)
        assert res.n_positive == 1

    def test_horizon_is_strict(self):
        # onset 4 days after the only session: outside a 3-day horizon
        log = make_log([0], injury_specs=[(4, 2)])
        res = assign_labels(log)
        assert res.n_positive == 0
        assert res.orphan_injuries == log.injuries

    def test_absence_window_excludes_sessions(self):
        # injury onset day 3, absent 4 days: sessions on days 3..7 are dropped
        log = make_log([2, 5, 9], injury_specs=[(3, 4)])
        res = assign_labels(log)
        assert res.excluded_sessions == 1
        assert [ls.session.date for ls in res.labeled] == [day(2), day(9)]

    def test_same_day_session_not_labeled(self):
        # the onset-day session sits inside the absence window, not before it
        log = make_log([3], injury_specs=[(3, 2)])
        res = assign_labels(log)
        assert res.excluded_sessions == 1
        assert res.orphan_injuries == log.injuries

    def test_collision_yields_orphan(self):
        # two onsets both attach to the day-0 session; the later one orphans
        log = make_log([0], injury_specs=[(1, 1), (3, 2)])
        res = assign_labels(log)
        assert res.n_positive == 1
        assert res.labeled[0].injury_onset == day(1)
        assert [i.onset_date for i in res.orphan_injuries] == [day(3)]

    def test_invariants_on_random_logs(self):
        import numpy as np
        rng = np.random.default_rng(7)
        for trial in range(25):
            offsets = sorted(rng.choice(60, size=12, replace=False).tolist())
            onset = int(rng.integers(1, 62))
            absent = int(rng.integers(1, 8))
            try:
                log = make_log(offsets, injury_specs=[(onset, absent)])
            except ValueError:
                continue
            res = assign_labels(log)
            for ls in res.labeled:
                # no labeled session inside the absence window
                assert not (day(onset) <= ls.session.date
                            <= day(onset) + dt.timedelta(days=absent))
                if ls.label:
                    gap = (ls.injury_onset - ls.session.date).days
                    assert 1 <= gap <= 3
            assert res.n_positive + len(res.orphan_injuries) == 1


class TestCsvRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path, small_season):
        log, _ = small_season
        paths = [tmp_path / n for n in ("s.csv", "i.csv", "p.csv")]
        write_season_csvs(log, *paths)
        back = parse_season(*paths)
        assert back.players == log.players
        assert back.injuries == sorted(log.injuries,
                                       key=lambda i: (i.player_id, i.onset_date))
        assert back.sessions == log.sessions  # repr() round-trips floats exactly

    def test_values_that_g_would_round_read_back_equal(self, tmp_path):
        """%g keeps six significant digits, so these two are written with repr."""
        log = SeasonLog(players={"P01": make_profile(height=181.23456)},
                        sessions={"P01": [make_session(play_time=1234567.5)]}, injuries=[])
        paths = [tmp_path / n for n in ("s.csv", "i.csv", "p.csv")]
        write_season_csvs(log, *paths)
        back = parse_season(*paths)
        assert back.players["P01"].height_cm == 181.23456
        assert back.sessions["P01"][0].play_time == 1234567.5

    def test_rows_of_blank_cells_read_as_absent(self, tmp_path, small_season):
        log, _ = small_season
        paths = [tmp_path / n for n in ("s.csv", "i.csv", "p.csv")]
        write_season_csvs(log, *paths)
        clean = parse_season(*paths)
        for path in paths:
            lines = path.read_text().splitlines(keepends=True)
            width = lines[0].count(",")
            path.write_text("".join(lines[:2] + [" ," * width + "\r\n"] + lines[2:]))
        back = parse_season(*paths)
        assert (back.players, back.sessions, back.injuries) == (
            clean.players, clean.sessions, clean.injuries)

    def _write(self, path, text):
        path.write_text(text)
        return str(path)

    def test_bad_header(self, tmp_path):
        p = self._write(tmp_path / "p.csv", "nope\n")
        with pytest.raises(MalformedRow, match="header"):
            parse_season(p, p, p)

    def test_error_carries_line_number(self, tmp_path):
        players = self._write(
            tmp_path / "p.csv",
            "player_id,age,height_cm,mass_kg,role\n"
            "P01,25,180,75,Midfielder\n"
            "P02,xx,180,75,Midfielder\n")
        sess = self._write(tmp_path / "s.csv",
                           ",".join(("player_id", "date") + WORKLOAD_FEATURES
                                    + ("play_time", "games")) + "\n")
        inj = self._write(tmp_path / "i.csv", "player_id,onset_date,days_absent\n")
        with pytest.raises(MalformedRow) as exc:
            parse_season(sess, inj, players)
        assert "3" in str(exc.value) and "age" in str(exc.value)

    def test_bad_role_and_duplicate_player(self, tmp_path):
        sess = self._write(tmp_path / "s.csv",
                           ",".join(("player_id", "date") + WORKLOAD_FEATURES
                                    + ("play_time", "games")) + "\n")
        inj = self._write(tmp_path / "i.csv", "player_id,onset_date,days_absent\n")
        bad_role = self._write(tmp_path / "p1.csv",
                               "player_id,age,height_cm,mass_kg,role\n"
                               "P01,25,180,75,Goalkeeper\n")
        with pytest.raises(MalformedRow, match="Goalkeeper"):
            parse_season(sess, inj, bad_role)
        dup = self._write(tmp_path / "p2.csv",
                          "player_id,age,height_cm,mass_kg,role\n"
                          "P01,25,180,75,Midfielder\nP01,26,181,76,Winger\n")
        with pytest.raises(MalformedRow, match="duplicate"):
            parse_season(sess, inj, dup)

    def test_wrong_column_count(self, tmp_path):
        players = self._write(tmp_path / "p.csv",
                              "player_id,age,height_cm,mass_kg,role\nP01,25,180\n")
        with pytest.raises(MalformedRow, match="columns"):
            parse_season(players, players, players)


def reference_sessions_csv(log, path):
    """write_season_csvs's session file as first written: one csv.writer row per session."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SESSIONS_HEADER)
        for pid in sorted(log.sessions):
            for s in log.sessions[pid]:
                w.writerow([s.player_id, s.date.isoformat()]
                           + [repr(float(s.workload[f])) for f in WORKLOAD_FEATURES]
                           + [_short(s.play_time), s.games])


class TestSessionWriter:
    def test_bytes_match_the_csv_writer(self, tmp_path, small_season):
        odd = ["a,b", 'say "hi"', "two\nlines", "cr\r", " pad ", "P01"]
        sessions = {pid: [make_session(pid=pid, date=day(i), play_time=pt, games=i,
                                       d_tot=4000.0 + 1e-9 * i, fi=1e-300)
                          for i, pt in enumerate((0.0, 94.8, 1234567.5, 1e-7))]
                    for pid in odd}
        built = SeasonLog(players={pid: make_profile(pid) for pid in odd},
                          sessions=sessions, injuries=[])
        for log in (small_season[0], built):
            paths = [tmp_path / n for n in ("s.csv", "i.csv", "p.csv")]
            write_season_csvs(log, *paths)
            reference_sessions_csv(log, tmp_path / "ref.csv")
            assert paths[0].read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestNonFiniteSessionCells:
    PLAYERS = "player_id,age,height_cm,mass_kg,role\nP01,25,180,75,Midfielder\n"
    INJURIES = "player_id,onset_date,days_absent\n"

    def _season(self, tmp_path, row):
        header = ",".join(SESSIONS_HEADER) + "\n"
        paths = []
        for name, text in (("s.csv", header + row), ("i.csv", self.INJURIES),
                           ("p.csv", self.PLAYERS)):
            (tmp_path / name).write_text(text)
            paths.append(str(tmp_path / name))
        return paths

    @pytest.mark.parametrize("column,cell", [("d_tot", "nan"), ("fi", "-inf"),
                                             ("play_time", "inf"), ("d_hsr", " NaN ")])
    def test_names_the_first_non_finite_cell(self, tmp_path, column, cell):
        values = ["1.0"] * len(WORKLOAD_FEATURES) + ["0", "0"]
        values[SESSIONS_HEADER.index(column) - 2] = cell
        paths = self._season(tmp_path, "P01,2014-01-06," + ",".join(values) + "\n")
        with pytest.raises(MalformedRow) as exc:
            parse_season(*paths)
        message = str(exc.value)
        assert f"s.csv:2 column '{column}'" in message
        assert f"'{float(cell)}' is not a finite number" in message

    def test_is_checked_before_the_player(self, tmp_path):
        values = ["1.0"] * len(WORKLOAD_FEATURES) + ["nan", "0"]
        paths = self._season(tmp_path, "P99,2014-01-06," + ",".join(values) + "\n")
        with pytest.raises(MalformedRow, match="column 'play_time'"):
            parse_season(*paths)
