"""Domain types, CSV ingestion and injury-label assignment for a season of player data."""
from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DuplicateSession,
    MalformedRow,
    NegativeWorkload,
    UnknownPlayer,
)

WORKLOAD_FEATURES = (
    "d_tot", "d_hsr", "d_met", "d_hml", "d_hml_m", "d_exp",
    "acc2", "acc3", "dec2", "dec3", "dsl", "fi",
)

SESSIONS_HEADER = ("player_id", "date") + WORKLOAD_FEATURES + ("play_time", "games")
INJURIES_HEADER = ("player_id", "onset_date", "days_absent")
PLAYERS_HEADER = ("player_id", "age", "height_cm", "mass_kg", "role")


class Role(Enum):
    CENTRAL_BACK = "CentralBack"
    FULLBACK = "Fullback"
    MIDFIELDER = "Midfielder"
    WINGER = "Winger"
    FORWARD = "Forward"

    @property
    def code(self) -> int:
        return list(Role).index(self)


@dataclass(frozen=True)
class PlayerProfile:
    player_id: str
    age: int
    height_cm: float
    body_mass_kg: float
    role: Role

    def __post_init__(self):
        if self.age <= 0 or self.height_cm <= 0 or self.body_mass_kg <= 0:
            raise ValueError(f"player {self.player_id}: age/height/mass must be positive")

    @property
    def bmi(self) -> float:
        return self.body_mass_kg / (self.height_cm / 100.0) ** 2


@dataclass(frozen=True)
class TrainingSession:
    player_id: str
    date: dt.date
    workload: dict  # feature name -> value, all 12 WORKLOAD_FEATURES
    play_time: float  # minutes in previous games
    games: int  # count of prior official games

    def __post_init__(self):
        missing = [f for f in WORKLOAD_FEATURES if f not in self.workload]
        if missing:
            raise NegativeWorkload(
                f"session {self.player_id}@{self.date}: missing workload values {missing}")
        for name in WORKLOAD_FEATURES:
            if self.workload[name] < 0:
                raise NegativeWorkload(
                    f"session {self.player_id}@{self.date}: {name} < 0")
        # harder thresholds cannot exceed softer ones
        if self.workload["acc3"] > self.workload["acc2"]:
            raise NegativeWorkload(
                f"session {self.player_id}@{self.date}: acc3 > acc2 violates threshold ordering")
        if self.workload["dec3"] > self.workload["dec2"]:
            raise NegativeWorkload(
                f"session {self.player_id}@{self.date}: dec3 > dec2 violates threshold ordering")
        if self.workload["d_hsr"] > self.workload["d_tot"]:
            raise NegativeWorkload(
                f"session {self.player_id}@{self.date}: d_hsr > d_tot")


@dataclass(frozen=True)
class InjuryRecord:
    player_id: str
    onset_date: dt.date
    days_absent: int

    def __post_init__(self):
        if self.days_absent < 1:
            raise ValueError(f"injury {self.player_id}@{self.onset_date}: days_absent must be >= 1")


@dataclass
class SeasonLog:
    players: dict  # player_id -> PlayerProfile
    sessions: dict  # player_id -> list[TrainingSession], sorted by date
    injuries: list  # list[InjuryRecord]

    def __post_init__(self):
        for pid in self.sessions:
            if pid not in self.players:
                raise UnknownPlayer(f"sessions reference unknown player '{pid}'")
            seq = sorted(self.sessions[pid], key=lambda s: s.date)
            dates = [s.date for s in seq]
            if len(set(dates)) != len(dates):
                raise DuplicateSession(f"player '{pid}' has duplicate session dates")
            self.sessions[pid] = seq
        for inj in self.injuries:
            if inj.player_id not in self.players:
                raise UnknownPlayer(f"injury references unknown player '{inj.player_id}'")
        by_player = {}
        for inj in sorted(self.injuries, key=lambda i: (i.player_id, i.onset_date)):
            prev = by_player.get(inj.player_id)
            if prev is not None and inj.onset_date <= prev:
                raise ValueError(
                    f"player '{inj.player_id}': injury onsets must be strictly increasing")
            by_player[inj.player_id] = inj.onset_date

    @property
    def n_sessions(self) -> int:
        return sum(len(v) for v in self.sessions.values())

    def player_injuries(self, player_id: str) -> list:
        return sorted((i for i in self.injuries if i.player_id == player_id),
                      key=lambda i: i.onset_date)


@dataclass(frozen=True)
class LabeledSession:
    session: TrainingSession
    label: int  # 1 = injury follows this session, 0 otherwise
    injury_onset: dt.date | None = None  # set when label == 1


@dataclass
class LabelingResult:
    labeled: list  # list[LabeledSession], chronological within player
    orphan_injuries: list  # injuries with no preceding session within the horizon
    excluded_sessions: int  # sessions dropped because they fell in an absence window

    @property
    def n_positive(self) -> int:
        return sum(ls.label for ls in self.labeled)


def _parse_csv(path, expected_header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(path, 1, expected_header[0], "file is empty")
        if tuple(h.strip() for h in header) != expected_header:
            raise MalformedRow(path, 1, header[0] if header else "?",
                               f"header must be {','.join(expected_header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(expected_header):
                raise MalformedRow(path, lineno, expected_header[0],
                                   f"expected {len(expected_header)} columns, got {len(row)}")
            yield lineno, dict(zip(expected_header, (c.strip() for c in row)))


def _field(path, lineno, row, name, conv):
    try:
        return conv(row[name])
    except (ValueError, KeyError) as exc:
        raise MalformedRow(path, lineno, name, str(exc)) from exc


def parse_season(sessions_file, injuries_file, players_file) -> SeasonLog:
    """Parse and cross-validate the three season CSVs into a SeasonLog.

    Raises MalformedRow, UnknownPlayer, DuplicateSession or NegativeWorkload;
    never silently drops a row.
    """
    players = {}
    for lineno, row in _parse_csv(players_file, PLAYERS_HEADER):
        role_raw = row["role"]
        try:
            role = Role(role_raw)
        except ValueError:
            raise MalformedRow(players_file, lineno, "role",
                               f"'{role_raw}' is not one of {[r.value for r in Role]}")
        profile = PlayerProfile(
            player_id=row["player_id"],
            age=_field(players_file, lineno, row, "age", int),
            height_cm=_field(players_file, lineno, row, "height_cm", float),
            body_mass_kg=_field(players_file, lineno, row, "mass_kg", float),
            role=role,
        )
        if profile.player_id in players:
            raise MalformedRow(players_file, lineno, "player_id",
                               f"duplicate player '{profile.player_id}'")
        players[profile.player_id] = profile

    sessions = {pid: [] for pid in players}
    seen = set()
    for lineno, row in _parse_csv(sessions_file, SESSIONS_HEADER):
        pid = row["player_id"]
        if pid not in players:
            raise UnknownPlayer(f"{sessions_file}:{lineno}: unknown player '{pid}'")
        date = _field(sessions_file, lineno, row, "date", dt.date.fromisoformat)
        if (pid, date) in seen:
            raise DuplicateSession(f"{sessions_file}:{lineno}: duplicate session {pid}@{date}")
        seen.add((pid, date))
        workload = {name: _field(sessions_file, lineno, row, name, float)
                    for name in WORKLOAD_FEATURES}
        sessions[pid].append(TrainingSession(
            player_id=pid,
            date=date,
            workload=workload,
            play_time=_field(sessions_file, lineno, row, "play_time", float),
            games=_field(sessions_file, lineno, row, "games", int),
        ))

    injuries = []
    for lineno, row in _parse_csv(injuries_file, INJURIES_HEADER):
        pid = row["player_id"]
        if pid not in players:
            raise UnknownPlayer(f"{injuries_file}:{lineno}: unknown player '{pid}'")
        injuries.append(InjuryRecord(
            player_id=pid,
            onset_date=_field(injuries_file, lineno, row, "onset_date", dt.date.fromisoformat),
            days_absent=_field(injuries_file, lineno, row, "days_absent", int),
        ))

    return SeasonLog(players=players, sessions=sessions, injuries=injuries)


def assign_labels(log: SeasonLog, horizon_days: int = 3) -> LabelingResult:
    """Attach each injury to the player's most recent preceding session.

    A session gets label 1 when an injury onset falls strictly after its date
    and within `horizon_days` of it, with no later session in between.
    Sessions inside an absence window [onset, onset + days_absent] are excluded.
    Injuries with no preceding session within the horizon are reported as orphans.
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    labeled = []
    orphans = []
    excluded = 0
    for pid in sorted(log.sessions):
        injuries = log.player_injuries(pid)
        windows = [(i.onset_date, i.onset_date + dt.timedelta(days=i.days_absent))
                   for i in injuries]
        kept = []
        for sess in log.sessions[pid]:
            if any(lo <= sess.date <= hi for lo, hi in windows):
                excluded += 1
            else:
                kept.append(sess)
        # most recent kept session strictly before each onset, within horizon
        attach = {}
        for inj in injuries:
            cands = [s for s in kept
                     if s.date < inj.onset_date
                     and (inj.onset_date - s.date).days <= horizon_days]
            if cands and cands[-1].date not in attach:
                attach[cands[-1].date] = inj
            else:
                orphans.append(inj)
        for sess in kept:
            inj = attach.get(sess.date)
            labeled.append(LabeledSession(
                session=sess,
                label=1 if inj is not None else 0,
                injury_onset=inj.onset_date if inj is not None else None,
            ))
    return LabelingResult(labeled=labeled, orphan_injuries=orphans,
                          excluded_sessions=excluded)


def write_season_csvs(log: SeasonLog, sessions_file, injuries_file, players_file) -> None:
    """Inverse of parse_season; used by the generator and for round-trip tests."""
    with open(players_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PLAYERS_HEADER)
        for pid in sorted(log.players):
            p = log.players[pid]
            w.writerow([p.player_id, p.age, f"{p.height_cm:g}", f"{p.body_mass_kg:g}",
                        p.role.value])
    with open(sessions_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SESSIONS_HEADER)
        for pid in sorted(log.sessions):
            for s in log.sessions[pid]:
                w.writerow([s.player_id, s.date.isoformat()]
                           + [repr(float(s.workload[f])) for f in WORKLOAD_FEATURES]
                           + [f"{s.play_time:g}", s.games])
    with open(injuries_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(INJURIES_HEADER)
        for inj in sorted(log.injuries, key=lambda i: (i.player_id, i.onset_date)):
            w.writerow([inj.player_id, inj.onset_date.isoformat(), inj.days_absent])
