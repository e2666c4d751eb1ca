"""Domain types, CSV ingestion and injury-label assignment for a season of player data."""
from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DuplicateSession,
    MalformedRow,
    NegativeWorkload,
    NotUtf8,
    UnknownPlayer,
)

WORKLOAD_FEATURES = (
    "d_tot", "d_hsr", "d_met", "d_hml", "d_hml_m", "d_exp",
    "acc2", "acc3", "dec2", "dec3", "dsl", "fi",
)

SESSIONS_HEADER = ("player_id", "date") + WORKLOAD_FEATURES + ("play_time", "games")
INJURIES_HEADER = ("player_id", "onset_date", "days_absent")
PLAYERS_HEADER = ("player_id", "age", "height_cm", "mass_kg", "role")

# a session is labelled by an injury whose onset is at most this many days after it
HORIZON_DAYS = 3


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


@contextlib.contextmanager
def open_utf8(path, newline=None):
    """The text file at path opened for reading as UTF-8, whatever the locale; a
    byte that is not UTF-8, met while the file is read, raises NotUtf8."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise NotUtf8(path, exc) from None


def read_csv(path, columns):
    """Yield (line, values) for each row of the UTF-8 CSV file at path.

    columns(header) checks the header and returns one converter per column, or
    raises ValueError(column, reason). Rows of blank cells are skipped. A row of the
    wrong length, or a cell its converter refuses with ValueError, raises MalformedRow
    naming the physical line the row ends on and the first missing or refused column.
    """
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise MalformedRow(path, 1, "", "missing header")
        try:
            converters = columns(header)
        except ValueError as exc:
            raise MalformedRow(path, 1, *exc.args) from None
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise MalformedRow(path, reader.line_num,
                                   header[min(len(row), len(header) - 1)],
                                   f"expected {len(header)} columns, got {len(row)}")
            try:
                yield reader.line_num, [conv(cell) for conv, cell in zip(converters, row)]
            except ValueError:
                for name, conv, cell in zip(header, converters, row):
                    try:
                        conv(cell)
                    except ValueError as exc:
                        raise MalformedRow(path, reader.line_num, name, str(exc)) from None


def _season_columns(names, *converters):
    """A read_csv columns check for the header `names`, its cells stripped."""
    def columns(header):
        if tuple(h.strip() for h in header) != names:
            raise ValueError(header[0], f"header must be {','.join(names)}")
        return converters
    return columns


def _positive(conv):
    """conv(text), refused with a ValueError unless finite and > 0."""
    def parse(text):
        value = conv(text)
        if not math.isfinite(value) or value <= 0:
            raise ValueError(f"{text.strip()!r} is not a finite positive number")
        return value
    return parse


def _date(text):
    return dt.date.fromisoformat(text.strip())


def _role(text):
    try:
        return Role(text.strip())
    except ValueError:
        raise ValueError(f"'{text.strip()}' is not one of {[r.value for r in Role]}") from None


def parse_season(sessions_file, injuries_file, players_file) -> SeasonLog:
    """Parse and cross-validate the three season CSVs into a SeasonLog.

    Raises MalformedRow (a value out of range, a player's second injury on one
    date or an absence ending after date.max included), UnknownPlayer,
    DuplicateSession or NegativeWorkload; never silently drops a row.
    """
    positive, positive_int = _positive(float), _positive(int)
    players = {}
    columns = _season_columns(PLAYERS_HEADER, str.strip, positive_int, positive, positive, _role)
    for line, (pid, *profile) in read_csv(players_file, columns):
        if pid in players:
            raise MalformedRow(players_file, line, "player_id", f"duplicate player '{pid}'")
        players[pid] = PlayerProfile(pid, *profile)

    sessions = {pid: [] for pid in players}
    seen = set()
    n = len(WORKLOAD_FEATURES)
    columns = _season_columns(SESSIONS_HEADER, str.strip, _date, *[float] * (n + 1), int)
    for line, (pid, date, *values) in read_csv(sessions_file, columns):
        if not all(map(math.isfinite, values[:n + 1])):  # one check per row
            name, value = next((name, value) for name, value in zip(SESSIONS_HEADER[2:], values)
                               if not math.isfinite(value))
            raise MalformedRow(sessions_file, line, name, f"'{value}' is not a finite number")
        if min(values[n:]) < 0:  # play_time and games, one check per row
            name, value = ("play_time", values[n]) if values[n] < 0 else ("games", values[n + 1])
            raise MalformedRow(sessions_file, line, name, f"'{value}' is negative")
        if pid not in players:
            raise UnknownPlayer(f"{sessions_file}:{line}: unknown player '{pid}'")
        if (pid, date) in seen:
            raise DuplicateSession(f"{sessions_file}:{line}: duplicate session {pid}@{date}")
        seen.add((pid, date))
        sessions[pid].append(
            TrainingSession(pid, date, dict(zip(WORKLOAD_FEATURES, values)), *values[n:]))

    injuries = []
    onsets = set()
    columns = _season_columns(INJURIES_HEADER, str.strip, _date, positive_int)
    for line, (pid, onset, days) in read_csv(injuries_file, columns):
        if pid not in players:
            raise UnknownPlayer(f"{injuries_file}:{line}: unknown player '{pid}'")
        if (pid, onset) in onsets:
            raise MalformedRow(injuries_file, line, "onset_date",
                               f"'{pid}' already has an injury on {onset}")
        onsets.add((pid, onset))
        if days > (dt.date.max - onset).days:
            raise MalformedRow(injuries_file, line, "days_absent",
                               f"an absence of {days} days from {onset} ends after "
                               f"{dt.date.max}")
        injuries.append(InjuryRecord(player_id=pid, onset_date=onset, days_absent=days))

    return SeasonLog(players=players, sessions=sessions, injuries=injuries)


def assign_labels(log: SeasonLog) -> LabelingResult:
    """Attach each injury to the player's most recent preceding session.

    A session gets label 1 when an injury onset falls strictly after its date
    and within HORIZON_DAYS of it, with no later session in between.
    Sessions inside an absence window [onset, onset + days_absent] are excluded.
    Injuries with no preceding session within the horizon are reported as orphans.
    """
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
                     and (inj.onset_date - s.date).days <= HORIZON_DAYS]
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


def _short(value) -> str:
    """value in %g form where that reads back equal, else its repr as a float."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _csv_cell(value) -> str:
    """`value` as csv.writer writes it inside a row, quoted where it must be (a
    row of one empty cell would be quoted, so the row written has two)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-len(",\r\n")]


def write_season_csvs(log: SeasonLog, sessions_file, injuries_file, players_file) -> None:
    """Inverse of parse_season; used by the generator and for round-trip tests. The
    session rows are joined by hand, as csv.writer would write them."""
    with open(players_file, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PLAYERS_HEADER)
        for pid in sorted(log.players):
            p = log.players[pid]
            w.writerow([p.player_id, p.age, _short(p.height_cm), _short(p.body_mass_kg),
                        p.role.value])
    with open(sessions_file, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(SESSIONS_HEADER)
        for pid in sorted(log.sessions):
            head = _csv_cell(pid)  # the key is the player of every session under it
            fh.writelines(f"{head},{s.date.isoformat()},"
                          f"{','.join([repr(float(s.workload[f])) for f in WORKLOAD_FEATURES])},"
                          f"{_short(s.play_time)},{s.games}\r\n" for s in log.sessions[pid])
    with open(injuries_file, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(INJURIES_HEADER)
        for inj in sorted(log.injuries, key=lambda i: (i.player_id, i.onset_date)):
            w.writerow([inj.player_id, inj.onset_date.isoformat(), inj.days_absent])
