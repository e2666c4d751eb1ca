"""Build the 55-column training table: daily, EWMA, ACWR, MSWR and prior-injury features."""
from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field

import numpy as np

from .data_model import WORKLOAD_FEATURES, LabelingResult
from .errors import EmptySeries, MalformedRow, MissingWindow
from .tree import presort

PERSONAL_FEATURES = ("age", "bmi", "role", "pi", "play_time", "games")

FEATURE_NAMES = (
    WORKLOAD_FEATURES
    + PERSONAL_FEATURES
    + tuple(f + "_ewma" for f in WORKLOAD_FEATURES)
    + tuple(f + "_acwr" for f in WORKLOAD_FEATURES)
    + tuple(f + "_mswr" for f in WORKLOAD_FEATURES)
    + ("pi_ewma",)
)
assert len(FEATURE_NAMES) == 55


# the paper's fixed windows: the EWMA span counts sessions, the others calendar days
EWMA_SPAN = 6
ACWR_ACUTE_DAYS = 6
ACWR_CHRONIC_DAYS = 27
MSWR_WINDOW_DAYS = 7
ACWR_CAP = 5.0
MSWR_CAP = 10.0


@dataclass
class TrainingTable:
    """Array-backed table of examples; column order is fixed by feature_names."""

    feature_names: list
    X: np.ndarray  # (n, p) float64
    y: np.ndarray  # (n,) int, 1 = injury
    player_ids: list
    dates: list  # datetime.date or None for synthetic rows
    synthetic: np.ndarray = None  # (n,) bool
    # (X it was computed from, its sorted_rows()); never copied by dataclasses.replace
    _order: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.synthetic is None:
            self.synthetic = np.zeros(len(self.y), dtype=bool)
        self.synthetic = np.asarray(self.synthetic, dtype=bool)
        n = len(self.y)
        if self.X.shape != (n, len(self.feature_names)):
            raise ValueError("X shape does not match feature_names / labels")
        if len(self.player_ids) != n or len(self.dates) != n:
            raise ValueError("row metadata length mismatch")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("feature matrix contains non-finite values")

    def __len__(self):
        return len(self.y)

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.feature_names.index(name)]

    def sorted_rows(self) -> np.ndarray:
        """Row indices sorting each column, ties in row order, as a read-only (p, n)
        matrix; computed once and shared by every tree fit on this table.

        The first call replaces X by a read-only copy (an array the caller passed
        in stays writable), so the order cannot go stale.
        """
        if self._order is None or self._order[0] is not self.X:
            X = self.X.copy(order="K")
            X.flags.writeable = False
            order = presort(X)
            order.flags.writeable = False
            self.X, self._order = X, (X, order)
        return self._order[1]

    def select_features(self, names) -> "TrainingTable":
        """Table of the named columns; a cached sorted_rows() order is passed on."""
        idx = [self.feature_names.index(n) for n in names]
        sub = TrainingTable(list(names), self.X[:, idx].copy(), self.y.copy(),
                            list(self.player_ids), list(self.dates),
                            self.synthetic.copy())
        if self._order is not None and self._order[0] is self.X:
            sub.X.flags.writeable = False
            sub._order = (sub.X, self._order[1][idx])
        return sub

    def take(self, indices) -> "TrainingTable":
        indices = np.asarray(indices)
        return TrainingTable(list(self.feature_names), self.X[indices],
                             self.y[indices],
                             [self.player_ids[i] for i in indices],
                             [self.dates[i] for i in indices],
                             self.synthetic[indices])

    def to_csv(self, path, include_meta: bool = False) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            meta = ["player_id", "date", "synthetic"] if include_meta else []
            w.writerow(meta + list(self.feature_names) + ["label"])
            for i in range(len(self)):
                row = []
                if include_meta:
                    date = self.dates[i]
                    row += [self.player_ids[i],
                            date.isoformat() if date is not None else "",
                            int(self.synthetic[i])]
                row += [repr(float(v)) for v in self.X[i]]
                row.append(int(self.y[i]))
                w.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "TrainingTable":
        """Read a table written by to_csv; a short row or a cell that is not a
        finite number raises MalformedRow with its line and column."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise MalformedRow(path, 1, "", "missing header")
            off = 3 if header[0] == "player_id" else 0
            names = header[off:-1]
            parsers = [str, lambda text: dt.date.fromisoformat(text) if text else None,
                       lambda text: bool(int(text))][:off] + [float] * len(names) + [int]
            X, y, pids, dates, synth, lines = [], [], [], [], [], []
            for row in reader:
                if len(row) != len(header):
                    raise MalformedRow(path, reader.line_num,
                                       header[min(len(row), len(header) - 1)],
                                       f"expected {len(header)} cells, got {len(row)}")
                try:
                    cells = [parse(text) for parse, text in zip(parsers, row)]
                except ValueError:
                    for column, parse, text in zip(header, parsers, row):
                        try:
                            parse(text)
                        except ValueError:
                            raise MalformedRow(path, reader.line_num, column,
                                               f"cannot parse {text!r}") from None
                pid, date, flag = cells[:off] or ("", None, False)
                pids.append(pid)
                dates.append(date)
                synth.append(flag)
                X.append(cells[off:-1])
                y.append(cells[-1])
                lines.append(reader.line_num)
        X = np.array(X, dtype=float).reshape(len(y), len(names))
        bad = np.argwhere(~np.isfinite(X))
        if len(bad):
            i, j = bad[0]
            raise MalformedRow(path, lines[i], names[j], f"non-finite value {float(X[i, j])}")
        return cls(names, X, np.array(y), pids, dates, np.array(synth))


@dataclass
class BuildSummary:
    n_examples: int = 0
    n_injury: int = 0
    dropped_empty_chronic: int = 0
    orphan_injuries: int = 0
    excluded_sessions: int = 0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def ewma(series, span: int) -> np.ndarray:
    """Recursive exponentially weighted moving average with decay 2/(span+1).

    out[0] = series[0]; out[t] = alpha*series[t] + (1-alpha)*out[t-1].
    """
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise EmptySeries("ewma requires a non-empty series")
    if span < 1:
        raise ValueError("span must be >= 1")
    alpha = 2.0 / (span + 1)
    out = np.empty_like(series)
    out[0] = series[0]
    for t in range(1, len(series)):
        out[t] = alpha * series[t] + (1 - alpha) * out[t - 1]
    return out


def pi_ewma(injury_counts, span: int = EWMA_SPAN) -> np.ndarray:
    """EWMA of a player's cumulative prior-injury count over his training days.

    Stays exactly zero for never-injured players and strictly positive after
    the first return to training.
    """
    counts = np.asarray(injury_counts, dtype=float)
    if counts.size and np.any(np.diff(counts) < 0):
        raise ValueError("injury count series must be non-decreasing")
    return ewma(counts, span)


def _window_values(dates, values, window_days: int, as_of: dt.date) -> np.ndarray:
    lo = as_of - dt.timedelta(days=window_days - 1)
    return np.array([v for d, v in zip(dates, values) if lo <= d <= as_of], dtype=float)


def rolling_mean(dates, values, window_days: int, as_of: dt.date) -> float:
    """Arithmetic mean over sessions dated in [as_of - window_days + 1, as_of]."""
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    vals = _window_values(dates, values, window_days, as_of)
    if vals.size == 0:
        raise MissingWindow(f"no sessions in the {window_days}-day window ending {as_of}")
    return float(vals.mean())


def acwr(dates, values, as_of: dt.date) -> float:
    """Acute/chronic workload ratio from plain rolling means, capped at ACWR_CAP."""
    chronic = rolling_mean(dates, values, ACWR_CHRONIC_DAYS, as_of)
    try:
        acute = rolling_mean(dates, values, ACWR_ACUTE_DAYS, as_of)
    except MissingWindow:
        acute = 0.0
    if chronic <= 0.0:
        return 0.0 if acute <= 0.0 else ACWR_CAP
    return min(acute / chronic, ACWR_CAP)


def mswr(dates, values, as_of: dt.date) -> float:
    """Training monotony: mean / sample std over the last week, capped at MSWR_CAP.

    Fewer than two sessions in the window, or a near-zero std, means maximal
    monotony and returns the cap.
    """
    vals = _window_values(dates, values, MSWR_WINDOW_DAYS, as_of)
    if vals.size == 0:
        raise MissingWindow(f"no sessions in the {MSWR_WINDOW_DAYS}-day window ending {as_of}")
    if vals.size < 2:
        return MSWR_CAP
    std = float(vals.std(ddof=1))
    if std < 1e-9:
        return MSWR_CAP
    return min(float(vals.mean()) / std, MSWR_CAP)


def build_training_table(labeling: LabelingResult, profiles: dict):
    """Assemble the 55-feature TrainingTable from labeled sessions.

    EWMA features run over the player's session sequence (span counts training
    sessions); ACWR and MSWR use calendar-day windows. Returns the table and a
    BuildSummary with drop/orphan counts.
    """
    summary = BuildSummary(orphan_injuries=len(labeling.orphan_injuries),
                           excluded_sessions=labeling.excluded_sessions)
    by_player = {}
    for ls in labeling.labeled:
        by_player.setdefault(ls.session.player_id, []).append(ls)

    rows, labels, pids, dates = [], [], [], []
    for pid in sorted(by_player):
        seq = sorted(by_player[pid], key=lambda ls: ls.session.date)
        profile = profiles[pid]
        sess_dates = [ls.session.date for ls in seq]
        series = {f: [ls.session.workload[f] for ls in seq] for f in WORKLOAD_FEATURES}
        ewma_series = {f: ewma(series[f], EWMA_SPAN) for f in WORKLOAD_FEATURES}
        # prior-injury count before each session, recovered from earlier labels
        pi_counts = np.cumsum([0] + [ls.label for ls in seq[:-1]])
        pi_ewma_series = pi_ewma(pi_counts)

        for t, ls in enumerate(seq):
            as_of = ls.session.date
            feats = {}
            for f in WORKLOAD_FEATURES:
                feats[f] = ls.session.workload[f]
                feats[f + "_ewma"] = ewma_series[f][t]
                feats[f + "_acwr"] = acwr(sess_dates[:t + 1], series[f][:t + 1], as_of)
                feats[f + "_mswr"] = mswr(sess_dates[:t + 1], series[f][:t + 1], as_of)
            feats["age"] = profile.age
            feats["bmi"] = profile.bmi
            feats["role"] = profile.role.code
            feats["pi"] = float(pi_counts[t])
            feats["play_time"] = ls.session.play_time
            feats["games"] = ls.session.games
            feats["pi_ewma"] = pi_ewma_series[t]
            rows.append([feats[name] for name in FEATURE_NAMES])
            labels.append(ls.label)
            pids.append(pid)
            dates.append(as_of)

    summary.n_examples = len(rows)
    summary.n_injury = int(sum(labels))
    table = TrainingTable(list(FEATURE_NAMES), np.array(rows, dtype=float).reshape(-1, 55),
                          np.array(labels, dtype=int), pids, dates)
    return table, summary
