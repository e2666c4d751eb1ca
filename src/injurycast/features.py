"""Build the 55-column training table: daily, EWMA, ACWR, MSWR and prior-injury features."""
from __future__ import annotations

import csv
import datetime as dt
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .data_model import WORKLOAD_FEATURES, LabelingResult, open_utf8
from .errors import EmptySeries, MalformedRow, MissingWindow

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

    def select_features(self, names) -> "TrainingTable":
        """Table of the named columns; shares y and row metadata with this one."""
        idx = [self.feature_names.index(n) for n in names]
        return TrainingTable(list(names), self.X[:, idx], self.y, self.player_ids,
                             self.dates, self.synthetic)

    def take(self, indices) -> "TrainingTable":
        indices = np.asarray(indices)
        return TrainingTable(list(self.feature_names), self.X[indices],
                             self.y[indices],
                             [self.player_ids[i] for i in indices],
                             [self.dates[i] for i in indices],
                             self.synthetic[indices])

    def to_csv(self, path, include_meta: bool = False) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
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
        """Read a table written by to_csv; a last column not named label, a short
        row, a cell that is not a finite number or a label other than 0 and 1
        raises MalformedRow with its line and column."""
        with open_utf8(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise MalformedRow(path, 1, "", "missing header")
            if header[-1] != "label":
                raise MalformedRow(path, 1, header[-1], "the last column must be 'label'")
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
        bad = [i for i, label in enumerate(y) if label not in (0, 1)]
        if bad:
            raise MalformedRow(path, lines[bad[0]], "label", f"{y[bad[0]]} is not 0 or 1")
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


def _window(dates, as_of: dt.date, days: int) -> slice:
    """Positions of the ascending `dates` in [as_of - days + 1, as_of]."""
    lo, hi = bisect_left(dates, as_of - dt.timedelta(days=days - 1)), bisect_right(dates, as_of)
    if lo == hi:
        raise MissingWindow(f"no sessions in the {days}-day window ending {as_of}")
    return slice(lo, hi)


def _acwr_rows(W, dates, as_of: dt.date) -> np.ndarray:
    """`acwr` of every row of the (series x sessions) matrix W as of a date."""
    chronic = W[:, _window(dates, as_of, ACWR_CHRONIC_DAYS)].mean(axis=1)
    try:
        acute = W[:, _window(dates, as_of, ACWR_ACUTE_DAYS)].mean(axis=1)
    except MissingWindow:
        acute = np.zeros(len(W))
    ratio = np.where(acute > 0.0, ACWR_CAP, 0.0)
    pos = chronic > 0.0
    ratio[pos] = np.minimum(acute[pos] / chronic[pos], ACWR_CAP)
    return ratio


def _mswr_rows(W, dates, as_of: dt.date) -> np.ndarray:
    """`mswr` of every row of the (series x sessions) matrix W as of a date."""
    V = W[:, _window(dates, as_of, MSWR_WINDOW_DAYS)]
    ratio = np.full(len(W), MSWR_CAP)
    if V.shape[1] > 1:
        # V.mean(axis=1) and V.std(axis=1, ddof=1) as numpy computes them, sharing the mean
        mean = V.sum(axis=1, keepdims=True) / V.shape[1]
        std = np.sqrt(np.square(V - mean).sum(axis=1) / (V.shape[1] - 1))
        ok = ~(std < 1e-9)
        ratio[ok] = np.minimum(mean[ok, 0] / std[ok], MSWR_CAP)
    return ratio


def _one_row(dates, values) -> np.ndarray:
    if list(dates) != sorted(dates):
        raise ValueError("dates must be in ascending order")
    return np.asarray(values, dtype=float).reshape(1, -1)


def rolling_mean(dates, values, window_days: int, as_of: dt.date) -> float:
    """Arithmetic mean over sessions dated in [as_of - window_days + 1, as_of]."""
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    return float(_one_row(dates, values)[0, _window(dates, as_of, window_days)].mean())


def acwr(dates, values, as_of: dt.date) -> float:
    """Acute/chronic workload ratio from plain rolling means, capped at ACWR_CAP;
    an empty acute window counts as zero load."""
    return float(_acwr_rows(_one_row(dates, values), dates, as_of)[0])


def mswr(dates, values, as_of: dt.date) -> float:
    """Training monotony: mean / sample std over the last week, capped at MSWR_CAP;
    fewer than two sessions in the window, or a near-zero std, give the cap."""
    return float(_mswr_rows(_one_row(dates, values), dates, as_of)[0])


def build_training_table(labeling: LabelingResult, profiles: dict):
    """Assemble the 55-feature TrainingTable and a BuildSummary from labeled sessions,
    stacking columns from each player's C-ordered (workloads x sessions) matrix so that
    every window reduces a row slice in the order `acwr` and `mswr` reduce one series."""
    by_player = {}
    for ls in sorted(labeling.labeled, key=lambda ls: (ls.session.player_id, ls.session.date)):
        by_player.setdefault(ls.session.player_id, []).append(ls)

    blocks, labels, pids, dates = [], [], [], []
    for pid, seq in by_player.items():
        profile = profiles[pid]
        sess_dates = [ls.session.date for ls in seq]
        y = [ls.label for ls in seq]
        W = np.array([[ls.session.workload[f] for ls in seq] for f in WORKLOAD_FEATURES], float)
        # prior-injury count before each session, recovered from earlier labels
        pi_counts = np.cumsum([0] + y[:-1])
        blocks.append(np.column_stack([
            W.T,
            [[profile.age, profile.bmi, profile.role.code]] * len(seq), pi_counts,
            [ls.session.play_time for ls in seq], [ls.session.games for ls in seq],
            np.transpose([ewma(w, EWMA_SPAN) for w in W]),
            [_acwr_rows(W, sess_dates, d) for d in sess_dates],
            [_mswr_rows(W, sess_dates, d) for d in sess_dates],
            pi_ewma(pi_counts),
        ]))
        labels += y
        pids += [pid] * len(seq)
        dates += sess_dates

    X = np.concatenate(blocks) if blocks else np.empty((0, len(FEATURE_NAMES)))
    summary = BuildSummary(n_examples=len(labels), n_injury=int(sum(labels)),
                           orphan_injuries=len(labeling.orphan_injuries),
                           excluded_sessions=labeling.excluded_sessions)
    return TrainingTable(list(FEATURE_NAMES), X, np.array(labels, dtype=int), pids, dates), summary
