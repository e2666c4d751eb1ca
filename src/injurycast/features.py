"""Build the 55-column training table: daily, EWMA, ACWR, MSWR and prior-injury features."""
from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from itertools import groupby, repeat

import numpy as np

from .data_model import WORKLOAD_FEATURES, LabelingResult, _csv_cell, read_csv
from .errors import EmptySeries, FeatureOverflow, MalformedRow, MissingWindow

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
# a player's day numbers are rank * _PLAYER_DAYS + date ordinal: wider apart than any
# date range plus the longest window, so no window reaches another player's sessions
_PLAYER_DAYS = dt.date.max.toordinal() + ACWR_CHRONIC_DAYS


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
        """Write the table as csv.writer writes it, each value as repr(float), which
        reads back bit for bit. Rows are converted and written one at a time."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            meta = ["player_id", "date", "synthetic"] if include_meta else []
            csv.writer(fh).writerow(meta + list(self.feature_names) + ["label"])
            heads = repeat("")
            if include_meta:
                quoted = {pid: _csv_cell(pid) for pid in set(self.player_ids)}
                heads = (f"{quoted[pid]},{'' if date is None else date.isoformat()},{flag:d},"
                         for pid, date, flag in zip(self.player_ids, self.dates,
                                                    self.synthetic.tolist()))
            fh.writelines(f"{head}{','.join(map(repr, row.tolist() + [label]))}\r\n"
                          for head, row, label in zip(heads, self.X, self.y.tolist()))

    @classmethod
    def from_csv(cls, path) -> "TrainingTable":
        """Read a table written by to_csv; a repeated column name, a last column not
        named label, a short row, a cell that is not a finite number, or a synthetic
        flag or label other than 0 and 1 raises MalformedRow with its line and column."""
        names, off = [], 0

        def columns(header):
            nonlocal off
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise ValueError(name, "the column name is repeated")
            if header[-1] != "label":
                raise ValueError(header[-1], "the last column must be 'label'")
            off = 3 if header[:3] == ["player_id", "date", "synthetic"] else 0
            names.extend(header[off:-1])
            return [str, lambda text: dt.date.fromisoformat(text) if text else None,
                    int][:off] + [float] * len(names) + [int]

        X, y, pids, dates, synth, lines = [], [], [], [], [], []
        for line, cells in read_csv(path, columns):
            pid, date, flag = cells[:off] or ("", None, 0)
            pids.append(pid)
            dates.append(date)
            synth.append(flag)
            X.append(np.array(cells[off:-1], dtype=float))  # no list of floats kept
            y.append(cells[-1])
            lines.append(line)
        for column, values in (("synthetic", synth), ("label", y)):
            bad = [i for i, value in enumerate(values) if value not in (0, 1)]
            if bad:
                raise MalformedRow(path, lines[bad[0]], column,
                                   f"{values[bad[0]]} is not 0 or 1")
        X = np.array(X, dtype=float).reshape(len(y), len(names))
        bad = np.argwhere(~np.isfinite(X))
        if len(bad):
            i, j = bad[0]
            raise MalformedRow(path, lines[i], names[j], f"non-finite value {float(X[i, j])}")
        return cls(names, X, np.array(y), pids, dates, np.array(synth, dtype=bool))


def _require_finite(M: np.ndarray, names: list[str], what: str) -> None:
    """Raise FeatureOverflow naming the first column of M that is not finite."""
    bad = ~np.isfinite(M).all(axis=0)
    if bad.any():
        raise FeatureOverflow(f"{what} column '{names[int(np.argmax(bad))]}' "
                              "overflows: its values are too near the float limit")


@dataclass
class BuildSummary:
    n_examples: int = 0
    n_injury: int = 0
    orphan_injuries: int = 0
    excluded_sessions: int = 0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def ewma(series, span: int) -> np.ndarray:
    """Recursive exponentially weighted moving average with decay 2/(span+1), along
    the first axis, so one call smooths every column of a (sessions x series) matrix.

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


def _window(days, as_of, length: int):
    """Start and end positions, in the ascending day numbers `days`, of the windows
    of `length` days ending on each day number of `as_of`. A day number is a date
    ordinal (so no window start falls off the calendar) plus a multiple of
    _PLAYER_DAYS. An empty window raises MissingWindow."""
    lo = days.searchsorted(as_of - (length - 1))
    hi = days.searchsorted(as_of, "right")
    empty = (lo == hi).nonzero()[0]
    if len(empty):
        end = dt.date.fromordinal(int(as_of[empty[0]]) % _PLAYER_DAYS)
        raise MissingWindow(f"no sessions in the {length}-day window ending {end}")
    return lo, hi


def _blocks(W, lo, hi):
    """(positions, block) for each window length: the windows [lo, hi) of that
    length, gathered from the rows of the (series x sessions) matrix W into one
    C-ordered (series x windows x length) block, so that every window reduces along
    the last axis in the order numpy reduces the row slice W[:, lo:hi]."""
    n = hi - lo
    for length in sorted(set(n.tolist())):
        at = (n == length).nonzero()[0]
        yield at, W.take(lo[at, None] + np.arange(length), axis=1)


def _means(W, lo, hi) -> np.ndarray:
    """(series x windows) means of W's windows [lo, hi); an empty window gives 0."""
    out = np.zeros((len(W), len(lo)))
    for at, block in _blocks(W, lo, hi):
        if block.shape[-1]:
            out[:, at] = block.mean(axis=-1)
    return out


def _acwr_rows(W, days, as_of) -> np.ndarray:
    """`acwr` of every row of the (series x sessions) matrix W, dated by the day
    numbers `days`, as of each day number of `as_of`: a (series x as_of) matrix."""
    lo, hi = _window(days, as_of, ACWR_CHRONIC_DAYS)
    chronic = _means(W, lo, hi)
    # the acute window ends where the chronic one does; empty, it counts as zero load
    acute = _means(W, days.searchsorted(as_of - (ACWR_ACUTE_DAYS - 1)), hi)
    # a window whose sum overflows has no finite mean, and its ratio is NaN
    overflow = ~(np.isfinite(chronic) & np.isfinite(acute))
    ratio = np.where(acute > 0.0, ACWR_CAP, 0.0)
    pos = chronic > 0.0
    np.divide(acute, chronic, out=acute, where=pos)
    np.minimum(acute, ACWR_CAP, out=ratio, where=pos)
    ratio[overflow] = np.nan
    return ratio


def _mswr_rows(W, days, as_of) -> np.ndarray:
    """`mswr` of every row of W as of each day number of `as_of`, as `_acwr_rows`."""
    ratio = np.full((len(W), len(as_of)), MSWR_CAP)
    for at, V in _blocks(W, *_window(days, as_of, MSWR_WINDOW_DAYS)):
        if V.shape[-1] > 1:
            # V.mean(axis=-1) and V.std(axis=-1, ddof=1) as numpy computes them, sharing the mean
            mean = V.sum(axis=-1, keepdims=True) / V.shape[-1]
            squares = np.square(V - mean).sum(axis=-1)
            # squared deviations whose sum overflows (as they do where the mean
            # does) give a NaN std; a near-zero std gives the cap, a NaN std NaN
            std = np.sqrt(np.where(np.isfinite(squares), squares, np.nan) / (V.shape[-1] - 1))
            ratio[:, at] = np.where(std < 1e-9, MSWR_CAP,
                                    np.minimum(mean[..., 0] / np.maximum(std, 1e-9), MSWR_CAP))
    return ratio


def _week_monotony(values) -> float:
    """`_mswr_rows` of one window of at most seven floats, in plain floats and in
    its order of operations: numpy sums fewer than eight values left to right (more,
    pairwise), so the loops below give the same bits; `sum()` would not, being
    compensated from Python 3.12."""
    n = len(values)
    if n < 2:
        return MSWR_CAP
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    total = 0.0
    for v in values:
        total += (v - mean) * (v - mean)
    if not math.isfinite(total):
        return math.nan
    std = math.sqrt(total / (n - 1))
    return MSWR_CAP if std < 1e-9 else min(mean / max(std, 1e-9), MSWR_CAP)


def _one_series(dates, values, as_of: dt.date):
    """A one-window call's arguments: the series as a (1 x sessions) matrix, its
    dates' ordinals and the as-of ordinal."""
    if list(dates) != sorted(dates):
        raise ValueError("dates must be in ascending order")
    days = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))
    return np.asarray(values, dtype=float).reshape(1, -1), days, np.array([as_of.toordinal()])


def rolling_mean(dates, values, window_days: int, as_of: dt.date) -> float:
    """Arithmetic mean over sessions dated in [as_of - window_days + 1, as_of]."""
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    W, days, at = _one_series(dates, values, as_of)
    return float(_means(W, *_window(days, at, window_days))[0, 0])


def acwr(dates, values, as_of: dt.date) -> float:
    """Acute/chronic workload ratio from plain rolling means, capped at ACWR_CAP;
    an empty acute window counts as zero load."""
    return float(_acwr_rows(*_one_series(dates, values, as_of))[0, 0])


def mswr(dates, values, as_of: dt.date) -> float:
    """Training monotony: mean / sample std over the last week, capped at MSWR_CAP;
    fewer than two sessions in the window, or a near-zero std, give the cap."""
    return float(_mswr_rows(*_one_series(dates, values, as_of))[0, 0])


@np.errstate(over="ignore", invalid="ignore")  # reported by the check at the end
def build_training_table(labeling: LabelingResult, profiles: dict):
    """Assemble the 55-feature TrainingTable and a BuildSummary from labeled sessions.

    The sessions, ordered by player and date, form one C-ordered (workloads x
    sessions) matrix. Each player's dates become day numbers of their own, so one
    window search covers every session and no window reaches another player, and
    each window statistic reduces all windows of one length in one block. The
    EWMAs recurse over one player's sessions at a time. Workloads so near the
    float limit that a feature comes out non-finite raise FeatureOverflow.
    """
    seq = sorted(labeling.labeled, key=lambda ls: (ls.session.player_id, ls.session.date))
    sessions = [ls.session for ls in seq]
    labels = [ls.label for ls in seq]
    pids = [s.player_id for s in sessions]
    dates = [s.date for s in sessions]
    W = np.array([[s.workload[f] for s in sessions] for f in WORKLOAD_FEATURES], float)
    days = np.empty(len(seq), dtype=np.int64)
    personal = np.empty((len(seq), 3))  # age, bmi, role
    prior = np.empty(len(seq))  # prior-injury count before each session
    smooth = np.empty((len(seq), len(W) + 1))  # the workloads' EWMAs, then pi_ewma
    start = 0
    for rank, (pid, group) in enumerate(groupby(pids)):
        end = start + len(list(group))
        profile = profiles[pid]
        days[start:end] = [rank * _PLAYER_DAYS + d.toordinal() for d in dates[start:end]]
        personal[start:end] = profile.age, profile.bmi, profile.role.code
        prior[start:end] = np.cumsum([0] + labels[start:end - 1])
        smooth[start:end] = ewma(np.column_stack([W[:, start:end].T, prior[start:end]]),
                                 EWMA_SPAN)
        start = end
    X = np.column_stack([
        W.T, personal, prior,
        [s.play_time for s in sessions], [s.games for s in sessions],
        smooth[:, :-1],
        _acwr_rows(W, days, days).T,
        _mswr_rows(W, days, days).T,
        smooth[:, -1],
    ])
    _require_finite(X, FEATURE_NAMES, "feature")
    summary = BuildSummary(n_examples=len(labels), n_injury=int(sum(labels)),
                           orphan_injuries=len(labeling.orphan_injuries),
                           excluded_sessions=labeling.excluded_sessions)
    return TrainingTable(list(FEATURE_NAMES), X, np.array(labels, dtype=int), pids, dates), summary
