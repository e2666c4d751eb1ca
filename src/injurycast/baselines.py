"""Reference forecasters: degenerate baselines and mono-dimensional ACWR/MSWR predictors."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data_model import WORKLOAD_FEATURES
from .errors import MissingColumn
from .features import TrainingTable


class AcwrGroupLabel(Enum):
    VERY_LOW = "VeryLow"
    LOW = "Low"
    MODERATE = "Moderate"
    HIGH = "High"
    VERY_HIGH = "VeryHigh"


# Murray's published bounds leave gaps (0.49 -> 0.50 etc.); contiguous
# half-open intervals keep group assignment total on [0, inf).
MURRAY_BOUNDS = {
    AcwrGroupLabel.VERY_LOW: (0.0, 0.50),
    AcwrGroupLabel.LOW: (0.50, 1.00),
    AcwrGroupLabel.MODERATE: (1.00, 1.50),
    AcwrGroupLabel.HIGH: (1.50, 2.00),
    AcwrGroupLabel.VERY_HIGH: (2.00, np.inf),
}


class Grouping(Enum):
    MURRAY = "Murray"
    QUINTILE = "Quintile"


class Combine(Enum):
    SINGLE = "Single"
    VOTE = "Vote"
    ALL = "All"
    ONE = "One"


class MonoMethod(Enum):
    ACWR_MURRAY = "ACWR_Murray"
    MSWR_QUINTILE = "MSWR_Quintile"


@dataclass
class GroupLikelihood:
    group: str
    lo: float
    hi: float
    injured: int
    uninjured: int

    @property
    def il(self) -> float | None:
        """Injured / uninjured ratio; None when undefined (no uninjured)."""
        if self.uninjured == 0:
            return None
        return self.injured / self.uninjured

    def to_dict(self) -> dict:
        return {"group": self.group, "lo": self.lo,
                "hi": None if np.isinf(self.hi) else self.hi,
                "injured": self.injured, "uninjured": self.uninjured,
                "il": self.il}


def baseline_predict(kind: str, table: TrainingTable, seed: int = 0) -> np.ndarray:
    """B1: class-distribution-preserving random labels; B2: all 0; B3: all 1;
    B4: 1 iff pi_ewma > 0."""
    n = len(table)
    if kind == "B1":
        rng = np.random.default_rng(seed)
        n_pos = int(table.y.sum())
        pred = np.zeros(n, dtype=int)
        pred[rng.choice(n, size=n_pos, replace=False)] = 1
        return pred
    if kind == "B2":
        return np.zeros(n, dtype=int)
    if kind == "B3":
        return np.ones(n, dtype=int)
    if kind == "B4":
        if "pi_ewma" not in table.feature_names:
            raise MissingColumn("B4 requires the pi_ewma column")
        return (table.column("pi_ewma") > 0).astype(int)
    raise ValueError(f"unknown baseline kind '{kind}'")


def _quintile_edges(values: np.ndarray) -> np.ndarray:
    """Interior quintile edges from the empirical distribution (midpoint-interpolated)."""
    return np.quantile(values, [0.2, 0.4, 0.6, 0.8], method="midpoint")


def _quintile_of(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    return np.searchsorted(edges, values, side="right")


def group_likelihood(table: TrainingTable, column: str,
                     grouping: Grouping = Grouping.MURRAY) -> list:
    """Per-group injured/uninjured counts and injury likelihood for one column."""
    if column not in table.feature_names:
        raise MissingColumn(f"table has no column '{column}'")
    values = table.column(column)
    out = []
    if grouping is Grouping.MURRAY:
        for label, (lo, hi) in MURRAY_BOUNDS.items():
            mask = (values >= lo) & (values < hi)
            out.append(GroupLikelihood(label.value, lo, hi,
                                       int(table.y[mask].sum()),
                                       int((mask & (table.y == 0)).sum())))
    else:
        edges = _quintile_edges(values)
        groups = _quintile_of(values, edges)
        bounds = np.concatenate([[-np.inf], edges, [np.inf]])
        for q in range(5):
            mask = groups == q
            out.append(GroupLikelihood(f"Q{q + 1}", float(bounds[q]), float(bounds[q + 1]),
                                       int(table.y[mask].sum()),
                                       int((mask & (table.y == 0)).sum())))
    return out


def _single_prediction(table, feature, method, train_table):
    if method is MonoMethod.ACWR_MURRAY:
        col = feature + "_acwr"
        if col not in table.feature_names:
            raise MissingColumn(f"table has no column '{col}'")
        # fire below the ratio-1 boundary, where the highest injury
        # likelihood was observed
        return (table.column(col) < 1.0).astype(int)
    col = feature + "_mswr"
    if col not in table.feature_names:
        raise MissingColumn(f"table has no column '{col}'")
    # highest-risk quintile frozen on the training split to avoid label leakage
    train_vals = train_table.column(col)
    edges = _quintile_edges(train_vals)
    groups = _quintile_of(train_vals, edges)
    best_q, best_il = 0, -1.0
    for q in range(5):
        mask = groups == q
        uninjured = int((mask & (train_table.y == 0)).sum())
        injured = int(train_table.y[mask].sum())
        il = injured / uninjured if uninjured > 0 else (np.inf if injured else -1.0)
        if il > best_il:
            best_q, best_il = q, il
    return (_quintile_of(table.column(col), edges) == best_q).astype(int)


def mono_forecast(table: TrainingTable, feature: str | None = None,
                  method: MonoMethod = MonoMethod.ACWR_MURRAY,
                  combine: Combine = Combine.SINGLE,
                  train_table: TrainingTable | None = None) -> np.ndarray:
    """Mono-dimensional forecaster over the table's ACWR/MSWR columns.

    Single uses one workload feature; Vote/All/One combine the 12 per-feature
    predictors by strict majority (>= 7), conjunction and disjunction.
    """
    if train_table is None:
        train_table = table
    if combine is Combine.SINGLE:
        if feature is None:
            raise ValueError("Single mode requires a feature name")
        return _single_prediction(table, feature, method, train_table)
    preds = np.stack([_single_prediction(table, f, method, train_table)
                      for f in WORKLOAD_FEATURES])
    fired = preds.sum(axis=0)
    if combine is Combine.VOTE:
        return (fired >= 7).astype(int)
    if combine is Combine.ALL:
        return (fired == len(WORKLOAD_FEATURES)).astype(int)
    return (fired >= 1).astype(int)
