"""Reference forecasters: degenerate baselines and combined mono-dimensional ACWR rules."""
from __future__ import annotations

from enum import Enum

import numpy as np

from .data_model import WORKLOAD_FEATURES
from .errors import MissingColumn
from .features import TrainingTable


class Combine(Enum):
    VOTE = "Vote"
    ALL = "All"
    ONE = "One"


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


def _acwr_fires(table: TrainingTable, feature: str) -> np.ndarray:
    col = feature + "_acwr"
    if col not in table.feature_names:
        raise MissingColumn(f"table has no column '{col}'")
    # fire below the ratio-1 boundary, where the highest injury
    # likelihood was observed
    return (table.column(col) < 1.0).astype(int)


def mono_forecast(table: TrainingTable, combine: Combine) -> np.ndarray:
    """Combine the 12 per-feature ACWR predictors (`<feature>_acwr < 1`) by strict
    majority (Vote, >= 7), conjunction (All) or disjunction (One)."""
    fired = np.stack([_acwr_fires(table, f) for f in WORKLOAD_FEATURES]).sum(axis=0)
    if combine is Combine.VOTE:
        return (fired >= 7).astype(int)
    if combine is Combine.ALL:
        return (fired == len(WORKLOAD_FEATURES)).astype(int)
    return (fired >= 1).astype(int)
