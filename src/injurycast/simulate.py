"""Walk-forward weekly retraining over a season, with cost accounting."""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .data_model import SeasonLog, assign_labels
from .errors import InsufficientHistory
from .features import build_training_table
from .metrics import ConfusionMatrix, metrics
from .pipeline import fit_forecaster


@dataclass
class WeeklyOutcome:
    week: int
    degenerate: bool  # no usable minority examples yet; model emits all-0
    cutoff: dt.date  # last date the model was allowed to see at training time
    train_max_date: dt.date | None  # latest training-row date (audit: <= cutoff)
    predictions: list  # (player_id, date, predicted, true_label, injury_onset)
    detected: int
    missed: int
    weekly_cm: ConfusionMatrix
    cumulative_cm: ConfusionMatrix
    cumulative_f1: float
    selected_features: list


@dataclass
class CostReport:
    total_absence_days: int
    daily_salary: Decimal
    total_cost: Decimal
    preventable_days: int
    savings: Decimal
    percent_decrease: float

    def to_dict(self) -> dict:
        return {"total_absence_days": self.total_absence_days,
                "daily_salary": str(self.daily_salary),
                "total_cost": str(self.total_cost),
                "preventable_days": self.preventable_days,
                "savings": str(self.savings),
                "percent_decrease": self.percent_decrease,
                "assumes_full_prevention": True}


def season_start(log: SeasonLog) -> dt.date:
    dates = [s.date for seq in log.sessions.values() for s in seq]
    if not dates:
        raise InsufficientHistory("season log has no sessions")
    return min(dates)


def week_of(date: dt.date, start: dt.date) -> int:
    """Week index of a date; weeks are consecutive 7-day blocks from the first session."""
    return (date - start).days // 7 + 1


def _week_tables(table, onset_by_row: dict, cutoff: dt.date):
    """Training rows up to the cutoff, labelled only with injuries whose onset is
    known by then, and the forecast rows of the next seven days with final labels."""
    train = table.take(np.flatnonzero([d <= cutoff for d in table.dates]))
    onsets = (onset_by_row[(p, d)] for p, d in zip(train.player_ids, train.dates))
    train.y = train.y * np.array([o is not None and o <= cutoff for o in onsets], dtype=int)
    forecast = table.take(np.flatnonzero([0 < (d - cutoff).days <= 7 for d in table.dates]))
    return train, forecast


def walk_forward(log: SeasonLog, seed: int = 0, start_week: int = 6) -> list:
    """Weekly retraining: at week i, train on everything known by the end of
    week i (injuries not yet observed count as label 0) and predict week i+1.

    Weeks with fewer than two injury examples are flagged degenerate and
    predict all-0. Returns one WeeklyOutcome per week i >= start_week whose
    forecast week i+1 holds rows; a week with none is not forecast.
    """
    if start_week < 1:
        raise ValueError(f"start_week must be >= 1, got {start_week}")
    start = season_start(log)
    last_date = max(s.date for seq in log.sessions.values() for s in seq)
    n_weeks = week_of(last_date, start)
    if n_weeks < start_week + 1:
        raise InsufficientHistory(
            f"season spans {n_weeks} weeks; need at least {start_week + 1}")

    # one table from final-knowledge labels: its labels are the ground truth, and
    # every feature is causal, so a week's rows equal those of a log cut at its end
    labeling = assign_labels(log)
    table, _ = build_training_table(labeling, log.players)
    onset_by_row = {(ls.session.player_id, ls.session.date): ls.injury_onset
                    for ls in labeling.labeled}

    outcomes = []
    cum_cm = ConfusionMatrix(0, 0, 0, 0)
    # week i forecasts the rows of week i + 1
    weeks = {week_of(d, start) - 1 for d in table.dates}
    for week in sorted(w for w in weeks if w >= start_week):
        cutoff = start + dt.timedelta(days=7 * week - 1)  # end of week `week`
        t_i, t_next = _week_tables(table, onset_by_row, cutoff)

        degenerate = int(t_i.y.sum()) < 2
        if degenerate:
            preds = np.zeros(len(t_next), dtype=int)
            names = []
        else:
            model = fit_forecaster(t_i, seed + week)
            names = model.feature_names
            preds, _ = model.predict(t_next.select_features(names).X)

        week_cm = ConfusionMatrix.from_predictions(t_next.y, preds)
        cum_cm = cum_cm + week_cm
        predictions = [
            (p, d, int(pr), int(lb), onset_by_row.get((p, d)))
            for p, d, pr, lb in zip(t_next.player_ids, t_next.dates, preds, t_next.y)]
        outcomes.append(WeeklyOutcome(
            week=week,
            degenerate=degenerate,
            cutoff=cutoff,
            train_max_date=max(t_i.dates) if len(t_i) else None,
            predictions=predictions,
            detected=int(week_cm.tp),
            missed=int(week_cm.fn),
            weekly_cm=week_cm,
            cumulative_cm=cum_cm,
            cumulative_f1=metrics(cum_cm)["injury"]["f1"],
            selected_features=list(names),
        ))
    return outcomes


def feature_trace(outcomes: list) -> dict:
    """Per-week RFECV subsets and the first week after which the subset is stable."""
    trace = {o.week: list(o.selected_features) for o in outcomes}
    stabilization = None
    weeks = sorted(trace)
    for w in weeks:
        if all(set(trace[v]) == set(trace[w]) for v in weeks if v >= w):
            stabilization = w
            break
    return {"weeks": trace, "stabilization_week": stabilization}


def cost(absence_days: int, daily_salary) -> Decimal:
    """Exact absence cost: days x daily salary, computed in decimal arithmetic."""
    if absence_days < 0:
        raise ValueError("absence_days must be >= 0")
    salary = Decimal(str(daily_salary))
    if salary < 0:
        raise ValueError("daily_salary must be >= 0")
    return Decimal(absence_days) * salary


def savings(outcomes: list, injuries: list, daily_salary) -> CostReport:
    """Cost saved if every predicted injury had been fully prevented.

    Preventable days sum absence over injuries whose labeled session was
    predicted 1 by the walk-forward models (an optimistic assumption).
    """
    onset_hits = {(p, o) for o2 in outcomes
                  for p, d, pr, lb, o in o2.predictions if pr == 1 and lb == 1}
    total_days = sum(i.days_absent for i in injuries)
    preventable = sum(i.days_absent for i in injuries
                      if (i.player_id, i.onset_date) in onset_hits)
    total_cost = cost(total_days, daily_salary)
    saved = cost(preventable, daily_salary)
    pct = float(saved / total_cost) if total_cost > 0 else 0.0
    return CostReport(total_absence_days=total_days,
                      daily_salary=Decimal(str(daily_salary)),
                      total_cost=total_cost,
                      preventable_days=preventable,
                      savings=saved,
                      percent_decrease=pct)
