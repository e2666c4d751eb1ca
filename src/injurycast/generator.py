"""Seeded synthetic-season generator with a planted, auditable injury mechanism.

Its settings are the module constants below; a GeneratorConfig sets only the
season's size and seed."""
from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field

import numpy as np

from .data_model import (
    InjuryRecord,
    PlayerProfile,
    Role,
    SeasonLog,
    TrainingSession,
)
from .errors import ConfigInvalid
from .features import EWMA_SPAN, MSWR_WINDOW_DAYS, _week_monotony

SESSIONS_PER_WEEK = 3.0  # in (0, 7]; a fraction is a chance of one more session

# season-level mean/sd calibration targets for each workload feature
DEFAULT_FEATURE_STATS = {
    "d_tot": (3882.94, 1633.21),
    "d_hsr": (133.22, 66.41),
    "d_met": (1151.99, 694.25),
    "d_hml": (543.89, 339.64),
    "d_hml_m": (8.70, 6.09),
    "d_exp": (410.67, 221.29),
    "acc2": (64.26, 31.72),
    "acc3": (16.16, 10.97),
    "dec2": (62.44, 33.09),
    "dec3": (19.14, 12.78),
    "dsl": (117.98, 78.52),
    "fi": (0.63, 0.31),
}


@dataclass(frozen=True)
class PlantedRule:
    """Injury trigger: fires with `probability` when every engineered-feature
    condition (lo < value <= hi) holds after a session."""
    name: str
    conditions: tuple  # ((feature, lo, hi), ...) with None for an open end
    probability: float

    def fires(self, feats: dict) -> bool:
        for feature, lo, hi in self.conditions:
            v = feats[feature]
            if lo is not None and not v > lo:
                return False
            if hi is not None and not v <= hi:
                return False
        return True

    @property
    def features(self) -> tuple:
        return tuple(f for f, _, _ in self.conditions)


# Threshold mechanism over three interpretable features, read from the features
# generate() tracks after each session (d_hsr_ewma, d_tot_mswr, pi_ewma):
# monotonous high-speed-running blocks injure players who are not already carrying
# an extensive injury history (high pi_ewma players have dropped out of heavy
# training and are handled by their coaches).
PLANTED_RULES = (
    PlantedRule("monotony_overload",
                (("d_tot_mswr", 5.5, None), ("d_hsr_ewma", 160.0, None),
                 ("pi_ewma", None, 1.8)),
                probability=1.0),
)
BASE_INJURY_RATE = 0.0005  # chance of an injury after any session no rule fires on
PLAYER_SPREAD = 0.15  # sd of the per-player lognormal load multiplier
RETURN_RAMP_SESSIONS = 4  # sessions trained lighter after an injury
RETURN_RAMP_FACTOR = 0.6
START_DATE = dt.date(2014, 1, 1)
# the last week's sessions fall on its days 0-6, an injury's onset a day later and
# its absence ends at most 15 days after that, all on or before date.max
MAX_WEEKS = (dt.date.max.toordinal() - START_DATE.toordinal() - 15) // 7


@dataclass(frozen=True)
class GeneratorConfig:
    """The season's size and seed; everything else is a module constant."""
    n_players: int = 26
    weeks: int = 23
    seed: int = 0

    def __post_init__(self):
        if self.n_players < 1:
            raise ConfigInvalid("n_players must be positive")
        if not 1 <= self.weeks <= MAX_WEEKS:
            raise ConfigInvalid(f"weeks must be in [1, {MAX_WEEKS}], so that every "
                                "date of the season is on or before 9999-12-31")


@dataclass
class GroundTruthLedger:
    """Audit record of every planted injury and its cause."""
    causes: list = field(default_factory=list)  # dicts: player, onset, rule, features

    @property
    def n_injuries(self) -> int:
        return len(self.causes)

    def count_by_rule(self) -> dict:
        out = {}
        for c in self.causes:
            out[c["rule"]] = out.get(c["rule"], 0) + 1
        return out

    def to_json(self) -> str:
        return json.dumps({"injuries": self.causes,
                           "by_rule": self.count_by_rule()},
                          indent=2, sort_keys=True, default=str)


def _mixture_components(mean, sd):
    """Lognormal (mu, sigma) of _mixture_draw's two components, around 0.7x and
    1.45x of the target mean, with component variance chosen to approach the
    target sd."""
    between_var = 0.135 * mean ** 2
    c_var = max(sd ** 2 - between_var, (0.05 * mean) ** 2)
    components = []
    for c_mean in (0.7 * mean, 1.45 * mean):
        sigma2 = np.log(1.0 + c_var / c_mean ** 2)
        components.append((np.log(c_mean) - sigma2 / 2.0, np.sqrt(sigma2)))
    return components


def _mixture_draw(rng, components):
    """Right-skewed bimodal draw: the low component with weight 0.6, which
    preserves the target mean."""
    mu, sigma = components[0] if rng.random() < 0.6 else components[1]
    return float(rng.lognormal(mu, sigma))


# features drawn as parent x lognormal ratio so the physical orderings
# (d_hsr <= d_tot, acc3 <= acc2, dec3 <= dec2) hold without clamp bias
_RATIO_PARENT = {"d_hsr": "d_tot", "acc3": "acc2", "dec3": "dec2"}


def _ratio_params(child_stats, parent_stats):
    cm, cs = child_stats
    pm, ps = parent_stats
    mean_r = cm / pm
    m2 = (cs ** 2 + cm ** 2) / (ps ** 2 + pm ** 2)
    var_r = max(m2 - mean_r ** 2, (0.05 * mean_r) ** 2)
    sigma2 = np.log(1.0 + var_r / mean_r ** 2)
    return np.log(mean_r) - sigma2 / 2.0, np.sqrt(sigma2)


def _draw_plan(stats, spread):
    """Precompute draw parameters: mixture targets deflated for the per-player
    multiplier's mean and variance contribution, plus each child's parent and
    ratio params."""
    e_m = np.exp(spread ** 2 / 2.0)
    var_m = np.exp(spread ** 2) * (np.exp(spread ** 2) - 1.0)
    e_m2 = np.exp(2.0 * spread ** 2)
    mixture = {}
    for name, (mean, sd) in stats.items():
        if name in _RATIO_PARENT:
            continue
        mean_adj = mean / e_m
        var_adj = max((sd ** 2 - var_m * mean ** 2) / e_m2, (0.2 * sd) ** 2)
        mixture[name] = _mixture_components(mean_adj, np.sqrt(var_adj))
    ratios = {c: (p, *_ratio_params(stats[c], stats[p])) for c, p in _RATIO_PARENT.items()}
    return mixture, ratios


def _draw_workload(rng, plan, multiplier):
    mixture, ratios = plan
    w = {name: multiplier * _mixture_draw(rng, components)
         for name, components in mixture.items()}
    for child, (parent, mu, sigma) in ratios.items():
        w[child] = w[parent] * min(float(rng.lognormal(mu, sigma)), 1.0)
    return w


def _tenths(x: float) -> float:
    """float(np.round(x, 1)) in plain floats, bit for bit: numpy computes
    rint(x * 10) / 10, round() rounds half to even as rint does, and an exact
    integer divided by 10 is rounded correctly either way."""
    return round(x * 10.0) / 10


def _profiles(rng, n_players):
    roles = list(Role)
    profiles = []
    for i in range(n_players):
        profiles.append(PlayerProfile(
            player_id=f"P{i + 1:02d}",
            age=int(rng.integers(18, 35)),
            height_cm=_tenths(rng.normal(179, 5)),
            body_mass_kg=_tenths(rng.normal(78, 8)),
            role=roles[int(rng.integers(len(roles)))],
        ))
    return profiles


def _ewma_step(state, x):
    """features.ewma's recursion one value at a time: state is None before the first."""
    if state is None:
        return float(x)
    alpha = 2.0 / (EWMA_SPAN + 1)
    return alpha * float(x) + (1 - alpha) * state


def generate(cfg: GeneratorConfig):
    """Generate a SeasonLog of cfg.n_players players over cfg.weeks weeks from
    START_DATE, plus a ground-truth ledger naming each injury's cause.

    The injury mechanism evaluates the planted rules on engineered features
    computed exactly as the feature builder computes them, so every planted
    injury's labeled session provably satisfies its causal rule.
    """
    rng = np.random.default_rng(cfg.seed)
    plan = _draw_plan(DEFAULT_FEATURE_STATS, PLAYER_SPREAD)
    profiles = _profiles(rng, cfg.n_players)
    ledger = GroundTruthLedger()
    sessions = {}
    injuries = []

    for profile in profiles:
        pid = profile.player_id
        multiplier = float(rng.lognormal(0.0, PLAYER_SPREAD))
        absent_until = None  # last date of the current absence window
        sessions_since_return = None  # None until the first injury
        hist_days, hist_tot = [], []  # ordinals and d_tot of the last seven sessions
        hsr_ewma = pi_ewma = None  # running EWMA states
        pi_count = 0
        games = 0
        player_sessions = []

        for week in range(cfg.weeks):
            week_start = START_DATE + dt.timedelta(days=7 * week)
            base = int(SESSIONS_PER_WEEK)
            n_sess = base + (1 if rng.random() < SESSIONS_PER_WEEK - base else 0)
            for day in sorted(rng.choice(7, size=n_sess, replace=False).tolist()):
                date = week_start + dt.timedelta(days=day)
                if absent_until is not None and date <= absent_until:
                    continue
                # players ease back into training right after an injury
                ramp = (RETURN_RAMP_FACTOR
                        if sessions_since_return is not None
                        and sessions_since_return < RETURN_RAMP_SESSIONS
                        else 1.0)
                if sessions_since_return is not None:
                    sessions_since_return += 1
                workload = _draw_workload(rng, plan, multiplier * ramp)
                if rng.random() < 0.3:
                    games += 1
                session = TrainingSession(
                    player_id=pid, date=date, workload=workload,
                    play_time=_tenths(rng.uniform(0, 95)), games=games)
                player_sessions.append(session)
                day_no = date.toordinal()
                hist_days.append(day_no)
                hist_tot.append(workload["d_tot"])
                # one session a day at most: the last week's are among the last seven
                del hist_days[:-MSWR_WINDOW_DAYS], hist_tot[:-MSWR_WINDOW_DAYS]
                hsr_ewma = _ewma_step(hsr_ewma, workload["d_hsr"])
                pi_ewma = _ewma_step(pi_ewma, pi_count)

                week_tot = [t for d, t in zip(hist_days, hist_tot)
                            if d > day_no - MSWR_WINDOW_DAYS]
                feats = {
                    "d_hsr_ewma": hsr_ewma,
                    "d_tot_mswr": _week_monotony(week_tot),
                    "pi_ewma": pi_ewma,
                }
                cause = None
                for rule in PLANTED_RULES:
                    if rule.fires(feats) and rng.random() < rule.probability:
                        cause = rule.name
                        break
                if cause is None and rng.random() < BASE_INJURY_RATE:
                    cause = "base_rate"
                if cause is not None:
                    onset = date + dt.timedelta(days=1)
                    days_absent = (int(rng.integers(1, 6)) if rng.random() < 0.65
                                   else int(rng.integers(6, 16)))
                    injuries.append(InjuryRecord(pid, onset, days_absent))
                    ledger.causes.append({
                        "player_id": pid, "onset": onset.isoformat(),
                        "session_date": date.isoformat(), "rule": cause,
                        "days_absent": days_absent,
                        "features": {k: round(v, 4) for k, v in feats.items()},
                    })
                    absent_until = onset + dt.timedelta(days=days_absent)
                    pi_count += 1
                    sessions_since_return = 0
        sessions[pid] = player_sessions

    log = SeasonLog(players={p.player_id: p for p in profiles},
                    sessions=sessions, injuries=injuries)
    return log, ledger


def planted_feature_names() -> list:
    """The engineered features PLANTED_RULES read, in the order they first appear."""
    names = []
    for rule in PLANTED_RULES:
        for f in rule.features:
            if f not in names:
                names.append(f)
    return names
