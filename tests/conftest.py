"""Shared builders for season logs and training tables used across the suite."""
import datetime as dt

import numpy as np
import pytest
from hypothesis import settings

from injurycast.data_model import (
    InjuryRecord,
    PlayerProfile,
    Role,
    SeasonLog,
    TrainingSession,
)
from injurycast.features import TrainingTable

# every hypothesis test draws the same examples on every run and keeps none between
# runs; a test's own settings (max_examples, deadline) still apply
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

D0 = dt.date(2014, 1, 1)


def day(offset: int) -> dt.date:
    return D0 + dt.timedelta(days=offset)


def make_workload(**overrides) -> dict:
    w = {
        "d_tot": 4000.0, "d_hsr": 150.0, "d_met": 1100.0, "d_hml": 550.0,
        "d_hml_m": 9.0, "d_exp": 400.0, "acc2": 60.0, "acc3": 15.0,
        "dec2": 62.0, "dec3": 18.0, "dsl": 120.0, "fi": 0.6,
    }
    w.update(overrides)
    return w


def make_profile(pid="P01", role=Role.MIDFIELDER, age=25,
                 height=180.0, mass=75.0) -> PlayerProfile:
    return PlayerProfile(player_id=pid, age=age, height_cm=height,
                         body_mass_kg=mass, role=role)


def make_session(pid="P01", date=D0, play_time=45.0, games=3, **workload):
    return TrainingSession(player_id=pid, date=date,
                           workload=make_workload(**workload),
                           play_time=play_time, games=games)


def make_log(session_offsets, injury_specs=(), pid="P01", jitter=None):
    """One-player log: sessions at the given day offsets and injuries given as
    (onset_offset, days_absent) pairs. `jitter(i)` may vary workloads per session."""
    sessions = []
    for i, off in enumerate(session_offsets):
        overrides = jitter(i) if jitter else {}
        sessions.append(make_session(pid=pid, date=day(off), **overrides))
    injuries = [InjuryRecord(pid, day(o), d) for o, d in injury_specs]
    return SeasonLog(players={pid: make_profile(pid)},
                     sessions={pid: sessions}, injuries=injuries)


def rand_table(n=80, p=5, n_pos=12, seed=0, names=None) -> TrainingTable:
    """Random feature table with exactly n_pos positive labels."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.zeros(n, dtype=int)
    y[rng.choice(n, size=n_pos, replace=False)] = 1
    if names is None:
        names = [f"f{i}" for i in range(p)]
    return TrainingTable(list(names), X, y,
                         [f"P{i % 9}" for i in range(n)], [None] * n)


def planted_table(n=300, seed=0, noise_features=3) -> TrainingTable:
    """Table whose labels follow a two-feature conjunction, plus noise columns."""
    rng = np.random.default_rng(seed)
    p = 2 + noise_features
    X = rng.uniform(size=(n, p))
    y = ((X[:, 0] > 0.7) & (X[:, 1] > 0.7)).astype(int)
    names = ["sig_a", "sig_b"] + [f"noise{i}" for i in range(noise_features)]
    return TrainingTable(names, X, y, [f"P{i % 9}" for i in range(n)], [None] * n)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the normal summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_season():
    """Generated season small enough for module tests (shared, read-only)."""
    from injurycast.generator import GeneratorConfig, generate
    log, ledger = generate(GeneratorConfig(n_players=12, weeks=12, seed=3))
    return log, ledger


@pytest.fixture(scope="session")
def small_table(small_season):
    from injurycast.data_model import assign_labels
    from injurycast.features import build_training_table
    log, _ = small_season
    table, _ = build_training_table(assign_labels(log), log.players)
    return table
