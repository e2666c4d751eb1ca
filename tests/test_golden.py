"""Byte-for-byte goldens of a short CLI chain on a small generated season.

Criterion 11 shows that two runs in a row agree; these digests show that the
artifacts did not change from one version of the code to the next. A change
that alters an artifact on purpose records new digests and says so.
"""
import hashlib
import json

import pytest

from injurycast.cli import cli_main
from injurycast.generator import GeneratorConfig, generate
from injurycast.pipeline import PipelineConfig
from injurycast.simulate import walk_forward

SEASON = {"n_players": 10, "weeks": 10}
SEEDS = (5, 11)

GOLDEN = {
    5: {
        "table": "1612b7387b1fea9e8e6ab1f6f11c314c3dbccb82c4ad17d37d8df47528f0a1f0",
        "model": "46896482f04dfb0ebf4b712f656010468a9d1645c8d0c2ebd79380dee47def02",
        "report": "8017f61d45c6879e55e1deb4497e19884a485018615d6b62c4b48ad28b875b2b",
        "compare": "848a4641dd0da631d9057cb710e40e91b68fd1124ae90abf6e347c7f6e7e7b22",
        "weekly": "4682a9d4c72a6940ab21d1f724efede2ddd3fbbc6018bc5fce71d95865b19cb1",
        "simulate_report": "dbd9b252ff4c730228c2e7be224d8e212e3568001ba026190474965adeb54e79",
        "handbook": "1de4de5efb9c1cece220f4a4d40a401aba76110610244c1b6eff08eca92d704f",
    },
    11: {
        "table": "3fb1c83246609316186e0d4fb2c7d649586f8525449724e58b82cc22c52cc677",
        "model": "4d08a7d9e4da0a366985713ebecd12b51da5f02f313c37c9d08f8d8511a3a10f",
        "report": "fd1a3c4db1e1d00f80549bbeaff25e9419600479f990b43f96c7d2293e9e5b53",
        "compare": "0b87472c433eecb50005db3fbd06a7b3fe8f47a15c6052570e84c3fec7a425de",
        "weekly": "9bfa3de3e60968ddff8ab4676e5c71bfac632e2b915a3644db9dbd28ff1835b3",
        "simulate_report": "5bec2e48eaf4da620f51d279a15040b6e8b9e29e666670603c172caf7553c24d",
        "handbook": "728341b8e5c8aa8392b89a66a6139d39d1e24724efc336de53c42bc304bc64d9",
    },
}

# digest of json.dumps([o.to_dict() for o in walk_forward(...)], sort_keys=True) on
# the same season, forecasting from week 7 as the chain's simulate step does
WALK_FORWARD_GOLDEN = {
    5: "1dbc80b8b1cad6295a5a437a5f0e4f396a73590f3fd808a1b44cf858426c8847",
    11: "4c8035fb0faa85c9aa1fedbd70eac70e52fa36eb50c64d2647c8dbb7ae02e7c1",
}

# the same digest on a 26 x 12 season at seed 19, forecasting from week 6 as the
# weekly_replay benchmark does: its deeper trees refit many RFECV nodes that the
# 10 x 10 seasons above leave untouched
WIDE_SEASON = {"n_players": 26, "weeks": 12}
WIDE_WALK_FORWARD_GOLDEN = {
    19: "0c9adc9536fbbc5ea2934dcb77d0cdeeff73541f0f7f621072798f51d813dc73",
}


def chain_digests(root, seed: int) -> dict:
    """Run generate -> featurize -> train -> compare -> simulate -> rules and hash every artifact."""
    cfg = root / "gen.json"
    cfg.write_text(json.dumps(SEASON))
    season = [str(root / f"{k}.csv") for k in ("sessions", "injuries", "players")]
    s_args = ["--sessions", season[0], "--injuries", season[1], "--players", season[2]]
    out = {k: str(root / v) for k, v in (
        ("table", "table.csv"), ("model", "model.json"), ("report", "report.json"),
        ("compare", "compare.csv"), ("weekly", "weekly.csv"),
        ("simulate_report", "simulate.json"), ("handbook", "handbook.json"))}
    steps = [
        ["generate", "--seed", str(seed), "--config", str(cfg)] + s_args,
        ["featurize"] + s_args + ["--out", out["table"]],
        ["train", "--table", out["table"], "--seed", str(seed), "--out", out["model"],
         "--report", out["report"]],
        ["compare", "--table", out["table"], "--seed", str(seed), "--format", "csv",
         "--out", out["compare"]],
        ["simulate"] + s_args + ["--seed", str(seed), "--start-week", "7",
                                 "--out", out["weekly"], "--report", out["simulate_report"]],
        ["rules", "--model", out["model"], "--table", out["table"], "--format", "json",
         "--out", out["handbook"]],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv
    digests = {}
    for name, path in out.items():
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_matches_golden(tmp_path, seed):
    assert chain_digests(tmp_path, seed) == GOLDEN[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_walk_forward_outcomes_match_golden(seed):
    log, _ = generate(GeneratorConfig(seed=seed, **SEASON))
    outcomes = walk_forward(log, PipelineConfig(seed=seed), start_week=7)
    text = json.dumps([o.to_dict() for o in outcomes], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WALK_FORWARD_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(WIDE_WALK_FORWARD_GOLDEN))
def test_wide_season_walk_forward_matches_golden(seed):
    log, _ = generate(GeneratorConfig(seed=seed, **WIDE_SEASON))
    outcomes = walk_forward(log, PipelineConfig(seed=seed), start_week=6)
    text = json.dumps([o.to_dict() for o in outcomes], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_WALK_FORWARD_GOLDEN[seed]
