"""Byte-for-byte goldens of a short CLI chain on a small generated season.

Criterion 11 shows that two runs in a row agree; these digests show that the
artifacts did not change from one version of the code to the next. A change
that alters an artifact on purpose records new digests and says so.
"""
import hashlib
import json

import pytest

from injurycast.cli import cli_main
from injurycast.data_model import write_season_csvs
from injurycast.generator import GeneratorConfig, generate
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

# digest of json.dumps([outcome_record(o) for o in walk_forward(...)], sort_keys=True)
# on the same season, forecasting from week 7 as the chain's simulate step does
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

# the seasons the benchmark generates (bench/worker.py), with the SHA-256 of each
# season CSV copied from the `inputs` of bench/goldens.json and of the ledger JSON,
# so that a change to the generator or the season writer fails here first
BENCH_SEASONS = {
    "club_season": {"n_players": 26, "weeks": 23},
    "weekly_replay": {"n_players": 26, "weeks": 12},
    "squad_4x": {"n_players": 104, "weeks": 23},
}
BENCH_SEASON_GOLDEN = {
    ("club_season", 7): {
        "sessions.csv": "80b0a335b612809977dd2aba518d09d1a38cb086b038309da933a1bb102185ed",
        "injuries.csv": "409fdf0272cd1a7d758b04465c2026f1edeb36fbe09007ebf926dac182e612e6",
        "players.csv": "131b59fee35b74010a5033ab18843c8644bd1d2f9597297cb611264740c71d11",
        "ledger.json": "1fd3e195e188c8a0056149cc46325b51268c307f8a78f16d975525921a8c7eec",
    },
    ("club_season", 11): {
        "sessions.csv": "3ab5fd4bb9801d5d41420ea149cdeb529a49aef97f4ba5ff50be345f5ada9518",
        "injuries.csv": "83283acdd4db805afbdff79323e6ebfadb25604c121d021d42d27822edbf8de4",
        "players.csv": "bcb01f6284bca2e38343e089448b73df6f4e38c04aadfc8738b3e3e9fd19f2cc",
        "ledger.json": "0f1f47311ec7b3020b54c77d4f12f607e2dddfdab79723cb6de659657ed3d06c",
    },
    ("weekly_replay", 7): {
        "sessions.csv": "1318226b0fb637203e9627f66c2b2e4666a32e111ff8edd417073de23548215d",
        "injuries.csv": "6ceac4262496405625a858f611dca760c83669fadecf18b301bfa89089198a0a",
        "players.csv": "131b59fee35b74010a5033ab18843c8644bd1d2f9597297cb611264740c71d11",
        "ledger.json": "d4a1ccdf2aec4fd06ca9b7919c134cfbc4d0a91f7b0c770c17cc6252f53853bd",
    },
    ("weekly_replay", 11): {
        "sessions.csv": "0f0671c9e5a128c7be6f2b54b2e0822a57dada267e56b3823fb8716787a090dc",
        "injuries.csv": "af02750647e15a15bfe54e6951f1c25ebd38b6ff232644f46b1154e8fb578040",
        "players.csv": "bcb01f6284bca2e38343e089448b73df6f4e38c04aadfc8738b3e3e9fd19f2cc",
        "ledger.json": "0bf4dcf2193d380f495e155e8847448ce4f5318cbb790cf5ddb4b49396ecc8be",
    },
    ("squad_4x", 7): {
        "sessions.csv": "ae19c524560ceec96959cde56b1efbd8fa49f681c1b5a4f8d6562db3df225c98",
        "injuries.csv": "bca9e07041ff11e4312c98f398e8d1533c10871a77b098298ef4378d53f780e1",
        "players.csv": "071f292387525102270413e9ea99820fa647744c8d801effdaac851df47cb13a",
        "ledger.json": "fc49d0b18c724b7959eb6efe7615f4f3303a00021032cc3e627a0b384a563ce6",
    },
    ("squad_4x", 11): {
        "sessions.csv": "ba3d9f7e5ccbb0f0a5ec24040cf55a3319f1fb55bea50b6fecfa5fd293fb652c",
        "injuries.csv": "1f4155760422110cecbde51e52556561eff5bea893dca59de24adb42348e089f",
        "players.csv": "a46dd57bed5292d0d61516007468186bf4c10538f4f6ae8a6cc2943f99fb29e2",
        "ledger.json": "897c26354b1e224e636ace021616a124a977ce18f0d3bb312282cbdd6b409089",
    },
}


def outcome_record(outcome) -> dict:
    """A WeeklyOutcome as the JSON object its golden digest was recorded from."""
    return {
        "week": outcome.week,
        "degenerate": outcome.degenerate,
        "cutoff": outcome.cutoff.isoformat(),
        "train_max_date": (outcome.train_max_date.isoformat()
                           if outcome.train_max_date else None),
        "detected": outcome.detected,
        "missed": outcome.missed,
        "cumulative_f1": outcome.cumulative_f1,
        "selected_features": outcome.selected_features,
        "predictions": [
            {"player_id": p, "date": d.isoformat(), "predicted": int(pr),
             "label": int(lb), "onset": o.isoformat() if o else None}
            for p, d, pr, lb, o in outcome.predictions],
    }


def chain_digests(root, seed: int) -> dict:
    """Run generate -> featurize -> train -> compare -> simulate -> rules and hash every artifact."""
    season = [str(root / f"{k}.csv") for k in ("sessions", "injuries", "players")]
    s_args = ["--sessions", season[0], "--injuries", season[1], "--players", season[2]]
    out = {k: str(root / v) for k, v in (
        ("table", "table.csv"), ("model", "model.json"), ("report", "report.json"),
        ("compare", "compare.csv"), ("weekly", "weekly.csv"),
        ("simulate_report", "simulate.json"), ("handbook", "handbook.json"))}
    steps = [
        ["generate", "--seed", str(seed), "--n-players", str(SEASON["n_players"]),
         "--weeks", str(SEASON["weeks"])] + s_args,
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
    outcomes = walk_forward(log, seed=seed, start_week=7)
    text = json.dumps([outcome_record(o) for o in outcomes], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WALK_FORWARD_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(WIDE_WALK_FORWARD_GOLDEN))
def test_wide_season_walk_forward_matches_golden(seed):
    log, _ = generate(GeneratorConfig(seed=seed, **WIDE_SEASON))
    outcomes = walk_forward(log, seed=seed, start_week=6)
    text = json.dumps([outcome_record(o) for o in outcomes], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_WALK_FORWARD_GOLDEN[seed]


@pytest.mark.parametrize("workload,seed", sorted(BENCH_SEASON_GOLDEN))
def test_bench_season_matches_golden(tmp_path, workload, seed):
    log, ledger = generate(GeneratorConfig(seed=seed, **BENCH_SEASONS[workload]))
    paths = [tmp_path / name for name in ("sessions.csv", "injuries.csv", "players.csv")]
    write_season_csvs(log, *paths)
    texts = {path.name: path.read_bytes() for path in paths}
    texts["ledger.json"] = ledger.to_json().encode()
    digests = {name: hashlib.sha256(text).hexdigest() for name, text in texts.items()}
    assert digests == BENCH_SEASON_GOLDEN[(workload, seed)]
