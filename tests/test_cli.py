import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from injurycast.cli import cli_main
from injurycast.data_model import INJURIES_HEADER, PLAYERS_HEADER, SESSIONS_HEADER
from injurycast.features import TrainingTable
from injurycast.tree import fit_tree


def run(*argv):
    return cli_main(list(argv))


@pytest.fixture(scope="module")
def season_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("season")
    paths = {k: str(root / f"{k}.csv") for k in ("sessions", "injuries", "players")}
    code = run("generate", "--seed", "5", "--n-players", "10", "--weeks", "10",
               "--sessions", paths["sessions"], "--injuries", paths["injuries"],
               "--players", paths["players"], "--ledger", str(root / "ledger.json"))
    assert code == 0
    paths["ledger"] = str(root / "ledger.json")
    paths["root"] = root
    return paths


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run() == 2
        assert run("train") == 2  # missing required arguments
        assert run("no-such-command") == 2

    def test_domain_error_is_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        code = run("ingest", "--sessions", missing, "--injuries", missing,
                   "--players", missing)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        code = run("ingest", "--sessions", str(bad), "--injuries", str(bad),
                   "--players", str(bad))
        assert code == 1
        assert "header" in capsys.readouterr().err


SESSIONS = ",".join(SESSIONS_HEADER) + "\n"
INJURIES = ",".join(INJURIES_HEADER) + "\n"
PLAYERS = ",".join(PLAYERS_HEADER) + "\n"
SESSION = "P1,2014-01-06," + ",".join(["1.0"] * 12) + ",0,0\n"
GOOD_FILES = {"sessions.csv": SESSIONS + SESSION, "injuries.csv": INJURIES,
              "players.csv": PLAYERS + "P1,25,180,75,Winger\n"}
# d_tot at 1.7e308 on the last day of week 1 and the first of week 2: both sit in one
# acute and one chronic window, whose sums overflow
NEAR_FLOAT_LIMIT = SESSIONS + SESSION + "".join(
    SESSION.replace("2014-01-06,1.0", f"{day},1.7e308")
    for day in ("2014-01-12", "2014-01-13"))
SEASON = ["--sessions", "sessions.csv", "--injuries", "injuries.csv",
          "--players", "players.csv"]


def model_json(raw_importance=None, **nodes):
    """A consistent one-split model over one feature, with `nodes` arrays replaced."""
    base = {"feature": [0, -1, -1], "threshold": [1.0, 0.0, 0.0], "left": [1, -1, -1],
            "right": [2, -1, -1], "counts": [[2, 2], [2, 0], [0, 2]]}
    return json.dumps({"feature_names": ["x"], "hyperparams": {},
                       "nodes": {**base, **nodes}, "raw_importance": raw_importance})


# argv (files named by their .csv/.json name), files replacing GOOD_FILES,
# exit code, a piece of the message
BAD_INPUTS = {
    "age-0": (["ingest", *SEASON], {"players.csv": PLAYERS + "P1,0,180,75,Winger\n"},
              1, "players.csv:2 column 'age'"),
    "height-negative": (["featurize", *SEASON, "--out", "t.csv"],
                        {"players.csv": PLAYERS + "P1,25,-1,75,Winger\n"},
                        1, "players.csv:2 column 'height_cm'"),
    "mass-0": (["simulate", *SEASON, "--seed", "0", "--out", "o.csv"],
               {"players.csv": PLAYERS + "P1,25,180,0,Winger\n"},
               1, "players.csv:2 column 'mass_kg'"),
    "workload-nan": (["featurize", *SEASON, "--out", "t.csv"],
                     {"sessions.csv": SESSIONS + SESSION.replace("1.0", "nan", 1)},
                     1, "sessions.csv:2 column 'd_tot'"),
    "play-time-negative": (["featurize", *SEASON, "--out", "t.csv"],
                           {"sessions.csv": SESSIONS + SESSION.replace(",0,0\n", ",-40,0\n")},
                           1, "sessions.csv:2 column 'play_time'"),
    "games-negative": (["featurize", *SEASON, "--out", "t.csv"],
                       {"sessions.csv": SESSIONS + SESSION.replace(",0,0\n", ",0,-3\n")},
                       1, "sessions.csv:2 column 'games'"),
    "session-unknown-player": (["ingest", *SEASON],
                               {"sessions.csv": SESSIONS + SESSION.replace("P1", "P9")},
                               1, "sessions.csv:2: unknown player 'P9'"),
    "session-repeated": (["ingest", *SEASON], {"sessions.csv": SESSIONS + SESSION * 2},
                         1, "sessions.csv:3: duplicate session P1@2014-01-06"),
    "injury-unknown-player": (["ingest", *SEASON],
                              {"injuries.csv": INJURIES + "P9,2014-01-07,2\n"},
                              1, "injuries.csv:2: unknown player 'P9'"),
    "days-absent-0": (["ingest", *SEASON], {"injuries.csv": INJURIES + "P1,2014-01-07,0\n"},
                      1, "injuries.csv:2 column 'days_absent'"),
    "same-onset": (["ingest", *SEASON],
                   {"injuries.csv": INJURIES + "P1,2014-01-07,2\nP1,2014-01-07,3\n"},
                   1, "injuries.csv:3 column 'onset_date'"),
    "horizon-0-ingest": (["ingest", *SEASON, "--horizon", "0"], {}, 2, "--horizon"),
    "horizon-0-featurize": (["featurize", *SEASON, "--horizon", "0", "--out", "t.csv"], {},
                            2, "--horizon"),
    # every command labels with data_model.HORIZON_DAYS; no value of --horizon is read
    "horizon-option-removed": (["featurize", *SEASON, "--horizon", "5", "--out", "t.csv"], {},
                               2, "unrecognized arguments: --horizon 5"),
    "salary-text": (["simulate", *SEASON, "--seed", "0", "--salary", "abc", "--out", "o.csv"],
                    {}, 2, "--salary"),
    "salary-negative": (["simulate", *SEASON, "--seed", "0", "--salary", "-5",
                         "--out", "o.csv"], {}, 2, "--salary"),
    "generate-seed-negative": (["generate", "--seed", "-1", *SEASON], {}, 2, "--seed"),
    "train-seed-negative": (["train", "--table", "t.csv", "--seed", "-1", "--out", "m.json"],
                            {}, 2, "--seed"),
    # generate sets GeneratorConfig's n_players and weeks, and nothing else, by flags
    "config-unknown-key": (["generate", "--seed", "0", "--n-playerz", "3", *SEASON], {},
                           2, "unrecognized arguments: --n-playerz 3"),
    "config-count-not-a-number": (["generate", "--seed", "0", "--n-players", "x", *SEASON],
                                  {}, 2, "--n-players: invalid int value: 'x'"),
    "config-count-not-an-integer": (["generate", "--seed", "0", "--n-players", "2.5",
                                     *SEASON], {}, 2, "--n-players: invalid int value: '2.5'"),
    "config-count-a-bool": (["generate", "--seed", "0", "--n-players", "true", *SEASON], {},
                            2, "--n-players: invalid int value: 'true'"),
    "config-weeks-past-date-max": (["generate", "--seed", "0", "--weeks", "416688", *SEASON],
                                   {}, 1, "error: weeks must be in [1, 416687]"),
    "config-option-removed": (["generate", "--seed", "0", "--config", "c.json", *SEASON],
                              {"c.json": '{"n_players": 3}'},
                              2, "unrecognized arguments: --config"),
    "n-players-0": (["generate", "--seed", "0", "--n-players", "0", *SEASON], {},
                    2, "--n-players: must be a finite number >= 1, got '0'"),
    "weeks-not-an-integer": (["generate", "--seed", "0", "--weeks", "2.5", *SEASON], {},
                             2, "--weeks: invalid int value: '2.5'"),
    # far past the last week, too: the size is checked before any date is formed
    "weeks-past-date-max": (["generate", "--seed", "0", "--weeks", str(10 ** 30), *SEASON],
                            {}, 1, "error: weeks must be in [1, "),
    "model-not-json": (["rules", "--model", "m.json"], {"m.json": '{"a": '},
                       1, "m.json: not JSON (Expecting value"),
    "model-without-feature-names": (["rules", "--model", "m.json"],
                                    {"m.json": '{"hyperparams": {}, "nodes": {}}'},
                                    1, "feature_names"),
    "model-feature-names-a-string": (["rules", "--model", "m.json"],
                                     {"m.json": model_json().replace('["x"]', '"ab"')},
                                     1, "feature_names: need a list of distinct strings"),
    "model-feature-names-repeated": (["rules", "--model", "m.json"],
                                     {"m.json": model_json().replace('["x"]', '["x", "x"]')},
                                     1, "feature_names: need a list of distinct strings"),
    "model-no-nodes": (["rules", "--model", "m.json"],
                       {"m.json": model_json(feature=[], threshold=[], left=[], right=[],
                                             counts=[])}, 1, "shared length"),
    "model-ragged-arrays": (["rules", "--model", "m.json"],
                            {"m.json": model_json(threshold=[1.0])}, 1, "shared length"),
    "model-feature-out-of-range": (["rules", "--model", "m.json"],
                                   {"m.json": model_json(feature=[3, -1, -1])},
                                   1, "feature index"),
    "model-leaf-with-child": (["rules", "--model", "m.json"],
                              {"m.json": model_json(left=[1, 2, -1])}, 1, "leaf has a child"),
    "model-child-past-end": (["rules", "--model", "m.json"],
                             {"m.json": model_json(left=[5, -1, -1])}, 1, "parent < child"),
    "model-child-is-ancestor": (["rules", "--model", "m.json"],
                                {"m.json": model_json(left=[0, -1, -1])}, 1, "parent < child"),
    "model-shared-child": (["rules", "--model", "m.json"],
                           {"m.json": model_json(right=[1, -1, -1])}, 1, "exactly one parent"),
    "model-counts-negative": (["rules", "--model", "m.json"],
                              {"m.json": model_json(counts=[[2, 2], [-1, 0], [0, 2]])},
                              1, "counts"),
    "model-counts-empty-node": (["rules", "--model", "m.json"],
                                {"m.json": model_json(counts=[[2, 2], [0, 0], [0, 2]])},
                                1, "counts"),
    "model-counts-not-pairs": (["rules", "--model", "m.json"],
                               {"m.json": model_json(counts=[2, 2, 0])}, 1, "counts"),
    "model-raw-importance-length": (["rules", "--model", "m.json"],
                                    {"m.json": model_json(raw_importance=[0.5, 0.5])},
                                    1, "raw_importance"),
    # json.loads reads NaN and Infinity literally, and json.dumps writes them
    "model-threshold-nan": (["rules", "--model", "m.json"],
                            {"m.json": model_json(threshold=[float("nan"), 0.0, 0.0])},
                            1, "nodes threshold: need finite numbers"),
    "model-threshold-infinity": (["rules", "--model", "m.json"],
                                 {"m.json": model_json(threshold=[float("inf"), 0.0, 0.0])},
                                 1, "nodes threshold: need finite numbers"),
    "model-raw-importance-nan": (["rules", "--model", "m.json"],
                                 {"m.json": model_json(raw_importance=[float("nan")])},
                                 1, "raw_importance: need finite numbers"),
    "model-feature-a-float": (["rules", "--model", "m.json"],
                              {"m.json": model_json(feature=[0.9, -1, -1])},
                              1, "nodes feature: need integers"),
    "model-feature-past-int64": (["rules", "--model", "m.json"],
                                 {"m.json": model_json(feature=[2 ** 64, -1, -1])},
                                 1, "not a model JSON"),
    "model-count-a-float": (["rules", "--model", "m.json"],
                            {"m.json": model_json(counts=[[2, 2], [2, 0], [0, 2.7]])},
                            1, "nodes counts: need integers"),
    "model-count-a-bool": (["rules", "--model", "m.json"],
                           {"m.json": model_json(counts=[[2, 2], [2, 0], [0, True]])},
                           1, "nodes counts: need integers"),
    "model-child-a-string": (["rules", "--model", "m.json"],
                             {"m.json": model_json(left=["1", -1, -1])},
                             1, "nodes left: need integers"),
    "model-max-depth-a-float": (
        ["rules", "--model", "m.json"],
        {"m.json": model_json().replace('"hyperparams": {}', '"hyperparams": {"max_depth": 2.5}')},
        1, "hyperparams: need integers"),
    "start-week-0": (["simulate", *SEASON, "--seed", "0", "--start-week", "0",
                      "--out", "o.csv"], {}, 2, "--start-week"),
    "table-last-column-not-label": (["train", "--table", "t.csv", "--seed", "0",
                                     "--out", "m.json"], {"t.csv": "x,injured\n1.0,0\n"},
                                    1, "t.csv:1 column 'injured'"),
    "table-label-2-compare": (["compare", "--table", "t.csv", "--seed", "0"],
                              {"t.csv": "x,label\n1.0,0\n2.0,2\n"},
                              1, "t.csv:3 column 'label'"),
    "table-label-2-rules": (["rules", "--model", "m.json", "--table", "t.csv"],
                            {"m.json": model_json(), "t.csv": "x,label\n1.0,2\n"},
                            1, "t.csv:2 column 'label'"),
    "table-synthetic-flag-7": (["train", "--table", "t.csv", "--seed", "0", "--out", "m.json"],
                               {"t.csv": "player_id,date,synthetic,x,label\n"
                                         "P1,2014-01-06,0,1.0,0\nP1,2014-01-07,7,1.0,1\n"},
                               1, "t.csv:3 column 'synthetic'"),
    "table-label-negative-train": (["train", "--table", "t.csv", "--seed", "0",
                                    "--out", "m.json"], {"t.csv": "x,label\n1.0,-1\n"},
                                   1, "t.csv:2 column 'label'"),
    "players-quoted-id-over-two-lines": (
        ["ingest", *SEASON],
        {"players.csv": PLAYERS + '"P\n1",25,180,75,Winger\nP2,0,180,75,Winger\n'},
        1, "players.csv:4 column 'age'"),
    "players-empty": (["ingest", *SEASON], {"players.csv": ""},
                      1, "players.csv:1 column '': missing header"),
    "table-quoted-id-over-two-lines": (
        ["train", "--table", "t.csv", "--seed", "0", "--out", "m.json"],
        {"t.csv": 'player_id,date,synthetic,x,label\n"P\n1",2014-01-06,0,1.0,0\n'
                  "P2,2014-01-07,0,y,0\n"},
        1, "t.csv:4 column 'x'"),
    "table-meta-header-incomplete": (["train", "--table", "t.csv", "--seed", "0",
                                      "--out", "m.json"], {"t.csv": "player_id,label\nP1,0\n"},
                                     1, "t.csv:2 column 'player_id'"),
    "absence-past-date-max-ingest": (["ingest", *SEASON],
                                     {"injuries.csv": INJURIES + "P1,2014-01-07,999999999\n"},
                                     1, "injuries.csv:2 column 'days_absent'"),
    "absence-past-date-max-featurize": (
        ["featurize", *SEASON, "--out", "t.csv"],
        {"injuries.csv": INJURIES + "P1,9999-12-30,2\n"}, 1, "injuries.csv:2 column 'days_absent'"),
    "near-float-limit-featurize": (["featurize", *SEASON, "--out", "t.csv"],
                                   {"sessions.csv": NEAR_FLOAT_LIMIT},
                                   1, "feature column 'd_tot_acwr' overflows"),
    "near-float-limit-simulate": (["simulate", *SEASON, "--seed", "0", "--start-week", "1",
                                   "--out", "o.csv"], {"sessions.csv": NEAR_FLOAT_LIMIT},
                                  1, "feature column 'd_tot_acwr' overflows"),
    "absence-past-date-max-simulate": (
        ["simulate", *SEASON, "--seed", "0", "--out", "o.csv"],
        {"injuries.csv": INJURIES + "P1,2014-01-07,999999999\n"},
        1, "injuries.csv:2 column 'days_absent'"),
}


def in_dir(root, argv, files=None):
    """Write GOOD_FILES, `files` replacing some, under root; return argv with its
    file names (ending .csv or .json, or "dir") as paths there."""
    for name, text in {**GOOD_FILES, **(files or {})}.items():
        (root / name).write_text(text)
    return [str(root / a) if a.endswith((".csv", ".json")) or a == "dir" else a
            for a in argv]


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning line either
def test_bad_value_is_one_line_error(tmp_path, capsys, case):
    argv, files, code, fragment = BAD_INPUTS[case]
    assert run(*in_dir(tmp_path, argv, files)) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "error: " in err and fragment in err


@pytest.mark.parametrize("key", ["sessions_per_week", "feature_stats", "planted_rules",
                                 "base_injury_rate", "player_spread", "return_ramp_sessions",
                                 "return_ramp_factor", "start_date"])
def test_config_sets_only_size(tmp_path, capsys, key):
    """The generator's other settings are constants of injurycast.generator: a
    flag naming one is refused before any season is generated."""
    flag = "--" + key.replace("_", "-")
    argv = in_dir(tmp_path, ["generate", "--seed", "0", "--weeks", "3", flag, "1", *SEASON])
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"unrecognized arguments: {flag} 1" in err
    assert (tmp_path / "sessions.csv").read_text() == GOOD_FILES["sessions.csv"]


def test_a_season_at_date_min_featurizes(tmp_path, capsys):
    """Windows are searched by date ordinal, so a 27-day window ending on
    0001-01-02 reaches back past 0001-01-01 without leaving the calendar."""
    sessions = SESSIONS + "".join(SESSION.replace("2014-01-06", d)
                                  for d in ("0001-01-01", "0001-01-02"))
    argv = in_dir(tmp_path, ["featurize", *SEASON, "--out", "t.csv"],
                  {"sessions.csv": sessions})
    assert run(*argv) == 0, capsys.readouterr().err
    table = TrainingTable.from_csv(tmp_path / "t.csv")
    assert [d.isoformat() for d in table.dates] == ["0001-01-01", "0001-01-02"]
    assert table.column("d_tot_acwr").tolist() == [1.0, 1.0]
    assert table.column("d_tot_mswr").tolist() == [10.0, 10.0]


@pytest.mark.parametrize("argv", [
    ["ingest", "--sessions", "dir", "--injuries", "injuries.csv", "--players", "players.csv"],
    ["ingest", *SEASON, "--out", "dir"],
])
def test_directory_path_is_one_line_error(tmp_path, capsys, argv):
    (tmp_path / "dir").mkdir()
    assert run(*in_dir(tmp_path, argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Is a directory" in err


@pytest.mark.parametrize("argv, name, data", [
    (["ingest", *SEASON], "sessions.csv", (SESSIONS + SESSION).replace("P1", "P\xe9")),
    (["rules", "--model", "m.json"], "m.json", model_json().replace('"x"', '"\xe9"')),
    (["train", "--table", "t.csv", "--seed", "0", "--out", "m.json"], "t.csv",
     "x\xe9,label\n1.0,0\n"),
], ids=["csv", "model", "table"])
def test_file_that_is_not_utf8_is_one_line_error(tmp_path, capsys, argv, name, data):
    argv = in_dir(tmp_path, argv)
    (tmp_path / name).write_bytes(data.encode("latin-1"))
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "utf-8" in err and str(tmp_path / name) in err


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path, season_files):
    """The POSIX locale without UTF-8 mode makes ASCII the default file encoding;
    the files the CLI writes must still be UTF-8, the encoding it reads."""
    env = dict(os.environ, LC_ALL="POSIX", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(
                   [str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                    os.environ.get("PYTHONPATH", "")]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "injurycast.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, encoding="utf-8")
    encoding = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=env, capture_output=True, text=True).stdout.strip()
    assert encoding in ("ANSI_X3.4-1968", "ascii", "US-ASCII"), encoding
    for k in ("sessions", "injuries", "players"):
        text = pathlib.Path(season_files[k]).read_text(encoding="utf-8")
        (tmp_path / f"{k}.csv").write_text(text.replace("P01,", "P\xfc01,"),
                                           encoding="utf-8")
    done = cli("featurize", "--sessions", "sessions.csv", "--injuries", "injuries.csv",
               "--players", "players.csv", "--out", "table.csv")
    assert done.returncode == 0, done.stderr
    assert "P\xfc01" in TrainingTable.from_csv(str(tmp_path / "table.csv")).player_ids
    model = fit_tree(np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]), ["l\xe4st"])
    (tmp_path / "m.json").write_text(model.to_json())
    done = cli("rules", "--model", "m.json", "--format", "text", "--out", "rules.txt")
    assert done.returncode == 0, done.stderr
    assert "l\xe4st" in (tmp_path / "rules.txt").read_text(encoding="utf-8")
    done = cli("rules", "--model", "m.json", "--format", "text")
    assert done.returncode == 0, done.stderr
    assert "l\xe4st" in done.stdout


class TestGenerateIngest:
    def test_generate_writes_parseable_season(self, season_files, capsys):
        out = season_files["root"] / "summary.json"
        code = run("ingest", "--sessions", season_files["sessions"],
                   "--injuries", season_files["injuries"],
                   "--players", season_files["players"], "--out", str(out))
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["players"] == 10
        assert summary["sessions"] > 0
        assert summary["labeled_examples"] > 0
        ledger = json.loads((season_files["root"] / "ledger.json").read_text())
        assert summary["injuries"] == len(ledger["injuries"])

    def test_generate_deterministic(self, season_files, tmp_path):
        paths = [str(tmp_path / n) for n in ("s.csv", "i.csv", "p.csv")]
        assert run("generate", "--seed", "5", "--n-players", "10", "--weeks", "10",
                   "--sessions", paths[0], "--injuries", paths[1],
                   "--players", paths[2]) == 0
        for fresh, original in zip(paths, (season_files["sessions"],
                                           season_files["injuries"],
                                           season_files["players"])):
            with open(fresh, "rb") as a, open(original, "rb") as b:
                assert a.read() == b.read()


@pytest.fixture(scope="module")
def table_path(season_files):
    out = str(season_files["root"] / "table.csv")
    code = run("featurize", "--sessions", season_files["sessions"],
               "--injuries", season_files["injuries"],
               "--players", season_files["players"], "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(season_files, table_path):
    model_path = str(season_files["root"] / "model.json")
    report_path = str(season_files["root"] / "report.json")
    code = run("train", "--table", table_path, "--seed", "0",
               "--out", model_path, "--report", report_path)
    assert code == 0
    return model_path, report_path


class TestFeaturizeTrainRules:
    def test_featurize_output_loads(self, table_path):
        table = TrainingTable.from_csv(table_path)
        assert len(table.feature_names) == 55
        assert table.y.sum() > 0

    def test_train_then_rules(self, season_files, table_path, trained):
        model_path, report_path = trained
        report = json.loads(open(report_path).read())
        assert set(report) >= {"per_class", "auc", "selected_features"}

        rules_path = str(season_files["root"] / "rules.json")
        code = run("rules", "--model", model_path, "--table", table_path,
                   "--format", "json", "--out", rules_path)
        assert code == 0
        rules = json.loads(open(rules_path).read())["rules"]
        assert rules, "trained model yields at least one injury rule"
        for rule in rules:
            assert rule["frequency"] is not None

    def test_rules_on_a_deep_chain_model(self, tmp_path, capsys):
        # 5,999 nodes, 3,000 levels deep
        X = np.arange(3000, dtype=float)[:, None]
        path = tmp_path / "chain.json"
        path.write_text(fit_tree(X, np.arange(3000) % 2).to_json())
        assert run("rules", "--model", str(path), "--format", "json") == 0
        assert len(json.loads(capsys.readouterr().out)["rules"]) == 1500

    def test_compare_renders(self, season_files, table_path, capsys):
        code = run("compare", "--table", table_path, "--seed", "0",
                   "--format", "csv")
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "forecaster,class,precision,recall,f1,auc"
        assert any(line.startswith("DT,") for line in out.splitlines())


class TestBadTable:
    @pytest.mark.parametrize("text, column", [
        ("a,b,label\n1.0,nan,0\n", "b"),
        ("a,b,label\n1.0,inf,0\n", "b"),
        ("a,b,label\n1.0,x,0\n", "b"),
        ("a,b,label\n1.0,0\n", "label"),
    ])
    def test_malformed_table_is_one_line_error(self, tmp_path, capsys, trained,
                                               text, column):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        for argv in (["compare", "--table", str(bad), "--seed", "0"],
                     ["train", "--table", str(bad), "--seed", "0",
                      "--out", str(tmp_path / "m.json")],
                     ["rules", "--model", trained[0], "--table", str(bad)]):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"bad.csv:2 column '{column}'" in err

    def test_table_without_a_model_feature_is_one_line_error(self, tmp_path, capsys,
                                                             trained):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,label\n")
        assert run("rules", "--model", trained[0], "--table", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        features = json.loads(open(trained[0]).read())["feature_names"]
        assert any(f"no column '{name}'" in err for name in features)

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_header_only_table_is_one_line_error(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        empty.write_text("a,b,label\n")
        assert run(command, "--table", str(empty), "--seed", "0",
                   "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "empty" in err

    def test_repeated_column_is_one_line_error(self, tmp_path, capsys, trained,
                                               table_path):
        header, rest = pathlib.Path(table_path).read_text().split("\n", 1)
        assert ",d_hsr," in header
        bad = tmp_path / "bad.csv"
        bad.write_text(header.replace(",d_hsr,", ",d_tot,") + "\n" + rest)
        for argv in (["compare", "--table", str(bad), "--seed", "0"],
                     ["train", "--table", str(bad), "--seed", "0",
                      "--out", str(tmp_path / "m.json")],
                     ["rules", "--model", trained[0], "--table", str(bad)]):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "bad.csv:1 column 'd_tot': the column name is repeated" in err

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("label", [0, 1], ids=["all-labels-0", "injury-rows-only"])
    def test_one_class_table_is_one_line_error(self, tmp_path, capsys, table_path,
                                               command, label):
        table = TrainingTable.from_csv(table_path)
        if label:
            table = table.take(np.flatnonzero(table.y))
        else:
            table.y[:] = 0
        path = str(tmp_path / "one_class.csv")
        table.to_csv(path, include_meta=True)
        assert run(command, "--table", path, "--seed", "0",
                   "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: every row of the table has label {label}; "
            "the protocol needs injury and no-injury rows\n")

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_synthetic_rows_are_rejected(self, tmp_path, capsys, table_path, command):
        table = TrainingTable.from_csv(table_path)
        table.synthetic[:] = True
        path = str(tmp_path / "synthetic.csv")
        table.to_csv(path, include_meta=True)
        argv = [command, "--table", path, "--seed", "0"]
        if command == "train":
            argv += ["--out", str(tmp_path / "m.json")]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "synthetic" in err

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_features_near_the_float_limit_are_one_line_error(self, tmp_path, capsys,
                                                              table_path, command):
        # finite cells, so the table loads; ADASYN's standardizing overflows
        table = TrainingTable.from_csv(table_path)
        signs = np.where(np.arange(len(table)) % 2, -1.0, 1.0)
        table.X[:, table.feature_names.index("d_tot")] = (
            signs * np.linspace(0.75, 1.5, len(table)) * 1e308)
        path = str(tmp_path / "big.csv")
        table.to_csv(path, include_meta=True)
        argv = [command, "--table", path, "--seed", "1"]
        if command == "train":
            argv += ["--out", str(tmp_path / "m.json")]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "column 'd_tot' overflows" in err
