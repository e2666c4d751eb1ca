"""One benchmark child process: either set up a season or run one workload once.

  python3 bench/worker.py setup --workload W --seed N --dir DIR --out RESULT.json
  python3 bench/worker.py run   --workload W --seed N --inputs DIR --dir DIR --out RESULT.json
                                [--trace] [--corrupt ARTIFACT]

``setup`` times importing injurycast, generating the season and writing its
three CSVs. ``run`` times the workload on those CSVs only, then checks its
artifacts and writes their SHA-256 digests; run.py compares them with the
goldens. ``--corrupt`` appends a byte to one artifact after the timed part,
so the self-test can show that a bad artifact is caught.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Each workload stresses different layers; see bench/README.md for why.
WORKLOADS = {
    "club_season": {"players": 26, "weeks": 23},
    "weekly_replay": {"players": 26, "weeks": 12, "start_week": 6},
    "squad_4x": {"players": 104, "weeks": 23, "max_depth": 5},
}
INPUTS = ("sessions.csv", "injuries.csv", "players.csv")
FORECASTERS = ("DT", "RF", "LR", "B1", "B2", "B3", "B4", "C_vote", "C_all", "C_one")


def use_source_tree():
    """Import injurycast from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "injurycast", "__init__.py")):
        raise SystemExit(f"error: no injurycast package under {SRC}")
    sys.path.insert(0, SRC)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- setup --------------------------------------------------------------------
def setup(args) -> dict:
    t0 = time.perf_counter()
    use_source_tree()
    from injurycast.data_model import write_season_csvs
    from injurycast.generator import GeneratorConfig, generate
    t1 = time.perf_counter()
    import numpy
    dims = WORKLOADS[args.workload]
    log, _ = generate(GeneratorConfig(n_players=dims["players"], weeks=dims["weeks"],
                                      seed=args.seed))
    t2 = time.perf_counter()
    paths = [os.path.join(args.dir, name) for name in INPUTS]
    write_season_csvs(log, *paths)
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "import_s": t1 - t0, "generate_s": t2 - t1,
            "players": len(log.players), "weeks": dims["weeks"],
            "sessions": log.n_sessions, "injuries": len(log.injuries),
            "numpy": numpy.__version__,
            "digests": {name: sha256(p) for name, p in zip(INPUTS, paths)}}


# -- workloads ----------------------------------------------------------------
class Run:
    """Times named operations; after the first failure the rest are not run."""

    def __init__(self, out_dir, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer
        self.ops = []  # {"name", "s", "artifacts", "error"}
        self.broken = False
        self.facts = {}  # table size, for workloads whose steps do not report it

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def op(self, name, fn, artifacts=()):
        entry = {"name": name, "s": 0.0, "artifacts": list(artifacts), "error": None}
        self.ops.append(entry)
        if self.broken:
            entry["error"] = "not run: an earlier operation failed"
            return None
        span = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = fn()
        except Exception as exc:  # a failing operation is a measured outcome, not a crash
            entry["error"] = f"{type(exc).__name__}: {exc}"
            result = None
        entry["s"] = time.perf_counter() - t0
        if entry["error"] is not None:
            self.broken = True
        return result

    def cli(self, name, argv, artifacts):
        from injurycast.cli import cli_main
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(argv)
            if rc != 0:
                raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
            return err.getvalue()

        return self.op(name, call, artifacts)

    def seconds(self, *names):
        return sum(o["s"] for o in self.ops if o["name"] in names)


def season_args(inputs):
    return ["--sessions", os.path.join(inputs, "sessions.csv"),
            "--injuries", os.path.join(inputs, "injuries.csv"),
            "--players", os.path.join(inputs, "players.csv")]


def club_season(run, inputs, seed, dims):
    s = str(seed)
    summary = run.cli("cli.featurize", ["featurize", *season_args(inputs),
                                        "--out", run.path("table.csv")], ["table.csv"])
    run.cli("cli.train", ["train", "--table", run.path("table.csv"), "--seed", s,
                          "--out", run.path("model.json"),
                          "--report", run.path("report.json")], ["model.json", "report.json"])
    run.cli("cli.compare", ["compare", "--table", run.path("table.csv"), "--seed", s,
                            "--out", run.path("compare.txt")], ["compare.txt"])
    run.cli("cli.rules", ["rules", "--model", run.path("model.json"),
                          "--table", run.path("table.csv"),
                          "--out", run.path("handbook.txt")], ["handbook.txt"])
    built = json.loads(summary) if summary else {"n_examples": 0, "n_injury": 0}
    rows = built["n_examples"]
    featurize_s = run.seconds("cli.featurize")
    return {"train_s": featurize_s + run.seconds("cli.train"),
            "compare_s": run.seconds("cli.compare"),
            "table_rows": rows, "table_injuries": built["n_injury"],
            "featurize_rows_per_s": rows / featurize_s if featurize_s else 0.0}


def weekly_replay(run, inputs, seed, dims):
    run.cli("cli.simulate", ["simulate", *season_args(inputs), "--seed", str(seed),
                             "--start-week", str(dims["start_week"]),
                             "--out", run.path("weekly.csv"),
                             "--report", run.path("simulate.json")],
            ["weekly.csv", "simulate.json"])
    return {"train_s": run.seconds("cli.simulate")}


def squad_4x(run, inputs, seed, dims):
    from injurycast import (ResamplingConfig, TrainingTable, TreeHyperParams, adasyn,
                            assign_labels, build_training_table, extract_rules, fit_tree,
                            parse_season, render_handbook, rule_stats)

    paths = [os.path.join(inputs, name) for name in INPUTS]
    log = run.op("bench.parse_season", lambda: parse_season(*paths))
    labeling = run.op("bench.assign_labels", lambda: assign_labels(log))
    built = run.op("bench.build_training_table",
                   lambda: build_training_table(labeling, log.players))

    def csv_round_trip():
        built[0].to_csv(run.path("table.csv"), include_meta=True)
        return TrainingTable.from_csv(run.path("table.csv"))

    table = run.op("bench.table_csv", csv_round_trip, ["table.csv"])
    balanced = run.op("bench.adasyn", lambda: adasyn(table, ResamplingConfig(seed=seed)))

    def fit():
        model = fit_tree(balanced, hp=TreeHyperParams(max_depth=dims["max_depth"]), seed=seed)
        with open(run.path("model.json"), "w") as fh:
            fh.write(model.to_json() + "\n")
        return model

    model = run.op("bench.fit_tree", fit, ["model.json"])

    def predict():
        pred, scores = model.predict(table.X)
        with open(run.path("predictions.bin"), "wb") as fh:
            fh.write(pred.astype("<i8").tobytes() + scores.astype("<f8").tobytes())
        return pred, scores

    run.op("bench.predict", predict, ["predictions.bin"])

    def handbook():
        rules = rule_stats(extract_rules(model), table)
        with open(run.path("handbook.txt"), "w") as fh:
            fh.write(render_handbook(rules))

    run.op("bench.rules", handbook, ["handbook.txt"])
    run.squad_state = (built and built[0], table, balanced, model)
    parse_s = run.seconds("bench.parse_season", "bench.assign_labels",
                          "bench.build_training_table")
    rows = len(table) if table is not None else 0
    return {"table_rows": rows, "table_injuries": int(table.y.sum()) if rows else 0,
            "train_s": run.seconds("bench.parse_season", "bench.assign_labels",
                                   "bench.build_training_table", "bench.table_csv",
                                   "bench.adasyn", "bench.fit_tree"),
            "compare_s": run.seconds("bench.predict", "bench.rules"),
            "featurize_rows_per_s": rows / parse_s if parse_s else 0.0}


STEPS = {"club_season": club_season, "weekly_replay": weekly_replay, "squad_4x": squad_4x}


# -- artifact checks that hold for every seed -----------------------------------
def rule_lines(path):
    with open(path) as fh:
        return sum(1 for line in fh if line.startswith("Rule "))


def check_club(run, inputs, dims):
    from injurycast import FEATURE_NAMES, DecisionTreeModel, TrainingTable, extract_rules
    problems = {}
    table = TrainingTable.from_csv(run.path("table.csv"))
    if table.feature_names != list(FEATURE_NAMES) or len(table) == 0 or table.y.sum() < 2:
        problems["cli.featurize"] = "table has wrong columns, no rows or fewer than 2 injuries"
    with open(run.path("model.json")) as fh:
        model = DecisionTreeModel.from_json(fh.read())
    with open(run.path("report.json")) as fh:
        report = json.load(fh)
    if report["selected_features"] != model.feature_names:
        problems["cli.train"] = "model features differ from the report's selected features"
    if sum(report["confusion"].values()) != report["split_sizes"]["test"]:
        problems["cli.train"] = "confusion matrix does not cover the test split"
    with open(run.path("compare.txt")) as fh:
        firsts = [line.split()[0] for line in fh.read().splitlines()[2:] if line.strip()]
    if sorted(firsts) != sorted(FORECASTERS * 2):
        problems["cli.compare"] = f"expected two rows per forecaster, got {firsts}"
    if rule_lines(run.path("handbook.txt")) != len(extract_rules(model)):
        problems["cli.rules"] = "handbook rule count differs from the model's injury leaves"
    return problems


def check_weekly(run, inputs, dims):
    from injurycast import assign_labels, parse_season
    labeling = assign_labels(parse_season(*[os.path.join(inputs, n) for n in INPUTS]))
    run.facts = {"table_rows": len(labeling.labeled), "table_injuries": labeling.n_positive}
    problems = {}
    with open(run.path("weekly.csv"), newline="") as fh:
        weeks = [int(r["week"]) for r in csv.DictReader(fh)]
    expected = list(range(dims["start_week"], dims["weeks"]))
    if weeks != expected:
        problems["cli.simulate"] = f"forecast weeks {weeks}, expected {expected}"
    with open(run.path("simulate.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(inputs, "injuries.csv"), newline="") as fh:
        absent = sum(int(r["days_absent"]) for r in csv.DictReader(fh))
    if (sorted(int(w) for w in report["feature_trace"]) != expected
            or report["cost"]["total_absence_days"] != absent):
        problems["cli.simulate"] = "feature trace weeks or total absence days are wrong"
    return problems


def check_squad(run, inputs, dims):
    import numpy as np
    from injurycast import extract_rules
    built, table, balanced, model = run.squad_state
    problems = {}
    if not (np.array_equal(built.X, table.X) and np.array_equal(built.y, table.y)
            and built.player_ids == table.player_ids and built.dates == table.dates):
        problems["bench.table_csv"] = "table CSV does not read back to the table that was written"
    n_min, n_maj = int(table.y.sum()), int((table.y == 0).sum())
    extra = balanced.X[len(table):]
    if (len(balanced) != len(table) + round(n_maj - n_min)
            or not np.array_equal(balanced.X[:len(table)], table.X)
            or not balanced.y[len(table):].all() or not np.isfinite(extra).all()):
        problems["bench.adasyn"] = "ADASYN output does not extend the table with injury rows"
    pred, scores = model.predict(table.X)
    if len(pred) != len(table) or scores.min() < 0 or scores.max() > 1:
        problems["bench.predict"] = "predictions do not cover the table or leave [0, 1]"
    if rule_lines(run.path("handbook.txt")) != len(extract_rules(model)):
        problems["bench.rules"] = "handbook rule count differs from the model's injury leaves"
    return problems


CHECKS = {"club_season": check_club, "weekly_replay": check_weekly, "squad_4x": check_squad}


def run_workload(args) -> dict:
    use_source_tree()
    import injurycast  # noqa: F401  (imported before the clock starts)
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    run = Run(args.dir, tracer)
    dims = WORKLOADS[args.workload]
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        phases = STEPS[args.workload](run, args.inputs, args.seed, dims)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        if tracer is not None:
            tracer.restore()
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.measure_alloc()

    problems = {}
    if not run.broken:
        try:
            problems = CHECKS[args.workload](run, args.inputs, dims)
        except Exception as exc:  # an artifact that cannot even be read back is a failure
            problems = {o["name"]: f"check raised {type(exc).__name__}: {exc}"
                        for o in run.ops}
    if args.corrupt:
        with open(run.path(args.corrupt), "ab") as fh:
            fh.write(b"\0")
    digests = {a: sha256(run.path(a)) for o in run.ops if o["error"] is None
               for a in o["artifacts"]}
    result = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss, "ops": run.ops, "digests": digests,
              "problems": problems, **phases, **run.facts}
    if tracer is not None:
        from tracing import layer_metrics
        tracer.write(os.path.join(args.dir, "spans.jsonl"))
        result["layers"] = layer_metrics(tracer.spans)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory for this child's files")
    parser.add_argument("--inputs", help="directory holding the season CSVs (run mode)")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", help="artifact to damage after the timed part")
    args = parser.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    result = setup(args) if args.mode == "setup" else run_workload(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
