"""Command-line entry point wiring ingestion, features, training, comparison,
season simulation, rule extraction and synthetic-season generation."""
from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal

from .data_model import assign_labels, open_utf8, parse_season, write_season_csvs
from .errors import ConfigInvalid, InjurycastError
from .features import TrainingTable, build_training_table
from .generator import GeneratorConfig, generate
from .pipeline import compare_forecasters, fit_forecaster, render_comparison, run_pipeline
from .rules import extract_rules, render_handbook, rule_stats
from .simulate import feature_trace, savings, walk_forward
from .tree import DecisionTreeModel


def _write(path, text):
    """Write text as UTF-8, the encoding every reader uses, to path or to standard
    output (None or "-"), whatever the locale's encoding is."""
    if path is None or path == "-":
        if hasattr(sys.stdout, "reconfigure"):  # io.StringIO and the like hold str
            sys.stdout.reconfigure(encoding="utf-8")
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _at_least(low, number=int):
    """argparse type: a finite `number` >= low; a Decimal keeps the text's digits."""
    def parse(text):
        if not low <= float(text) < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        return number(text)
    parse.__name__ = number.__name__  # argparse reports "invalid int value: ..."
    return parse


def _add_season_inputs(p):
    p.add_argument("--sessions", required=True, help="training-session CSV")
    p.add_argument("--injuries", required=True, help="injury-record CSV")
    p.add_argument("--players", required=True, help="player-profile CSV")


def _cmd_ingest(args):
    log = parse_season(args.sessions, args.injuries, args.players)
    labeling = assign_labels(log)
    summary = {
        "players": len(log.players),
        "sessions": log.n_sessions,
        "injuries": len(log.injuries),
        "labeled_examples": len(labeling.labeled),
        "injury_examples": labeling.n_positive,
        "orphan_injuries": len(labeling.orphan_injuries),
        "excluded_sessions": labeling.excluded_sessions,
    }
    _write(args.out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_featurize(args):
    log = parse_season(args.sessions, args.injuries, args.players)
    labeling = assign_labels(log)
    table, summary = build_training_table(labeling, log.players)
    table.to_csv(args.out, include_meta=True)
    sys.stderr.write(summary.to_json() + "\n")
    return 0


def _cmd_train(args):
    table = TrainingTable.from_csv(args.table)
    report = run_pipeline(table, args.seed)
    # deployable model: the pipeline's selected features, tuned again and
    # refit on the whole oversampled table
    model = fit_forecaster(table, args.seed, names=report.selected_features)
    _write(args.out, model.to_json() + "\n")
    _write(args.report, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_compare(args):
    table = TrainingTable.from_csv(args.table)
    reports = compare_forecasters(table, args.seed)
    _write(args.out, render_comparison(reports, fmt=args.format))
    return 0


def _cmd_simulate(args):
    log = parse_season(args.sessions, args.injuries, args.players)
    outcomes = walk_forward(log, args.seed, start_week=args.start_week)
    lines = ["week,degenerate,detected,missed,cumulative_f1,selected_features"]
    for o in outcomes:
        lines.append(f"{o.week},{int(o.degenerate)},{o.detected},{o.missed},"
                     f"{o.cumulative_f1:.6f},\"{' '.join(o.selected_features)}\"")
    _write(args.out, "\n".join(lines) + "\n")
    trace = feature_trace(outcomes)
    report = {
        "feature_trace": {str(k): v for k, v in trace["weeks"].items()},
        "stabilization_week": trace["stabilization_week"],
        "cost": savings(outcomes, log.injuries, args.salary).to_dict(),
    }
    _write(args.report, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _read_json(path):
    """The JSON value in the file at path; ConfigInvalid naming the file if the
    text does not parse."""
    with open_utf8(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"{path}: not JSON ({exc})") from None


def _cmd_rules(args):
    model = DecisionTreeModel.from_dict(_read_json(args.model))
    rules = extract_rules(model)
    if args.table:
        rule_stats(rules, TrainingTable.from_csv(args.table))
    _write(args.out, render_handbook(rules, fmt=args.format))
    return 0


def _cmd_generate(args):
    cfg = GeneratorConfig(n_players=args.n_players, weeks=args.weeks, seed=args.seed)
    log, ledger = generate(cfg)
    write_season_csvs(log, args.sessions, args.injuries, args.players)
    if args.ledger:
        _write(args.ledger, ledger.to_json() + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, as every other error
        self.exit(2, f"{self.prog}: error: {message} (see -h)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="injurycast",
        description="Injury forecasting from GPS training-load data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and validate season CSVs")
    _add_season_inputs(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("featurize", help="build the labeled feature table")
    _add_season_inputs(p)
    p.add_argument("--out", required=True, help="output table CSV")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="run the pipeline and fit a model")
    p.add_argument("--table", required=True, help="feature table CSV")
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--report", default="-", help="EvalReport JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("compare", help="forecaster comparison table")
    p.add_argument("--table", required=True)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("simulate", help="walk-forward weekly retraining")
    _add_season_inputs(p)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--start-week", type=_at_least(1), default=6)
    p.add_argument("--salary", type=_at_least(0, Decimal), default="83",
                   help="daily salary for cost report")
    p.add_argument("--out", required=True, help="weekly outcome CSV")
    p.add_argument("--report", default="-", help="trace + cost JSON path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rules", help="extract an injury-rule handbook")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--table", help="optional table CSV for frequency/accuracy")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("generate", help="generate a synthetic season")
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--n-players", type=_at_least(1), default=GeneratorConfig.n_players)
    p.add_argument("--weeks", type=_at_least(1), default=GeneratorConfig.weeks)
    p.add_argument("--sessions", required=True, help="output sessions CSV")
    p.add_argument("--injuries", required=True, help="output injuries CSV")
    p.add_argument("--players", required=True, help="output players CSV")
    p.add_argument("--ledger", help="optional ground-truth ledger JSON")
    p.set_defaults(func=_cmd_generate)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InjurycastError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
