"""injurycast benchmark: run one workload for a fixed time and report its metrics.

  python3 bench/run.py --workload {club_season,weekly_replay,squad_4x} --seed N
                       --seconds S --trace {0,1}

Run from the root of a checkout. The season for --seed is generated and
written to CSV during set-up (three times, in fresh processes, to time
set-up); every measured iteration is then a fresh child process that reads
only those CSVs. Load is a closed loop of one client: iterations run one
after another. Each iteration's artifacts are checked (goldens for seeds 7
and 11, invariants and run-to-run identity for every seed). The last line of
standard output is the JSON result; the human-readable lines before it give
each metric with its unit, median, tail (see tail()) and sample count.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = worker.ROOT
WORK = os.path.join(ROOT, ".bench_work")
GOLDENS = os.path.join(HERE, "goldens.json")
SETUPS = 3  # set-ups of the reference season per run; setup_s is their median
REFERENCE_SEED = 7  # the season every gated metric is measured on
DEADLINE_S = 170  # the whole run, set-up included, ends well inside 180 s
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# printed but not gated: phases of wall_s, and steps only some workloads have
DETAIL = {"train_s": "s", "compare_s": "s", "featurize_rows_per_s": "rows/s"}


def metric_units() -> tuple:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())  # no more threads than cores
    # numpy asks for 2 MB pages for large arrays; whether the kernel can supply one
    # depends on memory fragmentation, which moved weekly_replay's peak RSS between
    # 73 and 83 MB from run to run. Small pages make peak_rss_mb repeatable.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def spawn(args: list, out: str, deadline: float) -> dict | None:
    """Run one worker child to completion; None when it fails or runs out of time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--out", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        print(f"worker timed out: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(out):
        print(f"worker exited {proc.returncode}: {' '.join(args)}", file=sys.stderr)
        return None
    with open(out) as fh:
        return json.load(fh)


def tail(values: list):
    """(label, value) of the highest percentile with ten samples above it.

    Below eleven samples no percentile has ten above it; the maximum is given.
    """
    n = len(values)
    if n < 11:
        return "max", max(values)
    return f"p{int(100 * (n - 10) / n)}", sorted(values)[n - 11]


def summary_line(name, unit, values) -> str:
    label, val = tail(values)
    return (f"{name:<40} {statistics.median(values):>14.6g} {unit:<6} "
            f"median; {label}={val:.6g}; n={len(values)}")


def load_goldens(workload: str, seed: int) -> dict | None:
    with open(GOLDENS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def score(iteration: dict, reference: dict) -> list:
    """Names of the iteration's operations that failed, and why."""
    failures = []
    for op in iteration["ops"]:
        why = op["error"] or iteration["problems"].get(op["name"])
        for artifact in op["artifacts"]:
            got = iteration["digests"].get(artifact)
            if why is None and artifact in reference and got != reference[artifact]:
                why = f"{artifact} digest {str(got)[:12]} != expected {reference[artifact][:12]}"
        if why:
            failures.append(f"{op['name']}: {why}")
    return failures


class Season:
    """One generated season of a run: its set-ups, its iterations and their checks."""

    def __init__(self, bench, seed: int, tag: str):
        self.bench, self.seed, self.tag = bench, seed, tag
        self.golden = load_goldens(bench.workload, seed)
        self.reference = ({k: v for k, v in self.golden.items() if k != "inputs"}
                          if self.golden else None)
        self.setups, self.iterations = [], []  # iterations: (traced, result)

    @property
    def inputs(self) -> str:
        return os.path.join(self.bench.work, f"{self.tag}-setup-0")

    def setup(self) -> bool:
        k = len(self.setups)
        self.bench.attempted += 1
        d = os.path.join(self.bench.work, f"{self.tag}-setup-{k}")
        res = self.bench.spawn(["setup", "--workload", self.bench.workload,
                                "--seed", str(self.seed), "--dir", d], d + ".json")
        if res is None:
            self.bench.failures.append(f"{self.tag} set-up {k}: worker failed")
            return False
        expected = self.golden["inputs"] if self.golden else (
            self.setups[0]["digests"] if self.setups else None)
        if expected is not None and res["digests"] != expected:
            self.bench.failures.append(f"{self.tag} set-up {k}: season CSV digests differ from "
                                       + ("the goldens" if self.golden else "the first set-up"))
        self.setups.append(res)
        return True

    def iterate(self, traced: bool) -> bool:
        i = len(self.iterations)
        d = os.path.join(self.bench.work, f"{self.tag}-iter-{i}")
        res = self.bench.spawn(["run", "--workload", self.bench.workload,
                                "--seed", str(self.seed), "--inputs", self.inputs, "--dir", d]
                               + (["--trace"] if traced else []), d + ".json")
        if res is None:
            self.bench.attempted += 1
            self.bench.failures.append(f"{self.tag} iteration {i}: worker failed")
            return False
        if self.reference is None:
            self.reference = res["digests"]  # later iterations must reproduce it
        self.bench.attempted += len(res["ops"])
        self.bench.failures += [f"{self.tag} iteration {i}: {f}"
                                for f in score(res, self.reference)]
        self.iterations.append((traced, res))
        return True

    def results(self, traced: bool) -> list:
        return [r for t, r in self.iterations if t == traced]

    def describe(self) -> dict:
        s = self.setups[0]
        last = self.iterations[-1][1] if self.iterations else {}
        return {"seed": self.seed, "players": s["players"], "weeks": s["weeks"],
                "sessions": s["sessions"], "injuries": s["injuries"],
                "table_rows": last.get("table_rows"),
                "table_injuries": last.get("table_injuries"),
                "goldens": ("checked" if self.golden
                            else "none for this seed; invariants and run-to-run identity")}


class Bench:
    """One benchmark run: the reference season is measured, the seed's season rides along."""

    def __init__(self, args):
        self.workload, self.trace = args.workload, bool(args.trace)
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        self.attempted, self.failures = 0, []

    def spawn(self, args, out):
        return spawn(args, out, self.deadline)


def run(args) -> int:
    if not os.path.isfile(os.path.join(worker.SRC, "injurycast", "__init__.py")):
        print(f"error: no injurycast package under {worker.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = Bench(args)
    shutil.rmtree(bench.work, ignore_errors=True)
    os.makedirs(bench.work)
    ref = Season(bench, REFERENCE_SEED, "reference")
    own = Season(bench, args.seed, "seed") if args.seed != REFERENCE_SEED else None

    for _ in range(SETUPS):
        ref.setup()
    if not ref.setups:
        print("\n".join(bench.failures), file=sys.stderr)
        return 1
    # the seed's own season: generated and run once, its time reported but not gated
    if own is not None and not args.trace and own.setup():
        own.iterate(traced=False)

    longest = 0.0
    window = time.monotonic()
    while True:
        plain, traced = len(ref.results(False)), len(ref.results(True))
        enough = plain >= 1 and (traced >= 1 or not bench.trace)
        now = time.monotonic()
        if enough and (now - window + longest > args.seconds
                       or now + 1.5 * longest > bench.deadline):
            break
        t0 = time.monotonic()
        ok = ref.iterate(traced=bench.trace and traced < plain)
        longest = max(longest, time.monotonic() - t0)
        if not ok:
            break

    plain, traced_runs = ref.results(False), ref.results(True)
    if not plain or (bench.trace and not traced_runs):
        print("\n".join(bench.failures), file=sys.stderr)
        return 1

    env = {"nproc": nproc(), "python": platform.python_version(),
           "numpy": ref.setups[0]["numpy"], "git_commit": git_commit(),
           "workload": args.workload, "seed": args.seed,
           "reference_season": ref.describe()}
    samples = {"setup_s": [s["setup_s"] for s in ref.setups]}
    shown = {}
    end_to_end, per_layer = metric_units()
    if bench.trace:
        unit_of = per_layer
        for name in traced_runs[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced_runs]
        samples["generator.generate.s"] = [s["generate_s"] for s in ref.setups]
        samples["trace.overhead_ratio"] = [statistics.median(r["wall_s"] for r in traced_runs)
                                           / statistics.median(r["wall_s"] for r in plain)]
    else:
        unit_of = end_to_end
        for name in ("wall_s", "peak_rss_mb"):
            samples[name] = [r[name] for r in plain]
        for name, unit in DETAIL.items():
            if name in plain[0]:
                shown[name] = (unit, [r[name] for r in plain])
        if own is not None and own.iterations:
            env["seed_season"] = own.describe()
            first = own.iterations[0][1]
            shown["seed_season.setup_s"] = ("s", [own.setups[0]["setup_s"]])
            for name, unit in (("wall_s", "s"), ("train_s", "s"), ("peak_rss_mb", "MB")):
                shown["seed_season." + name] = (unit, [first[name]])
    bad_names = [n for n in list(unit_of) + list(shown) if not METRIC_NAME.fullmatch(n)]
    if bad_names:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]: {bad_names}")
    if set(unit_of) - set(samples):
        raise ValueError(f"BENCHMARK.json metrics not measured: {set(unit_of) - set(samples)}")

    failures, attempted = bench.failures, bench.attempted
    print("environment: " + json.dumps(env, sort_keys=True))
    for name in sorted(unit_of):
        print(summary_line(name, unit_of[name], samples[name]))
    for name, (unit, values) in shown.items():
        print(summary_line(name, unit, values) + "  (not gated)")
    print(f"{'ops_failed':<40} {len(failures) / attempted:>14.6g} share  "
          f"({len(failures)} of {attempted})")
    for f in failures:
        print(f"FAILED {f}")

    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit_of[name]}
               for name in sorted(unit_of)}
    with open(os.path.join(bench.work, "result.json"), "w") as fh:
        json.dump({"environment": env, "metrics": metrics, "failures": failures,
                   "attempted": attempted, "samples": samples,
                   "not_gated": {k: {"unit": unit, "values": values}
                                 for k, (unit, values) in shown.items()},
                   "iterations": [{"season": season.tag, "traced": t,
                                   **{k: v for k, v in r.items() if k not in ("ops", "layers")}}
                                  for season in (ref, own) if season is not None
                                  for t, r in season.iterations]},
                  fh, indent=1, sort_keys=True)
    # keep the JSON records, drop the bulky season CSVs and artifacts
    for path in glob.glob(os.path.join(bench.work, "*", "*")):
        if not path.endswith((".json", ".jsonl")):
            os.remove(path)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(worker.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; an iteration starts only if it should fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
