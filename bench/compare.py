"""Run the benchmark over several seeds and summarise it, for one checkout or two.

  python3 bench/compare.py --workload W [W ...] --seeds 1 2 3 ... [--trace 0]
                           --checkout DIR [--checkout DIR2] [--out results.json]

Every run measures for the run_seconds of this checkout's BENCHMARK.json, on
both sides.

With one checkout it prints, per metric, the median, the quartiles and the
quartile spread as a share of the median (the steadiness the benchmark's
bounds are set against). With two (parent first, change second) it runs them
in alternating pairs, the side that goes first alternating too, and prints
each side's median and quartiles, the change's median relative to the
parent's, and in how many pairs the change was better (lower, or higher for
a rate per second). bench/README.md explains how to
read the result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def bench_once(checkout, workload, seed, trace) -> dict:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(run_seconds()), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    with open(os.path.join(checkout, ".bench_work", f"{workload}-seed{seed}-trace{trace}",
                           "result.json")) as fh:
        result["not_gated"] = {name: {"value": statistics.median(m["values"]),
                                      "unit": m["unit"]}
                               for name, m in json.load(fh)["not_gated"].items()}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(workload, runs, checkouts) -> None:
    failed = {c: sum(r["failed"] for r in rs) for c, rs in runs.items()}
    print(f"workload {workload}, failed ops {failed}")
    for r in (r for rs in runs.values() for r in rs):
        r["metrics"].update({k + " (not gated)": v for k, v in r.pop("not_gated").items()})
    units = {n: m["unit"] for rs in runs.values() for r in rs for n, m in r["metrics"].items()}
    names = sorted(units, key=lambda n: ("not gated" in n, n))
    for name in names:
        cols = []
        for checkout in checkouts:
            values = [r["metrics"][name]["value"] for r in runs[checkout]
                      if name in r["metrics"]]  # seed 7 has no separate seed season
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            cols.append((med, f"median {med:.6g} {units[name]} [q1 {q1:.6g}, q3 {q3:.6g}] "
                              f"spread {spread:.3f}"))
        line = f"{name:<40} " + " | ".join(c[1] for c in cols)
        if len(cols) == 2:
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(runs[checkouts[0]], runs[checkouts[1]])
                     if name in p["metrics"]]
            higher_is_better = units[name].endswith("/s")
            wins = sum((c > p) if higher_is_better else (c < p) for p, c in pairs)
            rel = cols[1][0] / cols[0][0] - 1 if cols[0][0] else float("nan")
            line += f" | change/parent {rel:+.3f}; better in {wins}/{len(pairs)} pairs"
        print(line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", action="append", required=True,
                   help="checkout root; give it twice as parent, then change")
    p.add_argument("--out", help="write every run's result here as JSON")
    args = p.parse_args(argv)
    if len(args.checkout) > 2:
        p.error("at most two checkouts")

    results = {}
    for workload in args.workload:
        runs = results[workload] = {c: [] for c in args.checkout}
        for i, seed in enumerate(args.seeds):
            order = args.checkout if i % 2 == 0 else args.checkout[::-1]
            for checkout in order:
                res = bench_once(checkout, workload, seed, args.trace)
                runs[checkout].append(res)
                print(f"{workload} seed {seed} {checkout}: correct={res['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "seconds": run_seconds(), "trace": args.trace,
                       "results": results}, fh, indent=1)
    print(f"seeds {args.seeds}, --seconds {run_seconds()}, --trace {args.trace}")
    for workload, runs in results.items():
        summarise(workload, runs, args.checkout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
