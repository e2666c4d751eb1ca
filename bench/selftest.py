"""Self-tests of the benchmark itself (not part of the package's test suite).

  python3 bench/selftest.py

Checks that tracing changes no artifact, that a corrupted artifact is counted
as a failed operation, that every metric name is well formed and matches
BENCHMARK.json, that self time is computed from child spans, and that the
benchmark refuses to run without the package sources. Takes about two
minutes, most of it the traced and untraced runs of every workload.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import run
import tracing
import worker

WORK = os.path.join(run.WORK, "selftest")


def spawn(*args, out):
    res = run.spawn(list(args), out, time.monotonic() + run.DEADLINE_S)
    assert res is not None, f"worker failed: {args}"
    return res


def setup(workload):
    d = os.path.join(WORK, f"{workload}-in")
    spawn("setup", "--workload", workload, "--seed", str(run.REFERENCE_SEED), "--dir", d,
          out=d + ".json")
    return d


def execute(workload, inputs, tag, *extra):
    d = os.path.join(WORK, f"{workload}-{tag}")
    return spawn("run", "--workload", workload, "--seed", str(run.REFERENCE_SEED),
                 "--inputs", inputs, "--dir", d, *extra, out=d + ".json")


def test_metric_names():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layers + [w["name"] for w in spec["workloads"]]:
        assert run.METRIC_NAME.fullmatch(name), f"bad metric name {name!r}"
    emitted = set(tracing.layer_metrics([])) | {"generator.generate.s", "trace.overhead_ratio"}
    assert set(layers) == emitted, f"per_layer mismatch: {set(layers) ^ emitted}"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(worker.WORKLOADS)


def test_self_time():
    spans = [{"id": 0, "parent": None, "name": "learners.rfecv", "start": 0.0, "end": 10.0,
              "attrs": {"sizes": 3}},
             {"id": 1, "parent": 0, "name": "tree.fit_tree", "start": 1.0, "end": 3.0,
              "attrs": {"nodes": 5, "rows": 10}},
             {"id": 2, "parent": 0, "name": "tree.fit_tree", "start": 4.0, "end": 8.0,
              "attrs": {"nodes": 7, "rows": 10}},
             {"id": 3, "parent": None, "name": "tree.fit_tree", "start": 11.0, "end": 12.0,
              "attrs": {"nodes": 1, "rows": 10}}]
    m = tracing.layer_metrics(spans)
    assert m["learners.rfecv.self_s"] == 4.0
    assert m["tree.fit_tree.self_s"] == 7.0 and m["tree.fit_tree.calls"] == 3
    assert m["tree.fit_tree.nodes"] == 13 and m["learners.fits_per_model"] == 3.0


def test_traced_artifacts_equal_untraced():
    for workload in sorted(worker.WORKLOADS):
        inputs = setup(workload)
        plain = execute(workload, inputs, "plain")
        traced = execute(workload, inputs, "traced", "--trace")
        golden = run.load_goldens(workload, run.REFERENCE_SEED)
        assert traced["digests"] == plain["digests"], f"{workload}: tracing changed an artifact"
        assert not run.score(plain, golden), f"{workload}: {run.score(plain, golden)}"
        assert traced["layers"]["tree.fit_tree.calls"] > 0 or workload == "squad_4x"


def test_corrupted_artifact_counted():
    workload = "squad_4x"
    inputs = os.path.join(WORK, f"{workload}-in")
    clean = execute(workload, inputs, "clean")
    bad = execute(workload, inputs, "corrupt", "--corrupt", "table.csv")
    for reference in (run.load_goldens(workload, run.REFERENCE_SEED), clean["digests"]):
        failures = run.score(bad, reference)
        assert len(failures) == 1 and failures[0].startswith("bench.table_csv"), failures


def test_refuses_without_sources():
    bare = os.path.join(WORK, "bare")
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "squad_4x",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


TESTS = [test_metric_names, test_self_time, test_traced_artifacts_equal_untraced,
         test_corrupted_artifact_counted, test_refuses_without_sources]


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    failed = 0
    for test in TESTS:
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
