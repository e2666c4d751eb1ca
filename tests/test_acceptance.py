"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (also echoed in the terminal summary)."""
import datetime as dt
import time
from decimal import Decimal

import numpy as np

from injurycast.baselines import baseline_predict
from injurycast.cli import cli_main
from injurycast.data_model import assign_labels
from injurycast.features import build_training_table, pi_ewma
from injurycast.generator import GeneratorConfig, generate, planted_feature_names
from injurycast.learners import logit_loss_grad
from injurycast.metrics import ConfusionMatrix, auc, metrics
from injurycast.pipeline import run_pipeline
from injurycast.resampling import ResamplingConfig, adasyn
from injurycast.rules import extract_rules, rule_stats
from injurycast.simulate import cost, feature_trace, season_start, walk_forward
from injurycast.tree import TreeHyperParams, fit_tree, gini

from conftest import rand_table
from test_metrics import auc_pairwise
from test_tree import exhaustive_best_split

RESULTS = []


def record(num, name, ok, detail=""):
    line = f"criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    RESULTS.append(line)
    print(line)
    return ok


# Reference prior-injury EWMA trajectories for players returning to training
# with 1-4 previous injuries: expected values on days 1-5 after the return,
# plus a lower bound for day 6.
PI_TRAJECTORIES = {
    1: ([0.29, 0.49, 0.64, 0.74, 0.81], 0.86),
    2: ([1.27, 1.48, 1.63, 1.74, 1.81], 1.86),
    3: ([2.27, 2.46, 2.62, 2.72, 2.80], 2.85),
    4: ([3.25, 3.46, 3.53, 3.66, 3.76], 3.83),
}


def test_criterion_1_ewma_fidelity():
    """pi_ewma with span 6 reproduces the reference trajectories within 0.01.

    Each trajectory is a one-parameter family: after the return the count is a
    constant n, so day k satisfies v_k = n - (n - s) * beta^k where s is the
    EWMA state carried into the return and beta = 1 - 2/(span+1) = 5/7. The
    oracle searches the admissible state s in [0, n) for the best fit.
    """
    t0 = time.perf_counter()
    beta = 5.0 / 7.0
    worst = {}
    day6_ok = {}
    for n, (targets, day6_bound) in PI_TRAJECTORIES.items():
        # the closed form is exactly the implementation's recursion on a
        # constant count n from starting state s; verify that identity first
        from_impl = pi_ewma([0] + [n] * 6, span=6)[1:]
        np.testing.assert_allclose(from_impl,
                                   n - n * beta ** np.arange(1, 7), atol=1e-12)
        s_grid = np.linspace(0.0, n - 1e-9, 40001)
        vals = n - (n - s_grid)[:, None] * beta ** np.arange(1, 6)[None, :]
        errs = np.max(np.abs(vals - np.asarray(targets)), axis=1)
        best = int(np.argmin(errs))
        worst[n] = float(errs[best])
        day6 = n - (n - s_grid[best]) * beta ** 6
        day6_ok[n] = bool(day6 > day6_bound)
    elapsed = time.perf_counter() - t0
    ok = all(e <= 0.01 for e in worst.values()) and all(day6_ok.values()) \
        and elapsed < 1.0
    detail = ("max errors by prior-injury count: "
              + ", ".join(f"{n}: {e:.4f}" for n, e in worst.items())
              + f"; day-6 bounds {day6_ok}; {elapsed:.2f}s")
    record(1, "EWMA fidelity", ok, detail)
    assert elapsed < 1.0
    for n, e in worst.items():
        assert e <= 0.01, (f"trajectory for {n} prior injuries cannot be "
                           f"reproduced within 0.01 (best fit errs {e:.4f})")
        assert day6_ok[n]


def test_criterion_2_cost_arithmetic():
    total = cost(139, 83)
    saved = cost(107, 83)
    ratio = float(saved / total)
    ok = (total == Decimal("11583") and saved == Decimal("8881")
          and 0.766 <= ratio <= 0.768)
    record(2, "cost arithmetic", ok,
           f"cost(139,83)={total}, cost(107,83)={saved}, ratio={ratio:.4f}")
    assert saved == Decimal("8881")
    assert total == Decimal("11583"), \
        "139 * 83 = 11537; the published total of 11583 is not reachable by exact arithmetic"
    assert 0.766 <= ratio <= 0.768


def test_criterion_3_metric_identities():
    rng = np.random.default_rng(0)
    exact = True
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 200, size=4))
        m = metrics(ConfusionMatrix(tp, fp, tn, fn))["injury"]
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        exact &= (m["precision"] == prec and m["recall"] == rec and m["f1"] == f1)

    max_auc_err = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(size=n), 2)
        max_auc_err = max(max_auc_err,
                          abs(auc(scores, labels) - auc_pairwise(scores, labels)))
    ok = exact and max_auc_err <= 1e-12
    record(3, "metric identities", ok,
           f"1000 confusion matrices exact: {exact}; "
           f"max AUC deviation from pairwise oracle: {max_auc_err:.2e}")
    assert ok


def test_criterion_4_degenerate_baselines(small_table):
    tables = [small_table] + [rand_table(n=120, p=4, n_pos=k, seed=k)
                              for k in (5, 30, 60)]
    ok = True
    for t in tables:
        cm2 = ConfusionMatrix.from_predictions(t.y, baseline_predict("B2", t))
        m2 = metrics(cm2)["injury"]
        ok &= (m2["precision"], m2["recall"], m2["f1"]) == (0.0, 0.0, 0.0)
        cm3 = ConfusionMatrix.from_predictions(t.y, baseline_predict("B3", t))
        m3 = metrics(cm3)["injury"]
        prevalence = t.y.mean()
        ok &= m3["recall"] == 1.0 and abs(m3["precision"] - prevalence) < 1e-15
    record(4, "degenerate baselines", ok,
           f"B2=(0,0,0) and B3 recall=1, precision=prevalence on {len(tables)} tables")
    assert ok


def test_criterion_5_split_oracle_equivalence():
    rng = np.random.default_rng(1)
    failures = 0
    for trial in range(100):
        n = int(rng.integers(3, 21))
        p = int(rng.integers(1, 5))
        X = np.round(rng.normal(size=(n, p)), 1)  # duplicates force tie handling
        y = rng.integers(0, 2, size=n)
        model = fit_tree(X, y, hp=TreeHyperParams(max_depth=1), seed=trial)
        root_gini = gini((n - y.sum(), y.sum())) if 0 < y.sum() < n else 0.0
        oracle = exhaustive_best_split(X, y)
        if model.feature[0] < 0:
            # declined to split: no strictly improving split may exist
            if np.isfinite(oracle) and root_gini - oracle > 1e-12:
                failures += 1
            continue
        f, thr = model.feature[0], model.threshold[0]
        left = X[:, f] <= thr
        nl, nr = int(left.sum()), int(n - left.sum())
        achieved = (nl * gini((nl - y[left].sum(), y[left].sum()))
                    + nr * gini((nr - y[~left].sum(), y[~left].sum()))) / n
        if abs(achieved - oracle) > 1e-12:
            failures += 1
    ok = failures == 0
    record(5, "split-oracle equivalence", ok,
           f"{100 - failures}/100 random tables match the exhaustive search")
    assert ok


def test_criterion_6_adasyn_properties():
    from test_resampling import convexity_violations
    ratio_ok = convex_ok = determinism_ok = True
    for seed in range(100):
        t = rand_table(n=100 + seed % 40, p=4 + seed % 3,
                       n_pos=8 + seed % 12, seed=seed)
        out = adasyn(t, ResamplingConfig(seed=seed))
        minority = int(out.y.sum())
        majority = len(out) - minority
        ratio_ok &= 0.9 <= minority / majority <= 1.0
        convex_ok &= convexity_violations(t, out) == 0
        again = adasyn(t, ResamplingConfig(seed=seed))
        determinism_ok &= (np.array_equal(out.X, again.X)
                           and np.array_equal(out.y, again.y))
    ok = ratio_ok and convex_ok and determinism_ok
    record(6, "ADASYN properties", ok,
           f"ratio in [0.9,1.0]: {ratio_ok}; convexity 100%: {convex_ok}; "
           f"bit-exact determinism: {determinism_ok}")
    assert ok


def test_criterion_7_planted_mechanism_recovery():
    t0 = time.perf_counter()
    planted = set(planted_feature_names())
    n_trials = 50
    perf_hits = 0
    selection_hits = 0
    for trial in range(n_trials):
        log, _ = generate(GeneratorConfig(seed=trial))
        table, _ = build_training_table(assign_labels(log), log.players)
        report = run_pipeline(table, seed=trial)
        inj = report.per_class["injury"]
        if inj["recall"] >= 0.7 and inj["precision"] >= 0.4:
            perf_hits += 1
        if planted <= set(report.selected_features):
            selection_hits += 1
    elapsed = time.perf_counter() - t0
    ok = perf_hits >= 40 and selection_hits >= 40 and elapsed < 300
    record(7, "planted-mechanism recovery", ok,
           f"recall>=0.7 & precision>=0.4 in {perf_hits}/{n_trials} trials; "
           f"selected features cover the mechanism in {selection_hits}/{n_trials}; "
           f"{elapsed:.0f}s")
    assert perf_hits >= 40
    assert selection_hits >= 40
    assert elapsed < 300


def test_criterion_8_walk_forward_integrity():
    t0 = time.perf_counter()
    log, _ = generate(GeneratorConfig(seed=0))
    outcomes = walk_forward(log, seed=0, start_week=6)
    start = season_start(log)

    audit_ok = True
    for o in outcomes:
        if o.cutoff != start + dt.timedelta(days=7 * o.week - 1):
            audit_ok = False
        if o.train_max_date is not None and o.train_max_date > o.cutoff:
            audit_ok = False
        for _, date, _, _, _ in o.predictions:
            if not (o.cutoff < date <= o.cutoff + dt.timedelta(days=7)):
                audit_ok = False

    final_f1 = outcomes[-1].cumulative_f1
    trace = feature_trace(outcomes)
    stab = trace["stabilization_week"]
    last_week = outcomes[-1].week
    planted = set(planted_feature_names())
    stable_ok = (stab is not None and stab <= last_week
                 and planted <= set(trace["weeks"][last_week]))
    elapsed = time.perf_counter() - t0
    ok = audit_ok and final_f1 >= 0.5 and stable_ok and elapsed < 300
    record(8, "walk-forward integrity", ok,
           f"zero look-ahead: {audit_ok}; final cumulative F1 {final_f1:.3f}; "
           f"feature subset stable from week {stab}; {elapsed:.0f}s")
    assert audit_ok
    assert final_f1 >= 0.5
    assert stable_ok
    assert elapsed < 300


def test_criterion_9_rule_consistency():
    rng = np.random.default_rng(2)
    consistent = True
    freq_ok = True
    for trial in range(100):
        n = int(rng.integers(30, 80))
        p = int(rng.integers(2, 5))
        X = rng.uniform(size=(n, p))
        y = rng.integers(0, 2, size=n)
        model = fit_tree(X, y, seed=trial)  # unlimited depth: pure leaves
        rules = extract_rules(model)
        grid = rng.uniform(-0.2, 1.2, size=(10_000, p))
        pred, _ = model.predict(grid)
        covered = np.zeros(len(grid), dtype=bool)
        for rule in rules:
            covered |= rule.matches_matrix(grid, model.feature_names)
        consistent &= bool(np.array_equal(pred.astype(bool), covered))
        if y.sum():
            from injurycast.features import TrainingTable
            t = TrainingTable(model.feature_names, X, y, [""] * n, [None] * n)
            stats = rule_stats(rules, t)
            freq_ok &= abs(sum(r.frequency for r in stats) - 1.0) < 1e-12
    ok = consistent and freq_ok
    record(9, "rule consistency", ok,
           f"predict=1 iff a rule fires on 100 trees x 10^4 points: {consistent}; "
           f"injury-rule frequencies sum to 1: {freq_ok}")
    assert ok


def test_criterion_10_gradient_check():
    rng = np.random.default_rng(3)
    h = 1e-6
    max_rel = 0.0
    for ds in range(3):
        X = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, size=60)
        for _ in range(10):
            w = rng.normal(size=5)
            b = float(rng.normal())
            _, gw, gb = logit_loss_grad(w, b, X, y, l2=0.05)
            g = np.concatenate([gw, [gb]])
            fd = np.empty_like(g)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                lp, _, _ = logit_loss_grad(w + e, b, X, y, l2=0.05)
                lm, _, _ = logit_loss_grad(w - e, b, X, y, l2=0.05)
                fd[j] = (lp - lm) / (2 * h)
            lp, _, _ = logit_loss_grad(w, b + h, X, y, l2=0.05)
            lm, _, _ = logit_loss_grad(w, b - h, X, y, l2=0.05)
            fd[5] = (lp - lm) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            max_rel = max(max_rel, float(rel))
    ok = max_rel < 1e-4
    record(10, "logit gradient check", ok,
           f"max relative error vs central differences: {max_rel:.2e}")
    assert ok


def test_criterion_11_cli_reproducibility(tmp_path):
    def chain(root):
        root.mkdir()
        s, i, p = (str(root / f) for f in ("sessions.csv", "injuries.csv",
                                           "players.csv"))
        artifacts = {"sessions": s, "injuries": i, "players": p}
        assert cli_main(["generate", "--seed", "7", "--n-players", "12", "--weeks", "12",
                         "--sessions", s, "--injuries", i, "--players", p,
                         "--ledger", str(root / "ledger.json")]) == 0
        table = str(root / "table.csv")
        assert cli_main(["featurize", "--sessions", s, "--injuries", i,
                         "--players", p, "--out", table]) == 0
        assert cli_main(["train", "--table", table, "--seed", "7",
                         "--out", str(root / "model.json"),
                         "--report", str(root / "report.json")]) == 0
        assert cli_main(["simulate", "--sessions", s, "--injuries", i,
                         "--players", p, "--seed", "7",
                         "--out", str(root / "weekly.csv"),
                         "--report", str(root / "sim.json")]) == 0
        artifacts.update({k: str(root / f) for k, f in
                          (("ledger", "ledger.json"), ("table", "table.csv"),
                           ("model", "model.json"), ("report", "report.json"),
                           ("weekly", "weekly.csv"), ("sim", "sim.json"))})
        return artifacts

    run1 = chain(tmp_path / "run1")
    run2 = chain(tmp_path / "run2")
    mismatched = [k for k in run1
                  if open(run1[k], "rb").read() != open(run2[k], "rb").read()]
    ok = not mismatched
    record(11, "CLI reproducibility", ok,
           "all artifacts byte-identical across two runs" if ok
           else f"differing artifacts: {mismatched}")
    assert ok
