import numpy as np
import pytest

from injurycast import learners, pipeline
from injurycast.data_model import assign_labels
from injurycast.errors import NonConvergence, SyntheticEvaluation
from injurycast.features import build_training_table
from injurycast.generator import GeneratorConfig, generate
from injurycast.metrics import stratified_split
from injurycast.pipeline import (
    compare_forecasters,
    comparison_rows,
    render_comparison,
    run_pipeline,
)

from conftest import planted_table


@pytest.fixture(scope="module")
def report_and_table():
    table = planted_table(n=400, seed=0, noise_features=4)
    return run_pipeline(table, seed=0), table


class TestRunPipeline:
    def test_deterministic(self, report_and_table):
        report, table = report_and_table
        again = run_pipeline(table, seed=0)
        assert again.to_dict() == report.to_dict()

    def test_split_sizes_match_protocol(self, report_and_table):
        report, table = report_and_table
        a, b = stratified_split(table.y, 0.3, seed=0)
        assert report.split_sizes == {"train": len(a), "test": len(b)}

    def test_finds_planted_signal(self, report_and_table):
        report, _ = report_and_table
        assert set(report.selected_features) >= {"sig_a", "sig_b"}
        assert report.per_class["injury"]["f1"] > 0.8
        assert report.auc > 0.9

    def test_report_structure(self, report_and_table):
        report, table = report_and_table
        assert set(report.hyperparams) == {"max_depth", "min_samples_leaf",
                                           "min_samples_split"}
        assert set(report.selected_features) <= set(table.feature_names)
        assert report.confusion.total == report.split_sizes["test"]

    def test_synthetic_rows_never_reach_evaluation(self):
        table = planted_table(n=200, seed=4, noise_features=1)
        table.synthetic[::2] = True
        with pytest.raises(SyntheticEvaluation):
            run_pipeline(table, seed=0)

    def test_seed_changes_outcome_inputs(self):
        table = planted_table(n=300, seed=2, noise_features=2)
        r1 = run_pipeline(table, seed=1)
        r2 = run_pipeline(table, seed=2)
        assert r1.seed != r2.seed  # reports carry their seed for provenance

    def test_too_few_injuries_to_oversample_pass_through(self, monkeypatch):
        """The default season cut to two injury rows: the tuning part holds one and
        each evaluation training fold one or none, below ADASYN's two, so each part
        is used as it is and the protocol still completes."""
        log, _ = generate(GeneratorConfig())
        table, _ = build_training_table(assign_labels(log), log.players)
        keep = np.flatnonzero(table.y == 0).tolist() + np.flatnonzero(table.y == 1)[:2].tolist()
        oversampled, passed = pipeline._oversampled, []

        def spy(part, seed):
            out = oversampled(part, seed)
            passed.append((int(part.y.sum()), out is part))
            return out

        monkeypatch.setattr(pipeline, "_oversampled", spy)
        report = run_pipeline(table.take(np.sort(keep)), seed=0)
        assert sorted(passed) == [(0, True), (1, True), (1, True)]
        assert report.confusion.tp + report.confusion.fn == 1


@pytest.fixture(scope="module")
def reports(small_table):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "FOREST_TREES", 10)
        return compare_forecasters(small_table, seed=0)


class TestCompare:
    def test_all_forecasters_present(self, reports):
        assert set(reports) == {"DT", "RF", "LR", "B1", "B2", "B3", "B4",
                                "C_vote", "C_all", "C_one"}

    def test_degenerate_baseline_structure(self, reports, small_table):
        b2 = reports["B2"].per_class["injury"]
        assert (b2["precision"], b2["recall"], b2["f1"]) == (0.0, 0.0, 0.0)
        b3 = reports["B3"]
        assert b3.per_class["injury"]["recall"] == 1.0
        cm = b3.confusion
        prevalence = (cm.tp + cm.fn) / cm.total
        assert b3.per_class["injury"]["precision"] == pytest.approx(prevalence)

    def test_tree_beats_degenerate_baselines(self, reports):
        assert (reports["DT"].per_class["injury"]["f1"]
                > reports["B3"].per_class["injury"]["f1"])

    def test_logit_without_convergence_predicts_no_injury(self, reports, small_table,
                                                          monkeypatch):
        """LR falls back to label 0 and score 0.5 on every row when its fit does not
        converge; every other forecaster's report is the unpatched run's."""
        def fit_logit(*args, **kwargs):
            raise NonConvergence(1, 1.0)

        monkeypatch.setattr(pipeline, "fit_logit", fit_logit)
        monkeypatch.setattr(learners, "FOREST_TREES", 10)
        patched = compare_forecasters(small_table, seed=0)
        lr = patched.pop("LR")
        assert lr.per_class["injury"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert lr.auc == 0.5
        assert ({name: r.to_dict() for name, r in patched.items()}
                == {name: r.to_dict() for name, r in reports.items() if name != "LR"})

    def test_rendering(self, reports):
        rows = comparison_rows(reports)
        assert len(rows) == 2 * len(reports)
        text = render_comparison(reports, fmt="text")
        for name in reports:
            assert name in text
        csv_out = render_comparison(reports, fmt="csv")
        assert csv_out.splitlines()[0] == "forecaster,class,precision,recall,f1,auc"
        assert len(csv_out.splitlines()) == 1 + 2 * len(reports)
