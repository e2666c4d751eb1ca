import pytest

from injurycast.errors import SyntheticEvaluation
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


@pytest.fixture(scope="module")
def reports(small_table):
    return compare_forecasters(small_table, seed=0, n_forest_trees=10)


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

    def test_rendering(self, reports):
        rows = comparison_rows(reports)
        assert len(rows) == 2 * len(reports)
        text = render_comparison(reports, fmt="text")
        for name in reports:
            assert name in text
        csv_out = render_comparison(reports, fmt="csv")
        assert csv_out.splitlines()[0] == "forecaster,class,precision,recall,f1,auc"
        assert len(csv_out.splitlines()) == 1 + 2 * len(reports)
