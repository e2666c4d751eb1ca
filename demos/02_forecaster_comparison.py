"""Evaluate the tree forecaster against baselines on one synthetic season.

The protocol: a stratified 30/70 split, ADASYN + RFECV + grid tuning on the
30%, then stratified cross-validation on the 70% where only training folds
are oversampled.

    python3 demos/02_forecaster_comparison.py
"""
from injurycast import (
    GeneratorConfig,
    assign_labels,
    build_training_table,
    compare_forecasters,
    generate,
    run_pipeline,
)
from injurycast.pipeline import render_comparison

log, _ = generate(GeneratorConfig(seed=1))
table, _ = build_training_table(assign_labels(log), log.players)

report = run_pipeline(table, seed=1)
print("selected features:", ", ".join(report.selected_features))
print("tuned hyperparameters:", report.hyperparams)
inj = report.per_class["injury"]
print(f"injury precision {inj['precision']:.2f}  recall {inj['recall']:.2f}  "
      f"F1 {inj['f1']:.2f}  AUC {report.auc:.2f}")
print()

# The same split/fold protocol applied to every forecaster at once.
# B1 guesses with the class distribution, B2 never alarms, B3 always alarms,
# B4 alarms on any prior injury; C_* combine twelve single-feature ACWR rules.
reports = compare_forecasters(table, seed=1, n_forest_trees=30)
print(render_comparison(reports))
