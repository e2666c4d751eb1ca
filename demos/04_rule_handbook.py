"""Turn a fitted tree into an interpretable handbook of injury rules and
check the rules back against the ground truth the generator planted.

    python3 demos/04_rule_handbook.py
"""
from injurycast import (
    GeneratorConfig,
    assign_labels,
    build_training_table,
    extract_rules,
    fit_forecaster,
    generate,
    render_handbook,
    rule_stats,
    run_pipeline,
)
from injurycast.generator import PLANTED_RULES

log, ledger = generate(GeneratorConfig(seed=4))
table, _ = build_training_table(assign_labels(log), log.players)

# Full pipeline for feature selection, then a deployable tree fit on the
# whole oversampled table restricted to the selected features.
report = run_pipeline(table, seed=4)
model = fit_forecaster(table, 4, names=report.selected_features)

rules = rule_stats(extract_rules(model),
                   table.select_features(report.selected_features))
print(render_handbook(rules))

print("ground truth planted by the generator:")
for rule in PLANTED_RULES:
    conds = []
    for feature, lo, hi in rule.conditions:
        if lo is not None:
            conds.append(f"{feature} > {lo}")
        if hi is not None:
            conds.append(f"{feature} <= {hi}")
    print(f"  IF {' AND '.join(conds)} THEN injury "
          f"(p={rule.probability}, {ledger.count_by_rule().get(rule.name, 0)} "
          f"injuries this season)")
