"""Walk-forward retraining: at the end of each week, retrain on everything
known so far and forecast the next week, exactly as a club would use it.

    python3 demos/03_walk_forward_season.py
"""
from injurycast import (
    GeneratorConfig,
    feature_trace,
    generate,
    savings,
    walk_forward,
)

log, _ = generate(GeneratorConfig(n_players=18, weeks=18, seed=2))
outcomes = walk_forward(log, seed=2, start_week=6)

print("week  degenerate  detected  missed  cumF1  features")
for o in outcomes:
    feats = " ".join(o.selected_features) if o.selected_features else "-"
    print(f"{o.week:>4}  {str(o.degenerate):<10}  {o.detected:>8}  "
          f"{o.missed:>6}  {o.cumulative_f1:5.2f}  {feats}")

trace = feature_trace(outcomes)
print(f"\nfeature subset stable from week: {trace['stabilization_week']}")

# What stopping every flagged player would have been worth, at a minimal
# daily salary. An optimistic ceiling: it assumes full prevention.
report = savings(outcomes, log.injuries, daily_salary=83)
print(f"absence days: {report.total_absence_days} "
      f"(cost {report.total_cost} at 83/day)")
print(f"preventable days: {report.preventable_days} "
      f"(savings {report.savings}, {report.percent_decrease:.0%} decrease)")
