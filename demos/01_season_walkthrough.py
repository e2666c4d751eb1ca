"""Generate a synthetic season and walk through ingestion and feature building.

Run from the repository root:

    python3 demos/01_season_walkthrough.py
"""
from injurycast import GeneratorConfig, assign_labels, build_training_table, generate

cfg = GeneratorConfig(n_players=16, weeks=16, seed=7)
log, ledger = generate(cfg)

print(f"players: {len(log.players)}, sessions: {log.n_sessions}, "
      f"injuries: {len(log.injuries)}")
print("injury causes:", ledger.count_by_rule())

# Label every session: 1 when an injury onset follows within 3 days
# (data_model.HORIZON_DAYS, the horizon every command labels with).
labeling = assign_labels(log)
print(f"labeled examples: {len(labeling.labeled)} "
      f"({labeling.n_positive} injuries, {labeling.excluded_sessions} sessions "
      f"excluded for falling inside absence windows)")

table, summary = build_training_table(labeling, log.players)
prevalence = table.y.mean()
print(f"feature table: {len(table)} x {len(table.feature_names)}, "
      f"prevalence {prevalence:.1%}")

# A few columns worth eyeballing: raw load, its smoothed trend and monotony.
for name in ("d_tot", "d_tot_ewma", "d_tot_mswr", "pi_ewma"):
    col = table.column(name)
    print(f"  {name:<12} mean {col.mean():9.2f}   sd {col.std():9.2f}   "
          f"max {col.max():9.2f}")

# Injured sessions should sit in a recognizably different load regime.
inj = table.X[table.y == 1]
idx = table.feature_names.index("d_hsr_ewma")
print(f"d_hsr_ewma on injury rows: min {inj[:, idx].min():.1f} "
      f"(vs overall mean {table.column('d_hsr_ewma').mean():.1f})")
