"""Gradient-boosted feature ranking recovering a planted signal.

Fits staged boosting (100 trees per stage, each tree on its own random
feature subset), counts how many trees split on every feature, and keeps
the top ten. Takes a few seconds.

Run from the repo root:  python3 demos/04_boosted_selection.py
"""

from hydrocast import FEATURE_NAMES, SelectionConfig, run_selection
from hydrocast.synthetic import generate_synthetic

planted = ["air_l03", "hgt_l10", "shum_l06", "uwnd_l09", "vwnd_l02"]
data, truth = generate_synthetic(444, planted, seed=5, noise_rel=0.1)
print(f"444 monthly samples, 85 predictors, 5 planted, noise sigma {truth.noise_sigma:.3f}")

result = run_selection(data.features, data.precip, SelectionConfig())

print(f"\nPruning kept {len(result.kept_after_prune)} of 85 columns "
      f"({len(result.dropped_pairs)} dropped).")
print("Training MSE per boosting stage:")
print(" ", " ".join(f"{m:.3f}" for m in result.training_mse_per_stage))

print("\nTop of the occurrence ranking (trees using the feature at least once):")
ranked = sorted(result.occurrence.items(), key=lambda fc: (-fc[1], fc[0]))
for col, count in ranked[:12]:
    mark = " <- planted" if col in truth.planted_columns else ""
    print(f"  {FEATURE_NAMES[col]:>9}: {count:>4}{mark}")

hits = set(truth.planted_columns) & set(result.top_k)
print(f"\nTop ten selected: {[FEATURE_NAMES[c] for c in result.top_k]}")
print(f"Planted features recovered: {len(hits)} of {len(truth.planted_columns)}")
