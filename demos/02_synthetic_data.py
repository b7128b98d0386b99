"""Synthetic datasets with a documented planted signal.

Run from the repo root:  python3 demos/02_synthetic_data.py
"""

import tempfile
from pathlib import Path

import numpy as np

from hydrocast import FEATURE_NAMES, generate_synthetic, load_csv, write_csv
from hydrocast.catalog import REFERENCE_POINTS

planted = ["air_l01", "rhum_l01", "uwnd_l04", "air_l11", "rhum_l08"]
data, truth = generate_synthetic(444, planted, noise_sigma=0.4, seed=7)

print("Planted columns (0-based) and their linear coefficients:")
for col, coeff in zip(truth.planted_columns, truth.linear_coefficients):
    print(f"  {FEATURE_NAMES[col]:>9} (col {col:>2}): {coeff:+.2f}")
print(f"Product interaction: {truth.product_coefficient:+.2f} * "
      f"{FEATURE_NAMES[truth.product_pair[0]]} * {FEATURE_NAMES[truth.product_pair[1]]}")
print(f"Threshold term:      {truth.threshold_coefficient:+.2f} * "
      f"[{FEATURE_NAMES[truth.threshold_column]} > {truth.threshold_at}]")
print(f"Offset to keep precipitation nonnegative: {truth.offset:.3f}")
print(f"Signal std {truth.signal_std:.3f}, noise sigma {truth.noise_sigma}")

again, _ = generate_synthetic(444, planted, noise_sigma=0.4, seed=7)
print("\nSame seed twice -> bit-identical:",
      np.array_equal(data.precip, again.precip))

residual = data.precip - truth.offset - truth.signal(data.features)
print(f"precip - offset - signal leaves pure noise: std {residual.std():.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.csv"
    write_csv(data, path)
    # one pass over the file gives every requested point's rows, keyed by label
    loaded = load_csv(path, REFERENCE_POINTS[:1])[REFERENCE_POINTS[0].label]
    print(f"\nCSV round trip: wrote {len(data)} rows, loaded {len(loaded)} rows, "
          f"features equal: {np.array_equal(loaded.features, data.features)}")
    print("Header starts:", path.read_text().splitlines()[0][:60], "...")
