"""Tour of the fixed 85-predictor catalog and the chronological split.

Run from the repo root:  python3 demos/01_feature_catalog.py
"""

from hydrocast import FEATURE_NAMES, REFERENCE_POINTS, SplitSpec, split
from hydrocast.catalog import column_of
from hydrocast.synthetic import generate_synthetic

print("The catalog holds", len(FEATURE_NAMES), "predictors: seven reanalysis variables")
print("measured on up to seventeen pressure levels, named `<var>_lNN`.")

print("\nBlock layout (catalog index ranges per variable):")
for variable in ("air", "hgt", "rhum", "shum", "slp", "uwnd", "vwnd"):
    ids = [i + 1 for i, name in enumerate(FEATURE_NAMES) if name.rsplit("_l", 1)[0] == variable]
    print(f"  {variable:>5}: {ids[0]:>2} .. {ids[-1]:>2}  ({len(ids)} levels)")

print("\nA name's catalog index is its position in FEATURE_NAMES; a few lookups:")
for idx in (1, 17, 35, 51, 85):
    print(f"  catalog index {idx:>2} -> {FEATURE_NAMES[idx - 1]}")
print("  column_of('vwnd_l17') + 1 =", column_of("vwnd_l17") + 1)

print("\nThe thirteen bundled index points (lon, lat, elev):")
for p in REFERENCE_POINTS:
    print(f"  {p.id}: ({p.lon:>5}, {p.lat:>5}, {p.elev:>7})")

data, _ = generate_synthetic(444, ["air_l01"], noise_sigma=0.5, seed=1)
train, test = split(data, SplitSpec(train_fraction=0.9))
print(f"\nA 37-year monthly record has {len(data)} samples "
      f"({data.timestamps[0]} .. {data.timestamps[-1]}).")
print(f"The default 90/10 chronological split keeps the first {len(train)} months")
print(f"for training and holds out the last {len(test)} "
      f"({test.timestamps[0]} .. {test.timestamps[-1]}).")
