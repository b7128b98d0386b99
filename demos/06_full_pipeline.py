"""End-to-end pipeline over several index points, with file artifacts.

Equivalent to:
    hydrocast synth --samples 150 --noise-rel 0.1 --seed 9 --points p01,p02,p03 --out data.csv
    hydrocast run --data data.csv --output out/ --seed 9 --points p01,p02,p03

Run from the repo root:  python3 demos/06_full_pipeline.py
"""

import tempfile
from pathlib import Path

from hydrocast import PipelineConfig, REFERENCE_POINTS, render_report, run_pipeline, write_csv
from hydrocast.evaluation import TEXT_TABLE
from hydrocast.pipeline import synth_seed
from hydrocast.synthetic import generate_synthetic

points = REFERENCE_POINTS[:3]
planted = ["air_l01", "rhum_l01", "uwnd_l04", "air_l11", "rhum_l08"]

with tempfile.TemporaryDirectory() as tmp:
    data_path = Path(tmp) / "data.csv"
    datasets = []
    for idx, point in enumerate(points):
        data, _ = generate_synthetic(150, planted, seed=synth_seed(9, idx), point=point,
                                     noise_rel=0.1)
        datasets.append(data)
    write_csv(datasets, data_path)
    print(f"Wrote {sum(len(d) for d in datasets)} rows for {len(points)} points.")

    out = Path(tmp) / "out"
    cfg = PipelineConfig(
        data_path=str(data_path),
        output_dir=str(out),
        points=points,
        seed=9,
    )
    result = run_pipeline(cfg)

    print("\nSelected features per point:")
    for label, selection in result.selections.items():
        from hydrocast import FEATURE_NAMES
        print(f"  {label}: {[FEATURE_NAMES[c] for c in selection.top_k][:5]} ...")

    print("\nEvaluation report:")
    print(render_report(result.report, TEXT_TABLE))

    print("Artifacts written:")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            print("  ", path.relative_to(out))
