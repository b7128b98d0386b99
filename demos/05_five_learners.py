"""Training the five regression models on the selected features.

Run from the repo root:  python3 demos/05_five_learners.py
"""

import json

from hydrocast import (
    EvalResult,
    EvaluationReport,
    SelectionConfig,
    SplitSpec,
    error_std,
    fit_all,
    mae,
    model_from_dict,
    model_to_dict,
    pearson,
    render_report,
    run_selection,
    split,
)
from hydrocast.evaluation import TEXT_TABLE
from hydrocast.learners import default_specs
from hydrocast.synthetic import generate_synthetic

planted = ["air_l01", "rhum_l05", "uwnd_l04", "vwnd_l11", "shum_l02"]
data, _ = generate_synthetic(444, planted, seed=2, noise_rel=0.15)

train, test = split(data, SplitSpec(train_fraction=0.9))
selection = run_selection(train.features, train.precip, SelectionConfig())
cols = list(selection.top_k)
print(f"Selected {len(cols)} features; training on {len(train)} months, "
      f"testing on the last {len(test)}.")

models = fit_all(default_specs(seed=42), train.features[:, cols], train.precip, cols)

rows = []
for kind, model in models.items():
    predicted = model.predict_batch(test.features[:, cols])
    rows.append(EvalResult(
        data.point, kind,
        pearson(test.precip, predicted),
        mae(test.precip, predicted),
        error_std(test.precip, predicted),
        len(test),
    ))

report = EvaluationReport(rows)
print()
print(render_report(report, TEXT_TABLE))

payload = json.dumps(model_to_dict(models["rf"]))
clone = model_from_dict(json.loads(payload))
x = test.features[:1, cols]
print(f"A fitted model serializes to JSON ({len(payload)} bytes for the forest)")
print(f"and predicts identically after reload: "
      f"{models['rf'].predict_batch(x)[0]:.4f} == {clone.predict_batch(x)[0]:.4f}")
