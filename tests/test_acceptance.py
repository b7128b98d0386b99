"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions clear, so running
``pytest tests/test_acceptance.py -v -s`` gives a one-line verdict per
criterion. Budgets are generous; the full module runs in a few minutes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hydrocast.cart import TreeConfig, fit_tree, leaf_values
from hydrocast.catalog import FEATURE_NAMES, REFERENCE_POINTS
from hydrocast.cli import main
from hydrocast.evaluation import error_std, mae, pearson
from hydrocast.learners import LearnerSpec, fit
from hydrocast.learners.base import RFConfig, SVRConfig
from hydrocast.learners.mlp import init_params, loss_and_grads
from hydrocast.selection import (
    BoostConfig,
    ColinearityConfig,
    SelectionConfig,
    fit_boosted,
    prune_colinear,
    rank_features,
    run_selection,
)
from hydrocast.synthetic import generate_synthetic

from oracles import (
    best_depth1_splits,
    error_std_direct,
    features_used,
    mae_direct,
    node_list,
    pearson_direct,
    trees_of,
)

PLANTED = ("air_l01", "rhum_l01", "uwnd_l04", "air_l11", "rhum_l08")


def report_pass(n, text):
    print(f"\nACCEPTANCE {n} PASS - {text}")


def test_criterion_1_metric_identities():
    a = np.array([3.0, -1.5, 7.25, 0.0, 2.5])
    assert pearson(a, a.copy()) == pytest.approx(1.0, abs=1e-9)
    assert pearson(a, -a + 11.0) == pytest.approx(-1.0, abs=1e-9)
    assert mae(a, a.copy()) == pytest.approx(0.0, abs=1e-9)
    assert error_std(a, a.copy()) == pytest.approx(0.0, abs=1e-9)
    report_pass(1, "metric identities at 1e-9")


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        a = rng.standard_normal(n)
        p = rng.standard_normal(n) + rng.uniform(-1, 1) * a
        al, pl = a.tolist(), p.tolist()
        assert abs(pearson(a, p) - pearson_direct(al, pl)) <= 1e-9
        assert abs(mae(a, p) - mae_direct(al, pl)) <= 1e-9
        assert abs(error_std(a, p) - error_std_direct(al, pl)) <= 1e-9
    report_pass(2, "pearson/mae/error_std match a direct reimplementation on 1000 pairs")


def test_criterion_3_cart_matches_brute_force():
    rng = np.random.default_rng(303)
    split_cases = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 6, size=(n, d)).astype(float)
        y = rng.integers(-5, 6, size=n).astype(float)
        best_sse, optima = best_depth1_splits(X, y)
        tree = fit_tree(X, y, TreeConfig(max_depth=1))
        root = node_list(tree)[0]
        if not optima or y.max() == y.min():
            assert "value" in root
            continue
        split_cases += 1
        assert "feature" in root
        feature, threshold = root["feature"], root["threshold"]
        left = X[:, feature] <= threshold
        yl, yr = y[left], y[~left]
        achieved = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
        assert achieved <= best_sse + 1e-9 * max(1.0, abs(best_sse))  # same SSE
        assert any(  # threshold inside an optimal midpoint interval, same feature
            f == feature and lo < threshold <= hi for _, f, lo, hi, _ in optima
        )
    assert split_cases >= 100
    report_pass(3, f"depth-1 fits equal exhaustive split search on {split_cases} split cases")


def test_criterion_4_boosting_monotone_and_exact_on_representable_targets():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 5))
        y = X[:, 0] * 2 - np.abs(X[:, 2]) + rng.standard_normal(60) * 0.3
        model = fit_boosted(X, y, BoostConfig(trees_per_stage=20, max_stages=5), seed=seed)
        mse = model.training_mse_per_stage
        assert all(b <= a for a, b in zip(mse, mse[1:]))

    # noiseless step, depth-1 weak trees
    x = np.linspace(0, 1, 50).reshape(-1, 1)
    y = np.where(x[:, 0] < 0.4, 1.0, 6.0)
    model = fit_boosted(
        x, y, BoostConfig(trees_per_stage=10,
                          tree_depth=1, min_samples_leaf=1))
    assert model.training_mse_per_stage[-1] < 1e-6

    # noiseless two-indicator target, depth-3 weak trees seeing all features
    rng = np.random.default_rng(99)
    X = rng.standard_normal((80, 4))
    y = 3.0 * (X[:, 0] > 0) + 2.0 * (X[:, 1] > 0.5)
    model = fit_boosted(
        X, y, BoostConfig(trees_per_stage=10, feature_subset_size=4,
                          tree_depth=3, min_samples_leaf=1))
    assert model.training_mse_per_stage[-1] < 1e-6
    report_pass(4, "training MSE non-increasing on 50 seeds; exact fits reach < 1e-6")


def test_criterion_5_colinearity_pruning_properties():
    rng = np.random.default_rng(505)
    cfg = ColinearityConfig(gamma=0.9)
    for case in range(200):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 12))
        X = rng.standard_normal((n, d))
        source = int(rng.integers(0, d - 1))
        dup = int(rng.integers(source + 1, d))
        scale = float(rng.uniform(0.1, 5.0)) * (1 if case % 2 else -1)
        X[:, dup] = scale * X[:, source]  # exact (scaled) duplicate

        kept, pairs = prune_colinear(X, cfg)
        assert dup not in kept  # duplicates always dropped
        assert any(j == dup for _, j, _ in pairs)

        kept2, pairs2 = prune_colinear(X[:, kept], cfg)  # idempotent
        assert kept2 == tuple(range(len(kept)))
        assert pairs2 == ()

        scales = rng.uniform(0.1, 10.0, d)  # scale invariant
        kept3, _ = prune_colinear(X * scales, cfg)
        assert kept3 == kept
    report_pass(5, "duplicate columns always pruned; idempotent and scale-invariant (200 matrices)")


def test_criterion_6_planted_feature_recovery():
    passes = 0
    for seed in range(20):
        data, truth = generate_synthetic(444, PLANTED, seed=seed, noise_rel=0.1)
        cfg = SelectionConfig(boost=BoostConfig())
        result = run_selection(data.features, data.precip, cfg, seed=seed)
        hits = len(set(truth.planted_columns) & set(result.top_k))
        if hits >= 4:
            passes += 1
    assert passes >= 18  # >= 90% of 20 seeds
    report_pass(6, f"top-10 held >= 4 of 5 planted features in {passes}/20 seeds")


def test_criterion_7_learner_sanity():
    rng = np.random.default_rng(707)

    # LR recovers exact coefficients on noiseless linear data
    X = rng.standard_normal((50, 3))
    w = np.array([2.0, -1.0, 0.5])
    y = X @ w + 1.0
    lr = fit(LearnerSpec("lr"), X, y)
    assert mae(y, lr.predict_batch(X)) < 1e-8
    np.testing.assert_allclose(lr.weights, w, atol=1e-8)

    # KNN with K=1 is exact on training points
    from hydrocast.learners.base import KNNConfig

    Xk = rng.standard_normal((30, 2))
    yk = rng.standard_normal(30)
    knn = fit(LearnerSpec("knn", KNNConfig(k=1)), Xk, yk)
    assert all(knn.predict_batch(Xk[i][None])[0] == yk[i] for i in range(30))

    # RF with one tree, no bootstrap, all features equals a single CART tree
    Xr = rng.standard_normal((60, 4))
    yr = Xr[:, 1] + rng.standard_normal(60) * 0.2
    forest = fit(
        LearnerSpec("rf", RFConfig(n_trees=1, bootstrap=False, feature_mode="all",
                                   min_samples_leaf=5), seed=1),
        Xr, yr)
    single = fit_tree(Xr, yr, TreeConfig(min_samples_leaf=5))
    Xq = rng.standard_normal((40, 4))
    np.testing.assert_array_equal(forest.predict_batch(Xq), leaf_values(single, Xq)[0])

    # MLP analytic gradients match central finite differences
    worst = 0.0
    for _ in range(2):
        params = init_params([3, 5, 1], rng)
        Z = rng.standard_normal((8, 3))
        t = rng.standard_normal(8)
        _, grads = loss_and_grads(params, Z, t)
        h = 1e-5
        for layer, pair in enumerate(params):
            for slot, arr in enumerate(pair):
                flat = arr.ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up, _ = loss_and_grads(params, Z, t)
                    flat[k] = orig - h
                    down, _ = loss_and_grads(params, Z, t)
                    flat[k] = orig
                    numeric = (up - down) / (2 * h)
                    analytic = grads[layer][slot].ravel()[k]
                    worst = max(worst, abs(numeric - analytic) /
                                max(abs(numeric) + abs(analytic), 1e-8))
    assert worst < 1e-4

    # SVR respects the epsilon tube on noiseless linear data with large C
    Xs = rng.standard_normal((50, 3))
    ys = Xs @ np.array([1.2, -0.8, 2.0]) + 0.5
    svr_cfg = SVRConfig(c=1000.0, epsilon=0.1, epochs=2000, step=0.2)
    svr = fit(LearnerSpec("svr", svr_cfg, seed=3), Xs, ys)
    assert np.abs(ys - svr.predict_batch(Xs)).max() <= svr_cfg.epsilon + 1e-3

    report_pass(7, "LR exact, KNN(1) exact, RF(1)==CART, MLP gradients, SVR tube")


@pytest.fixture(scope="module")
def thirteen_point_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    data = root / "data.csv"
    code = main([
        "synth", "--samples", "120", "--noise-rel", "0.1",
        "--seed", "11", "--out", str(data),
    ])
    assert code == 0
    out = root / "run_a"
    assert main(["run", "--data", str(data), "--output", str(out), "--seed", "11"]) == 0
    return root, data, out


def _artifact_tree(out):
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(Path(out).rglob("*")) if p.is_file()
    }


def test_criterion_8_thirteen_point_report_shape(thirteen_point_run):
    _, data, out = thirteen_point_run

    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 65  # 13 points x 5 models
    assert len(report["best_per_point"]) == 13
    best_marks = [r for r in report["rows"] if r["is_best"]]
    assert len(best_marks) == 13
    per_point_best = {}
    for row in report["rows"]:
        if row["is_best"]:
            key = (row["lon"], row["lat"])
            per_point_best[key] = per_point_best.get(key, 0) + 1
    assert all(v == 1 for v in per_point_best.values())
    assert len(per_point_best) == 13

    summary = json.loads((out / "selection_summary.json").read_text())
    top_lists = summary["top_features_per_point"]
    assert len(top_lists) == 13  # one top-feature row per point
    for names in top_lists.values():
        assert 0 < len(names) <= 10
        assert all(name in FEATURE_NAMES for name in names)

    # occurrence totals must equal the sum of the per-point occurrence tables,
    # and each per-point table must sum to the per-tree occurrences of an
    # independently refitted boosted model with the same derived seed
    totals = summary["occurrence_totals"]
    aggregated = {}
    for point in REFERENCE_POINTS:
        payload = json.loads((out / point.label / "selection.json").read_text())
        assert payload["occurrence_total"] == sum(payload["occurrence"].values())
        for name, count in payload["occurrence"].items():
            aggregated[name] = aggregated.get(name, 0) + count
    assert totals == dict(sorted(aggregated.items(),
                                 key=lambda kv: (-kv[1], FEATURE_NAMES.index(kv[0]))))
    assert summary["occurrence_total_sum"] == sum(totals.values())

    from hydrocast.dataset import SplitSpec, load_csv, split as split_data

    point = REFERENCE_POINTS[0]
    payload = json.loads((out / point.label / "selection.json").read_text())
    train, _ = split_data(load_csv(data, [point])[point.label], SplitSpec())
    kept, _ = prune_colinear(train.features, ColinearityConfig())
    model = fit_boosted(train.features[:, kept], train.precip,
                        BoostConfig(), seed=payload["seed"])
    tree_total = sum(len(features_used(tree)) for stage in model.stages
                     for tree in trees_of(stage))
    assert payload["occurrence_total"] == tree_total
    recounted = rank_features(model)
    by_name = {FEATURE_NAMES[kept[pos]]: c for pos, c in recounted.items() if c > 0}
    assert by_name == payload["occurrence"]

    report_pass(8, "65-row report, one best per point, top-10 lists, occurrence sums check out")


def test_criterion_9_end_to_end_determinism(thirteen_point_run):
    root, data, out_a = thirteen_point_run
    out_b = root / "run_b"
    assert main(["run", "--data", str(data), "--output", str(out_b), "--seed", "11"]) == 0
    tree_a = _artifact_tree(out_a)
    tree_b = _artifact_tree(out_b)
    assert tree_a.keys() == tree_b.keys()
    assert all(tree_a[k] == tree_b[k] for k in tree_a)
    report_pass(9, f"two runs produced byte-identical artifacts ({len(tree_a)} files)")
