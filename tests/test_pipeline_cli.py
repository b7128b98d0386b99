import argparse
import json
import math
import os
import re
import shutil
from dataclasses import fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from hydrocast.cart import FOREST_COLUMNS
from hydrocast.catalog import REFERENCE_POINTS
from hydrocast import learners, pipeline
from hydrocast.cli import build_parser, build_pipeline_config, main
from hydrocast.dataset import CSV_COLUMNS, SplitSpec, load_csv, split, write_csv
from hydrocast.errors import FractionOutOfRange
from hydrocast.learners import MODELS
from hydrocast.pipeline import PipelineConfig, derive_seed, run_pipeline, synth_seed
from hydrocast.selection import BoostConfig, SelectionConfig, run_selection

from oracles import (
    encoded,
    forest_block,
    forest_trees,
    full_columns,
    node_list,
    packed,
    sparse_block,
    unpacked,
)

POINTS = "p01,p02"


def small_config(data, output, **kwargs):
    return {
        "data": str(data),
        "output": str(output),
        "seed": 7,
        "points": POINTS,
        "boost": {"trees_per_stage": 20, "max_stages": 2},
        "learners": {
            "rf": {"n_trees": 10},
            "knn": {"k": 3},
            "svr": {"epochs": 60},
            "lr": {},
            "mlp": {"epochs": 60},
        },
        **kwargs,
    }


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def synth(tmp_path, out="data.csv", samples=60, extra=()):
    data = tmp_path / out
    code = main([
        "synth", "--samples", str(samples), "--seed", "7",
        "--points", POINTS, "--out", str(data), *extra,
    ])
    assert code == 0
    return data


def read_tree(output):
    files = {}
    for path in sorted(Path(output).rglob("*")):
        if path.is_file():
            files[str(path.relative_to(output))] = path.read_bytes()
    return files


def test_synth_is_deterministic(tmp_path):
    a = synth(tmp_path, "a.csv")
    b = synth(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    main(["synth", "--samples", "60", "--seed", "8", "--points", POINTS, "--out", str(c)])
    assert c.read_bytes() != a.read_bytes()


def test_synth_writes_requested_points(tmp_path):
    data = synth(tmp_path)
    for pid in ("p01", "p02"):
        point = next(p for p in REFERENCE_POINTS if p.id == pid)
        assert len(load_csv(data, [point])[point.label]) == 60


def test_run_single_point_noiseless_linear_gives_perfect_lr(tmp_path):
    data = tmp_path / "lin.csv"
    code = main([
        "synth", "--samples", "80", "--seed", "3", "--points", "p01",
        "--planted", "air_l01,hgt_l02", "--linear", "--out", str(data),
    ])
    assert code == 0
    out = tmp_path / "out"
    payload = small_config(data, out, points="p01")
    # full feature visibility makes recovery of the two planted columns certain
    payload["boost"]["feature_subset_size"] = 85
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    lr_row = next(r for r in report["rows"] if r["model"] == "lr")
    assert lr_row["pearson"] == pytest.approx(1.0, abs=1e-6)
    assert lr_row["mae"] < 1e-8


def test_run_writes_all_artifacts(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    for label in ("27.5_67.5", "30_67.5"):
        for name in ("selection.json", "models.json", "evaluation.json"):
            assert (out / label / name).exists()
    for name in ("report.json", "report.csv", "report.txt", "selection_summary.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 10  # 2 points x 5 models
    assert len(report["best_per_point"]) == 2
    assert not (out / "errors.json").exists()


def test_selection_json_contents(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["select", "--config", str(cfg)]) == 0
    payload = json.loads((out / "27.5_67.5" / "selection.json").read_text())
    assert payload["selected_on"] == "train"
    assert payload["n_rows_used"] == 54  # 60 - round(6)
    assert payload["kappa"] == 10
    assert 0 < len(payload["top_features"]) <= 10
    assert payload["occurrence_total"] == sum(payload["occurrence"].values())
    assert set(payload["top_features"]) <= set(payload["kept_after_prune"])
    mse = payload["training_mse_per_stage"]
    assert all(b <= a for a, b in zip(mse, mse[1:]))


@pytest.mark.parametrize("options", [{}, {"pooled": True}, {"select_on_all": True}],
                         ids=["default", "pooled", "select_on_all"])
def test_stage_composition_equals_run(tmp_path, options):
    data = synth(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path, small_config(data, out_a, **options), "a.json")
    cfg_b = write_config(tmp_path, small_config(data, out_b, **options), "b.json")
    assert main(["run", "--config", str(cfg_a)]) == 0
    for stage in ("select", "train", "evaluate"):
        assert main([stage, "--config", str(cfg_b)]) == 0
    assert main(["report", "--config", str(cfg_b), "--format", "text"]) == 0
    assert main(["report", "--config", str(cfg_b), "--format", "csv"]) == 0
    assert read_tree(out_a) == read_tree(out_b)


def test_end_to_end_determinism(tmp_path):
    data = synth(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cfg = write_config(tmp_path, small_config(data, out), f"{out.name}.json")
        assert main(["run", "--config", str(cfg)]) == 0
    assert read_tree(out_a) == read_tree(out_b)


def test_selection_ignores_test_rows(tmp_path):
    data = synth(tmp_path, samples=80, extra=("--noise-rel", "0.1"))
    out_a = tmp_path / "a"
    cfg_a = write_config(tmp_path, small_config(data, out_a), "a.json")
    assert main(["select", "--config", str(cfg_a)]) == 0

    # perturb only the held-out rows (chronological split: the last 8)
    point, other = REFERENCE_POINTS[:2]
    loaded = load_csv(data, [point, other])
    full = loaded[point.label]
    train, test = split(full, SplitSpec())
    perturbed = test.features + 123.456
    stacked = np.vstack([train.features, perturbed])
    precip = np.concatenate([train.precip, test.precip + 1.0])
    from hydrocast.dataset import Dataset

    tampered = tmp_path / "tampered.csv"
    write_csv(
        [Dataset(point, full.timestamps, stacked, precip),
         loaded[other.label]],
        tampered,
    )
    out_b = tmp_path / "b"
    cfg_b = write_config(tmp_path, small_config(tampered, out_b), "b.json")
    assert main(["select", "--config", str(cfg_b)]) == 0

    sel_a = (out_a / "27.5_67.5" / "selection.json").read_bytes()
    sel_b = (out_b / "27.5_67.5" / "selection.json").read_bytes()
    assert sel_a == sel_b

    # while selecting on all rows does notice the tampering
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    cfg_c = write_config(tmp_path, small_config(data, out_c, select_on_all=True), "c.json")
    cfg_d = write_config(tmp_path, small_config(tampered, out_d, select_on_all=True), "d.json")
    assert main(["select", "--config", str(cfg_c)]) == 0
    assert main(["select", "--config", str(cfg_d)]) == 0
    assert (out_c / "27.5_67.5" / "selection.json").read_bytes() != (
        out_d / "27.5_67.5" / "selection.json").read_bytes()


def test_selection_matches_inmemory_train_only_run(tmp_path):
    data = synth(tmp_path, samples=70)
    out = tmp_path / "out"
    cfg_file = write_config(tmp_path, small_config(data, out))
    assert main(["select", "--config", str(cfg_file)]) == 0
    payload = json.loads((out / "27.5_67.5" / "selection.json").read_text())

    point = REFERENCE_POINTS[0]
    train, _ = split(load_csv(data, [point])[point.label], SplitSpec())
    cfg = SelectionConfig(
        boost=BoostConfig(trees_per_stage=20, max_stages=2,
                          tree_depth=3, min_samples_leaf=5),
    )
    result = run_selection(train.features, train.precip, cfg, seed=derive_seed(7, 1, 0))
    from hydrocast.catalog import FEATURE_NAMES

    assert [FEATURE_NAMES[f] for f in result.top_k] == payload["top_features"]
    assert result.occurrence_total == payload["occurrence_total"]


def test_pooled_selection_shares_features_across_points(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, pooled=True))
    assert main(["select", "--config", str(cfg)]) == 0
    a = json.loads((out / "27.5_67.5" / "selection.json").read_text())
    b = json.loads((out / "30_67.5" / "selection.json").read_text())
    assert a["pooled"] and b["pooled"]
    assert a["top_features"] == b["top_features"]
    assert a["occurrence"] == b["occurrence"]


def test_pooled_run_fails_a_point_whose_rows_fail_alone(tmp_path):
    data = synth(tmp_path)
    _edit_p02_row("air_l02", "nan")(data)
    alone, both = tmp_path / "alone", tmp_path / "both"
    cfg = write_config(tmp_path, small_config(data, alone, points="p01", pooled=True), "a.json")
    assert main(["run", "--config", str(cfg)]) == 0
    # p02 after p01, since learner seeds key on a point's index; the pooled seed does not
    cfg = write_config(tmp_path, small_config(data, both, pooled=True), "b.json")
    assert main(["run", "--config", str(cfg)]) == 2
    assert list(json.loads((both / "errors.json").read_text())) == ["30_67.5"]
    for name in ("selection.json", "models.json", "evaluation.json"):
        assert (both / "27.5_67.5" / name).read_bytes() == (alone / "27.5_67.5" / name).read_bytes()


def test_a_pooled_run_where_no_point_has_rows_fails_each_at_its_load(tmp_path):
    data = synth(tmp_path)  # p01 and p02 only
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, points="p03,p04", pooled=True))
    assert main(["run", "--config", str(cfg)]) == 2
    errors = json.loads((out / "errors.json").read_text())
    assert errors == {label: f"{data}: no rows for point ({lon}, {lat})"
                      for label, lon, lat in (("30_70", 30.0, 70.0), ("30_72.5", 30.0, 72.5))}


def test_a_failed_pooled_selection_is_each_points_error(tmp_path):
    data = synth(tmp_path)
    lines = [line.split(",") for line in data.read_text().splitlines()]
    at = lines[0].index("air_l05")
    for cells in lines[1:]:  # a zero-norm column in the pooled rows
        cells[at] = "0.0"
    data.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, pooled=True))
    assert main(["run", "--config", str(cfg)]) == 2
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == ["27.5_67.5", "30_67.5"]
    assert errors["27.5_67.5"] == errors["30_67.5"]
    assert not (out / "27.5_67.5" / "selection.json").exists()


@pytest.mark.parametrize("select_on_all, n_rows", [(False, 108), (True, 120)])
def test_pooled_selection_json_counts_the_pooled_rows(tmp_path, select_on_all, n_rows):
    data = synth(tmp_path)  # 60 months for each of p01 and p02
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, pooled=True, select_on_all=select_on_all))
    assert main(["select", "--config", str(cfg)]) == 0
    for label in ("27.5_67.5", "30_67.5"):
        assert json.loads((out / label / "selection.json").read_text())["n_rows_used"] == n_rows


def test_flags_override_config_file(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, gamma=0.95))
    assert main(["select", "--config", str(cfg), "--gamma", "0.8", "--kappa", "5"]) == 0
    payload = json.loads((out / "27.5_67.5" / "selection.json").read_text())
    assert payload["gamma"] == 0.8
    assert payload["kappa"] == 5
    assert len(payload["top_features"]) <= 5


FLAG_KEYS = [  # flag, value, its config file key, where the value lands in PipelineConfig
    ("--gamma", 0.8, "gamma", "selection.colinearity.gamma"),
    ("--norm", "l1_as_printed", "norm", "selection.colinearity.norm"),
    ("--kappa", 5, "kappa", "selection.kappa"),
    ("--train-fraction", 0.8, "split.train_fraction", "split.train_fraction"),
    ("--split-mode", "seeded_random", "split.mode", "split.mode"),
    ("--split-seed", 3, "split.seed", "split.seed"),
    ("--trees-per-stage", 20, "boost.trees_per_stage", "selection.boost.trees_per_stage"),
    ("--max-stages", 2, "boost.max_stages", "selection.boost.max_stages"),
    ("--stop-tolerance", 0.01, "boost.stop_tolerance", "selection.boost.stop_tolerance"),
    ("--tree-depth", 2, "boost.tree_depth", "selection.boost.tree_depth"),
    ("--select-on-all", True, "select_on_all", "select_on_all"),
    ("--pooled", True, "pooled", "pooled_selection"),
]


@pytest.mark.parametrize("flag, value, key, field", FLAG_KEYS, ids=[f[0] for f in FLAG_KEYS])
def test_each_pipeline_flag_sets_its_config_file_key(tmp_path, flag, value, key, field):
    base = ["run", "--data", "data.csv", "--output", "out"]
    given = [flag] if value is True else [flag, str(value)]
    from_flag = build_pipeline_config(build_parser().parse_args(base + given))
    section, _, name = key.rpartition(".")
    cfg = write_config(tmp_path, {section: {name: value}} if section else {name: value})
    from_file = build_pipeline_config(build_parser().parse_args(base + ["--config", str(cfg)]))
    assert from_flag == from_file
    assert reduce(getattr, field.split("."), from_flag) == value
    assert from_flag != PipelineConfig("data.csv", "out")


def test_no_flags_and_no_config_file_gives_dataclass_defaults():
    args = build_parser().parse_args(["run", "--data", "data.csv", "--output", "out"])
    assert build_pipeline_config(args) == PipelineConfig("data.csv", "out")


def test_readme_config_block_gives_the_dataclass_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg_file = write_config(tmp_path, json.loads(block))
    cfg = build_pipeline_config(build_parser().parse_args(["run", "--config", str(cfg_file)]))
    defaults = PipelineConfig("data.csv", "out/")
    assert cfg.selection == defaults.selection
    assert cfg.split == defaults.split
    assert cfg.points == defaults.points
    assert (cfg.select_on_all, cfg.pooled_selection) == (defaults.select_on_all,
                                                         defaults.pooled_selection)
    assert dict(cfg.learners) == {kind: MODELS[kind].config() for kind, _ in defaults.learners}


def test_readme_library_block_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    assert math.isfinite(names["rho"])


def test_readme_names_every_learner_setting():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = [f"{kind}.{f.name}" for kind, model in MODELS.items() for f in fields(model.config)]
    assert [name for name in named if f"`{name}`" not in readme] == []


def test_readme_names_the_tree_columns_in_order():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    layout = readme.split("A forest serializes as", 1)[1].split("}`", 1)[0]
    assert re.findall(r'"(\w+)":', layout) == ["n_features", "sizes", *FOREST_COLUMNS]


@pytest.mark.parametrize("command", ["run", "select", "train", "evaluate"])
def test_clean_rerun_removes_stale_errors_json(tmp_path, command):
    data = synth(tmp_path)  # contains p01 and p02 only
    out = tmp_path / "out"
    failing = write_config(tmp_path, small_config(data, out, points="p01,p03"), "failing.json")
    assert main(["run", "--config", str(failing)]) == 2
    assert (out / "errors.json").exists()
    clean = write_config(tmp_path, small_config(data, out, points="p01"), "clean.json")
    assert main([command, "--config", str(clean)]) == 0
    assert not (out / "errors.json").exists()


def test_partial_failure_records_errors_and_continues(tmp_path):
    data = synth(tmp_path)  # contains p01 and p02 only
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, points="p01,p03"))
    code = main(["run", "--config", str(cfg)])
    assert code == 2  # p03 has no rows -> data error
    errors = json.loads((out / "errors.json").read_text())
    assert "30_70" in errors
    report = json.loads((out / "report.json").read_text())
    assert {r["model"] for r in report["rows"]} == {"rf", "knn", "svr", "lr", "mlp"}
    assert len(report["rows"]) == 5  # p01 still made it through


def test_point_that_failed_to_load_gets_no_directory(tmp_path):
    data = synth(tmp_path)  # contains p01 and p02 only
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, points="p01,p03"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert (out / "27.5_67.5" / "models.json").exists()
    assert not (out / "30_70").exists()


def test_too_few_rows_fails_only_that_point(tmp_path):
    data = synth(tmp_path)
    loaded = load_csv(data, REFERENCE_POINTS[:2])
    healthy, tiny = (loaded[p.label] for p in REFERENCE_POINTS[:2])
    mixed = tmp_path / "mixed.csv"
    write_csv([healthy, tiny.take(range(2))], mixed)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(mixed, out))
    assert main(["run", "--config", str(cfg)]) == 2
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == ["30_67.5"]
    for name in ("selection.json", "models.json", "evaluation.json"):
        assert (out / "27.5_67.5" / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert {(r["lon"], r["lat"]) for r in report["rows"]} == {(27.5, 67.5)}


def _edit_p02_row(column, value):
    """Set one column of p02's fourth data row in the CSV file."""
    def edit(data):
        lines = [line.split(",") for line in data.read_text().splitlines()]
        p02 = [cells for cells in lines[1:] if (cells[1], cells[2]) == ("30.0", "67.5")]
        p02[3][lines[0].index(column)] = value
        data.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
    return edit


def _zero_p02_column(column):
    """Set one column of every p02 row in the CSV file to zero."""
    def edit(data):
        lines = [line.split(",") for line in data.read_text().splitlines()]
        at = lines[0].index(column)
        for cells in lines[1:]:
            if (cells[1], cells[2]) == ("30.0", "67.5"):
                cells[at] = "0.0"
        data.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
    return edit


def test_rerun_does_not_reuse_a_failed_points_stale_selection(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    _zero_p02_column("air_l05")(data)  # p02's selection now fails: a zero-norm column
    assert main(["run", "--config", str(cfg)]) == 2
    assert list(json.loads((out / "errors.json").read_text())) == ["30_67.5"]
    report = json.loads((out / "report.json").read_text())
    assert {(r["lon"], r["lat"]) for r in report["rows"]} == {(27.5, 67.5)}
    assert list(report["best_per_point"]) == ["27.5_67.5"]
    summary = json.loads((out / "selection_summary.json").read_text())
    assert list(summary["top_features_per_point"]) == ["27.5_67.5"]


def test_staged_commands_do_not_read_a_failed_points_stale_artifacts(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    _zero_p02_column("air_l05")(data)  # p02's selection now fails: a zero-norm column
    assert main(["select", "--config", str(cfg)]) == 2
    for name in ("selection.json", "models.json", "evaluation.json"):
        assert not (out / "30_67.5" / name).exists()
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("trained 1 points")
    assert main(["evaluate", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {(r["lon"], r["lat"]) for r in report["rows"]} == {(27.5, 67.5)}


def test_a_stage_deletes_the_artifacts_it_makes_stale(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    p01, p02 = out / "27.5_67.5", out / "30_67.5"
    assert main(["select", "--config", str(cfg), "--kappa", "3"]) == 0
    for point_dir in (p01, p02):  # models of the old 10 features, and their scores
        assert [path.name for path in point_dir.iterdir()] == ["selection.json"]
    assert main(["train", "--config", str(cfg)]) == 0
    assert sorted(path.name for path in p01.iterdir()) == ["models.json", "selection.json"]
    (p02 / "selection.json").unlink()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 0  # p02 is skipped: no selection.json
    assert capsys.readouterr().out.startswith("trained 1 points")
    assert list(p02.iterdir()) == []
    assert not (p01 / "evaluation.json").exists()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    summary = json.loads((out / "selection_summary.json").read_text())
    assert [len(top) for top in summary["top_features_per_point"].values()] == [3]


def test_a_run_that_scores_nothing_leaves_no_report(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, points="p02"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg), "--format", "json"]) == 0
    _zero_p02_column("air_l05")(data)  # p02's selection now fails: a zero-norm column
    assert main(["run", "--config", str(cfg)]) == 2
    assert sorted(path.name for path in out.iterdir()) == ["30_67.5", "errors.json"]
    capsys.readouterr()
    assert main(["report", "--config", str(cfg)]) == 2
    assert "no report.json found" in capsys.readouterr().err


def test_evaluate_deletes_the_renderings_of_the_report_it_replaces(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg), "--format", "json"]) == 0
    assert main(["evaluate", "--config", str(cfg), "--points", "p01"]) == 0
    assert len(json.loads((out / "report.json").read_text())["rows"]) == 5
    for name in ("report.txt", "report.csv", "report.out.json"):
        assert not (out / name).exists()
    assert main(["report", "--config", str(cfg), "--format", "csv"]) == 0
    assert len((out / "report.csv").read_text().splitlines()) == 1 + 5


@pytest.mark.parametrize("command", ["select", "train"])
def test_select_and_train_delete_the_report_of_the_models_they_replace(tmp_path, capsys,
                                                                       command):
    data, out = tmp_path / "data.csv", tmp_path / "out"
    assert main(["synth", "--samples", "120", "--seed", "11", "--points", "p01",
                 "--out", str(data)]) == 0
    flags = ["--data", str(data), "--output", str(out), "--points", "p01",
             "--max-stages", "2", "--trees-per-stage", "10"]
    assert main(["run", *flags]) == 0
    assert main(["report", "--output", str(out), "--format", "json"]) == 0
    assert main([command, *flags, "--kappa", "3"]) == 0
    assert [path.name for path in out.iterdir()] == ["27.5_67.5"]
    capsys.readouterr()
    assert main(["report", "--output", str(out), "--format", "csv"]) == 2
    assert "no report.json found" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    lambda p: p.update(features=["not_a_feature", *p["features"][1:]]),
    lambda p: [model.update(kind="zzz") for model in p["models"].values()],
], ids=["feature_unknown", "kind_unknown"])
def test_evaluate_prints_the_errors_of_a_pass_that_scores_nothing(tmp_path, capsys, damage):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    for label in ("27.5_67.5", "30_67.5"):
        _edit_json(damage)(out / label / "models.json")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "no models found" not in err
    assert "error [27.5_67.5" in err and "error [30_67.5" in err
    assert not (out / "report.json").exists()
    printed = [line.split("]", 1)[0].removeprefix("error [") for line in err.splitlines()]
    assert list(json.loads((out / "errors.json").read_text())) == printed


def test_an_evaluate_that_finds_no_models_leaves_the_root_outputs(tmp_path, capsys):
    data, out = tmp_path / "data.csv", tmp_path / "out"
    assert main(["synth", "--samples", "120", "--seed", "11", "--points", "p01",
                 "--out", str(data)]) == 0
    flags = ["--data", str(data), "--output", str(out), "--max-stages", "2",
             "--trees-per-stage", "10"]
    assert main(["run", *flags, "--points", "p01,p02"]) == 2  # p02 has no rows
    assert main(["report", "--output", str(out), "--format", "json"]) == 0
    root = {"report.json", "selection_summary.json", "report.txt", "report.csv",
            "report.out.json", "errors.json"}
    before = read_tree(out)
    assert root <= set(before)
    capsys.readouterr()
    assert main(["evaluate", *flags, "--points", "p02"]) == 2
    assert "no models found to evaluate" in capsys.readouterr().err
    assert read_tree(out) == before
    # a skipped point's evaluation.json still goes: it scored the models that are gone
    (out / "27.5_67.5" / "models.json").unlink()
    assert main(["evaluate", *flags, "--points", "p01"]) == 2
    after = read_tree(out)
    assert "27.5_67.5/evaluation.json" not in after
    assert {name: after[name] for name in root} == {name: before[name] for name in root}


@pytest.mark.parametrize("layout", ["five_columns", "left_column", "node_list"])
def test_evaluate_refuses_the_per_tree_layout_of_earlier_versions(tmp_path, capsys, layout):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, points="p01"))
    assert main(["run", "--config", str(cfg)]) == 0
    _edit_json(EARLIER_LAYOUTS[layout])(out / "27.5_67.5" / "models.json")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert "error [27.5_67.5:rf]" in capsys.readouterr().err
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == ["27.5_67.5:rf"] and "rerun train" in errors["27.5_67.5:rf"]
    assert len(json.loads((out / "report.json").read_text())["rows"]) == 4


def test_a_models_json_of_json_lists_fails_all_five_kinds_and_no_other_point(tmp_path, capsys):
    """Earlier versions wrote every numeric array as JSON lists: each kind of such
    a file fails alone with "rerun train", and the other point still scores."""
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    models = out / "27.5_67.5" / "models.json"
    payload = json.loads(models.read_text())
    old = json.loads(json.dumps(payload))
    for layout in ("list_column_block", "list_train_z", "list_weights", "list_layers"):
        EARLIER_LAYOUTS[layout](old)
    assert old == unpacked(payload)  # the four edits give back every array as lists
    models.write_text(json.dumps(old))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == [f"27.5_67.5:{kind}" for kind in MODELS]
    assert all("rerun train" in message for message in errors.values())
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert [(row["lat"], row["lon"]) for row in rows] == [(67.5, 30)] * len(MODELS)


def _set_model(kind, **state):
    """A ``fit_<kind>`` that fits as usual, then sets the fitted model's ``state``."""
    fit_kind = getattr(learners, f"fit_{kind}")

    def fit(*args):
        model = fit_kind(*args)
        model.__dict__.update(state)
        return model
    return fit


def test_a_model_with_an_infinite_weight_is_not_written(tmp_path, monkeypatch):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, points="p01"))
    monkeypatch.setattr(learners, "fit_lr", _set_model("lr", weights=np.array([math.inf] * 10)))
    assert main(["run", "--config", str(cfg)]) == 2
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == ["27.5_67.5"]
    assert errors["27.5_67.5"].endswith("models.json: not written, as it holds a non-finite number")
    assert sorted(path.name for path in (out / "27.5_67.5").iterdir()) == ["selection.json"]


def test_errors_json_lists_points_in_configured_order(tmp_path, monkeypatch):
    data = synth(tmp_path)
    _zero_p02_column("air_l05")(data)  # p02 fails select
    write_json = pipeline._write_json

    def write_without_knn(path, payload):  # p01 fails evaluate for its knn model only
        if path.parent.name == "27.5_67.5" and path.name == "models.json":
            payload["models"].pop("knn")
        write_json(path, payload)

    monkeypatch.setattr(pipeline, "_write_json", write_without_knn)
    cfg = write_config(tmp_path, small_config(data, tmp_path / "out"))
    assert main(["run", "--config", str(cfg)]) == 2
    errors = json.loads((tmp_path / "out" / "errors.json").read_text())
    assert list(errors) == ["27.5_67.5:knn", "30_67.5"]


def _config_and_rows(cfg_file):
    cfg = build_pipeline_config(build_parser().parse_args(["run", "--config", str(cfg_file)]))
    return cfg, load_csv(cfg.data_path, cfg.points)


def test_run_point_alone_writes_what_run_writes_for_the_point(tmp_path):
    data = synth(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path, small_config(data, out_a), "a.json")
    assert main(["run", "--config", str(cfg_a)]) == 0
    cfg, datasets = _config_and_rows(write_config(tmp_path, small_config(data, out_b), "b.json"))
    stages = tuple(stage for stage, _ in pipeline.STAGES)
    kept, errors = pipeline.run_point(cfg, stages, 1, cfg.points[1], datasets, None)
    assert list(kept) == ["select", "train", "evaluate"] and errors == {}
    assert read_tree(out_b) == {name: body for name, body in read_tree(out_a).items()
                                if name.startswith("30_67.5/")}


def test_a_failing_run_point_returns_only_its_errors_and_deletes_its_stale_artifacts(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg_file = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg_file)]) == 0
    before = read_tree(out)
    _zero_p02_column("air_l05")(data)  # p02's selection now fails: a zero-norm column
    cfg, datasets = _config_and_rows(cfg_file)
    kept, errors = pipeline.run_point(cfg, ("select", "train"), 1, cfg.points[1], datasets, None)
    assert kept == {} and list(errors) == ["30_67.5"] and "zero norm" in errors["30_67.5"]
    assert read_tree(out) == {name: body for name, body in before.items()
                              if not name.startswith("30_67.5/")}


def test_a_point_that_fails_to_load_is_skipped_by_stages_that_read_no_rows(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    _edit_p02_row("air_l01", "nan")(data)
    (out / "30_67.5" / "selection.json").unlink()
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 0  # p02 has no selection to train on
    assert main(["evaluate", "--config", str(cfg)]) == 0  # nor models to score
    captured = capsys.readouterr()
    assert captured.out == ("trained 1 points x 5 models\n"
                            "evaluated 5 (point, model) pairs\n")
    assert captured.err == ""
    assert not (out / "errors.json").exists()
    assert list((out / "30_67.5").iterdir()) == []


def _name_unknown_feature(payload):
    payload["occurrence"]["not_a_feature"] = 3


def _repeat_a_top_feature(payload):
    payload["top_features"] = ["uwnd_l02"] * 3


@pytest.fixture(params=[_name_unknown_feature, _repeat_a_top_feature],
                ids=["feature_unknown", "top_feature_repeated"])
def _run_then_damage_p02_selection(request, tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    _edit_json(request.param)(out / "30_67.5" / "selection.json")
    return out, cfg


def test_evaluate_refuses_a_damaged_selection_before_scoring(_run_then_damage_p02_selection):
    out, cfg = _run_then_damage_p02_selection
    assert main(["evaluate", "--config", str(cfg)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert {(r["lon"], r["lat"]) for r in report["rows"]} == {(27.5, 67.5)}
    summary = json.loads((out / "selection_summary.json").read_text())
    assert list(summary["top_features_per_point"]) == ["27.5_67.5"]
    assert not (out / "30_67.5" / "evaluation.json").exists()


def test_train_refuses_a_damaged_selection(_run_then_damage_p02_selection, capsys):
    out, cfg = _run_then_damage_p02_selection
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error [30_67.5]: ")
    assert not (out / "30_67.5" / "models.json").exists()


def test_a_damaged_selection_is_listed_in_point_order(tmp_path, monkeypatch):
    data = synth(tmp_path)
    _zero_p02_column("air_l05")(data)  # p02 fails select
    write_json = pipeline._write_json

    def write_damaged(path, payload):  # p01's selection.json names a feature outside the catalog
        if path.parent.name == "27.5_67.5" and path.name == "selection.json":
            _name_unknown_feature(payload)
        write_json(path, payload)

    monkeypatch.setattr(pipeline, "_write_json", write_damaged)
    cfg = write_config(tmp_path, small_config(data, tmp_path / "out"))
    assert main(["run", "--config", str(cfg)]) == 2
    errors = json.loads((tmp_path / "out" / "errors.json").read_text())
    assert list(errors) == ["27.5_67.5", "30_67.5"]


@pytest.mark.parametrize("command, unreadable, written", [
    ("train", "selection.json", "models.json"),
    ("evaluate", "models.json", "evaluation.json"),
])
def test_an_artifact_that_cannot_be_read_fails_only_its_point(tmp_path, capsys, command,
                                                              unreadable, written):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    (out / "30_67.5" / written).unlink()
    (out / "27.5_67.5" / unreadable).unlink()
    (out / "27.5_67.5" / unreadable).mkdir()  # a directory where p01's file belongs
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [27.5_67.5]: ") and ": cannot be read (" in err
    assert list(json.loads((out / "errors.json").read_text())) == ["27.5_67.5"]
    assert (out / "30_67.5" / written).is_file()
    if command == "evaluate":  # the report no longer scores p01's models
        report = json.loads((out / "report.json").read_text())
        assert {(r["lon"], r["lat"]) for r in report["rows"]} == {(30, 67.5)}


def test_no_artifact_holds_a_non_finite_number(tmp_path):
    data = synth(tmp_path)
    lines = [line.split(",") for line in data.read_text().splitlines()]
    at = lines[0].index("precip")
    for cells in lines[1:]:  # boosting's training MSE overflows to an infinity
        cells[at] = repr(float(cells[at]) * 1e160)
    data.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, points="p01"))
    assert main(["run", "--config", str(cfg)]) == 2  # any numpy warning would be an error
    errors = json.loads((out / "errors.json").read_text())
    assert errors == {"27.5_67.5": "the training MSE is not finite at stage 0"}
    for path in out.rglob("*"):
        if path.is_file():
            assert "NaN" not in path.read_text() and "Infinity" not in path.read_text(), path


def test_a_boosting_step_that_overflows_fails_each_point_at_select(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "out"
    payload = small_config(data, out)
    payload["boost"]["shrinkage"] = 1e308  # the first stage's step leaves float range
    assert main(["run", "--config", str(write_config(tmp_path, payload))]) == 2
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert err.splitlines() == [f"error [{label}]: the training MSE is not finite at stage 1"
                                for label in ("27.5_67.5", "30_67.5")]
    assert [path.name for path in out.iterdir()] == ["errors.json"]  # no empty point directory


REFUSED = {  # argv, the refused path, exit code; under {tmp}, "file" is a regular file,
             # "dir" a directory and "latin1" a CSV that stops being UTF-8 after 8 KiB
    "run_output_is_a_file": (["run", "--data", "{tmp}/data.csv", "--output", "{tmp}/file"],
                             "file", 2),
    "run_data_is_a_directory": (["run", "--data", "{tmp}/dir", "--output", "{tmp}/out"], "dir", 2),
    "synth_out_is_a_directory": (["synth", "--samples", "20", "--out", "{tmp}/dir"], "dir", 2),
    "report_output_is_a_file": (["report", "--output", "{tmp}/file"], "file", 2),
    "config_is_a_directory": (["run", "--config", "{tmp}/dir"], "dir", 1),
    "config_not_utf8": (["run", "--config", "{tmp}/latin1"], "latin1", 1),
    "csv_not_utf8": (["run", "--data", "{tmp}/latin1", "--output", "{tmp}/out"], "latin1", 2),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_path_or_encoding_exits_without_a_traceback(tmp_path, capsys, case):
    argv, refused, code = REFUSED[case]
    (tmp_path / "file").write_text("x\n")
    (tmp_path / "dir").mkdir()
    rows = [",".join(CSV_COLUMNS)] + ["1981-01,27.5,67.5"] * 500 + ["1981-02,27.5\u00b0,67.5"]
    (tmp_path / "latin1").write_bytes("\n".join(rows).encode("latin-1"))
    assert main([arg.format(tmp=tmp_path) for arg in argv] + ["--points", "p01"]) == code
    assert str(tmp_path / refused) in capsys.readouterr().err


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _nest_deeply(path):  # valid JSON that the decoder cannot follow down
    path.write_text("[" * 100000 + "]" * 100000)


def _copy_from_p01(path):  # p01 runs first, so its artifact of the same name is there
    shutil.copyfile(path.parent.parent / "27.5_67.5" / path.name, path)


def _edit_json(change):
    def edit(path):
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
    return edit


def _edit_first_tree(change):
    """Apply ``change`` to the first tree's five node columns: the block's columns
    are read into lists, the block is cut into its trees, the first is spelled
    out in the five columns and changed, stored as the file stores it
    (``sparse_block``), and the trees are laid end to end and encoded again
    under the block's unchanged ``sizes``."""
    def edit(payload):
        rf = payload["models"]["rf"]
        trees = forest_trees(unpacked(rf["trees"]))
        first = full_columns(trees[0])
        change(first)
        trees[0] = sparse_block(first)
        rf["trees"] = encoded({**forest_block(trees), "sizes": rf["trees"]["sizes"]})
    return _edit_json(edit)


def _edit_array(locate, change, dtype=None):
    """Apply ``change`` to the (nested) list of the encoded array at the (object,
    key) that ``locate`` finds in the payload, and encode the list again, in
    ``dtype`` when one is given. ``change`` edits the list in place, or returns
    the list to encode instead."""
    def edit(payload):
        holder, key = locate(payload)
        values = unpacked(holder[key])
        holder[key] = packed(change(values) or values, dtype)
    return _edit_json(edit)


def _overflow(locate):
    """Write an infinity, which is what a number past float range such as 1e400
    reads as, over the first entry of the encoded float array at the (object,
    key) that ``locate`` finds in the payload."""
    return _edit_array(locate, lambda values: values.__setitem__(0, math.inf))


def _widen(rows):
    for row in rows:
        row.append(0.0)


def _per_tree(spell, block=False):
    """Rewrite the forest in a layout of earlier versions: each tree cut from the
    block and spelled by ``spell``, as a list, or laid end to end again when
    ``block``."""
    def edit(payload):
        rf = payload["models"]["rf"]
        rf["trees"] = [spell(tree) for tree in forest_trees(unpacked(rf["trees"]))]
        if block:
            rf["trees"] = forest_block(rf["trees"])
    return edit


def _as_lists(*fields):
    """Rewrite each (kind, field) of ``fields`` as the JSON lists earlier versions wrote."""
    def edit(payload):
        for kind, field in fields:
            payload["models"][kind][field] = unpacked(payload["models"][kind][field])
    return edit


def _with_left_column(tree):  # the six columns earlier versions wrote
    tree = full_columns(tree)
    return {**tree, "left": [i + 1 if f >= 0 else -1 for i, f in enumerate(tree["feature"])]}


#: Each layout earlier versions wrote a forest in, as an edit of a current models.json.
EARLIER_LAYOUTS = {
    "five_columns": _per_tree(full_columns),
    "left_column": _per_tree(_with_left_column),
    "node_list": _per_tree(lambda tree: {"n_features": tree["n_features"],
                                         "nodes": node_list(tree)}),
    "five_column_block": _per_tree(full_columns, block=True),
    "list_column_block": _as_lists(("rf", "trees")),
    "list_train_z": _as_lists(("knn", "train_z"), ("knn", "train_y")),
    "list_weights": _as_lists(("svr", "weights"), ("lr", "weights")),
    "list_layers": _as_lists(("mlp", "layers")),
}


def _first_leaf_value(payload):  # the first leaf of the block is the first tree's
    return payload["models"]["rf"]["trees"], "value"


BAD_P02 = {
    "negative_precip": (_edit_p02_row("precip", "-1.0"), None, ["30_67.5"]),
    "bad_date": (_edit_p02_row("date", "2020-13"), None, ["30_67.5"]),
    "duplicate_timestamp": (_edit_p02_row("date", "1981-01"), None, ["30_67.5"]),  # p02's first month
    "non_numeric_feature": (_edit_p02_row("air_l05", "n/a"), None, ["30_67.5"]),
    "overflowing_cosine": (_edit_p02_row("air_l05", "1e300"), None, ["30_67.5"]),
    "precip_near_1e160": (_edit_p02_row("precip", "1e160"), None, ["30_67.5"]),  # MSE overflows
    "precip_near_1e154": (  # the MSE stays finite, some split scores overflow, the fits pass
        _edit_p02_row("precip", "1e154"), None, ["30_67.5:svr", "30_67.5:lr", "30_67.5:mlp"]),
    "constant_precip": (_zero_p02_column("precip"), None, ["30_67.5"]),  # no tree splits
    "selection_from_another_point": (None, ("selection.json", _copy_from_p01), ["30_67.5"]),
    "models_from_another_point": (None, ("models.json", _copy_from_p01), ["30_67.5"]),
    "models_point_true": (None, ("models.json", _edit_json(lambda p: p.update(point=True))),
                          ["30_67.5"]),
    "truncated_selection": (None, ("selection.json", _truncate), ["30_67.5"]),
    "truncated_models": (None, ("models.json", _truncate), ["30_67.5"]),
    "tree_without_threshold_column": (
        None, ("models.json", _edit_first_tree(lambda tree: tree.pop("threshold"))),
        ["30_67.5:rf"],
    ),
    "tree_columns_of_unequal_length": (
        None, ("models.json", _edit_first_tree(lambda tree: tree["value"].pop())),
        ["30_67.5:rf"],
    ),
    "tree_split_flipped_to_leaf": (  # every column still as long as the flags say
        None,
        ("models.json", _edit_first_tree(lambda tree: tree.update(
            feature=[-1, *tree["feature"][1:]], value=[1.0, *tree["value"][1:]],
            n=[1, *tree["n"][1:]]))),
        ["30_67.5:rf"],
    ),
    "tree_leaf_flipped_to_split": (
        None,
        ("models.json", _edit_first_tree(lambda tree: tree.update(
            feature=[*tree["feature"][:-1], 0], threshold=[*tree["threshold"][:-1], 0.5]))),
        ["30_67.5:rf"],
    ),
    "tree_threshold_long": (
        None,
        ("models.json", _edit_array(lambda p: (p["models"]["rf"]["trees"], "threshold"),
                                    lambda values: values.append(0.5))),
        ["30_67.5:rf"],
    ),
    "tree_leaf_fitted_on_no_rows": (
        None, ("models.json", _edit_first_tree(lambda tree: tree["n"].__setitem__(
            tree["feature"].index(-1), 0))),
        ["30_67.5:rf"],
    ),
    "forest_in_node_list_layout": (  # as earlier versions wrote it
        None, ("models.json", _edit_json(EARLIER_LAYOUTS["node_list"])), ["30_67.5:rf"],
    ),
    "forest_in_per_tree_layout": (
        None, ("models.json", _edit_json(EARLIER_LAYOUTS["five_columns"])), ["30_67.5:rf"],
    ),
    "forest_in_five_column_block": (
        None, ("models.json", _edit_json(EARLIER_LAYOUTS["five_column_block"])), ["30_67.5:rf"],
    ),
    "tree_feature_past_n_features": (
        None, ("models.json", _edit_first_tree(lambda tree: tree["feature"].__setitem__(0, 99))),
        ["30_67.5:rf"],
    ),
    "tree_leaf_count_fractional": (
        None,
        ("models.json", _edit_first_tree(lambda tree: tree["n"].__setitem__(
            tree["feature"].index(-1), 1.5))),
        ["30_67.5:rf"],
    ),
    "tree_leaf_value_null": (  # no null fits in an encoded array: the header's data is null
        None,
        ("models.json", _edit_json(lambda p: p["models"]["rf"]["trees"]["value"].update(
            data=None))),
        ["30_67.5:rf"],
    ),
    "forest_with_a_left_column": (
        None, ("models.json", _edit_json(EARLIER_LAYOUTS["left_column"])), ["30_67.5:rf"],
    ),
    "lr_weight_null": (  # no null fits in an encoded array: the header's dtype is null
        None,
        ("models.json", _edit_json(lambda p: p["models"]["lr"]["weights"].update(dtype=None))),
        ["30_67.5:lr"],
    ),
    "lr_bias_text": (
        None, ("models.json", _edit_json(lambda p: p["models"]["lr"].update(bias="1.5"))),
        ["30_67.5:lr"],
    ),
    "lr_feature_indices_fraction": (
        None,
        ("models.json", _edit_json(lambda p: p["models"]["lr"]["feature_indices"].__setitem__(
            0, p["models"]["lr"]["feature_indices"][0] + 0.5))),
        ["30_67.5:lr"],
    ),
    "rf_leaf_value_overflow": (
        None, ("models.json", _overflow(_first_leaf_value)), ["30_67.5:rf"],
    ),
    "knn_train_y_overflow": (
        None, ("models.json", _overflow(lambda p: (p["models"]["knn"], "train_y"))),
        ["30_67.5:knn"],
    ),
    "tree_index_past_int64": (  # only an unsigned dtype holds it
        None,
        ("models.json", _edit_array(lambda p: (p["models"]["rf"]["trees"], "feature"),
                                    lambda values: values.__setitem__(0, 2**63), "<u8")),
        ["30_67.5:rf"],
    ),
    "tree_split_feature_true": (  # numpy alone would read a true as a split on feature 1
        None,
        ("models.json", _edit_array(lambda p: (p["models"]["rf"]["trees"], "feature"),
                                    lambda values: [value >= 0 for value in values], "|b1")),
        ["30_67.5:rf"],
    ),
    "selection_without_top_features": (
        None, ("selection.json", _edit_json(lambda p: p.pop("top_features"))), ["30_67.5"],
    ),
    "models_entry_of_another_kind": (
        None, ("models.json", _edit_json(lambda p: p["models"].update(rf=p["models"]["knn"]))),
        ["30_67.5:rf"],
    ),
    "missing_knn_model": (
        None, ("models.json", _edit_json(lambda p: p["models"].pop("knn"))), ["30_67.5:knn"],
    ),
    "models_not_an_object": (
        None, ("models.json", _edit_json(lambda p: p.update(models=[1]))), ["30_67.5"],
    ),
    "empty_forest": (  # predicts NaN, which no metric may score
        None,
        ("models.json", _edit_json(lambda p: p["models"]["rf"]["trees"].update(
            encoded({"sizes": [], **{name: [] for name in FOREST_COLUMNS}})))),
        ["30_67.5:rf"],
    ),
    "forest_sizes_short": (
        None,
        ("models.json", _edit_json(lambda p: p["models"]["rf"]["trees"]["sizes"].pop())),
        ["30_67.5:rf"],
    ),
    "forest_size_huge": (  # refused before any array is built from it
        None,
        ("models.json", _edit_json(lambda p: p["models"]["rf"]["trees"]["sizes"].__setitem__(
            0, 10**30))),
        ["30_67.5:rf"],
    ),
    "top_feature_not_a_name": (
        None, ("selection.json", _edit_json(lambda p: p.update(top_features=[[1]]))),
        ["30_67.5"],
    ),
    "model_feature_not_a_name": (
        None, ("models.json", _edit_json(lambda p: p.update(features=[[1]]))), ["30_67.5"],
    ),
    "occurrence_name_unknown": (
        None, ("selection.json", _edit_json(lambda p: p["occurrence"].update(not_a_feature=3))),
        ["30_67.5"],
    ),
    "occurrence_count_not_int": (
        None, ("selection.json", _edit_json(lambda p: p["occurrence"].update(air_l01="3"))),
        ["30_67.5"],
    ),
    "knn_k_not_int": (
        None, ("models.json", _edit_json(lambda p: p["models"]["knn"]["hyper"].update(k=2.5))),
        ["30_67.5:knn"],
    ),
    "selection_nested_too_deeply": (None, ("selection.json", _nest_deeply), ["30_67.5"]),
    "models_nested_too_deeply": (None, ("models.json", _nest_deeply), ["30_67.5"]),
    "knn_train_z_wider": (
        None, ("models.json", _edit_array(lambda p: (p["models"]["knn"], "train_z"), _widen)),
        ["30_67.5:knn"],
    ),
    "knn_train_y_shorter": (
        None,
        ("models.json", _edit_array(lambda p: (p["models"]["knn"], "train_y"),
                                    lambda values: values[:2])),
        ["30_67.5:knn"],
    ),
    "lr_weights_longer": (
        None, ("models.json", _edit_array(lambda p: (p["models"]["lr"], "weights"),
                                          lambda values: values.append(0.0))),
        ["30_67.5:lr"],
    ),
    "mlp_first_w_wider": (
        None, ("models.json", _edit_array(lambda p: (p["models"]["mlp"]["layers"][0], "W"),
                                          _widen)),
        ["30_67.5:mlp"],
    ),
    "svr_standardization_shorter": (
        None,
        ("models.json", _edit_json(lambda p: p["models"]["svr"]["standardization"].update(
            std=p["models"]["svr"]["standardization"]["std"][:3]))),
        ["30_67.5:svr"],
    ),
    "features_reversed": (  # each model would score permuted columns
        None, ("models.json", _edit_json(lambda p: p["features"].reverse())),
        [f"30_67.5:{kind}" for kind in MODELS],
    ),
    "standardization_mean_text": (
        None,
        ("models.json", _edit_json(
            lambda p: p["models"]["svr"]["standardization"]["mean"].__setitem__(0, "x"))),
        ["30_67.5:svr"],
    ),
}


#: Text that a case's error message must hold, for cases whose message is checked.
BAD_P02_MESSAGES = {
    "overflowing_cosine": "cosine similarity overflows float range",
    "precip_near_1e160": "the training MSE is not finite at stage 0",
    "constant_precip": "selection produced no features",
    "selection_from_another_point": "selection.json: written for another point; rerun select",
    "models_from_another_point": "models.json: written for another point; rerun select",
    "models_point_true": "models.json: written for another point; rerun select",
    "lr_weight_null": "malformed lr model payload",
    "rf_leaf_value_overflow": "malformed rf model payload",
    "knn_train_y_overflow": "malformed knn model payload",
    "knn_train_z_wider": "malformed knn model payload",
    "knn_train_y_shorter": "malformed knn model payload",
    "lr_weights_longer": "malformed lr model payload",
    "mlp_first_w_wider": "malformed mlp model payload",
    "svr_standardization_shorter": "malformed svr model payload",
    "models_entry_of_another_kind": "models.json: the rf entry holds a knn model",
    "features_reversed": "are not the columns of its features",
    "forest_with_a_left_column": "rerun train",
    "forest_in_node_list_layout": "rerun train",
    "forest_in_per_tree_layout": "rerun train",
    "forest_sizes_short": "forest sizes",
    "forest_size_huge": "forest sizes",
    "forest_in_five_column_block": "rerun train",
    "tree_split_flipped_to_leaf": "one full binary tree",
    "tree_leaf_flipped_to_split": "one full binary tree",
    "tree_threshold_long": "one entry per split",
    "tree_leaf_fitted_on_no_rows": "n must be at least 1",
    "tree_split_feature_true": "must be integers",
}


@pytest.mark.parametrize("case", sorted(BAD_P02))
def test_bad_point_fails_alone(tmp_path, monkeypatch, case):
    edit_csv, damage, expected_keys = BAD_P02[case]
    data = synth(tmp_path)
    clean = tmp_path / "clean"
    cfg = write_config(tmp_path, small_config(data, clean, points="p01"), "clean.json")
    assert main(["run", "--config", str(cfg)]) == 0

    bad = tmp_path / "bad.csv"
    bad.write_bytes(data.read_bytes())
    if edit_csv is not None:
        edit_csv(bad)
    if damage is not None:  # the run writes p02's artifact damaged, as a crash or bad disk would
        name, spoil = damage
        write_json = pipeline._write_json

        def write_damaged(path, payload):
            write_json(path, payload)
            if path.parent.name == "30_67.5" and path.name == name:
                spoil(path)

        monkeypatch.setattr(pipeline, "_write_json", write_damaged)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(bad, out), "bad.json")
    assert main(["run", "--config", str(cfg)]) == 2
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == expected_keys
    if case in BAD_P02_MESSAGES:
        assert BAD_P02_MESSAGES[case] in errors[expected_keys[0]]
    for name in ("selection.json", "models.json", "evaluation.json"):
        assert (out / "27.5_67.5" / name).read_bytes() == (clean / "27.5_67.5" / name).read_bytes()


#: Damage to one model that a reader takes, but that cannot be scored, as an edit of
#: models.json and the model it fails.
UNSCORABLE = {
    "svr_weight_past_the_metrics_range": (  # finite, but the squared errors overflow
        _edit_array(lambda p: (p["models"]["svr"], "weights"),
                    lambda values: values.__setitem__(0, 1e300)), "svr", "overflows"),
    "knn_std_zero": (  # Standardization.fit never writes one; it divides by zero
        _edit_json(lambda p: p["models"]["knn"]["standardization"]["std"].__setitem__(0, 0.0)),
        "knn", "std must be > 0"),
}


@pytest.mark.parametrize("case", sorted(UNSCORABLE))
def test_a_model_that_cannot_be_scored_fails_alone(tmp_path, capsys, case):
    damage, kind, message = UNSCORABLE[case]
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    damage(out / "27.5_67.5" / "models.json")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2  # any numpy warning would be an error
    assert "Warning" not in capsys.readouterr().err
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == [f"27.5_67.5:{kind}"] and message in errors[f"27.5_67.5:{kind}"]
    assert len(json.loads((out / "report.json").read_text())["rows"]) == 2 * len(MODELS) - 1


def test_a_diverging_mlp_fails_each_point_with_its_error_line_only(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "out"
    payload = small_config(data, out)
    payload["learners"]["mlp"]["learning_rate"] = 1e300  # Adam's first step leaves float range
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", str(cfg)]) == 2  # any numpy warning would be an error
    assert "Warning" not in capsys.readouterr().err
    errors = json.loads((out / "errors.json").read_text())
    assert errors == dict.fromkeys(["27.5_67.5", "30_67.5"], "[mlp] MLP loss became non-finite")


def test_a_diverging_svr_fails_each_point_with_its_error_line_only(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "out"
    payload = small_config(data, out)
    payload["learners"]["svr"]["step"] = 1e300  # the first epoch leaves float range
    assert main(["run", "--config", str(write_config(tmp_path, payload))]) == 2
    assert "Warning" not in capsys.readouterr().err
    errors = json.loads((out / "errors.json").read_text())
    assert errors == dict.fromkeys(["27.5_67.5", "30_67.5"],
                                   "[svr] SVR parameters diverged in epoch 0")


@pytest.mark.parametrize("failing", ["selection.json", "report.json", "report.txt"])
def test_a_failed_replace_leaves_the_finished_output_as_it_was(tmp_path, monkeypatch, failing):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    before = read_tree(out)
    replace = os.replace

    def refuse(src, dst):
        if Path(dst).name == failing:
            raise OSError(f"no room for {dst}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["run", "--config", str(cfg)]) == 2
    assert read_tree(out) == before  # report.json as it was, and no temporary file left


def test_each_command_parses_the_csv_once(tmp_path, monkeypatch):
    data = tmp_path / "three.csv"
    assert main(["synth", "--samples", "40", "--seed", "7", "--points", "p01,p02,p03",
                 "--out", str(data)]) == 0
    calls = []
    load_csv = pipeline.load_csv

    def counting_load_csv(path, points):
        calls.append(path)
        return load_csv(path, points)

    monkeypatch.setattr(pipeline, "load_csv", counting_load_csv)
    cfg_run = write_config(tmp_path, small_config(data, tmp_path / "a", points="p01,p02,p03"), "a.json")
    cfg_stages = write_config(tmp_path, small_config(data, tmp_path / "b", points="p01,p02,p03"), "b.json")
    for command, cfg in (("run", cfg_run), ("select", cfg_stages), ("train", cfg_stages),
                         ("evaluate", cfg_stages)):
        calls.clear()
        assert main([command, "--config", str(cfg)]) == 0
        assert len(calls) == 1, command


BAD_CONFIG = {  # extra flags, config file payload (None: a JSON list), exit code
    "gamma_above_1": (["--gamma", "2"], {}, 1),
    "kappa_0": (["--kappa", "0"], {}, 1),
    "max_stages_0": (["--max-stages", "0"], {}, 1),
    "tree_depth_0": (["--tree-depth", "0"], {}, 1),
    "knn_k_0": ([], {"learners": {"knn": {"k": 0}}}, 1),
    "unknown_learner_key": ([], {"learners": {"knn": {"kk": 3}}}, 1),
    "config_is_a_list": ([], None, 1),
    "unknown_boost_key": ([], {"boost": {"max_stage": 2}}, 1),
    "unknown_split_key": ([], {"split": {"fraction": 0.8}}, 1),
    "unknown_top_level_key": ([], {"kapa": 3}, 1),
    "unknown_learner_kind": ([], {"learners": {"rf": {}, "svm": {}}}, 1),
    "boost_seed": ([], {"boost": {"seed": 5}}, 1),  # each point's boosting seed is derived
    "split_seed_text": ([], {"split": {"mode": "seeded_random", "seed": "x"}}, 1),
    "knn_k_float": ([], {"learners": {"knn": {"k": 2.5}}}, 1),
    "trees_per_stage_float": ([], {"boost": {"trees_per_stage": 2.5}}, 1),
    "select_on_all_text": ([], {"select_on_all": "false"}, 1),
    "pooled_text": ([], {"pooled": "no"}, 1),
    "seed_fraction": ([], {"seed": 2.5}, 1),
    "seed_true": ([], {"seed": True}, 1),
    "seed_negative": (["--seed", "-3"], {}, 1),  # numpy's SeedSequence takes none
    "split_seed_negative": (["--split-mode", "seeded_random", "--split-seed", "-1"], {}, 1),
    "data_not_text": ([], {"data": 5}, 1),
    "output_not_text": ([], {"output": 5}, 1),
    "rf_max_depth_0": ([], {"learners": {"rf": {"max_depth": 0}}}, 1),
    "rf_min_samples_leaf_0": ([], {"learners": {"rf": {"min_samples_leaf": 0}}}, 1),
    "mlp_hidden_size_0": ([], {"learners": {"mlp": {"hidden_sizes": [0]}}}, 1),
    "mlp_epochs_0": ([], {"learners": {"mlp": {"epochs": 0}}}, 1),
    "mlp_learning_rate_0": ([], {"learners": {"mlp": {"learning_rate": 0}}}, 1),
    "svr_epochs_negative": ([], {"learners": {"svr": {"epochs": -3}}}, 1),
    "svr_step_0": ([], {"learners": {"svr": {"step": 0}}}, 1),
    "feature_subset_size_negative": ([], {"boost": {"feature_subset_size": -1}}, 1),
    "feature_subset_size_0": ([], {"boost": {"feature_subset_size": 0}}, 1),
    "stop_tolerance_nan": (["--stop-tolerance", "nan"], {}, 1),
    "svr_epsilon_nan": ([], {"learners": {"svr": {"epsilon": math.nan}}}, 1),  # a NaN literal
    "shrinkage_infinity": ([], {"boost": {"shrinkage": math.inf}}, 1),  # an Infinity literal
    "mlp_beta1_above_1": ([], {"learners": {"mlp": {"beta1": 1.5}}}, 1),  # Adam's are constants
    "mlp_eps_negative": ([], {"learners": {"mlp": {"eps": -1.0}}}, 1),
    "lr_ridge": ([], {"learners": {"lr": {"ridge": 1e-6}}}, 1),  # so is the ridge fallback's
    "trees_per_stage_0": ([], {"boost": {"trees_per_stage": 0}}, 1),
    "shrinkage_0": ([], {"boost": {"shrinkage": 0.0}}, 1),
    "stop_tolerance_negative": ([], {"boost": {"stop_tolerance": -1.0}}, 1),
    "rf_feature_mode_unknown": ([], {"learners": {"rf": {"feature_mode": "x"}}}, 1),
    "svr_c_0": ([], {"learners": {"svr": {"c": 0.0}}}, 1),
    "norm_unknown": ([], {"norm": "l3"}, 1),  # argparse's choices see only the flag
    "split_mode_unknown": ([], {"split": {"mode": "x"}}, 1),
    "train_fraction_above_1": (["--train-fraction", "1.5"], {}, 2),  # a data error, as before
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG))
def test_bad_config_value_fails_before_reading_data(tmp_path, capsys, case):
    flags, payload, code = BAD_CONFIG[case]
    if payload is not None:  # the data file does not exist, so reading it would exit 2
        payload = {"data": str(tmp_path / "missing.csv"), "output": str(tmp_path / "out"),
                   "points": "p01", **payload}
    cfg = write_config(tmp_path, [] if payload is None else payload)
    assert main(["run", "--config", str(cfg), *flags]) == code
    assert capsys.readouterr().err.startswith("hydrocast: ")


BAD_CONFIG_STRUCTURE = {  # command, config file entries
    "split_is_a_list": ("select", {"split": [0.5]}),
    "point_without_lon_select": ("select", {"points": [{"lat": 67.5, "elev": 10.0}]}),
    "point_without_lon_synth": ("synth", {"points": [{"lat": 67.5, "elev": 10.0}]}),
    "points_is_a_number": ("synth", {"points": 5}),
    "seed_is_text_select": ("select", {"seed": "x"}),
    "seed_is_text_synth": ("synth", {"seed": "x"}),
    "point_lon_true": ("select", {"points": [{"lon": True, "lat": 67.5, "elev": 10.0}]}),
    "point_elev_text": ("select", {"points": [{"lon": 27.5, "lat": 67.5, "elev": "472"}]}),
    "point_id_number": ("select", {"points": [{"lon": 27.5, "lat": 67.5, "elev": 1.0, "id": 5}]}),
    "point_unknown_key": ("synth", {"points": [{"lon": 27.5, "lat": 67.5, "elev": 1.0,
                                                "name": "x"}]}),
    "point_twice_select": ("select", {"points": "p01,p02,p01"}),
    "point_twice_synth": ("synth", {"points": [{"lon": 27.5, "lat": 67.5, "elev": 1.0},
                                               {"lon": 27.5, "lat": 67.5, "elev": 2.0}]}),
    "points_empty_run": ("run", {"points": []}),
    "points_empty_select": ("select", {"points": []}),
    "points_empty_synth": ("synth", {"points": []}),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_STRUCTURE))
def test_bad_config_structure_exits_1(tmp_path, capsys, case):
    command, entries = BAD_CONFIG_STRUCTURE[case]
    cfg = write_config(tmp_path, {"data": str(tmp_path / "missing.csv"),
                                  "output": str(tmp_path / "out"), **entries})
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("hydrocast: ")
    assert not (tmp_path / "missing.csv").exists()


def test_config_nested_too_deeply_exits_1(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"seed": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("hydrocast: ")


def test_deeply_nested_config_value_is_quoted_in_one_short_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    head = json.dumps({"data": str(tmp_path / "missing.csv"), "output": str(tmp_path / "out"),
                       "points": "p01"})[:-1]
    cfg.write_text(head + ', "learners": {"knn": {"k": ' + "[" * 900 + "]" * 900 + "}}}")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert "KNNConfig.k" in err


def test_csv_cell_past_the_field_limit_fails_every_point(tmp_path, capsys):
    data = synth(tmp_path, samples=20)
    lines = data.read_text().splitlines()
    cells = lines[3].split(",")
    cells[10] = "1" * 200000  # the csv module refuses fields over 131072 characters
    lines[3] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--data", str(data), "--output", str(out), "--points", "p01"]) == 2
    assert str(data) in capsys.readouterr().err
    assert list(json.loads((out / "errors.json").read_text())) == ["27.5_67.5"]


@pytest.mark.parametrize("flags, code, names", [
    (["--noise-sigma", "-1"], 1, "noise_sigma"),
    (["--planted", ",".join(f"air_l{level:02d}" for level in range(1, 12))], 1,  # 11 names
     "planted"),
    (["--samples", "5"], 2, "samples"),
    (["--planted", ","], 2, "planted"),
    (["--noise-rel", "inf"], 1, "noise_rel"),
    (["--noise-sigma", "1e308"], 1, "noise_sigma"),  # the noisy target overflows
    (["--noise-sigma", "nan"], 1, "noise_sigma"),
    (["--noise-rel", "-0.5"], 1, "noise_rel"),
    (["--seed", "-5"], 1, "seed must be 0 or more"),  # the rule of every command
], ids=["negative_sigma", "eleven_planted", "five_samples", "nothing_planted",
        "infinite_rel", "overflowing_sigma", "nan_sigma", "negative_rel", "negative_seed"])
def test_synth_refuses_a_bad_setting_without_a_traceback(tmp_path, capsys, flags, code, names):
    out = tmp_path / "data.csv"
    assert main(["synth", "--points", "p01", "--out", str(out), *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith("hydrocast: ") and names in err
    assert not out.exists()


COMMON_OPTIONS = {"-h", "--help", "--config", "--seed", "--output", "--data", "--points"}
STAGE_OPTIONS = COMMON_OPTIONS | {
    "--gamma", "--norm", "--kappa", "--train-fraction", "--split-mode", "--split-seed",
    "--trees-per-stage", "--max-stages", "--stop-tolerance", "--tree-depth", "--select-on-all",
    "--pooled",
}
OPTIONS = {  # every subcommand's option strings, in the order the subcommands are listed
    "synth": COMMON_OPTIONS | {"--samples", "--planted", "--noise-sigma", "--noise-rel",
                               "--linear", "--out"},
    "select": STAGE_OPTIONS,
    "train": STAGE_OPTIONS,
    "evaluate": STAGE_OPTIONS,
    "run": STAGE_OPTIONS,
    "report": COMMON_OPTIONS | {"--format"},
}


def test_each_subcommand_takes_exactly_its_options():
    """The subcommands share the common and pipeline flags through parent parsers;
    each takes exactly its own option strings, and a flag of another subcommand is
    a usage error."""
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subcommands.choices) == list(OPTIONS)
    for name, sub in subcommands.choices.items():
        assert set(sub._option_string_actions) == OPTIONS[name], name
    for argv in (["synth", "--gamma", "0.5"], ["report", "--samples", "9"],
                 ["run", "--format", "csv"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1


def test_evaluate_of_a_point_too_short_to_split_fails_it_alone(tmp_path):
    """evaluate builds only a point's test rows, under the split rule that refuses
    a point with no row left to train; that point fails, and the other is scored."""
    data = synth(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, small_config(data, out)))]) == 0
    loaded = load_csv(data, REFERENCE_POINTS[:2])
    healthy, short = (loaded[p.label] for p in REFERENCE_POINTS[:2])
    mixed = tmp_path / "mixed.csv"
    write_csv([healthy, short.take([0])], mixed)
    cfg = write_config(tmp_path, small_config(mixed, out), "mixed.json")
    assert main(["evaluate", "--config", str(cfg)]) == 2
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == ["30_67.5"]
    assert "cannot split 1 samples into nonempty train and test portions" in errors["30_67.5"]
    pipeline_cfg = build_pipeline_config(build_parser().parse_args(["evaluate", "--config",
                                                                    str(cfg)]))
    with pytest.raises(FractionOutOfRange):
        pipeline.stage_evaluate(pipeline_cfg, REFERENCE_POINTS[1],
                                load_csv(mixed, REFERENCE_POINTS[:2]), {})


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["select", "--no-such-flag"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "{tmp}/missing.json"], "config file not found"),
    (["run", "--config", "{tmp}/broken.json"], "config file is not valid JSON"),
    (["run", "--data", "{tmp}/data.csv"], "no output given"),
    (["run", "--data", "{tmp}/data.csv", "--output", "{tmp}/out", "--points", "p99"],
     "unknown bundled point id: 'p99'"),
    (["synth", "--points", "p01"], "no output CSV path given"),
], ids=["config_missing", "config_not_json", "run_without_output", "unknown_point_id",
        "synth_without_out"])
def test_usage_error_returns_1_and_names_it(tmp_path, capsys, argv, message):
    (tmp_path / "broken.json").write_text('{"seed": 7,')
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hydrocast: ") and message in err and "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["broken.json"]


def test_data_error_exits_2(tmp_path):
    assert main(["run", "--data", str(tmp_path / "missing.csv"),
                 "--output", str(tmp_path / "out"), "--points", "p01"]) == 2
    assert main(["report", "--output", str(tmp_path / "never_ran")]) == 2


def test_report_formats(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--format", "csv"]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == "lon,lat,elev,model,pearson,mae,std,is_best"
    assert (out / "report.csv").read_text() == printed
    assert main(["report", "--config", str(cfg), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 10


@pytest.mark.parametrize("damage", [
    lambda report: report.clear(),
    lambda report: report["rows"][3].pop("mae"),
    lambda report: report.update(rows=5),
    lambda report: report["rows"][0].update(lon="x"),
    lambda report: report["rows"][2].update(mae="x"),
    lambda report: report["rows"][2].update(mae=float("nan")),
    lambda report: report["rows"][1].update(pearson=float("inf")),
    lambda report: report["rows"][4].update(model="zzz"),
    lambda report: report["rows"].append(report["rows"][2]),
], ids=["empty_object", "row_without_mae", "rows_not_a_list", "lon_not_a_number",
        "mae_not_a_number", "mae_nan", "pearson_infinity", "model_unknown", "row_repeated"])
def test_report_on_damaged_report_json_exits_2(tmp_path, capsys, damage):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    _edit_json(damage)(out / "report.json")
    capsys.readouterr()
    for fmt in ("text", "csv", "json"):
        assert main(["report", "--output", str(out), "--format", fmt]) == 2, fmt
        assert "report.json" in capsys.readouterr().err


def test_run_pipeline_api_returns_results(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = PipelineConfig(
        data_path=str(data),
        output_dir=str(out),
        points=tuple(p for p in REFERENCE_POINTS if p.id in ("p01", "p02")),
        selection=SelectionConfig(boost=BoostConfig(trees_per_stage=10, max_stages=2)),
        seed=7,
    )
    result = run_pipeline(cfg)
    assert set(result.selections) == {"27.5_67.5", "30_67.5"}
    assert result.report is not None
    assert len(result.report.rows) == 10
    assert result.errors == {}


def test_synth_seed_derivation_is_stable():
    # frozen values guard against accidental reseeding changes
    assert synth_seed(7, 0) == synth_seed(7, 0)
    assert synth_seed(7, 0) != synth_seed(7, 1)
    assert synth_seed(7, 0) != synth_seed(8, 0)


def test_console_entry_point(tmp_path):
    import shutil
    import subprocess

    exe = shutil.which("hydrocast")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [exe, "synth", "--samples", "20", "--seed", "1", "--points", "p01",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    proc = subprocess.run([exe, "run", "--data", str(out)], capture_output=True, text=True)
    assert proc.returncode == 1  # missing --output is a usage-level problem
    proc = subprocess.run(
        [exe, "report", "--output", str(tmp_path / "none")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
