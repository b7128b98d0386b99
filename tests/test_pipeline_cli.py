import json
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from hydrocast.catalog import REFERENCE_POINTS
from hydrocast import pipeline
from hydrocast.cli import build_parser, build_pipeline_config, main
from hydrocast.dataset import CSV_COLUMNS, SplitSpec, load_csv, split, write_csv
from hydrocast.learners import MODELS
from hydrocast.pipeline import PipelineConfig, derive_seed, run_pipeline, synth_seed
from hydrocast.selection import BoostConfig, SelectionConfig, run_selection

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
                          tree_depth=3, min_samples_leaf=5,
                          seed=derive_seed(7, 1, 0)),
    )
    result = run_selection(train.features, train.precip, cfg)
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


def test_clean_rerun_removes_stale_errors_json(tmp_path):
    data = synth(tmp_path)  # contains p01 and p02 only
    out = tmp_path / "out"
    failing = write_config(tmp_path, small_config(data, out, points="p01,p03"), "failing.json")
    assert main(["run", "--config", str(failing)]) == 2
    assert (out / "errors.json").exists()
    clean = write_config(tmp_path, small_config(data, out, points="p01"), "clean.json")
    assert main(["run", "--config", str(clean)]) == 0
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


def _name_unknown_feature(payload):
    payload["occurrence"]["not_a_feature"] = 3


def _run_then_damage_p02_selection(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out))
    assert main(["run", "--config", str(cfg)]) == 0
    _edit_json(_name_unknown_feature)(out / "30_67.5" / "selection.json")
    return out, cfg


def test_evaluate_refuses_a_damaged_selection_before_scoring(tmp_path):
    out, cfg = _run_then_damage_p02_selection(tmp_path)
    assert main(["evaluate", "--config", str(cfg)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert {(r["lon"], r["lat"]) for r in report["rows"]} == {(27.5, 67.5)}
    summary = json.loads((out / "selection_summary.json").read_text())
    assert list(summary["top_features_per_point"]) == ["27.5_67.5"]
    assert not (out / "30_67.5" / "evaluation.json").exists()


def test_train_refuses_a_damaged_selection(tmp_path, capsys):
    out, cfg = _run_then_damage_p02_selection(tmp_path)
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_no_artifact_holds_a_non_finite_number(tmp_path):
    data = synth(tmp_path)
    lines = [line.split(",") for line in data.read_text().splitlines()]
    at = lines[0].index("precip")
    for cells in lines[1:]:  # boosting's training MSE overflows to an infinity
        cells[at] = repr(float(cells[at]) * 1e160)
    data.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(data, out, points="p01"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert list(json.loads((out / "errors.json").read_text())) == ["27.5_67.5"]
    for path in out.rglob("*"):
        if path.is_file():
            assert "NaN" not in path.read_text() and "Infinity" not in path.read_text(), path


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


def _edit_json(change):
    def edit(path):
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
    return edit


BAD_P02 = {
    "negative_precip": (_edit_p02_row("precip", "-1.0"), None, ["30_67.5"]),
    "bad_date": (_edit_p02_row("date", "2020-13"), None, ["30_67.5"]),
    "duplicate_timestamp": (_edit_p02_row("date", "1981-01"), None, ["30_67.5"]),  # p02's first month
    "non_numeric_feature": (_edit_p02_row("air_l05", "n/a"), None, ["30_67.5"]),
    "truncated_selection": (None, ("selection.json", _truncate), ["30_67.5"]),
    "truncated_models": (None, ("models.json", _truncate), ["30_67.5"]),
    "node_without_threshold": (
        None,
        ("models.json", _edit_json(
            lambda p: p["models"]["rf"]["trees"][0]["nodes"][0].pop("threshold"))),
        ["30_67.5:rf"],
    ),
    "selection_without_top_features": (
        None, ("selection.json", _edit_json(lambda p: p.pop("top_features"))), ["30_67.5"],
    ),
    "missing_knn_model": (
        None, ("models.json", _edit_json(lambda p: p["models"].pop("knn"))), ["30_67.5:knn"],
    ),
    "models_not_an_object": (
        None, ("models.json", _edit_json(lambda p: p.update(models=[1]))), ["30_67.5"],
    ),
    "empty_forest": (  # predicts NaN, which no metric may score
        None, ("models.json", _edit_json(lambda p: p["models"]["rf"].update(trees=[]))),
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
    "standardization_mean_text": (
        None,
        ("models.json", _edit_json(
            lambda p: p["models"]["svr"]["standardization"]["mean"].__setitem__(0, "x"))),
        ["30_67.5:svr"],
    ),
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
    assert list(json.loads((out / "errors.json").read_text())) == expected_keys
    for name in ("selection.json", "models.json", "evaluation.json"):
        assert (out / "27.5_67.5" / name).read_bytes() == (clean / "27.5_67.5" / name).read_bytes()


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
    "data_not_text": ([], {"data": 5}, 1),
    "output_not_text": ([], {"output": 5}, 1),
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


@pytest.mark.parametrize("flags, code", [
    (["--noise-sigma", "-1"], 1),
    (["--planted", ",".join(f"air_l{level:02d}" for level in range(1, 12))], 1),  # 11 names
    (["--samples", "5"], 2),
    (["--planted", ","], 2),
], ids=["negative_sigma", "eleven_planted", "five_samples", "nothing_planted"])
def test_synth_refuses_a_bad_setting_without_a_traceback(tmp_path, capsys, flags, code):
    out = tmp_path / "data.csv"
    assert main(["synth", "--points", "p01", "--out", str(out), *flags]) == code
    assert capsys.readouterr().err.startswith("hydrocast: ")
    assert not out.exists()


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["select", "--no-such-flag"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


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
], ids=["empty_object", "row_without_mae", "rows_not_a_list", "lon_not_a_number",
        "mae_not_a_number", "mae_nan", "pearson_infinity"])
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
