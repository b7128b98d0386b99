"""Per-point orchestration: load, select, train, evaluate, report.

Every stage reads and writes documented file artifacts under the output
directory, so the stages can run as separate commands and the all-in-one
runner is literally their composition. Each command reads the input CSV
once, then runs its stages for one point after another: a point stops at
its first failing stage, and the other points go on. One master seed derives
every sub-seed, and feature selection sees only training rows unless the
configuration explicitly opts into selecting on all rows.

Artifacts (all JSON unless noted):
    <output>/<lon>_<lat>/selection.json   pruning, occurrence counts, top features
    <output>/<lon>_<lat>/models.json      five serialized fitted models
    <output>/<lon>_<lat>/evaluation.json  per-model test metrics
    <output>/report.json                  all rows plus best model per point
    <output>/selection_summary.json       top lists and occurrence totals of the evaluated points
    <output>/report.csv, report.txt       rendered by the report stage
    <output>/errors.json                  only when some points failed in the last run;
                                          keys in point order, <label> or <label>:<model>
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .catalog import FEATURE_NAMES, IndexPoint, REFERENCE_POINTS, column_of
from .dataset import Dataset, PointData, SplitSpec, load_csv, split
from .errors import DamagedArtifact, HydrocastError
from .evaluation import (
    CSV_FORMAT,
    EvalResult,
    EvaluationReport,
    JSON_FORMAT,
    TEXT_TABLE,
    error_std,
    mae,
    pearson,
    render_report,
)
from .learners import KIND_ORDER, LearnerSpec, fit_all, model_from_dict, model_to_dict
from .selection import SelectionConfig, SelectionResult, ranked, run_selection

# Purpose codes for seed derivation; point index and kind index are appended.
_SEED_BOOST = 1
_SEED_LEARNER = 2
_SEED_SYNTH = 3
_POOLED_POINT_CODE = 10_000

#: The per-point artifacts of select, train and evaluate, in that order.
_POINT_ARTIFACTS = ("selection.json", "models.json", "evaluation.json")

#: What a point's selection.json gives later stages: its top columns, its occurrence counts.
_Selected = tuple[list[int], dict[int, int]]


def derive_seed(*parts: int) -> int:
    """Stable 64-bit sub-seed from integer path components."""
    seq = np.random.SeedSequence([int(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])


def synth_seed(master: int, point_index: int) -> int:
    return derive_seed(master, _SEED_SYNTH, point_index)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run needs; see README for the file schema.

    ``selection.boost.seed`` is replaced per point by one derived from ``seed``.
    """

    data_path: str
    output_dir: str
    points: tuple[IndexPoint, ...] = REFERENCE_POINTS
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    learners: tuple = tuple((kind, None) for kind in KIND_ORDER)
    seed: int = 0
    select_on_all: bool = False
    pooled_selection: bool = False

    def selection_config(self, seed: int) -> SelectionConfig:
        return replace(self.selection, boost=replace(self.selection.boost, seed=seed))

    def learner_specs(self, point_index: int) -> list[LearnerSpec]:
        specs = []
        for kind_index, (kind, hyper) in enumerate(self.learners):
            specs.append(
                LearnerSpec(
                    kind,
                    hyper,
                    seed=derive_seed(self.seed, _SEED_LEARNER, point_index, kind_index),
                )
            )
        return specs


@dataclass
class PipelineResult:
    selections: dict[str, SelectionResult]
    report: EvaluationReport | None
    errors: dict[str, str]
    trained: list[str] = field(default_factory=list)
    rendered: str = ""  # run_pipeline's text table, as written to report.txt


def _write_json(path: Path, payload) -> None:
    """Write an artifact; a payload holding a non-finite number is damaged and is not
    written, since no reader takes ``NaN`` or ``Infinity``."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise DamagedArtifact(f"{path}: not written, as it holds a non-finite number") from None
    path.write_text(text + "\n", encoding="utf-8")


def _refuse_constant(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def _read_json(path: Path, **fields: type) -> dict:
    """An artifact's payload; one that is not JSON, holds ``NaN`` or ``Infinity``,
    or whose ``fields`` are missing or not of their given JSON type (``list`` or
    ``dict``) is damaged."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    except ValueError as exc:  # undecodable bytes, invalid JSON or a non-finite literal
        raise DamagedArtifact(f"{path}: not valid JSON ({exc})") from None
    bad = [key for key, kind in fields.items()
           if not isinstance(payload, dict) or not isinstance(payload.get(key), kind)]
    if bad:
        raise DamagedArtifact(f"{path}: missing or malformed {', '.join(bad)}")
    return payload


def _read_selection(point_dir: Path) -> _Selected | None:
    """A point's top columns and its occurrence counts by column, or None when it has
    no selection.json; one that names a feature outside the catalog or holds a count
    that is not a positive integer is damaged."""
    path = point_dir / "selection.json"
    if not path.exists():
        return None
    payload = _read_json(path, top_features=list, occurrence=dict)
    counts = {column_of(name): count for name, count in payload["occurrence"].items()}
    if any(type(c) is not int or c < 1 for c in counts.values()):
        raise DamagedArtifact(f"{path}: an occurrence count is not a positive int")
    return [column_of(name) for name in payload["top_features"]], counts


def _by_rank(counts: dict[int, int]) -> dict[str, int]:
    """Feature name -> count for the columns that rank, in rank order."""
    return {FEATURE_NAMES[f]: counts[f] for f in ranked(counts)}


def _point_payload(point: IndexPoint) -> dict:
    return {"lon": point.lon, "lat": point.lat, "elev": point.elev, "id": point.id}


def _selection_rows(cfg: PipelineConfig, data: Dataset) -> Dataset:
    if cfg.select_on_all:
        return data
    train, _ = split(data, cfg.split)
    return train


def selection_payload(point: IndexPoint, selection: SelectionResult, seed: int,
                      cfg: PipelineConfig, n_rows: int, pooled: bool) -> dict:
    return {
        "point": _point_payload(point),
        "seed": seed,
        "selected_on": "all" if cfg.select_on_all else "train",
        "pooled": pooled,
        "n_rows_used": n_rows,
        "gamma": cfg.selection.colinearity.gamma,
        "norm": cfg.selection.colinearity.norm,
        "kappa": cfg.selection.kappa,
        "kept_after_prune": [FEATURE_NAMES[f] for f in selection.kept_after_prune],
        "dropped_pairs": [
            {"kept": FEATURE_NAMES[i], "dropped": FEATURE_NAMES[j], "cosine": c}
            for i, j, c in selection.dropped_pairs
        ],
        "occurrence": _by_rank(selection.occurrence),
        "occurrence_total": selection.occurrence_total,
        "top_features": [FEATURE_NAMES[f] for f in selection.top_k],
        "n_stages": selection.n_stages,
        "training_mse_per_stage": list(selection.training_mse_per_stage),
    }


def _pooled_selection(cfg: PipelineConfig, datasets: PointData) -> tuple[SelectionResult, int]:
    """One selection over every point's selection rows, and its seed."""
    seed = derive_seed(cfg.seed, _SEED_BOOST, _POOLED_POINT_CODE)
    rows = [_selection_rows(cfg, datasets[point.label]) for point in cfg.points]
    X = np.vstack([r.features for r in rows])
    y = np.concatenate([r.precip for r in rows])
    return run_selection(X, y, cfg.selection_config(seed)), seed


def stage_select(cfg: PipelineConfig, idx: int, point: IndexPoint, datasets: PointData,
                 pooled: tuple[SelectionResult, int] | None) -> SelectionResult:
    """Prune and boost-rank one point's features; write its selection.json.

    ``pooled`` is the shared (selection, seed) of a pooled run.
    """
    rows = _selection_rows(cfg, datasets[point.label])
    if pooled is None:
        seed = derive_seed(cfg.seed, _SEED_BOOST, idx)
        selection = run_selection(rows.features, rows.precip, cfg.selection_config(seed))
    else:
        selection, seed = pooled
    point_dir = Path(cfg.output_dir) / point.label
    point_dir.mkdir(exist_ok=True)
    _write_json(
        point_dir / "selection.json",
        selection_payload(point, selection, seed, cfg, len(rows), pooled is not None),
    )
    return selection


def stage_train(cfg: PipelineConfig, idx: int, point: IndexPoint,
                datasets: PointData) -> dict | None:
    """Fit the learners on one point's selected training columns; write models.json.

    A point without a selection.json is skipped (None).
    """
    point_dir = Path(cfg.output_dir) / point.label
    selection = _read_selection(point_dir)
    if selection is None:
        return None
    columns, _ = selection
    if not columns:
        raise HydrocastError("selection produced no features")
    train, _ = split(datasets[point.label], cfg.split)
    models = fit_all(cfg.learner_specs(idx), train.features[:, columns], train.precip, columns)
    _write_json(
        point_dir / "models.json",
        {
            "point": _point_payload(point),
            "features": [FEATURE_NAMES[f] for f in columns],
            "models": {kind: model_to_dict(models[kind]) for kind, _ in cfg.learners},
        },
    )
    return models


def stage_evaluate(cfg: PipelineConfig, idx: int, point: IndexPoint, datasets: PointData,
                   errors: dict[str, str]) -> tuple[list[EvalResult], _Selected | None] | None:
    """Score one point's stored models on its test months; write evaluation.json.

    Returns the rows and the point's selection, read before any model is
    scored. A model that fails goes into ``errors`` as ``<label>:<kind>``; the
    rest are still scored. A point without a models.json is skipped (None).
    """
    point_dir = Path(cfg.output_dir) / point.label
    models_file = point_dir / "models.json"
    if not models_file.exists():
        return None
    selection = _read_selection(point_dir)
    payload = _read_json(models_file, features=list, models=dict)
    columns = [column_of(name) for name in payload["features"]]
    _, test = split(datasets[point.label], cfg.split)
    X_test = test.features[:, columns]
    rows: list[EvalResult] = []
    for kind, _ in cfg.learners:
        try:
            predicted = model_from_dict(payload["models"].get(kind)).predict_batch(X_test)
            rows.append(EvalResult(
                point,
                kind,
                pearson(test.precip, predicted),
                mae(test.precip, predicted),
                error_std(test.precip, predicted),
                len(test),
            ))
        except HydrocastError as exc:
            errors[f"{point.label}:{kind}"] = str(exc)
    metrics = {r.model_kind: {"pearson": r.rho, "mae": r.mae, "std": r.std} for r in rows}
    _write_json(
        point_dir / "evaluation.json",
        {"point": _point_payload(point), "n_test": len(test), "metrics": metrics},
    )
    return rows, selection


def _write_selection_summary(output_dir, selections: dict[str, _Selected]) -> None:
    """Sum the evaluated points' occurrence counts and top-list memberships by column."""
    totals, membership = Counter(), Counter()
    for top, counts in selections.values():
        totals.update(counts)
        membership.update(top)
    _write_json(
        Path(output_dir) / "selection_summary.json",
        {
            "top_features_per_point": {label: [FEATURE_NAMES[f] for f in top]
                                       for label, (top, _) in selections.items()},
            "occurrence_totals": _by_rank(totals),
            "occurrence_total_sum": sum(totals.values()),
            "top_feature_membership": _by_rank(membership),
        },
    )


def stage_report(output_dir, fmt: str = TEXT_TABLE,
                 report: EvaluationReport | None = None) -> str:
    """Render ``report``, or else the stored report.json; also writes report.txt,
    report.csv or report.out.json."""
    if report is None:
        path = Path(output_dir) / "report.json"
        payload = _read_json(path, rows=list)
        try:
            report = EvaluationReport.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:  # a row field missing or of the wrong type
            raise DamagedArtifact(f"{path}: malformed row ({exc!r})") from None
    rendered = render_report(report, fmt)
    suffix = {TEXT_TABLE: "report.txt", CSV_FORMAT: "report.csv", JSON_FORMAT: "report.out.json"}
    out = Path(output_dir) / suffix[fmt]
    out.write_text(rendered, encoding="utf-8")
    return rendered


def run_stages(cfg: PipelineConfig, stages: tuple[str, ...]) -> PipelineResult:
    """Run the named stages, in pipeline order, for one point after another.

    The CSV is read once. A point stops at its first error, which is
    recorded under its label while the other points go on; the point's
    artifacts of the failed stage and of every later stage are deleted, so
    no later command reads what an earlier run left there. After the last
    point, report.json and selection_summary.json are written from the
    points that evaluate scored.
    """
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    datasets = load_csv(cfg.data_path, cfg.points)
    pooled = None
    if cfg.pooled_selection and "select" in stages:
        pooled = _pooled_selection(cfg, datasets)
    result = PipelineResult({}, None, {})
    rows: list[EvalResult] = []
    selections: dict[str, _Selected] = {}  # of the points with rows
    for idx, point in enumerate(cfg.points):
        try:
            if "select" in stages:
                stale = _POINT_ARTIFACTS
                result.selections[point.label] = stage_select(cfg, idx, point, datasets, pooled)
            if "train" in stages:
                stale = _POINT_ARTIFACTS[1:]
                if stage_train(cfg, idx, point, datasets) is None:
                    continue
                result.trained.append(point.label)
            if "evaluate" in stages:
                stale = _POINT_ARTIFACTS[2:]
                point_rows, selection = (stage_evaluate(cfg, idx, point, datasets, result.errors)
                                         or ([], None))
                rows += point_rows
                if point_rows and selection is not None:
                    selections[point.label] = selection
        except HydrocastError as exc:
            result.errors[point.label] = str(exc)
            for name in stale:  # left by an earlier run, they no longer match this one
                (Path(cfg.output_dir) / point.label / name).unlink(missing_ok=True)
    if rows:
        result.report = EvaluationReport(rows)
        _write_json(Path(cfg.output_dir) / "report.json", result.report.to_dict())
        _write_selection_summary(cfg.output_dir, selections)
    return result


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """select -> train -> evaluate -> report, sharing one artifact tree."""
    result = run_stages(cfg, ("select", "train", "evaluate"))
    if result.report is not None:
        result.rendered = stage_report(cfg.output_dir, TEXT_TABLE, result.report)
        stage_report(cfg.output_dir, CSV_FORMAT, result.report)
    errors_file = Path(cfg.output_dir) / "errors.json"
    if result.errors:
        _write_json(errors_file, result.errors)
    else:
        errors_file.unlink(missing_ok=True)  # left by an earlier failed run
    return result
