"""Per-point orchestration: load, select, train, evaluate, report.

Every stage reads and writes documented file artifacts under the output
directory, so the stages can run as separate commands and the all-in-one
runner is literally their composition: every file but errors.json comes out
as the stages run one by one write it, and run's errors.json holds the errors
of all its stages. Each command reads the input CSV once, then calls
``run_point`` for one point after another: one call is one point's work. It
runs the point's stages, touches files only in the point's directory and
returns the point's own results and errors, so a point stops at its first
failing stage and the other points go on. One master seed derives every
sub-seed, and feature selection sees only training rows unless the
configuration explicitly opts into selecting on all rows.

Artifacts (all JSON unless noted):
    <output>/<lon>_<lat>/selection.json   pruning, occurrence counts, top features
    <output>/<lon>_<lat>/models.json      five serialized fitted models
    <output>/<lon>_<lat>/evaluation.json  per-model test metrics
    <output>/report.json                  all rows plus best model per point
    <output>/selection_summary.json       top lists and occurrence totals of the evaluated points
    <output>/report.csv, report.txt       rendered by the report stage
    <output>/errors.json                  only when some points failed in the last command
                                          that ran a point stage (an evaluate that finds
                                          no models leaves it); keys in point order,
                                          <label> or <label>:<model>
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .catalog import FEATURE_NAMES, IndexPoint, REFERENCE_POINTS, column_of
from .dataset import Dataset, PointData, SplitSpec, held_out, load_csv, split
from .errors import DamagedArtifact, EmptyDataset, HydrocastError
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

#: The per-point stages, in pipeline order, and the artifact each one writes; run_stages
#: calls ``stage_<name>`` for each.
STAGES = (("select", "selection.json"), ("train", "models.json"), ("evaluate", "evaluation.json"))

#: The file each report format renders report.json to.
_RENDERINGS = {TEXT_TABLE: "report.txt", CSV_FORMAT: "report.csv", JSON_FORMAT: "report.out.json"}

#: What a point's selection.json gives later stages: its top columns, its occurrence counts.
_Selected = tuple[list[int], dict[int, int]]

#: A pooled selection, its seed and the count of pooled rows it ran on, or the error that
#: selection raised (None: not pooled).
_Pooled = tuple[SelectionResult, int, int] | HydrocastError

#: What the result keeps of a point's evaluate stage: its rows, and its selection if it has one.
_Evaluated = tuple[list[EvalResult], _Selected | None]


def derive_seed(*parts: int) -> int:
    """Stable 64-bit sub-seed from integer path components."""
    seq = np.random.SeedSequence([int(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])


def synth_seed(master: int, point_index: int) -> int:
    return derive_seed(master, _SEED_SYNTH, point_index)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run needs; see README for the file schema.

    Each point's boosting seed, like every other seed, derives from ``seed``.
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

    def learner_specs(self, point_index: int) -> list[LearnerSpec]:
        return [LearnerSpec(kind, hyper, seed=derive_seed(self.seed, _SEED_LEARNER, point_index, k))
                for k, (kind, hyper) in enumerate(self.learners)]


@dataclass
class PipelineResult:
    selections: dict[str, SelectionResult]
    report: EvaluationReport | None
    errors: dict[str, str]
    trained: list[str]  # the points whose models.json was written
    rendered: str  # the first rendering run_stages was asked for, as written to its file


def _write_json(path: Path, payload) -> None:
    """Write an artifact; a fitted model in ``payload`` is written as its
    ``model_to_dict``. A payload holding a non-finite number, as a JSON number or
    inside a model's encoded array, is damaged and is not written, since no reader
    takes one. ``models.json``, whose forests are most of a run's bytes, is written
    on one line without spaces; every other artifact is indented."""
    layout = {"separators": (",", ":")} if path.name == "models.json" else {"indent": 2}
    try:  # the encoder refuses a non-finite float with ValueError, as allow_nan=False does
        text = json.dumps(payload, allow_nan=False, default=model_to_dict, **layout)
    except ValueError:
        raise DamagedArtifact(f"{path}: not written, as it holds a non-finite number") from None
    _write_text(path, text + "\n")


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then move it onto ``path``,
    so a reader finds the old file or the new one, never a part. A failed write or
    move takes the temporary file away with it."""
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _refuse_constant(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def _read_json(path: Path, **fields: type) -> dict:
    """An artifact's payload; one that is there but cannot be read (a directory, say),
    is not JSON, holds ``NaN`` or ``Infinity``, or whose ``fields`` are missing or not
    of their given JSON type (``list`` or ``dict``) is damaged."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    except FileNotFoundError:
        raise  # a missing artifact is its caller's case: report says "no report.json found"
    except OSError as exc:
        raise DamagedArtifact(f"{path}: cannot be read ({exc.strerror or exc})") from None
    except ValueError as exc:  # undecodable bytes, invalid JSON or a non-finite literal
        raise DamagedArtifact(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise DamagedArtifact(f"{path}: JSON nested too deeply to read") from None
    bad = [key for key, kind in fields.items()
           if not isinstance(payload, dict) or not isinstance(payload.get(key), kind)]
    if bad:
        raise DamagedArtifact(f"{path}: missing or malformed {', '.join(bad)}")
    return payload


def _read_own(path: Path, point: IndexPoint, **fields: type) -> dict:
    """``_read_json``'s payload of one of ``point``'s artifacts; one whose ``point`` is not
    an object with this point's ``lon`` and ``lat``, its directory's keys, is damaged."""
    payload = _read_json(path, **fields)
    stamp = payload.get("point")
    if not (isinstance(stamp, dict)
            and (stamp.get("lon"), stamp.get("lat")) == (point.lon, point.lat)):
        raise DamagedArtifact(f"{path}: written for another point; rerun select")
    return payload


def _read_selection(point_dir: Path, point: IndexPoint) -> _Selected | None:
    """A point's top columns and its occurrence counts by column, or None when it has
    no selection.json; one written for another point or that names a feature outside the
    catalog, holds a count that is not a positive int or names a top feature twice is damaged."""
    path = point_dir / "selection.json"
    if not path.exists():
        return None
    payload = _read_own(path, point, top_features=list, occurrence=dict)
    counts = {column_of(name): count for name, count in payload["occurrence"].items()}
    if any(type(c) is not int or c < 1 for c in counts.values()):
        raise DamagedArtifact(f"{path}: an occurrence count is not a positive int")
    top = [column_of(name) for name in payload["top_features"]]
    if len(set(top)) < len(top):
        raise DamagedArtifact(f"{path}: a top feature is named twice")
    return top, counts


def _by_rank(counts: dict[int, int]) -> dict[str, int]:
    """Feature name -> count for the columns that rank, in rank order."""
    return {FEATURE_NAMES[f]: counts[f] for f in ranked(counts)}


def _selection_rows(cfg: PipelineConfig, data: Dataset) -> Dataset:
    if cfg.select_on_all:
        return data
    train, _ = split(data, cfg.split)
    return train


def _pooled_selection(cfg: PipelineConfig, datasets: PointData) -> _Pooled:
    """One selection over the selection rows of every point whose rows load, its seed
    and its row count; or the error that selection raised, which is then each point's
    error."""
    seed = derive_seed(cfg.seed, _SEED_BOOST, _POOLED_POINT_CODE)
    rows = []
    for point in cfg.points:
        try:
            rows.append(_selection_rows(cfg, datasets[point.label]))
        except HydrocastError:  # the point fails alone, at its own selection rows
            pass
    if not rows:
        return EmptyDataset("no point has rows to pool")
    X = np.vstack([r.features for r in rows])
    y = np.concatenate([r.precip for r in rows])
    try:
        return run_selection(X, y, cfg.selection, seed), seed, len(y)
    except HydrocastError as exc:
        return exc


# Each stage returns what the command's result keeps of it and the payload of the
# point's artifact that run_point writes, or None when the point skips the stage.

def stage_select(cfg: PipelineConfig, idx: int, point: IndexPoint, datasets: PointData,
                 pooled: _Pooled | None) -> tuple[SelectionResult, dict]:
    """Prune and boost-rank one point's features, for its selection.json."""
    rows = _selection_rows(cfg, datasets[point.label])
    if pooled is None:
        seed = derive_seed(cfg.seed, _SEED_BOOST, idx)
        selection = run_selection(rows.features, rows.precip, cfg.selection, seed)
        n_rows = len(rows)
    elif isinstance(pooled, HydrocastError):
        raise pooled
    else:
        selection, seed, n_rows = pooled
    return selection, {
        "point": asdict(point),
        "seed": seed,
        "selected_on": "all" if cfg.select_on_all else "train",
        "pooled": pooled is not None,
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


def stage_train(cfg: PipelineConfig, idx: int, point: IndexPoint,
                datasets: PointData) -> tuple[None, dict] | None:
    """Fit the learners on one point's selected training columns, for its models.json.

    A point without a selection.json is skipped (None).
    """
    selection = _read_selection(Path(cfg.output_dir) / point.label, point)
    if selection is None:
        return None
    columns, _ = selection
    if not columns:
        raise HydrocastError("selection produced no features")
    train, _ = split(datasets[point.label], cfg.split)
    models = fit_all(cfg.learner_specs(idx), train.features[:, columns], train.precip, columns)
    return None, {"point": asdict(point), "features": [FEATURE_NAMES[f] for f in columns],
                  "models": models}


def stage_evaluate(cfg: PipelineConfig, point: IndexPoint, datasets: PointData,
                   errors: dict[str, str]) -> tuple[_Evaluated, dict] | None:
    """Score one point's stored models on its test months, for its evaluation.json.

    Keeps the rows and the point's selection, read before any model is scored. A
    models.json written for another point fails the point. A model that fails, that is
    not of its entry's kind, whose ``feature_indices`` are not the columns that
    ``features`` names, or whose predictions or metrics overflow float range, goes into
    the point's ``errors`` as ``<label>:<kind>``; the rest are still scored. A point
    without a models.json is skipped (None).
    """
    point_dir = Path(cfg.output_dir) / point.label
    models_file = point_dir / "models.json"
    if not models_file.exists():
        return None
    selection = _read_selection(point_dir, point)
    payload = _read_own(models_file, point, features=list, models=dict)
    columns = [column_of(name) for name in payload["features"]]
    test = held_out(datasets[point.label], cfg.split)
    X_test = test.features[:, columns]
    rows: list[EvalResult] = []
    for kind, _ in cfg.learners:
        try:
            model = model_from_dict(payload["models"].get(kind))
            if model.kind != kind:
                raise DamagedArtifact(f"{models_file}: the {kind} entry holds a {model.kind} model")
            if list(model.feature_indices) != columns:
                raise DamagedArtifact(f"{models_file}: the {kind} model's feature_indices "
                                      "are not the columns of its features")
            with np.errstate(all="ignore"):  # a prediction past float range is refused
                predicted = model.predict_batch(X_test)
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
    return (rows, selection), {"point": asdict(point), "n_test": len(test),
                               "metrics": metrics}


def _selection_summary(evaluated: dict[str, _Evaluated]) -> dict:
    """Sum the occurrence counts and top-list memberships by column of the evaluated
    points that scored a row."""
    selections = {label: selection for label, (rows, selection) in evaluated.items()
                  if rows and selection is not None}
    totals, membership = Counter(), Counter()
    for top, counts in selections.values():
        totals.update(counts)
        membership.update(top)
    return {
        "top_features_per_point": {label: [FEATURE_NAMES[f] for f in top]
                                   for label, (top, _) in selections.items()},
        "occurrence_totals": _by_rank(totals),
        "occurrence_total_sum": sum(totals.values()),
        "top_feature_membership": _by_rank(membership),
    }


def stage_report(output_dir, fmt: str = TEXT_TABLE) -> str:
    """Render the stored report.json; also writes report.txt, report.csv or
    report.out.json."""
    path = Path(output_dir) / "report.json"
    payload = _read_json(path, rows=list)
    try:
        report = EvaluationReport.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        # a row field missing or of the wrong type, a model outside KIND_ORDER,
        # or a (point, model) row given twice
        raise DamagedArtifact(f"{path}: malformed row ({exc!r})") from None
    rendered = render_report(report, fmt)
    _write_text(Path(output_dir) / _RENDERINGS[fmt], rendered)
    return rendered


def run_point(cfg: PipelineConfig, stages: tuple[str, ...], idx: int, point: IndexPoint,
              datasets: PointData, pooled: _Pooled | None) -> tuple[dict, dict[str, str]]:
    """Run the named stages, in pipeline order, for the ``idx``-th configured point.

    The point stops at its first error, recorded under its label, or at a
    stage it skips. Its artifacts after the last one written here are
    deleted, so no later command reads what an earlier run left there; no
    file outside the point's directory is touched. Returns what the result
    keeps of each stage written, by stage, and the point's own errors
    (evaluate's ``<label>:<kind>`` keys, then ``<label>``).
    """
    point_dir = Path(cfg.output_dir) / point.label
    kept, errors = {}, {}
    inputs = {"select": (cfg, idx, point, datasets, pooled),  # each stage's arguments
              "train": (cfg, idx, point, datasets), "evaluate": (cfg, point, datasets, errors)}
    stale = len(STAGES)  # the point's artifacts from this index on are stale
    try:
        for at, (stage, artifact) in enumerate(STAGES):
            if stage not in stages:
                continue
            stale = at
            # looked up at call time, where perfbench's tracer hooks it (ROADMAP item 1)
            done = globals()[f"stage_{stage}"](*inputs[stage])
            if done is None:
                break
            point_dir.mkdir(parents=True, exist_ok=True)
            _write_json(point_dir / artifact, done[1])
            kept[stage] = done[0]
            del done  # a models.json payload is hundreds of kB, and evaluate reads its own
            stale = at + 1
    except HydrocastError as exc:
        errors[point.label] = str(exc)
    for _, artifact in STAGES[stale:]:  # left by an earlier run, they no longer match
        (point_dir / artifact).unlink(missing_ok=True)
    return kept, errors


def run_stages(cfg: PipelineConfig, stages: tuple[str, ...],
               formats: tuple[str, ...] = ()) -> PipelineResult:
    """Run the named stages for one point after another (``run_point``).

    The CSV is read once, and a pooled selection runs once before the
    first point. A failed point does not stop the others. After the last
    point the root outputs are replaced (``_replace_root``): report.json
    and selection_summary.json, with report.json rendered in ``formats``,
    when ``stages`` evaluate and score a row, and errors.json, the points'
    errors in point order, when a point or model failed. The root outputs
    this command does not write are deleted, so errors.json holds the
    errors of the last command that ran a point stage. The exception is a
    command that evaluates no point and records no error (an ``evaluate``
    of points without models.json): it leaves the root outputs as they
    were, since it replaced no model that report.json scored.
    """
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    datasets = load_csv(cfg.data_path, cfg.points)
    pooled = None
    if cfg.pooled_selection and "select" in stages:
        pooled = _pooled_selection(cfg, datasets)
    kept = {stage: {} for stage, _ in STAGES}  # per stage, label -> what the result keeps
    errors = {}
    for idx, point in enumerate(cfg.points):
        point_kept, point_errors = run_point(cfg, stages, idx, point, datasets, pooled)
        for stage, value in point_kept.items():
            kept[stage][point.label] = value
        errors.update(point_errors)
    report, rendered = None, ""
    # select and train delete the models that an earlier report.json scored
    if kept["evaluate"] or errors or "evaluate" not in stages:
        report, rendered = _replace_root(cfg.output_dir, kept["evaluate"], errors, formats)
    return PipelineResult(kept["select"], report, errors, list(kept["train"]), rendered)


def _replace_root(output_dir, evaluated: dict[str, _Evaluated], errors: dict[str, str],
                  formats: tuple[str, ...]) -> tuple[EvaluationReport | None, str]:
    """Write the root outputs of one command and delete the others, which an earlier
    command left. When the ``evaluated`` points scored a row, report.json holds their
    rows and selection_summary.json their selections, and report.json is rendered in
    ``formats``; errors.json holds ``errors`` when there are any. Returns the report,
    or None, and its first rendering, or ""."""
    root = Path(output_dir)
    rows = [row for point_rows, _ in evaluated.values() for row in point_rows]
    report, written, rendered = None, [], [""]
    if rows:
        report = EvaluationReport(rows)
        _write_json(root / "report.json", report.to_dict())
        _write_json(root / "selection_summary.json", _selection_summary(evaluated))
        rendered = [stage_report(output_dir, fmt) for fmt in formats] or [""]
        written = ["report.json", "selection_summary.json", *(_RENDERINGS[f] for f in formats)]
    if errors:
        _write_json(root / "errors.json", errors)
        written.append("errors.json")
    for name in ("report.json", "selection_summary.json", *_RENDERINGS.values(), "errors.json"):
        if name not in written:
            (root / name).unlink(missing_ok=True)
    return report, rendered[0]


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """select -> train -> evaluate -> report, sharing one artifact tree."""
    return run_stages(cfg, tuple(stage for stage, _ in STAGES), (TEXT_TABLE, CSV_FORMAT))
