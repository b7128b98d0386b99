"""Command line entry point: hydrocast <subcommand> [flags].

Subcommands mirror the pipeline stages (synth, select, train, evaluate,
report) plus an all-in-one run. Settings come from an optional JSON
config file with flag overrides winning; see README for the schema.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .catalog import IndexPoint, REFERENCE_POINTS
from .dataset import CHRONOLOGICAL, SEEDED_RANDOM, SplitSpec, write_csv
from .errors import HydrocastError
from .evaluation import CSV_FORMAT, JSON_FORMAT, TEXT_TABLE
from .learners import MODELS
from .pipeline import PipelineConfig, synth_seed
from .selection import BoostConfig
from .synthetic import generate_synthetic, signal_std

DEFAULT_PLANTED = "air_l01,rhum_l01,uwnd_l04,air_l11,rhum_l08"

_FORMATS = {"text": TEXT_TABLE, "csv": CSV_FORMAT, "json": JSON_FORMAT}


class UsageError(Exception):
    """Bad invocation or config structure; exits 1 instead of 2."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="master seed deriving all sub-seeds")
    parser.add_argument("--output", help="artifact directory")
    parser.add_argument("--data", help="input CSV path")
    parser.add_argument("--points", help="comma-separated bundled point ids, or 'all'")


def _add_pipeline_flags(parser):
    parser.add_argument("--gamma", type=float, help="colinearity threshold")
    parser.add_argument("--norm", choices=["l2", "l1_as_printed"], help="cosine norm")
    parser.add_argument("--kappa", type=int, help="number of features to keep")
    parser.add_argument("--train-fraction", type=float, help="training share of rows")
    parser.add_argument("--split-mode", choices=[CHRONOLOGICAL, SEEDED_RANDOM])
    parser.add_argument("--split-seed", type=int)
    parser.add_argument("--trees-per-stage", type=int)
    parser.add_argument("--max-stages", type=int)
    parser.add_argument("--stop-tolerance", type=float)
    parser.add_argument("--tree-depth", type=int, help="weak learner depth")
    parser.add_argument("--select-on-all", action="store_true", default=None,
                        help="let selection see all rows, not just training rows")
    parser.add_argument("--pooled", action="store_true", default=None,
                        help="one selection over all points' training rows")


def build_parser() -> _Parser:
    parser = _Parser(prog="hydrocast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV with planted signal")
    _add_common(p_synth)
    p_synth.add_argument("--samples", type=int, default=444)
    p_synth.add_argument("--planted", default=DEFAULT_PLANTED,
                         help="comma-separated feature names carrying signal")
    p_synth.add_argument("--noise-sigma", type=float, default=0.0)
    p_synth.add_argument("--noise-rel", type=float,
                         help="noise as a fraction of the signal std (overrides --noise-sigma)")
    p_synth.add_argument("--linear", action="store_true",
                         help="linear-only signal (no product or threshold term)")
    p_synth.add_argument("--out", help="output CSV path (defaults to --data)")

    for name, helptext in [
        ("select", "prune colinear features and rank the rest by boosted occurrence"),
        ("train", "fit the five models on the selected features"),
        ("evaluate", "score stored models on the held-out months"),
        ("run", "select + train + evaluate + report in one go"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        _add_pipeline_flags(p)

    p_report = sub.add_parser("report", help="render the evaluation report")
    _add_common(p_report)
    p_report.add_argument("--format", choices=sorted(_FORMATS), default="text")

    return parser


def _load_config_file(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file must hold a JSON object: {path}")
    return payload


def _resolve_points(value) -> tuple[IndexPoint, ...]:
    if value is None or value == "all":
        return REFERENCE_POINTS
    if isinstance(value, str):
        by_id = {p.id: p for p in REFERENCE_POINTS}
        points = []
        for token in value.split(","):
            token = token.strip()
            if token not in by_id:
                raise UsageError(f"unknown bundled point id: {token!r}")
            points.append(by_id[token])
        return tuple(points)
    return tuple(
        IndexPoint(float(p["lon"]), float(p["lat"]), float(p["elev"]), p.get("id", ""))
        for p in value
    )


def _pick(*values):
    """The first value that is set (not None): a flag, then the config file."""
    return next((value for value in values if value is not None), None)


def _section(file_cfg: dict, name: str) -> dict:
    section = file_cfg.get(name, {})
    if not isinstance(section, dict):
        raise UsageError(f"config {name!r} must be a JSON object")
    return section


def _int(value):
    """An integer setting such as a seed; None stays unset."""
    return None if value is None else int(value)


def _given(**fields) -> dict:
    """The fields that are set, so the dataclass defaults fill in the rest."""
    return {name: value for name, value in fields.items() if value is not None}


@contextmanager
def _config_checked():
    """A bad config value or structure is a usage error (exit 1).

    The data errors a setting already raises, such as a train fraction
    outside (0, 1), still exit 2.
    """
    try:
        yield
    except HydrocastError:
        raise
    except KeyError as exc:
        raise UsageError(f"bad config value: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config value: {exc}") from None


def build_pipeline_config(args) -> PipelineConfig:
    """The run's settings, checked before any data is read."""
    with _config_checked():
        cfg = _pipeline_config(args)
        cfg.selection_config(cfg.seed)  # checks gamma, norm and kappa
    return cfg


def _pipeline_config(args) -> PipelineConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}

    data_path = _pick(args.data, file_cfg.get("data"))
    output_dir = _pick(args.output, file_cfg.get("output"))
    if data_path is None:
        raise UsageError("no input data path given (--data or config 'data')")
    if output_dir is None:
        raise UsageError("no output directory given (--output or config 'output')")

    def flag(name):
        return getattr(args, name, None)

    split_cfg = _section(file_cfg, "split")
    split = SplitSpec(**_given(
        train_fraction=_pick(flag("train_fraction"), split_cfg.get("train_fraction")),
        mode=_pick(flag("split_mode"), split_cfg.get("mode")),
        seed=_pick(flag("split_seed"), split_cfg.get("seed")),
    ))

    boost_cfg = _section(file_cfg, "boost")
    weak_tree = replace(BoostConfig().weak_tree, **_given(
        max_depth=_pick(flag("tree_depth"), boost_cfg.get("tree_depth")),
        min_samples_leaf=boost_cfg.get("min_samples_leaf"),
    ))
    boost = BoostConfig(weak_tree=weak_tree, **_given(
        trees_per_stage=_pick(flag("trees_per_stage"), boost_cfg.get("trees_per_stage")),
        max_stages=_pick(flag("max_stages"), boost_cfg.get("max_stages")),
        shrinkage=boost_cfg.get("shrinkage"),
        stop_tolerance=_pick(flag("stop_tolerance"), boost_cfg.get("stop_tolerance")),
        feature_subset_size=boost_cfg.get("feature_subset_size"),
    ))

    learner_cfg = file_cfg.get("learners")
    learners = None
    if learner_cfg is not None:
        learners = []
        for kind, model in MODELS.items():
            if kind in learner_cfg:
                learners.append((kind, model.config(**dict(learner_cfg[kind]))))
        if not learners:
            raise UsageError("config 'learners' selects no known model kinds")
        learners = tuple(learners)

    return PipelineConfig(
        data_path=data_path,
        output_dir=output_dir,
        points=_resolve_points(_pick(args.points, file_cfg.get("points"))),
        boost=boost,
        split=split,
        select_on_all=bool(_pick(flag("select_on_all"), file_cfg.get("select_on_all"))),
        pooled_selection=bool(_pick(flag("pooled"), file_cfg.get("pooled"))),
        **_given(
            learners=learners,
            gamma=_pick(flag("gamma"), file_cfg.get("gamma")),
            norm=_pick(flag("norm"), file_cfg.get("norm")),
            kappa=_pick(flag("kappa"), file_cfg.get("kappa")),
            seed=_int(_pick(args.seed, file_cfg.get("seed"))),
        ),
    )


def cmd_synth(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    out = args.out or _pick(args.data, file_cfg.get("data"))
    if out is None:
        raise UsageError("no output CSV path given (--out or --data)")
    with _config_checked():
        master = int(_pick(args.seed, file_cfg.get("seed"), 0))
        points = _resolve_points(_pick(args.points, file_cfg.get("points")))
    planted = [name.strip() for name in args.planted.split(",") if name.strip()]

    datasets = []
    for idx, point in enumerate(points):
        seed = synth_seed(master, idx)
        sigma = args.noise_sigma
        if args.noise_rel is not None:
            sigma = args.noise_rel * signal_std(
                planted, args.samples, seed=seed, linear_only=args.linear
            )
        data, _ = generate_synthetic(
            args.samples, planted, noise_sigma=sigma, seed=seed,
            point=point, linear_only=args.linear,
        )
        datasets.append(data)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(datasets, out)
    print(f"wrote {sum(len(d) for d in datasets)} rows for {len(datasets)} points to {out}")
    return 0


def cmd_stage(args) -> int:
    cfg = build_pipeline_config(args)
    # stages are resolved through the pipeline module, where tests and perfbench hook them
    if args.command == "run":
        result = pipeline.run_pipeline(cfg)
        if result.report is not None:
            print(pipeline.stage_report(cfg.output_dir, TEXT_TABLE), end="")
    else:
        result = pipeline.run_stages(cfg, (args.command,))
        if args.command == "select":
            print(f"selected features for {len(result.selections)} points")
        elif args.command == "train":
            print(f"trained {len(result.trained)} points x {len(cfg.learners)} models")
        elif result.report is None:
            raise HydrocastError("no models found to evaluate; run 'train' first")
        else:
            print(f"evaluated {len(result.report.rows)} (point, model) pairs")
    for key, message in result.errors.items():
        print(f"error [{key}]: {message}", file=sys.stderr)
    return 2 if result.errors else 0


def cmd_report(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    output_dir = _pick(args.output, file_cfg.get("output"))
    if output_dir is None:
        raise UsageError("no output directory given (--output or config 'output')")
    try:
        rendered = pipeline.stage_report(output_dir, _FORMATS[args.format])
    except FileNotFoundError:
        raise HydrocastError("no report.json found; run 'evaluate' first") from None
    print(rendered, end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            code = cmd_synth(args)
        elif args.command == "report":
            code = cmd_report(args)
        else:
            code = cmd_stage(args)
    except UsageError as exc:
        print(f"hydrocast: {exc}", file=sys.stderr)
        return 1
    except HydrocastError as exc:
        print(f"hydrocast: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"hydrocast: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
