"""Command line entry point: hydrocast <subcommand> [flags].

Subcommands mirror the pipeline stages (synth, select, train, evaluate,
report) plus an all-in-one run. Settings come from an optional JSON
config file with flag overrides winning; see README for the schema.
Each flag's argparse ``dest`` is its config file key (``boost.tree_depth``
for the ``boost`` section's ``tree_depth``), so flags and file meet in
``_settings`` alone. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import pipeline
from .catalog import IndexPoint, REFERENCE_POINTS
from .dataset import CHRONOLOGICAL, SEEDED_RANDOM, SplitSpec, write_csv
from .errors import HydrocastError
from .evaluation import CSV_FORMAT, JSON_FORMAT, TEXT_TABLE
from .learners import MODELS
from .pipeline import PipelineConfig, synth_seed
from .selection import L1_AS_PRINTED, L2, BoostConfig, ColinearityConfig, SelectionConfig
from .synthetic import generate_synthetic
from .typed import build, fits

DEFAULT_PLANTED = "air_l01,rhum_l01,uwnd_l04,air_l11,rhum_l08"

#: The config file's top-level keys; README documents each one.
_KEYS = ("data", "output", "seed", "gamma", "norm", "kappa", "select_on_all", "pooled",
         "points", "split", "boost", "learners")


class UsageError(Exception):
    """Bad invocation or config structure; exits 1 instead of 2."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _common_flags() -> argparse.ArgumentParser:
    """Every subcommand's flags, on a parent parser that the subcommands share."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="master seed deriving all sub-seeds")
    parser.add_argument("--output", help="artifact directory")
    parser.add_argument("--data", help="input CSV path")
    parser.add_argument("--points", help="comma-separated bundled point ids, or 'all'")
    return parser


def _pipeline_flags() -> argparse.ArgumentParser:
    """The flags of the stages that select, train and evaluate, on a shared parent parser."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--gamma", type=float, help="colinearity threshold")
    parser.add_argument("--norm", choices=[L2, L1_AS_PRINTED], help="cosine norm")
    parser.add_argument("--kappa", type=int, help="number of features to keep")
    parser.add_argument("--train-fraction", dest="split.train_fraction", metavar="FRACTION",
                        type=float, help="training share of rows")
    parser.add_argument("--split-mode", dest="split.mode", choices=[CHRONOLOGICAL, SEEDED_RANDOM])
    parser.add_argument("--split-seed", dest="split.seed", metavar="SEED", type=int)
    parser.add_argument("--trees-per-stage", dest="boost.trees_per_stage", metavar="N", type=int)
    parser.add_argument("--max-stages", dest="boost.max_stages", metavar="N", type=int)
    parser.add_argument("--stop-tolerance", dest="boost.stop_tolerance", metavar="TOL", type=float)
    parser.add_argument("--tree-depth", dest="boost.tree_depth", metavar="DEPTH", type=int,
                        help="weak learner depth")
    parser.add_argument("--select-on-all", action="store_true", default=None,
                        help="let selection see all rows, not just training rows")
    parser.add_argument("--pooled", action="store_true", default=None,
                        help="one selection over all points' training rows")
    return parser


def build_parser() -> _Parser:
    parser = _Parser(prog="hydrocast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = _common_flags()
    stage = [common, _pipeline_flags()]

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV with planted signal",
                             parents=[common])
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
        sub.add_parser(name, help=helptext, parents=stage)

    p_report = sub.add_parser("report", help="render the evaluation report", parents=[common])
    p_report.add_argument("--format", choices=[CSV_FORMAT, JSON_FORMAT, TEXT_TABLE],
                          default=TEXT_TABLE)

    return parser


def _load_config_file(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise UsageError(f"config file cannot be read: {exc}") from None
    except UnicodeDecodeError:
        raise UsageError(f"config file is not UTF-8 text: {path}") from None
    except ValueError as exc:  # not JSON, or an integer too long to convert
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    except RecursionError:
        raise UsageError(f"config file is nested too deeply to read: {path}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file must hold a JSON object: {path}")
    unknown = [key for key in payload if key not in _KEYS]
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r} in {path}")
    return payload


def _settings(args, *required: str) -> dict:
    """The config file with each given flag written over its key; a ``required``
    key left unset is a usage error."""
    settings = _load_config_file(args.config) if args.config else {}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is not None and (section or key) in _KEYS:
            if section:
                value = {**_section(settings, section), key: value}
            settings[section or key] = value
    for key in required:
        if settings.get(key) is None:
            raise UsageError(f"no {key} given (--{key} or config {key!r})")
    return settings


def _resolve_points(value) -> tuple[IndexPoint, ...]:
    """The configured points; an empty list or a point given twice is a usage error."""
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
    else:
        points = [build(IndexPoint, **p) for p in value]
    if not points:
        raise UsageError("config 'points' lists no point")
    labels = [point.label for point in points]
    for label in labels:
        if labels.count(label) > 1:
            raise UsageError(f"point {label} is given more than once")
    return tuple(points)


def _section(settings: dict, name: str) -> dict:
    section = settings.get(name, {})
    if not isinstance(section, dict):
        raise UsageError(f"config {name!r} must be a JSON object")
    return section


def _seed(settings: dict) -> int:
    """The master seed; a seed given as text, such as "7", is converted. Sub-seeds
    derive through numpy's ``SeedSequence``, which takes no negative seed."""
    seed = settings.get("seed")
    seed = PipelineConfig.seed if seed is None else int(seed) if isinstance(seed, str) else seed
    if not fits(seed, int):
        raise TypeError(f"seed must be int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be 0 or more, got {seed}")
    return seed


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
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config value: {exc}") from None


def build_pipeline_config(args) -> PipelineConfig:
    """The run's settings, checked before any data is read."""
    settings = _settings(args, "data", "output")
    with _config_checked():
        selection = build(
            SelectionConfig,
            colinearity=build(ColinearityConfig, gamma=settings.get("gamma"),
                              norm=settings.get("norm")),
            boost=build(BoostConfig, **_section(settings, "boost")),
            kappa=settings.get("kappa"),
        )
        learners = PipelineConfig.learners
        if settings.get("learners") is not None:
            chosen = _section(settings, "learners")
            if not chosen or any(kind not in MODELS for kind in chosen):
                raise UsageError(f"config 'learners' must name kinds among {', '.join(MODELS)}")
            learners = tuple((kind, build(model.config, **_section(chosen, kind)))
                             for kind, model in MODELS.items() if kind in chosen)
        return build(
            PipelineConfig,
            data_path=settings["data"],
            output_dir=settings["output"],
            points=_resolve_points(settings.get("points")),
            selection=selection,
            split=build(SplitSpec, **_section(settings, "split")),
            select_on_all=settings.get("select_on_all"),
            pooled_selection=settings.get("pooled"),
            seed=_seed(settings),
            learners=learners,
        )


def cmd_synth(args) -> int:
    settings = _settings(args)
    out = args.out or settings.get("data")
    if out is None:
        raise UsageError("no output CSV path given (--out or --data)")
    planted = [name.strip() for name in args.planted.split(",") if name.strip()]

    datasets = []
    with _config_checked():  # generate_synthetic refuses a bad noise std or too many planted
        master = _seed(settings)
        for idx, point in enumerate(_resolve_points(settings.get("points"))):
            data, _ = generate_synthetic(
                args.samples, planted, noise_sigma=args.noise_sigma, seed=synth_seed(master, idx),
                point=point, linear_only=args.linear, noise_rel=args.noise_rel,
            )
            datasets.append(data)
        Path(out).parent.mkdir(parents=True, exist_ok=True)  # an out path that is not text exits 1
    write_csv(datasets, out)
    print(f"wrote {sum(len(d) for d in datasets)} rows for {len(datasets)} points to {out}")
    return 0


def cmd_stage(args) -> int:
    cfg = build_pipeline_config(args)
    if args.command == "run":
        result = pipeline.run_pipeline(cfg)
        print(result.rendered, end="")
    else:
        result = pipeline.run_stages(cfg, (args.command,))
        if args.command == "select":
            print(f"selected features for {len(result.selections)} points")
        elif args.command == "train":
            print(f"trained {len(result.trained)} points x {len(cfg.learners)} models")
        elif result.report is None and not result.errors:
            raise HydrocastError("no models found to evaluate; run 'train' first")
        elif result.report is not None:
            print(f"evaluated {len(result.report.rows)} (point, model) pairs")
    for key, message in result.errors.items():
        print(f"error [{key}]: {message}", file=sys.stderr)
    return 2 if result.errors else 0


def cmd_report(args) -> int:
    output_dir = _settings(args, "output")["output"]
    try:
        rendered = pipeline.stage_report(output_dir, args.format)
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
    except (HydrocastError, OSError) as exc:  # OSError: a missing file, or a path refused
        print(f"hydrocast: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
