"""Test-set metrics and the per-point comparison report.

Three numbers per (index point, model): Pearson correlation between the
observed and predicted series, mean absolute error, and the sample
standard deviation of the absolute errors. Covariance and standard
deviations use the n-1 convention throughout. Each metric refuses a
non-finite input, and a result that overflows float range, so no NaN or
infinity reaches a report.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .catalog import IndexPoint
from .errors import DuplicateKind, EmptyReport, LengthMismatch, NonFiniteInput, ZeroVariance
from .learners import KIND_ORDER
from .typed import build


def _pair(actual, predicted, min_len):
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise LengthMismatch(f"vectors must share a 1-d shape: {a.shape} vs {p.shape}")
    if a.size < min_len:
        raise LengthMismatch(f"need at least {min_len} elements, got {a.size}")
    if not (np.isfinite(a).all() and np.isfinite(p).all()):
        raise NonFiniteInput("metrics need finite observed and predicted values")
    return a, p


def _metric(func):
    """``func`` run without numpy's overflow warnings: a value that does not come out
    finite, as when predictions are so large that their squares overflow, raises
    ``NonFiniteInput`` instead."""
    @functools.wraps(func)
    def metric(actual, predicted) -> float:
        with np.errstate(all="ignore"):
            value = func(actual, predicted)
        if not math.isfinite(value):
            raise NonFiniteInput(f"{func.__name__} overflows float range")
        return value
    return metric


@_metric
def pearson(actual, predicted) -> float:
    """Sample correlation coefficient, clamped to [-1, 1] against rounding."""
    a, p = _pair(actual, predicted, 2)
    da = a - a.mean()
    dp = p - p.mean()
    var_a = float(da @ da)
    var_p = float(dp @ dp)
    if var_a == 0.0 or var_p == 0.0:
        raise ZeroVariance("correlation undefined for a constant series")
    if not math.isfinite(var_a * var_p):  # the clamp below would hide the NaN or 0 it gives
        return math.nan
    rho = float(da @ dp) / np.sqrt(var_a * var_p)
    return float(min(1.0, max(-1.0, rho)))


@_metric
def mae(actual, predicted) -> float:
    """Mean absolute prediction error."""
    a, p = _pair(actual, predicted, 1)
    return float(np.mean(np.abs(a - p)))


@_metric
def error_std(actual, predicted) -> float:
    """Sample standard deviation (n-1) of the absolute errors."""
    a, p = _pair(actual, predicted, 2)
    return float(np.std(np.abs(a - p), ddof=1))


@dataclass(frozen=True)
class EvalResult:
    point: IndexPoint
    model_kind: str
    rho: float
    mae: float
    std: float
    n_test: int


class EvaluationReport:
    """All (point, model) rows plus the best model per point.

    Best means highest correlation; ties fall to the lower MAE, then to
    the fixed model order. Rows are kept in (point first seen, model
    order) ordering so rendering is deterministic. A model outside that
    order is a ``KeyError``, and a (point, model) row given twice is refused.
    """

    def __init__(self, rows):
        rows = list(rows)
        if not rows:
            raise EmptyReport("report must contain at least one row")
        points: list[IndexPoint] = []
        pairs = set()
        for row in rows:
            if row.point not in points:
                points.append(row.point)
            if (row.point.label, row.model_kind) in pairs:
                raise DuplicateKind(f"point {row.point.label} has two {row.model_kind!r} rows")
            pairs.add((row.point.label, row.model_kind))
        kind_rank = {kind: i for i, kind in enumerate(KIND_ORDER)}
        self.rows = sorted(rows, key=lambda r: (points.index(r.point), kind_rank[r.model_kind]))
        self.points = points
        self.best_per_point: dict[str, str] = {}
        for point in points:
            group = [r for r in self.rows if r.point == point]
            best = min(group, key=lambda r: (-r.rho, r.mae, kind_rank[r.model_kind]))
            self.best_per_point[point.label] = best.model_kind

    def is_best(self, row: EvalResult) -> bool:
        return self.best_per_point[row.point.label] == row.model_kind

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "lon": r.point.lon,
                    "lat": r.point.lat,
                    "elev": r.point.elev,
                    "model": r.model_kind,
                    "pearson": r.rho,
                    "mae": r.mae,
                    "std": r.std,
                    "n_test": r.n_test,
                    "is_best": self.is_best(r),
                }
                for r in self.rows
            ],
            "best_per_point": self.best_per_point,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvaluationReport":
        return cls(build(EvalResult, model_kind=r["model"], rho=r["pearson"], mae=r["mae"],
                         std=r["std"], n_test=r["n_test"],
                         point=build(IndexPoint, lon=r["lon"], lat=r["lat"], elev=r["elev"]))
                   for r in payload["rows"])


TEXT_TABLE = "text"
CSV_FORMAT = "csv"
JSON_FORMAT = "json"

CSV_HEADER = ("lon", "lat", "elev", "model", "pearson", "mae", "std", "is_best")


def render_report(report: EvaluationReport, fmt: str = TEXT_TABLE) -> str:
    """Render the report as a text table, CSV, or JSON document."""
    if fmt == CSV_FORMAT:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in report.rows:
            writer.writerow([
                repr(r.point.lon), repr(r.point.lat), repr(r.point.elev),
                r.model_kind, repr(r.rho), repr(r.mae), repr(r.std),
                "true" if report.is_best(r) else "false",
            ])
        return buf.getvalue()
    if fmt == JSON_FORMAT:
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if fmt == TEXT_TABLE:
        lines = [
            f"{'point':>22}  {'model':<5} {'pearson':>8} {'mae':>10} {'std':>10}  best"
        ]
        for r in report.rows:
            coord = f"({r.point.lon:g}, {r.point.lat:g}, {r.point.elev:g})"
            mark = "*" if report.is_best(r) else ""
            lines.append(
                f"{coord:>22}  {r.model_kind:<5} {r.rho:>8.3f} {r.mae:>10.3f} {r.std:>10.3f}  {mark}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format: {fmt!r}")

