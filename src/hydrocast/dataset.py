"""Per-index-point sample tables and the chronological train/test split.

A dataset is one index point's monthly record: an (M, 85) feature matrix,
an M-vector of precipitation totals, and M ``YYYY-MM`` timestamps sorted
strictly increasing. CSV files may hold several points at once; rows are
keyed by the ``lon``/``lat`` columns.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .catalog import FEATURE_NAMES, CATALOG_SIZE, IndexPoint
from .errors import (
    DuplicateTimestamp,
    EmptyDataset,
    FractionOutOfRange,
    HydrocastError,
    InvalidTimestamp,
    MissingColumn,
    NegativePrecipitation,
    NonFiniteValue,
    UnknownColumn,
)

#: Exact CSV column order: date, coordinates, the 85 predictors, target.
CSV_COLUMNS = ("date", "lon", "lat", "elev") + FEATURE_NAMES + ("precip",)

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")

CHRONOLOGICAL = "chronological"
SEEDED_RANDOM = "seeded_random"


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a dataset into train and test portions.

    The test size is round-half-up of ``(1 - train_fraction) * M``, at
    least 1. Chronological mode holds out the most recent months; seeded
    random mode draws the held-out rows with a fixed seed, keeping both
    portions in time order.
    """

    train_fraction: float = 0.9
    mode: str = CHRONOLOGICAL
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise FractionOutOfRange(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if self.mode not in (CHRONOLOGICAL, SEEDED_RANDOM):
            raise ValueError(f"unknown split mode: {self.mode!r}")

    def test_count(self, n_samples: int) -> int:
        # round half-up; the 1e-9 nudge absorbs float artifacts like
        # (1 - 0.9) * 15 = 1.4999999999999998, which means exactly 1.5
        return max(1, math.floor((1.0 - self.train_fraction) * n_samples + 0.5 + 1e-9))


class Dataset:
    """Validated, chronologically sorted samples for one index point."""

    def __init__(self, point: IndexPoint, timestamps, features, precip):
        features = np.asarray(features, dtype=np.float64)
        precip = np.asarray(precip, dtype=np.float64)
        timestamps = tuple(timestamps)
        if features.ndim != 2 or features.shape[1] != CATALOG_SIZE:
            raise ValueError(
                f"feature matrix must be (M, {CATALOG_SIZE}), got {features.shape}"
            )
        if not (len(timestamps) == features.shape[0] == precip.shape[0]):
            raise ValueError("timestamps, features and precip must have equal length")
        if len(timestamps) == 0:
            raise EmptyDataset("dataset has no samples")

        keys = [_month_key(t) for t in timestamps]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        for a, b in zip(order, order[1:]):
            if keys[a] == keys[b]:
                raise DuplicateTimestamp(timestamps[a])
        if order != list(range(len(keys))):
            timestamps = tuple(timestamps[i] for i in order)
            features = features[order]
            precip = precip[order]

        if not np.isfinite(features).all() or not np.isfinite(precip).all():
            raise ValueError("dataset contains non-finite values")
        if (precip < 0).any():
            raise NegativePrecipitation("precipitation values must be nonnegative")

        self.point = point
        self.timestamps = timestamps
        self.features = features
        self.precip = precip
        self.features.setflags(write=False)
        self.precip.setflags(write=False)

    def __len__(self) -> int:
        return len(self.timestamps)

    def take(self, indices) -> "Dataset":
        """New dataset restricted to the given row indices (kept in order)."""
        indices = list(indices)
        return Dataset(
            self.point,
            [self.timestamps[i] for i in indices],
            self.features[indices],
            self.precip[indices],
        )


def _month_key(timestamp: str) -> int:
    m = _DATE_RE.match(timestamp)
    if not m or not 1 <= int(m.group(2)) <= 12:
        raise InvalidTimestamp(timestamp)
    return int(m.group(1)) * 12 + int(m.group(2)) - 1


def month_sequence(start: str, n: int) -> list[str]:
    """``n`` consecutive months beginning at ``start`` (YYYY-MM)."""
    key = _month_key(start)
    return [f"{k // 12:04d}-{k % 12 + 1:02d}" for k in range(key, key + n)]


class PointData(dict):
    """Point label -> that point's ``Dataset``, or the error its rows raised.

    Looking up a failed point raises its error, so it fails only where its
    rows are used.
    """

    def __getitem__(self, label: str) -> Dataset:
        data = super().__getitem__(label)
        if isinstance(data, HydrocastError):
            raise data
        return data


def load_csv(path, points) -> PointData:
    """Load and validate the rows of every requested index point in one pass.

    The header must contain exactly the documented columns; a header error,
    like a file that is not UTF-8, is every point's error. A row belongs to
    each point within 1e-6 of its longitude and latitude. A bad coordinate
    fails every point that has not failed yet; any other bad value fails only
    the points of its row.
    """
    targets = {point.label: point for point in points}
    found = {label: ([], array("d")) for label in targets}  # timestamps, values per row
    failed: dict[str, HydrocastError] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyDataset(f"{path}: file is empty")
            for name in CSV_COLUMNS:
                if name not in header:
                    raise MissingColumn(name)
            for name in header:
                if name not in CSV_COLUMNS:
                    raise UnknownColumn(name)
            col = {name: header.index(name) for name in CSV_COLUMNS}
            value_cols = [(col[name], name) for name in FEATURE_NAMES + ("precip",)]
            take_values = itemgetter(*(c for c, _ in value_cols))
            near: dict[tuple[str, str], list[str]] = {}  # coordinate cells -> points there

            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                labels = targets  # a row with bad coordinates could be any point's
                try:
                    cells = row[col["lon"]], row[col["lat"]]
                except IndexError:
                    cells = None
                try:
                    if cells not in near:
                        lon = _parse_float(row, col["lon"], row_no, "lon")
                        lat = _parse_float(row, col["lat"], row_no, "lat")
                        near[cells] = [label for label, p in targets.items()
                                       if abs(lon - p.lon) <= 1e-6 and abs(lat - p.lat) <= 1e-6]
                    labels = [label for label in near[cells] if label not in failed]
                    if labels:
                        if col["date"] >= len(row):
                            raise NonFiniteValue(row_no, "date")
                        timestamp = row[col["date"]].strip()
                        values = _parse_values(row, take_values, value_cols, row_no)
                except HydrocastError as exc:
                    failed.update((label, exc) for label in labels if label not in failed)
                    continue
                for label in labels:
                    found[label][0].append(timestamp)
                    found[label][1].extend(values)
    except UnicodeDecodeError:
        return PointData.fromkeys(targets, HydrocastError(f"{path}: not UTF-8 text"))
    except HydrocastError as exc:  # a header error
        return PointData.fromkeys(targets, exc)

    datasets = PointData(failed)
    for label, point in targets.items():
        timestamps, values = found[label]
        if label in failed:
            continue
        try:
            if not timestamps:
                raise EmptyDataset(f"{path}: no rows for point ({point.lon}, {point.lat})")
            table = np.frombuffer(values).reshape(-1, CATALOG_SIZE + 1)
            datasets[label] = Dataset(point, timestamps, table[:, :-1].copy(), table[:, -1].copy())
        except HydrocastError as exc:
            datasets[label] = exc
    return datasets


def _parse_values(row, take_values, value_cols, row_no) -> list[float]:
    """A row's value cells as floats, converted in one call.

    When that fails, the cell-by-cell pass names the first bad column.
    """
    try:
        values = list(map(float, take_values(row)))
        if all(map(math.isfinite, values)):
            return values
    except (ValueError, IndexError):
        pass
    return [_parse_float(row, c, row_no, name) for c, name in value_cols]


def _parse_float(row, col_idx, row_no, col_name) -> float:
    try:
        value = float(row[col_idx])
    except (ValueError, IndexError):
        raise NonFiniteValue(row_no, col_name) from None
    if not math.isfinite(value):
        raise NonFiniteValue(row_no, col_name)
    return value


def write_csv(datasets, path) -> None:
    """Write one or more datasets to a single catalog-schema CSV file."""
    if isinstance(datasets, Dataset):
        datasets = [datasets]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for data in datasets:
            p = data.point
            for i in range(len(data)):
                row = [data.timestamps[i], repr(p.lon), repr(p.lat), repr(p.elev)]
                row.extend(repr(v) for v in data.features[i].tolist())
                row.append(repr(float(data.precip[i])))
                writer.writerow(row)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint (train, test) partition preserving chronological order."""
    m = len(data)
    n_test = spec.test_count(m)
    n_train = m - n_test
    if n_train < 1:
        raise FractionOutOfRange(
            f"cannot split {m} samples into nonempty train and test portions"
        )
    if spec.mode == CHRONOLOGICAL:
        test_idx = range(n_train, m)
    else:
        rng = np.random.default_rng(spec.seed)
        test_idx = sorted(rng.choice(m, size=n_test, replace=False).tolist())
    test_set = set(test_idx)
    train_idx = [i for i in range(m) if i not in test_set]
    return data.take(train_idx), data.take(test_idx)
