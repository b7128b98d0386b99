"""Per-index-point sample tables and the chronological train/test split.

A dataset is one index point's monthly record: an (M, 85) feature matrix,
an M-vector of precipitation totals, and M ``YYYY-MM`` timestamps sorted
strictly increasing. CSV files may hold several points at once; rows are
keyed by the ``lon``/``lat`` columns. ``load_csv`` parses a plain file with
numpy's C reader and any other file with the csv module's row reader, which
alone names a bad cell; both give identical arrays.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import FEATURE_NAMES, CATALOG_SIZE, IndexPoint
from .errors import (
    DuplicateColumn,
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
from .typed import at_least

#: The CSV columns in the order ``write_csv`` writes them and the C reader takes them:
#: date, coordinates, the 85 predictors, target. The row reader takes any order.
CSV_COLUMNS = ("date", "lon", "lat", "elev") + FEATURE_NAMES + ("precip",)

#: The C reader's columns (``lon``, ``lat``, the predictors, ``precip``), the only
#: header it takes, and the characters that send a file to the row reader.
_VALUE_COLUMNS = tuple(i for i, name in enumerate(CSV_COLUMNS) if name not in ("date", "elev"))
_HEADER = ",".join(CSV_COLUMNS)
_ROW_READER_ONLY = '"\x00\x1c\x1d\x1e\x1f'

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
        at_least(self, 0, "seed")  # numpy's random generators take no negative seed

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

        self._hold(point, timestamps, features, precip)

    def _hold(self, point, timestamps, features, precip) -> None:
        self.point = point
        self.timestamps = timestamps
        self.features = features
        self.precip = precip
        self.features.setflags(write=False)
        self.precip.setflags(write=False)

    def __len__(self) -> int:
        return len(self.timestamps)

    def take(self, indices) -> "Dataset":
        """The rows at ``indices`` (a negative one counts from the end), in time order.
        They were validated here, so only a row named twice, or none, is refused."""
        rows = sorted(range(len(self))[i] for i in indices)
        for a, b in zip(rows, rows[1:]):
            if a == b:
                raise DuplicateTimestamp(self.timestamps[a])
        if not rows:
            raise EmptyDataset("dataset has no samples")
        taken = Dataset.__new__(Dataset)
        taken._hold(self.point, tuple(self.timestamps[i] for i in rows),
                    self.features[rows], self.precip[rows])
        return taken


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

    The header must contain exactly the documented columns, each once; a
    header error, like a file that is not UTF-8 or one that the csv module
    cannot read (a cell past its field size limit), is every point's error. A
    row belongs to each point within 1e-6 of its longitude and latitude. A bad
    coordinate fails every point that has not failed yet; any other bad value
    fails only the points of its row.

    A plain file (see ``_read_plain``) is parsed by numpy's C reader; any
    other file goes to the row reader (``_read_rows``), the only code that
    names a bad cell. Both convert a cell with CPython's
    ``PyOS_string_to_double``, so they give identical arrays.
    """
    targets = {point.label: point for point in points}
    datasets = _read_plain(path, targets)
    return _read_rows(path, targets) if datasets is None else datasets


def _read_plain(path, targets) -> PointData | None:
    """The points' data through one ``np.loadtxt`` call that streams the file's
    lines, or None when the file is not plain or raises anything on the way.

    Plain means: the header is ``CSV_COLUMNS`` in order; no line is
    whitespace only, ends in a lone CR, is longer than the csv module's field
    limit, or holds a quote, a NUL or a ``\\x1c``-``\\x1f`` separator (numpy
    strips these as whitespace, ``float()`` does not); numpy returns a row for
    each data line; every ``lon`` and ``lat`` is finite, and so is every value
    of a requested row. Blank lines are skipped, as the csv module skips them.
    """
    dates: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # such as numpy's for a file with no data rows
            if fh.readline() not in (_HEADER + "\n", _HEADER + "\r\n"):
                return None
            table = np.loadtxt(_plain_lines(fh, dates), delimiter=",", comments=None,
                               quotechar=None, usecols=_VALUE_COLUMNS, ndmin=2)
    except Exception:  # whatever it is, the row reader reads the file or names the fault
        return None
    lon, lat = table[:, 0], table[:, 1]
    if len(table) != len(dates) or not (np.isfinite(lon).all() and np.isfinite(lat).all()):
        return None
    rows = {}
    for label, p in targets.items():
        at = np.flatnonzero(_at(p, lon, lat))
        values = table[at, 2:]
        if not np.isfinite(values).all():
            return None
        rows[label] = ([dates[i] for i in at], values)
    return _point_data(path, targets, rows, {})


def _plain_lines(lines, dates: list[str]):
    """Yield the data lines of a plain file, appending each one's date cell to
    ``dates``; raise ValueError at a line that is not plain."""
    limit = csv.field_size_limit()
    for line in lines:
        if line in ("\n", "\r\n"):
            continue
        if (line[-1] == "\r" or line.isspace() or len(line) > limit
                or any(c in line for c in _ROW_READER_ONLY)):
            raise ValueError("not a plain line")
        dates.append(line[:line.find(",")].strip())
        yield line


def _read_rows(path, targets) -> PointData:
    """The points' data through the csv module, one row at a time. A requested
    row's cells are converted once each, in catalog order, by ``_parse_float``,
    which names the first bad one."""
    found = {label: ([], []) for label in targets}  # timestamps, value rows
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
            for name in CSV_COLUMNS:
                if header.count(name) > 1:
                    raise DuplicateColumn(name)
            col = {name: header.index(name) for name in CSV_COLUMNS}
            value_cols = [(col[name], name) for name in FEATURE_NAMES + ("precip",)]

            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                labels = targets  # a row with bad coordinates could be any point's
                try:
                    lon = _parse_float(row, col["lon"], row_no, "lon")
                    lat = _parse_float(row, col["lat"], row_no, "lat")
                    labels = [label for label, p in targets.items()
                              if label not in failed and _at(p, lon, lat)]
                    if labels:
                        if col["date"] >= len(row):
                            raise NonFiniteValue(row_no, "date")
                        timestamp = row[col["date"]].strip()
                        values = [_parse_float(row, c, row_no, name) for c, name in value_cols]
                except HydrocastError as exc:
                    failed.update((label, exc) for label in labels if label not in failed)
                    continue
                for label in labels:
                    found[label][0].append(timestamp)
                    found[label][1].append(values)
    except UnicodeDecodeError:
        return PointData.fromkeys(targets, HydrocastError(f"{path}: not UTF-8 text"))
    except csv.Error as exc:  # a cell past the csv module's field size limit, say
        return PointData.fromkeys(targets, HydrocastError(f"{path}: not readable as CSV ({exc})"))
    except HydrocastError as exc:  # a header error
        return PointData.fromkeys(targets, exc)
    return _point_data(path, targets, found, failed)


def _at(point, lon, lat):
    """Whether a row at ``lon``, ``lat`` belongs to ``point``: it lies within 1e-6 of
    both its coordinates. Elementwise for numpy arrays of coordinates."""
    return (abs(lon - point.lon) <= 1e-6) & (abs(lat - point.lat) <= 1e-6)


def _point_data(path, targets, rows, failed) -> PointData:
    """Each point's ``Dataset`` from its timestamps and its rows of values (the
    predictors, then ``precip``), or the error that its rows raised."""
    datasets = PointData(failed)
    for label, point in targets.items():
        if label in failed:
            continue
        timestamps, values = rows[label]
        try:
            if not timestamps:
                raise EmptyDataset(f"{path}: no rows for point ({point.lon}, {point.lat})")
            table = np.asarray(values, dtype=np.float64)
            datasets[label] = Dataset(point, timestamps, table[:, :-1].copy(), table[:, -1].copy())
        except HydrocastError as exc:
            datasets[label] = exc
    return datasets


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
    test_rows = _test_rows(len(data), spec)
    held = set(test_rows)
    return data.take([i for i in range(len(data)) if i not in held]), data.take(test_rows)


def held_out(data: Dataset, spec: SplitSpec) -> Dataset:
    """The test part of ``split(data, spec)``, without building the training part."""
    return data.take(_test_rows(len(data), spec))


def _test_rows(m: int, spec: SplitSpec):
    """The held-out rows of ``m`` samples, ascending: the one split rule. Every other
    row trains, and a split that leaves none to train raises ``FractionOutOfRange``."""
    n_test = spec.test_count(m)
    n_train = m - n_test
    if n_train < 1:
        raise FractionOutOfRange(
            f"cannot split {m} samples into nonempty train and test portions"
        )
    if spec.mode == CHRONOLOGICAL:
        return range(n_train, m)
    rng = np.random.default_rng(spec.seed)
    return sorted(rng.choice(m, size=n_test, replace=False).tolist())
