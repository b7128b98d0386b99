import csv
import io
import re

import numpy as np
import pytest

from hydrocast import dataset
from hydrocast.catalog import REFERENCE_POINTS
from hydrocast.cli import main
from hydrocast.dataset import (
    CSV_COLUMNS,
    CHRONOLOGICAL,
    SEEDED_RANDOM,
    Dataset,
    SplitSpec,
    load_csv,
    month_sequence,
    split,
    write_csv,
)
from hydrocast.errors import (
    DuplicateColumn,
    DuplicateTimestamp,
    EmptyDataset,
    FractionOutOfRange,
    HydrocastError,
    InvalidTimestamp,
    MissingColumn,
    NegativePrecipitation,
    NonFiniteValue,
    SchemaError,
    UnknownColumn,
)
from hydrocast.synthetic import generate_synthetic

from oracles import traced_peak

POINT = REFERENCE_POINTS[0]


def make_dataset(n, point=POINT, seed=0):
    data, _ = generate_synthetic(max(n, 20), ["air_l01", "rhum_l03"], 0.5, seed=seed,
                                 point=point)
    if n < 20:
        return data.take(range(n))
    return data


def test_write_then_load_round_trips(tmp_path):
    data = make_dataset(444)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    loaded = load_csv(path, [POINT])[POINT.label]
    assert len(loaded) == 444
    assert loaded.timestamps == data.timestamps
    np.testing.assert_array_equal(loaded.features, data.features)
    np.testing.assert_array_equal(loaded.precip, data.precip)
    assert loaded.timestamps[0] == "1981-01"
    assert loaded.features[0].shape == (85,)


def test_month_cadence_spans_37_years():
    months = month_sequence("1981-01", 444)
    assert months[0] == "1981-01"
    assert months[-1] == "2017-12"


def test_load_filters_rows_by_point(tmp_path):
    other = REFERENCE_POINTS[1]
    d1 = make_dataset(24, point=POINT, seed=1)
    d2 = make_dataset(36, point=other, seed=2)
    path = tmp_path / "multi.csv"
    write_csv([d1, d2], path)
    loaded = load_csv(path, [POINT, other])
    assert len(loaded[POINT.label]) == 24
    assert len(loaded[other.label]) == 36


def test_one_pass_keeps_each_points_error_apart(tmp_path):
    other = REFERENCE_POINTS[1]
    path = tmp_path / "multi.csv"
    write_csv([make_dataset(24, point=POINT, seed=1), make_dataset(24, point=other, seed=2)], path)
    lines = path.read_text().splitlines()
    row = lines[30].split(",")  # one of the second point's rows
    row[-1] = "-1.0"
    lines[30] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    loaded = load_csv(path, [POINT, other])
    assert len(loaded[POINT.label]) == 24
    with pytest.raises(NegativePrecipitation):
        loaded[other.label]

    row[1] = "east"  # a bad coordinate belongs to no point, so it fails them all
    lines[30] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    loaded = load_csv(path, [POINT, other])
    for point in (POINT, other):
        with pytest.raises(NonFiniteValue, match="data row 30, column 'lon'"):
            loaded[point.label]


def test_file_with_no_matching_rows_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(EmptyDataset):
        load_csv(path, [POINT])[POINT.label]


def test_unknown_column_rejected(tmp_path):
    header = ",".join(CSV_COLUMNS[:-1] + ("rhum_l09", "precip"))
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n")
    with pytest.raises((UnknownColumn, SchemaError)):
        load_csv(path, [POINT])[POINT.label]


def test_missing_column_rejected(tmp_path):
    cols = [c for c in CSV_COLUMNS if c != "shum_l05"]
    path = tmp_path / "bad.csv"
    path.write_text(",".join(cols) + "\n")
    with pytest.raises(MissingColumn) as err:
        load_csv(path, [POINT])[POINT.label]
    assert err.value.name == "shum_l05"


def test_non_finite_value_rejected(tmp_path):
    data = make_dataset(20)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    text = path.read_text().replace(repr(float(data.features[3, 0])), "nan", 1)
    path.write_text(text)
    with pytest.raises(NonFiniteValue):
        load_csv(path, [POINT])[POINT.label]


@pytest.mark.parametrize("cells, keep, column", [
    ({9: "inf", 11: "abc"}, None, CSV_COLUMNS[9]),
    ({10: "abc", 11: "inf"}, None, CSV_COLUMNS[10]),
    ({}, 50, CSV_COLUMNS[50]),  # the row cut after its first 50 cells
    ({-1: "nan"}, None, "precip"),
], ids=["inf_then_abc", "abc_then_inf", "short_row", "nan_precip"])
def test_bad_row_names_its_first_bad_column(tmp_path, cells, keep, column):
    other = REFERENCE_POINTS[1]
    path = tmp_path / "data.csv"
    write_csv([make_dataset(20, point=POINT, seed=1), make_dataset(20, point=other, seed=2)], path)
    lines = path.read_text().splitlines()
    row = lines[7].split(",")[:keep]  # data row 7, a row of the first point
    for index, value in cells.items():
        row[index] = value
    lines[7] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    loaded = load_csv(path, [POINT, other])
    with pytest.raises(NonFiniteValue) as err:
        loaded[POINT.label]
    assert str(err.value) == str(NonFiniteValue(7, column))
    assert len(loaded[other.label]) == 20


def test_short_row_ending_before_a_last_date_column_fails_its_point(tmp_path):
    other = REFERENCE_POINTS[1]
    path = tmp_path / "rotated.csv"
    write_csv([make_dataset(15, point=POINT, seed=1), make_dataset(15, point=other, seed=2)], path)
    lines = [line.split(",") for line in path.read_text().splitlines()]
    lines = [cells[1:] + cells[:1] for cells in lines]  # the header allows any column order
    lines[6] = lines[6][:40]  # data row 6, a row of the first point, ends before its date
    path.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
    loaded = load_csv(path, [POINT, other])
    with pytest.raises(NonFiniteValue) as err:
        loaded[POINT.label]
    assert str(err.value) == str(NonFiniteValue(6, "date"))
    assert len(loaded[other.label]) == 15


def test_cell_past_the_csv_field_limit_fails_every_point(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(make_dataset(20), path)
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[10] = "1" * 200000  # the csv module refuses fields over 131072 characters
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    loaded = load_csv(path, [POINT])
    with pytest.raises(HydrocastError) as err:
        loaded[POINT.label]
    assert str(path) in str(err.value)


def test_duplicate_timestamp_rejected(tmp_path):
    data = make_dataset(20)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    lines = path.read_text().splitlines()
    lines.append(lines[1])  # repeat the first data row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DuplicateTimestamp):
        load_csv(path, [POINT])[POINT.label]


def test_crlf_accepted(tmp_path):
    data = make_dataset(20)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_text().replace("\n", "\r\n").encode())
    assert len(load_csv(crlf, [POINT])[POINT.label]) == 20


def test_rows_sorted_chronologically(tmp_path):
    data = make_dataset(20)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    lines = path.read_text().splitlines()
    shuffled = [lines[0]] + lines[1:][::-1]
    path.write_text("\n".join(shuffled) + "\n")
    loaded = load_csv(path, [POINT])[POINT.label]
    assert list(loaded.timestamps) == sorted(loaded.timestamps)
    np.testing.assert_array_equal(loaded.features, data.features)


def test_negative_precip_rejected():
    data = make_dataset(20)
    precip = data.precip.copy()
    precip[0] = -1.0
    with pytest.raises(ValueError):
        Dataset(POINT, data.timestamps, data.features, precip)


@pytest.mark.parametrize("edit, error, message", [
    (lambda t, X, y: (t, X[:, :84], y), ValueError, "feature matrix must be (M, 85)"),
    (lambda t, X, y: (t, np.hstack([X, X[:, :1]]), y), ValueError,
     "feature matrix must be (M, 85)"),
    (lambda t, X, y: (t[:-1], X, y), ValueError, "must have equal length"),
    (lambda t, X, y: (t, X, y[:-1]), ValueError, "must have equal length"),
    (lambda t, X, y: ((), X[:0], y[:0]), EmptyDataset, "no samples"),
    (lambda t, X, y: (t, np.where(np.arange(85) == 4, np.inf, X), y), ValueError, "non-finite"),
    (lambda t, X, y: (t, X, np.where(np.arange(len(y)) == 2, np.nan, y)), ValueError,
     "non-finite"),
], ids=["84_columns", "86_columns", "one_timestamp_short", "one_precip_short", "no_rows",
        "infinite_feature", "nan_precip"])
def test_dataset_refuses_a_bad_table(edit, error, message):
    data = make_dataset(20)
    with pytest.raises(error, match=re.escape(message)):
        Dataset(POINT, *edit(data.timestamps, data.features, data.precip))


@pytest.mark.parametrize("timestamp", ["1981-01\n", "\u0661\u0669\u0668\u0661-\u0660\u0661",
                                       "1981-13", "1981-1", " 1981-01", "1981-01-01"],
                         ids=["trailing_newline", "arabic_indic_digits", "month_13",
                              "one_digit_month", "leading_space", "a_day"])
def test_a_timestamp_is_ascii_yyyy_mm(timestamp):
    data = make_dataset(20)
    with pytest.raises(InvalidTimestamp):
        Dataset(POINT, (timestamp, *data.timestamps[1:]), data.features, data.precip)


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path):
    """Rows joined by hand give the bytes of ``csv.writer``, with the extreme
    float reprs among the values: signed zero, the least subnormal, exponent
    forms and the largest double."""
    extremes = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]
    datasets = []
    for i, point in enumerate(REFERENCE_POINTS[:2]):
        data = make_dataset(20, point=point, seed=i)
        features = data.features.copy()
        features[:5, :5] = extremes
        precip = data.precip.copy()
        precip[:5] = extremes  # -0.0 is not below 0
        datasets.append(Dataset(point, data.timestamps, features, precip))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for data in datasets:
        p = data.point
        for i in range(len(data)):
            writer.writerow([data.timestamps[i], repr(p.lon), repr(p.lat), repr(p.elev),
                             *map(repr, data.features[i].tolist()),
                             repr(float(data.precip[i]))])
    path = tmp_path / "data.csv"
    write_csv(datasets, path)
    assert path.read_bytes() == buffer.getvalue().encode("utf-8")


def test_take_of_no_rows_is_empty():
    with pytest.raises(EmptyDataset, match="no samples"):
        make_dataset(20).take([])


def test_an_empty_file_fails_every_point_as_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    loaded = load_csv(path, REFERENCE_POINTS[:2])
    for point in REFERENCE_POINTS[:2]:
        with pytest.raises(EmptyDataset, match="file is empty"):
            loaded[point.label]


def test_split_exact_tenth():
    data = make_dataset(20).take(range(10))
    train, test = split(data, SplitSpec())
    assert len(train) == 9 and len(test) == 1
    assert test.timestamps[0] == data.timestamps[-1]


def test_split_444_gives_400_44():
    data = make_dataset(444)
    train, test = split(data, SplitSpec(train_fraction=0.9))
    assert len(train) == 400 and len(test) == 44


@pytest.mark.parametrize("mode", [CHRONOLOGICAL, SEEDED_RANDOM])
def test_split_of_validated_rows_equals_a_validated_take(mode):
    data = make_dataset(60)
    for part in split(data, SplitSpec(mode=mode, seed=3)):
        rows = [data.timestamps.index(t) for t in part.timestamps]
        full = Dataset(POINT, part.timestamps, data.features[rows], data.precip[rows])
        assert part.point == full.point and part.timestamps == full.timestamps
        assert part.features.tobytes() == full.features.tobytes()
        assert part.precip.tobytes() == full.precip.tobytes()
        assert not part.features.flags.writeable and not part.precip.flags.writeable
    with pytest.raises(DuplicateTimestamp):
        data.take([3, 1, 3])
    with pytest.raises(DuplicateTimestamp):
        data.take([-60, 0])  # ascending as numbers, but both name the first row
    reordered = data.take([5, 2])
    assert reordered.timestamps == (data.timestamps[2], data.timestamps[5])


def test_split_single_sample_fails():
    data = make_dataset(20).take([0])
    with pytest.raises(FractionOutOfRange):
        split(data, SplitSpec())


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
def test_fraction_out_of_range(fraction):
    with pytest.raises(FractionOutOfRange):
        SplitSpec(train_fraction=fraction)


def test_split_partition_rule_for_all_m_up_to_1000():
    from fractions import Fraction

    rng = np.random.default_rng(0)
    features = rng.standard_normal((1000, 85))
    precip = rng.uniform(0, 10, 1000)
    months = month_sequence("1900-01", 1000)
    spec = SplitSpec(train_fraction=0.9)
    for m in range(2, 1001):
        data = Dataset(POINT, months[:m], features[:m], precip[:m])
        train, test = split(data, spec)
        # exact-arithmetic oracle: half-up of (1 - 9/10) * m, at least 1
        expected_test = max(1, int(Fraction(1, 10) * m + Fraction(1, 2)))
        assert len(test) == expected_test
        assert len(train) == m - expected_test
        assert train.timestamps + test.timestamps == data.timestamps  # chronological


def test_seeded_random_split_is_deterministic_and_ordered():
    data = make_dataset(60)
    spec = SplitSpec(train_fraction=0.8, mode=SEEDED_RANDOM, seed=42)
    train1, test1 = split(data, spec)
    train2, test2 = split(data, spec)
    assert train1.timestamps == train2.timestamps
    assert test1.timestamps == test2.timestamps
    assert len(test1) == 12
    assert set(train1.timestamps).isdisjoint(test1.timestamps)
    assert sorted(set(train1.timestamps) | set(test1.timestamps)) == sorted(data.timestamps)
    assert list(train1.timestamps) == sorted(train1.timestamps)
    assert list(test1.timestamps) == sorted(test1.timestamps)
    other = split(data, SplitSpec(train_fraction=0.8, mode=SEEDED_RANDOM, seed=43))[1]
    assert other.timestamps != test1.timestamps


def test_chronological_is_default_mode():
    assert SplitSpec().mode == CHRONOLOGICAL


def test_a_column_named_twice_fails_every_point(tmp_path):
    other = REFERENCE_POINTS[1]
    path = tmp_path / "data.csv"
    write_csv([make_dataset(20, point=POINT, seed=1), make_dataset(20, point=other, seed=2)], path)
    lines = [line + ",0.0" for line in path.read_text().splitlines()]
    lines[0] = lines[0][:-len("0.0")] + "precip"  # a second precip column, all zeros
    path.write_text("\n".join(lines) + "\n")
    loaded = load_csv(path, [POINT, other])
    for point in (POINT, other):
        with pytest.raises(DuplicateColumn, match="'precip'"):
            loaded[point.label]


FOUR = REFERENCE_POINTS[:4]


def _cell(lines, row, column, value):
    """``lines`` with the cell at data row ``row`` and ``column`` set to ``value``."""
    cells = lines[row].split(",")
    cells[CSV_COLUMNS.index(column) if isinstance(column, str) else column] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


def _text(lines, end="\n"):
    return (end.join(lines) + end).encode()


# Each case: the file's bytes, made from the lines of a 4-point file (24 rows per
# point, p01's rows first, header at line 0), the points requested, and whether
# numpy's C reader serves it (True) or the row reader does (False).
DIFFERENTIAL = {
    "clean_1pt": (lambda lines: _text(lines[:25]), FOUR[:1], True),
    "clean_4pt": (lambda lines: _text(lines), FOUR, True),
    "crlf": (lambda lines: _text(lines, "\r\n"), FOUR[:2], True),
    "blank_lines": (lambda lines: _text(lines[:5] + [""] + lines[5:] + [""]), FOUR[:2], True),
    "extra_trailing_cells": (lambda lines: _text([lines[0]] + [f"{x},9.5,x" for x in lines[1:]]),
                             FOUR[:2], True),
    "spaces_and_tabs": (lambda lines: _text(_cell(_cell(lines, 3, "air_l02", " 1.5\t"),
                                                  4, "lon", f" {FOUR[0].lon} ")), FOUR[:2], True),
    "no_break_space": (lambda lines: _text(_cell(lines, 3, "air_l02", "\xa01.5\xa0")), FOUR[:2],
                       True),
    "underscore_digits": (lambda lines: _text(_cell(lines, 3, "air_l02", "1_0")), FOUR[:2], False),
    "arabic_indic_digits": (lambda lines: _text(_cell(lines, 3, "air_l02", "١٢")),
                            FOUR[:2], False),
    "file_separator_control": (lambda lines: _text(_cell(lines, 3, "air_l02", "\x1c1.5")),
                               FOUR[:2], False),
    "nan_requested": (lambda lines: _text(_cell(lines, 3, "air_l02", "nan")), FOUR[:2], False),
    "inf_requested": (lambda lines: _text(_cell(lines, 3, "precip", "1e999")), FOUR[:2], False),
    "nan_unrequested": (lambda lines: _text(_cell(lines, 60, "air_l02", "nan")), FOUR[:2], True),
    "inf_unrequested": (lambda lines: _text(_cell(lines, 60, "precip", "1e999")), FOUR[:2], True),
    "nan_coordinate_unrequested": (lambda lines: _text(_cell(lines, 60, "lat", "nan")), FOUR[:2],
                                   False),
    "bad_elev": (lambda lines: _text(_cell(lines, 3, "elev", "high")), FOUR[:2], True),
    "negative_precip": (lambda lines: _text(_cell(lines, 30, "precip", "-1.0")), FOUR[:2], True),
    "bad_date": (lambda lines: _text(_cell(lines, 3, "date", "1981-13")), FOUR[:2], True),
    "quoted_number": (lambda lines: _text(_cell(lines, 3, "air_l02", '"1.5"')), FOUR[:2], False),
    "quoted_date": (lambda lines: _text(_cell(lines, 3, "date", '"1981-03"')), FOUR[:2], False),
    "whitespace_only_line": (lambda lines: _text(lines[:5] + ["  "] + lines[5:]), FOUR[:2], False),
    "cr_only_line_ends": (lambda lines: _text(lines, "\r"), FOUR[:2], False),
    "nul_byte": (lambda lines: _text(_cell(lines, 3, "air_l02", "1.5\x00")), FOUR[:2], False),
    "cell_past_field_limit": (lambda lines: _text(_cell(lines, 3, "elev", "1" * 131073)),
                              FOUR[:2], False),
    "header_only": (lambda lines: _text(lines[:1]), FOUR[:2], False),
    "empty_file": (lambda lines: b"", FOUR[:2], False),
    "not_utf8": (lambda lines: _text(lines).replace(b"1981-03", b"1981-03\xff", 1), FOUR[:2],
                 False),
    "bom": (lambda lines: b"\xef\xbb\xbf" + _text(lines), FOUR[:2], True),
    "reordered_header": (lambda lines: _text([",".join(line.split(",")[::-1]) for line in lines]),
                         FOUR[:2], False),
    "short_row": (lambda lines: _text(lines[:3] + [lines[3].rsplit(",", 5)[0]] + lines[4:]),
                  FOUR[:2], False),
}


@pytest.fixture(scope="module")
def four_point_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("four") / "data.csv"
    write_csv([make_dataset(24, point=p, seed=i) for i, p in enumerate(FOUR)], path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL))
def test_load_csv_equals_the_row_reader(tmp_path, four_point_lines, case):
    make, points, served = DIFFERENTIAL[case]
    path = tmp_path / "data.csv"
    path.write_bytes(make(four_point_lines))
    targets = {p.label: p for p in points}
    assert (dataset._read_plain(path, targets) is not None) == served
    loaded, reference = load_csv(path, points), dataset._read_rows(path, targets)
    assert list(loaded) == list(reference)
    for label, expected in reference.items():
        got = dict.__getitem__(loaded, label)
        if isinstance(expected, Exception):
            assert (type(got), str(got)) == (type(expected), str(expected))
        else:
            assert got.timestamps == expected.timestamps
            for name in ("features", "precip"):
                a, b = getattr(got, name), getattr(expected, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "row_reader"])
def test_a_byte_order_mark_is_skipped(tmp_path, four_point_lines, quoted):
    """A file that starts with a UTF-8 byte-order mark, as Excel's "CSV UTF-8"
    writes, loads the arrays of the same file without it, through either reader
    (one quoted cell sends the file to the row reader)."""
    lines = _cell(four_point_lines, 3, "air_l02", '"1.5"') if quoted else four_point_lines
    original, marked = tmp_path / "data.csv", tmp_path / "bom.csv"
    original.write_bytes(_text(lines))
    marked.write_bytes(b"\xef\xbb\xbf" + _text(lines))
    assert (dataset._read_plain(marked, {p.label: p for p in FOUR}) is None) == quoted
    want, got = load_csv(original, FOUR), load_csv(marked, FOUR)
    for p in FOUR:
        assert got[p.label].timestamps == want[p.label].timestamps
        for name in ("features", "precip"):
            a, b = getattr(got[p.label], name), getattr(want[p.label], name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_load_csv_cuts_each_points_arrays_once(tmp_path):
    """The plain reader cuts each point's features and precip once from the parsed
    table: at its peak, loading a 4-point file holds the table and the datasets,
    about twice what the datasets hold, not further copies of their values."""
    path = tmp_path / "data.csv"
    assert main(["synth", "--samples", "444", "--seed", "11", "--points", "p01,p02,p03,p04",
                 "--out", str(path)]) == 0
    loaded, peak = traced_peak(lambda: load_csv(path, FOUR))
    held = sum(loaded[p.label].features.nbytes + loaded[p.label].precip.nbytes for p in FOUR)
    assert peak < 2.6 * held


def test_a_clean_file_is_read_without_the_row_reader(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    assert main(["synth", "--samples", "444", "--seed", "11", "--points", "p01,p02,p03,p04",
                 "--out", str(path)]) == 0
    expected = dataset._read_rows(path, {p.label: p for p in FOUR})

    def refuse(path, targets):
        raise AssertionError("the row reader read a clean file")

    monkeypatch.setattr(dataset, "_read_rows", refuse)
    loaded = load_csv(path, FOUR)
    for p in FOUR:
        assert loaded[p.label].timestamps == expected[p.label].timestamps
        assert loaded[p.label].features.tobytes() == expected[p.label].features.tobytes()
        assert loaded[p.label].precip.tobytes() == expected[p.label].precip.tobytes()
