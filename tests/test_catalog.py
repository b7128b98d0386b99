import pytest

from hydrocast.catalog import (
    CATALOG_SIZE,
    FEATURE_NAMES,
    REFERENCE_POINTS,
    column_of,
)
from hydrocast.errors import UnknownName


def test_catalog_covers_1_to_85_without_gaps():
    assert CATALOG_SIZE == 85
    assert len(FEATURE_NAMES) == 85
    indices = [column_of(name) + 1 for name in FEATURE_NAMES]
    assert indices == list(range(1, 86))
    assert len(set(FEATURE_NAMES)) == 85


def test_variable_blocks_follow_catalog_order():
    blocks = {
        "air": (1, 17),
        "hgt": (18, 34),
        "rhum": (35, 42),
        "shum": (43, 50),
        "slp": (51, 51),
        "uwnd": (52, 68),
        "vwnd": (69, 85),
    }
    for variable, (lo, hi) in blocks.items():
        names = [name for name in FEATURE_NAMES if name.rsplit("_l", 1)[0] == variable]
        assert [column_of(name) + 1 for name in names] == list(range(lo, hi + 1))
        assert [int(name.rsplit("_l", 1)[1]) for name in names] == list(range(1, hi - lo + 2))


def test_specific_names():
    assert FEATURE_NAMES[0] == "air_l01"  # catalog index 1
    assert FEATURE_NAMES[50] == "slp_l01"  # catalog index 51
    assert column_of("vwnd_l17") == 84  # catalog index 85
    assert FEATURE_NAMES[84] == "vwnd_l17"


def test_name_round_trip_all_85():
    for column, name in enumerate(FEATURE_NAMES):
        assert column_of(name) == column


def test_level_ranges_enforced():
    with pytest.raises(UnknownName):
        column_of("rhum_l09")
    with pytest.raises(UnknownName):
        column_of("slp_l02")
    column_of("uwnd_l17")  # allowed


@pytest.mark.parametrize("bad", ["rhum_l09", "slp_l02", "foo_l01", "air_l1",
                                 "air_l18", "air_l00", "air", ""])
def test_parse_rejects_invalid_names(bad):
    with pytest.raises(UnknownName):
        column_of(bad)


def test_column_of_matches_catalog_position():
    assert column_of("air_l01") == 0
    assert column_of("slp_l01") == 50
    assert column_of("vwnd_l17") == 84
    with pytest.raises(UnknownName):
        column_of("vwnd_l18")


def test_thirteen_reference_points():
    assert len(REFERENCE_POINTS) == 13
    first = REFERENCE_POINTS[0]
    assert (first.lon, first.lat, first.elev) == (27.5, 67.5, 472.9)
    labels = [p.label for p in REFERENCE_POINTS]
    assert len(set(labels)) == 13
    assert labels[0] == "27.5_67.5"
