"""Fixed catalog of the 85 hydrological predictors.

Seven reanalysis variables are measured on a subset of seventeen pressure
levels; every (variable, level) pair is one predictor column. The catalog
order is: air (17), hgt (17), rhum (8), shum (8), slp (1), uwnd (17),
vwnd (17), giving catalog indices 1..85. Column names follow the
``<var>_lNN`` scheme, e.g. ``air_l01`` or ``vwnd_l17``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import UnknownName

#: Millibar value of each pressure level, l1 (surface) through l17 (top).
PRESSURE_LEVELS_MB = (1000, 925, 850, 700, 600, 500, 400, 300, 250, 200,
                      150, 100, 70, 50, 30, 20, 10)

#: Variables in catalog order with the number of pressure levels each carries.
VARIABLE_LEVELS = (
    ("air", 17),
    ("hgt", 17),
    ("rhum", 8),
    ("shum", 8),
    ("slp", 1),
    ("uwnd", 17),
    ("vwnd", 17),
)

VARIABLES = tuple(name for name, _ in VARIABLE_LEVELS)

CATALOG_SIZE = sum(n for _, n in VARIABLE_LEVELS)  # 85


@dataclass(frozen=True, order=True)
class PressureLevel:
    """One of the seventeen pressure levels, identified by index 1..17."""

    index: int

    def __post_init__(self):
        if not 1 <= self.index <= len(PRESSURE_LEVELS_MB):
            raise ValueError(f"pressure level index out of range: {self.index}")

    @property
    def millibars(self) -> int:
        return PRESSURE_LEVELS_MB[self.index - 1]


@dataclass(frozen=True)
class FeatureId:
    """A single predictor: a variable measured at one pressure level."""

    variable: str
    level: PressureLevel

    def __post_init__(self):
        if self.variable not in VARIABLES:
            raise ValueError(f"unknown variable: {self.variable!r}")
        max_level = dict(VARIABLE_LEVELS)[self.variable]
        if self.level.index > max_level:
            raise ValueError(
                f"{self.variable} is only measured on levels 1..{max_level}, "
                f"got level {self.level.index}"
            )

    @property
    def catalog_index(self) -> int:
        """1-based position of this predictor in the catalog (1..85)."""
        offset = 0
        for name, n_levels in VARIABLE_LEVELS:
            if name == self.variable:
                return offset + self.level.index
            offset += n_levels
        raise AssertionError("unreachable")

    @property
    def name(self) -> str:
        return feature_name(self)


def feature_name(fid: FeatureId) -> str:
    """Canonical column name, e.g. ``air_l01`` or ``slp_l01``."""
    return f"{fid.variable}_l{fid.level.index:02d}"


_NAME_RE = re.compile(r"^(air|hgt|rhum|shum|slp|uwnd|vwnd)_l(\d{2})$")


def parse_feature_name(name: str) -> FeatureId:
    """Inverse of :func:`feature_name`; raises UnknownName on anything else."""
    m = _NAME_RE.match(name)
    if not m:
        raise UnknownName(name)
    variable, level = m.group(1), int(m.group(2))
    max_level = dict(VARIABLE_LEVELS)[variable]
    if not 1 <= level <= max_level:
        raise UnknownName(name)
    return FeatureId(variable, PressureLevel(level))


def _build_catalog() -> tuple[FeatureId, ...]:
    ids = []
    for variable, n_levels in VARIABLE_LEVELS:
        for level in range(1, n_levels + 1):
            ids.append(FeatureId(variable, PressureLevel(level)))
    return tuple(ids)


#: All 85 predictors in catalog order; CATALOG[i] has catalog_index i + 1.
CATALOG = _build_catalog()

#: Column names of the 85 predictors in catalog order.
FEATURE_NAMES = tuple(feature_name(fid) for fid in CATALOG)

_NAME_TO_COLUMN = {name: i for i, name in enumerate(FEATURE_NAMES)}


def feature_from_catalog_index(index: int) -> FeatureId:
    """Look up a predictor by its 1-based catalog index."""
    if not 1 <= index <= CATALOG_SIZE:
        raise ValueError(f"catalog index out of range 1..{CATALOG_SIZE}: {index}")
    return CATALOG[index - 1]


def column_of(name_or_id) -> int:
    """0-based matrix column for a feature name or FeatureId; anything else is UnknownName."""
    if isinstance(name_or_id, FeatureId):
        return name_or_id.catalog_index - 1
    try:
        return _NAME_TO_COLUMN[name_or_id]
    except (KeyError, TypeError):  # a TypeError is an unhashable value
        raise UnknownName(name_or_id) from None


@dataclass(frozen=True)
class IndexPoint:
    """Geographic grid location at which the pipeline runs independently."""

    lon: float
    lat: float
    elev: float
    id: str = ""

    @property
    def label(self) -> str:
        """Stable directory/key label, e.g. ``27.5_67.5``."""
        return f"{_trim(self.lon)}_{_trim(self.lat)}"


def _trim(x: float) -> str:
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return s if s else "0"


#: The thirteen bundled index points of the study region.
REFERENCE_POINTS = (
    IndexPoint(27.5, 67.5, 472.9, "p01"),
    IndexPoint(30.0, 67.5, 1232.5, "p02"),
    IndexPoint(30.0, 70.0, 721.5, "p03"),
    IndexPoint(30.0, 72.5, 148.2, "p04"),
    IndexPoint(32.5, 70.0, 1203.0, "p05"),
    IndexPoint(32.5, 72.5, 326.4, "p06"),
    IndexPoint(32.5, 75.0, 967.7, "p07"),
    IndexPoint(32.5, 77.5, 4044.4, "p08"),
    IndexPoint(32.5, 80.0, 4882.1, "p09"),
    IndexPoint(35.0, 70.0, 2409.8, "p10"),
    IndexPoint(35.0, 72.5, 2256.2, "p11"),
    IndexPoint(35.0, 75.0, 3590.8, "p12"),
    IndexPoint(35.0, 77.5, 4892.9, "p13"),
)
