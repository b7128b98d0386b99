"""The names of the 85 hydrological predictors and the bundled index points.

Seven reanalysis variables are measured on up to seventeen pressure
levels; every (variable, level) pair is one predictor column, named
``<var>_lNN``, e.g. ``air_l01`` or ``vwnd_l17``. ``FEATURE_NAMES`` lists
the names in catalog order: air (17), hgt (17), rhum (8), shum (8),
slp (1), uwnd (17), vwnd (17). A name's position in it is its matrix
column, which ``column_of`` looks up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownName

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

#: Column names of the 85 predictors in catalog order; the one table that
#: decides which (variable, level) pairs exist and where each one sits.
FEATURE_NAMES = tuple(f"{variable}_l{level:02d}" for variable, n_levels in VARIABLE_LEVELS
                      for level in range(1, n_levels + 1))

_NAME_TO_COLUMN = {name: i for i, name in enumerate(FEATURE_NAMES)}

CATALOG_SIZE = len(FEATURE_NAMES)  # 85


def column_of(name) -> int:
    """0-based matrix column for a feature name; anything else is UnknownName."""
    try:
        return _NAME_TO_COLUMN[name]
    except (KeyError, TypeError):  # a TypeError is an unhashable value
        raise UnknownName(name) from None


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
