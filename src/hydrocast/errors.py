"""Exception types raised across the package.

Everything derives from ``HydrocastError`` so callers can catch one base
class; data/shape problems also derive from ``ValueError`` to stay friendly
to generic error handling.
"""


class HydrocastError(ValueError):
    """Base class for all errors raised by this package."""


# --- dataset loading / validation ---

class SchemaError(HydrocastError):
    """CSV header does not match the expected feature catalog columns."""


class MissingColumn(SchemaError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"missing required column: {name!r}")


class UnknownColumn(SchemaError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unexpected column not in the catalog schema: {name!r}")


class NonFiniteValue(HydrocastError):
    def __init__(self, row, col):
        self.row = row
        self.col = col
        super().__init__(f"non-finite or unparseable value at data row {row}, column {col!r}")


class DuplicateTimestamp(HydrocastError):
    def __init__(self, timestamp):
        self.timestamp = timestamp
        super().__init__(f"duplicate timestamp in dataset: {timestamp}")


class InvalidTimestamp(HydrocastError):
    def __init__(self, timestamp):
        self.timestamp = timestamp
        super().__init__(f"timestamp must be YYYY-MM with a valid month: {timestamp!r}")


class NegativePrecipitation(HydrocastError):
    pass


class EmptyDataset(HydrocastError):
    pass


class FractionOutOfRange(HydrocastError):
    pass


# --- synthetic generation ---

class TooFewSamples(HydrocastError):
    pass


class EmptyPlantedSet(HydrocastError):
    pass


class UnknownName(HydrocastError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"not a valid feature name: {name!r}")


# --- trees / boosting ---

class EmptyInput(HydrocastError):
    pass


class ShapeMismatch(HydrocastError):
    pass


class NonFiniteInput(HydrocastError):
    pass


class NonFiniteResidual(HydrocastError):
    pass


# --- colinearity pruning ---

class ZeroNormColumn(HydrocastError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"feature column {index} has zero norm")


class LengthMismatch(HydrocastError):
    pass


# --- learners ---

class SingularSystem(HydrocastError):
    pass


class NonConvergence(HydrocastError):
    pass


class DuplicateKind(HydrocastError):
    pass


# --- evaluation ---

class ZeroVariance(HydrocastError):
    pass


class EmptyReport(HydrocastError):
    pass


# --- stored artifacts ---

class DamagedArtifact(HydrocastError):
    """An artifact file is not valid JSON or lacks the fields its reader needs, or a
    payload to be written holds a number that JSON cannot encode."""
