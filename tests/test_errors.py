"""Every package error pickles and copies as it was: its class, message and fields.

A point whose rows failed to load carries its error into ``pipeline.run_point``,
so the error must pickle and copy like any other argument."""

import copy
import pickle

import pytest

from hydrocast import errors
from hydrocast.errors import HydrocastError

#: The arguments of each error whose ``__init__`` takes fields, not a message.
FIELDS = {
    "MissingColumn": ("precip",),
    "UnknownColumn": ("extra",),
    "DuplicateColumn": ("lon",),
    "NonFiniteValue": (4, "air_l01"),
    "DuplicateTimestamp": ("1979-01",),
    "InvalidTimestamp": ("1979-13",),
    "UnknownName": ("not_a_feature",),
    "ZeroNormColumn": (7,),
}

ERRORS = [cls for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, HydrocastError)]

CLONES = {
    "pickle_0": lambda error: pickle.loads(pickle.dumps(error, protocol=0)),
    "pickle": lambda error: pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_fields_names_every_error_that_takes_fields():
    assert {cls.__name__ for cls in ERRORS if "__init__" in vars(cls)} == set(FIELDS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_with_its_class_message_and_fields(cls):
    error = cls(*FIELDS.get(cls.__name__, ("a message",)))
    for how, clone in CLONES.items():
        back = clone(error)
        assert type(back) is cls, how
        assert str(back) == str(error) and back.args == error.args, how
        assert vars(back) == vars(error), how
    if cls.__name__ in FIELDS:  # .name, .row and .col, .timestamp or .index
        assert vars(error)
