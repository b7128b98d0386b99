import json
from dataclasses import asdict

import pytest

from hydrocast.catalog import REFERENCE_POINTS
from hydrocast.dataset import SplitSpec
from hydrocast.learners import MODELS, Standardization
from hydrocast.selection import BoostConfig, ColinearityConfig
from hydrocast.typed import build, float_array

READ_THROUGH_BUILD = [
    SplitSpec(),
    ColinearityConfig(),
    BoostConfig(),
    *(model.config() for model in MODELS.values()),
    Standardization.identity(3),
    REFERENCE_POINTS[0],
]


@pytest.mark.parametrize("value", READ_THROUGH_BUILD, ids=lambda value: type(value).__name__)
def test_build_reads_back_what_json_writes(value):
    # a field type that fits() does not understand would fail every read of its class
    fields = json.loads(json.dumps(asdict(value)))
    assert build(type(value), **fields) == value


@pytest.mark.parametrize("value", [[1.0, True], [False, 2], [[1.0, 2.0], [3.0, True]]],
                         ids=["true_after_a_float", "false_before_an_int", "true_in_a_row"])
def test_float_array_refuses_true_and_false(value):
    # numpy reads a bool beside numbers as 1 or 0
    with pytest.raises(ValueError):
        float_array(value)
