import json
import math
import typing
from dataclasses import asdict

import numpy as np
import pytest

from hydrocast.cart import TreeConfig
from hydrocast.catalog import REFERENCE_POINTS
from hydrocast.dataset import SplitSpec
from hydrocast.learners import MODELS, Standardization
from hydrocast.learners.base import KNNConfig, MLPConfig, RFConfig, SVRConfig
from hydrocast.selection import BoostConfig, ColinearityConfig, SelectionConfig
from hydrocast.errors import DamagedArtifact
from hydrocast.typed import build, decode, encode

from oracles import packed

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


#: Float arrays at the edges of float64: signed zeros, the smallest subnormals and the
#: largest finite magnitudes, each of which a decimal round trip could get wrong.
FLOAT_EDGES = {
    "signed_zeros": [-0.0, 0.0],
    "smallest_subnormals": [5e-324, -5e-324],
    "largest_finite": [1.7976931348623157e308, -1.7976931348623157e308],
    "a_row_of_each": [[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.5, 1e-300]],
    "empty_rows": np.zeros((0, 3)),
}


@pytest.mark.parametrize("values", FLOAT_EDGES.values(), ids=FLOAT_EDGES)
def test_floats_come_back_bit_for_bit(values):
    array = np.asarray(values, dtype=np.float64)
    payload = json.loads(json.dumps(encode(array)))
    assert payload["dtype"] == "<f8" and payload["shape"] == list(array.shape)
    clone = decode(payload, "f", array.ndim)
    assert clone.dtype == np.float64 and clone.shape == array.shape
    assert clone.tobytes() == array.tobytes()
    assert payload == packed(array)  # numpy's own little-endian bytes, in C order


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_integers_take_the_narrowest_dtype_that_holds_them(width):
    info = np.iinfo(f"i{width}")
    limits = np.array([info.min, -1, 0, 1, info.max], dtype=np.int64)
    payload = encode(limits)
    assert payload["dtype"] == f"<i{width}"
    assert decode(payload, "i", 1).tolist() == limits.tolist()
    if width < 8:  # one past either limit needs the next width
        assert encode(np.array([info.max + 1]))["dtype"] == f"<i{2 * width}"
        assert encode(np.array([info.min - 1]))["dtype"] == f"<i{2 * width}"


def test_an_empty_integer_array_is_written_as_int8():
    payload = encode(np.zeros(0, dtype=np.int64))
    assert payload == {"dtype": "<i1", "shape": [0], "data": ""}
    assert decode(payload, "i", 1).dtype == np.int64


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_encode_refuses_a_non_finite_float(value):
    with pytest.raises(ValueError, match="non-finite"):
        encode(np.array([1.0, value]))


def test_decoded_arrays_are_read_only():
    for array, kind in ((np.array([1.5, 2.5]), "f"), (np.array([1, 2]), "i")):
        with pytest.raises(ValueError):
            decode(encode(array), kind, 1)[0] = 0


@pytest.mark.parametrize("dtype,kind", [(">f8", "f"), ("<f4", "f"), ("<i8", "f"), ("<u1", "i"),
                                        ("<u8", "i"), ("<f8", "i"), (">i4", "i"), ("|b1", "i"),
                                        ("float64", "f"), (None, "f")],
                         ids=["big_endian_f8", "f4", "int_for_float", "u1", "u8",
                              "float_for_int", "big_endian_i4", "bool", "numpy_name", "null"])
def test_decode_refuses_a_dtype_not_of_its_kind(dtype, kind):
    payload = packed([1, 0], dtype) if dtype else {**packed([1.0, 0.0]), "dtype": None}
    with pytest.raises(TypeError, match="dtype"):
        decode(payload, kind, 1)


@pytest.mark.parametrize("values,kind,ndim", [([1.0, True], "f", 1), ([False, 2], "i", 1),
                                              ([[1.0, 2.0], [3.0, True]], "f", 2)],
                         ids=["true_after_a_float", "false_before_an_int", "true_in_a_row"])
def test_decode_refuses_true_and_false(values, kind, ndim):
    # numpy reads a bool beside numbers as 1 or 0; the encoding can hold one only as bools
    with pytest.raises(TypeError, match="dtype"):
        decode(packed(np.array(values, dtype=bool), "|b1"), kind, ndim)


@pytest.mark.parametrize("shape", [[True], [-1], [2.0], ["2"], "2", None, 2, [2, 1], [],
                                   [10**30]],
                         ids=["bool", "negative", "float", "text_entry", "text", "null",
                              "number", "rank_2", "rank_0", "huge"])
def test_decode_refuses_a_shape_not_of_its_rank_or_bytes(shape):
    with pytest.raises(TypeError, match="shape|bytes"):
        decode({**packed([1.0, 2.0]), "shape": shape}, "f", 1)


@pytest.mark.parametrize("data", ["AAAAAAAAAAA AAAAAAAAAAAAAAAA=", "AAAAAAAAAAAAAAAAAAAAAA",
                                  "AAAAAAAAAAAAAAAAAAAAAA===", "=AAAAAAAAAAAAAAAAAAAAAA=",
                                  "AAAAAAAAAAA-AAAAAAAAAAA=", "AAAAAAAAAAAéAAAAAAAAAAA=",
                                  None, 5, ["AAAA"]],
                         ids=["space", "unpadded", "overpadded", "leading_pad", "url_alphabet",
                              "non_ascii", "null", "number", "list"])
def test_decode_refuses_data_that_is_not_strict_base64(data):
    assert len(packed([1.0, 2.0])["data"]) == 24
    with pytest.raises(TypeError, match="base64"):
        decode({**packed([1.0, 2.0]), "data": data}, "f", 1)


@pytest.mark.parametrize("count", [1, 3], ids=["short", "long"])
def test_decode_refuses_data_not_as_long_as_its_shape(count):
    with pytest.raises(TypeError, match="bytes"):
        decode({**packed([1.0] * count), "shape": [2]}, "f", 1)


@pytest.mark.parametrize("bits", [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000,
                                  0x7FF0000000000000, 0xFFF0000000000000],
                         ids=["quiet_nan", "signalling_nan", "negative_nan", "inf", "minus_inf"])
def test_decode_refuses_a_non_finite_float(bits):
    with pytest.raises(ValueError, match="non-finite"):
        decode(packed(np.array([0, bits], dtype=np.uint64).view(np.float64)), "f", 1)


@pytest.mark.parametrize("value", [{"dtype": "<f8", "shape": [0]},
                                   {**packed([]), "order": "C"}], ids=["missing", "extra"])
def test_decode_refuses_keys_other_than_the_three(value):
    with pytest.raises(TypeError, match="keys"):
        decode(value, "f", 1)


@pytest.mark.parametrize("value", [[1.0, 2.0], 1.0, None], ids=["list", "number", "null"])
def test_decode_refuses_what_earlier_versions_wrote(value):
    with pytest.raises(DamagedArtifact, match="rerun train"):
        decode(value, "f", 1)


#: Every bounded setting: its class, field, bound, and whether the bound itself is
#: refused (">") or taken (">=").
BOUNDS = [
    (TreeConfig, "max_depth", 1, ">="),
    (TreeConfig, "min_samples_leaf", 1, ">="),
    (TreeConfig, "features_per_node", 1, ">="),
    (KNNConfig, "k", 1, ">="),
    (RFConfig, "n_trees", 1, ">="),
    (RFConfig, "max_depth", 1, ">="),
    (RFConfig, "min_samples_leaf", 1, ">="),
    (SVRConfig, "c", 0, ">"),
    (SVRConfig, "epsilon", 0, ">="),
    (SVRConfig, "epochs", 1, ">="),
    (SVRConfig, "step", 0, ">"),
    (MLPConfig, "epochs", 1, ">="),
    (MLPConfig, "learning_rate", 0, ">"),
    (BoostConfig, "trees_per_stage", 1, ">="),
    (BoostConfig, "max_stages", 1, ">="),
    (BoostConfig, "shrinkage", 0, ">"),
    (BoostConfig, "stop_tolerance", 0, ">="),
    (BoostConfig, "tree_depth", 1, ">="),
    (BoostConfig, "min_samples_leaf", 1, ">="),
    (BoostConfig, "feature_subset_size", 1, ">="),
    (SelectionConfig, "kappa", 1, ">="),
    (SplitSpec, "seed", 0, ">="),
]
OPTIONAL = {(TreeConfig, "max_depth"), (TreeConfig, "features_per_node"),
            (RFConfig, "max_depth"), (BoostConfig, "feature_subset_size")}


def _bound_id(case):
    return f"{case[0].__name__}.{case[1]}"


def _is_float(cls, name):
    return isinstance(getattr(cls(), name), float)


def _refused(cls, name, low, sign):
    """The values one step past the bound, and NaN for a float field."""
    if not _is_float(cls, name):
        return [low - 1]
    return [low if sign == ">" else math.nextafter(low, -math.inf), math.nan]


def _taken(cls, name, low, sign):
    if not _is_float(cls, name):
        return low
    return math.nextafter(low, math.inf) if sign == ">" else float(low)


@pytest.mark.parametrize("case", BOUNDS, ids=_bound_id)
def test_a_setting_past_its_bound_is_refused_by_name(case):
    cls, name, low, sign = case
    for value in _refused(cls, name, low, sign):
        with pytest.raises(ValueError) as refusal:
            cls(**{name: value})
        assert str(refusal.value) == f"{cls.__name__}.{name} must be {sign} {low}, got {value}"
    assert getattr(cls(**{name: _taken(cls, name, low, sign)}), name) == _taken(cls, name, low, sign)


@pytest.mark.parametrize("case", BOUNDS, ids=_bound_id)
def test_only_an_optional_setting_takes_none(case):
    cls, name = case[:2]
    if (cls, name) in OPTIONAL:
        assert getattr(cls(**{name: None}), name) is None
    else:
        with pytest.raises(TypeError):
            cls(**{name: None})


def test_every_optional_bounded_setting_is_listed():
    assert OPTIONAL == {(cls, name) for cls, name, *_ in BOUNDS
                        if type(None) in typing.get_args(typing.get_type_hints(cls)[name])}


@pytest.mark.parametrize("std", [(1.0, math.nan), (1.0, 0.0), (-1.0, 1.0)],
                         ids=["nan", "zero", "negative"])
def test_standardization_refuses_a_std_that_is_not_positive(std):
    with pytest.raises(ValueError, match="every std must be > 0"):
        Standardization((0.0, 0.0), std)
