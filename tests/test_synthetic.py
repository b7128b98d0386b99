import numpy as np
import pytest

from hydrocast.catalog import column_of
from hydrocast.errors import EmptyPlantedSet, TooFewSamples, UnknownName
from hydrocast.synthetic import generate_synthetic


def test_same_seed_is_bit_identical():
    a, ta = generate_synthetic(60, ["air_l01", "vwnd_l04"], 0.3, seed=9)
    b, tb = generate_synthetic(60, ["air_l01", "vwnd_l04"], 0.3, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.precip, b.precip)
    assert a.timestamps == b.timestamps
    assert ta == tb


def test_different_seed_differs():
    a, _ = generate_synthetic(60, ["air_l01"], 0.0, seed=1)
    b, _ = generate_synthetic(60, ["air_l01"], 0.0, seed=2)
    assert not np.array_equal(a.features, b.features)


def test_noiseless_linear_target_is_affine_in_planted_feature():
    data, truth = generate_synthetic(50, ["air_l01"], 0.0, seed=4, linear_only=True)
    x = data.features[:, column_of("air_l01")]
    expected = truth.linear_coefficients[0] * x + truth.offset
    np.testing.assert_allclose(data.precip, expected, atol=1e-12)


def test_noiseless_target_matches_documented_signal():
    planted = ["air_l01", "rhum_l01", "uwnd_l04", "air_l11", "rhum_l08"]
    data, truth = generate_synthetic(80, planted, 0.0, seed=7)
    np.testing.assert_allclose(
        data.precip, truth.signal(data.features) + truth.offset, atol=1e-12
    )
    assert truth.planted_columns == tuple(sorted(column_of(p) for p in planted))
    assert len(truth.linear_coefficients) == 5
    assert truth.product_pair == truth.planted_columns[:2]
    assert truth.threshold_column == truth.planted_columns[-1]


def test_precip_nonnegative_with_noise():
    data, _ = generate_synthetic(200, ["shum_l02"], 2.0, seed=3)
    assert (data.precip >= 0).all()


def test_timestamps_are_consecutive_months():
    data, _ = generate_synthetic(444, ["air_l01"], 0.0, seed=0)
    assert data.timestamps[0] == "1981-01"
    assert data.timestamps[-1] == "2017-12"


def test_noise_rel_is_that_fraction_of_the_noiseless_signal_std():
    planted = ["air_l01", "rhum_l08"]
    _, quiet = generate_synthetic(100, planted, 0.0, seed=5)
    assert quiet.signal_std > 0
    by_rel, rel_truth = generate_synthetic(100, planted, seed=5, noise_rel=0.1)
    by_sigma, sigma_truth = generate_synthetic(100, planted, 0.1 * quiet.signal_std, seed=5)
    np.testing.assert_array_equal(by_rel.precip, by_sigma.precip)
    assert rel_truth == sigma_truth


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        generate_synthetic(19, ["air_l01"], 0.0, seed=0)


def test_empty_planted_set():
    with pytest.raises(EmptyPlantedSet):
        generate_synthetic(30, [], 0.0, seed=0)


def test_planted_limit_and_bad_sigma():
    too_many = [f"air_l{i:02d}" for i in range(1, 12)]
    with pytest.raises(ValueError):
        generate_synthetic(30, too_many, 0.0, seed=0)
    with pytest.raises(UnknownName):  # planted features are given by name only
        generate_synthetic(30, [0], 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(30, ["air_l01"], -0.1, seed=0)
