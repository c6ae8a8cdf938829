"""Counter-based normal streams."""

import warnings

import numpy as np
import pytest

from stratint import ArgumentError
from stratint.rng import DOMAIN_PATH, DOMAIN_TABLE, normal_stream


def test_deterministic():
    a = normal_stream(7, 3, 2, 100)
    b = normal_stream(7, 3, 2, 100)
    assert np.array_equal(a, b)


def test_coordinates_separate_streams():
    base = normal_stream(7, 3, 2, 64)
    for other in [
        normal_stream(8, 3, 2, 64),
        normal_stream(7, 4, 2, 64),
        normal_stream(7, 3, 1, 64),
        normal_stream(7, 3, 2, 64, domain=DOMAIN_PATH),
    ]:
        assert not np.array_equal(base, other)


def test_prefix_stability():
    # a longer draw starts with the shorter one
    short = normal_stream(11, 0, 5, 50)
    long = normal_stream(11, 0, 5, 200)
    assert np.array_equal(long[:50], short)


def test_values_finite_and_standard():
    z = normal_stream(123, 0, 0, 200_000)
    assert np.all(np.isfinite(z))
    n = z.size
    assert abs(z.mean()) < 5.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
    # symmetry of tails
    assert abs((z > 0).mean() - 0.5) < 5.0 * 0.5 / np.sqrt(n)


def test_validation():
    with pytest.raises(ArgumentError):
        normal_stream(-1, 0, 0, 8)
    with pytest.raises(ArgumentError):
        normal_stream(0, -1, 0, 8)
    with pytest.raises(ArgumentError):
        normal_stream(0, 0, 0, -1)
    assert normal_stream(0, 0, 0, 0).shape == (0,)


def test_seeds_above_2_63_stay_distinct():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = normal_stream(2**63 + 5, 0, 1, 8)
        b = normal_stream(2**63 + 6, 0, 1, 8)
        top = normal_stream(2**64 - 1, 0, 1, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(b, top)


def test_frozen_values_below_2_63():
    # drawn before the key became a uint64 array: seeds below 2**63 keep their streams
    want = [-0.048982517409837285, 0.18495875260625444, 0.011387309856851486,
            1.4020163273899482]
    assert normal_stream(2**63 - 1, 2, 1, 4).tolist() == want
    want = [0.08918336806138849, -1.4476497886255815, 0.05464484990599225]
    assert normal_stream(2**62 + 7, 0, 3, 3, domain=DOMAIN_PATH).tolist() == want


def test_domain_constants():
    assert DOMAIN_TABLE == 0
    assert DOMAIN_PATH == 1
