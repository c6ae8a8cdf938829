"""Counter-based normal streams."""

import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from stratint import ArgumentError
from stratint.rng import DOMAIN_PATH, DOMAIN_TABLE, _normals, normal_stream


def _reference(seed, stream, component, count, domain=DOMAIN_TABLE):
    """One stream by its definition: a fresh Philox4x64 keyed (seed, stream)."""
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64),
                            counter=np.array([0, 0, component, domain], dtype=np.uint64))
    words = np.random.Generator(bits).integers(0, 2**64, size=count, dtype=np.uint64)
    return ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)



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


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 4, 5, 11])
def test_single_and_batched_streams_match_reference(seed, count):
    streams = [0, 3, 2**63 + 1, 2**64 - 1, 3]
    for component, domain in ((1, DOMAIN_TABLE), (0, DOMAIN_PATH), (2**64 - 1, 2**64 - 1)):
        want = np.array([_reference(seed, s, component, count, domain) for s in streams])
        want = want.reshape(len(streams), count)
        got = normal_stream(seed, streams, component, count, domain)
        assert got.shape == (len(streams), count)
        assert got.tobytes() == want.tobytes()
        for s, row in zip(streams, want):
            assert normal_stream(seed, s, component, count, domain).tobytes() == row.tobytes()
    want = np.array([_reference(seed, s, 2, count) for s in range(4, 9)])
    assert normal_stream(seed, range(4, 9), 2, count).tobytes() == want.tobytes()


def test_batch_shapes():
    assert normal_stream(1, range(0), 1, 5).shape == (0, 5)
    assert normal_stream(1, range(3), 1, 0).shape == (3, 0)
    assert normal_stream(1, np.arange(2), 1, 3).shape == (2, 3)
    assert normal_stream(1, (4,), 1, 3).tolist() == [normal_stream(1, 4, 1, 3).tolist()]


def test_all_ones_word_is_finite():
    # The top 53 bits all ones: (2**53 - 1 + 0.5) * 2**-53 rounds to 1.0, and
    # ndtri(1.0) is +inf; the uniform is clamped just below 1 instead.
    ones = np.uint64(2**64 - 1)
    low = np.uint64(2**64 - 2**11)  # same top 53 bits, low bits zero
    below = np.uint64(2**64 - 2**11 - 1)  # top word 2**53 - 2
    words = np.array([ones, low, below, 0, 1, 2**63], dtype=np.uint64)
    z = _normals(words)
    assert np.all(np.isfinite(z))
    assert z[0] == z[1] == ndtri(np.nextafter(1.0, 0.0))
    assert z[2] < z[0]
    # every other word keeps its value under the unclamped map
    plain = ndtri(((words[2:] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
    assert z[2:].tobytes() == plain.tobytes()


@pytest.mark.parametrize("args", [
    (0, 2**64, 0, 3),
    (0, 1.5, 0, 3),
    (0, [1, 2.5], 0, 3),
    (0, [1, -1], 0, 3),
    (0, [1, 2**64], 0, 3),
    (0, "12", 0, 3),
    (0, 0, 2**64, 3),
    (0, 0, -1, 3),
    (0, 0, 1.0, 3),
    (0, 0, 0, 3, 2**64),
    (0, 0, 0, 3, -1),
    (2**64, 0, 0, 3),
    (1.5, 0, 0, 3),
    (0, 0, 0, 2.0),
])
def test_coordinates_must_be_64_bit_integers(args):
    with pytest.raises(ArgumentError):
        normal_stream(*args)


def test_normals_leave_words_unchanged():
    words = np.random.Generator(np.random.Philox(3)).integers(0, 2**64, size=37, dtype=np.uint64)
    kept = words.copy()
    z = _normals(words)
    assert words.tobytes() == kept.tobytes()
    assert z.dtype == np.float64 and not np.shares_memory(z, words)


@pytest.mark.parametrize("components", [
    range(1, 4), range(0, 7, 3), [2, 0, 2**64 - 1], (5,), np.arange(2, 5), range(3, 3), [],
])
@pytest.mark.parametrize("count", [0, 1, 11])
def test_component_sequences_match_single_draws(components, count):
    listed = [int(c) for c in components]
    for stream in (4, [0, 2**64 - 1, 4], range(2, 5), range(0)):
        got = normal_stream(9, stream, components, count)
        if isinstance(stream, int):
            assert got.shape == (len(listed), count)
            want = [normal_stream(9, stream, c, count) for c in listed]
        else:
            assert got.shape == (len(stream), len(listed), count)
            want = [[normal_stream(9, s, c, count) for c in listed] for s in stream]
        assert got.tobytes() == np.array(want).tobytes()


def test_component_sequences_in_both_domains():
    for domain in (DOMAIN_TABLE, DOMAIN_PATH):
        got = normal_stream(2**63 + 1, range(3), range(1, 3), 5, domain)
        for s in range(3):
            for c in (1, 2):
                assert got[s, c - 1].tobytes() == _reference(2**63 + 1, s, c, 5, domain).tobytes()


@pytest.mark.parametrize("components", [
    range(-1, 2),
    range(2**64 - 2, 2**64 + 1),
    [1, 2.5],
    (1.0,),
    [1, -1],
    "12",
    range(-1, 3, 2),  # a range of step 2 is checked element by element
])
def test_component_sequences_must_be_64_bit_integers(components):
    with pytest.raises(ArgumentError):
        normal_stream(0, 0, components, 3)
    with pytest.raises(ArgumentError):
        normal_stream(0, range(2), components, 3)


def test_ranges_are_checked_by_their_elements():
    # stop passes 2**64 but no element does, and an empty range has none
    top = range(2**64 - 3, 2**64 + 1, 2)
    got = normal_stream(0, top, top, 2)
    assert got.shape == (2, 2, 2)
    assert got[1, 0].tobytes() == normal_stream(0, 2**64 - 1, 2**64 - 3, 2).tobytes()
    for empty in (range(-3, -5), range(2**64, 2**64 + 5, -1)):
        assert normal_stream(0, empty, 1, 3).shape == (0, 3)
        assert normal_stream(0, 1, empty, 3).shape == (0, 3)
    with pytest.raises(ArgumentError):
        normal_stream(0, range(2**64 - 1, 2**64 + 1), 1, 3)
