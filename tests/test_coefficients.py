"""Coefficient tensors: golden expansions, quadrature oracle, caching."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratint import (
    ArgumentError,
    BasisKind,
    CacheFormatError,
    CapabilityError,
    Interval,
    StaleCacheError,
    WeightSpec,
    cache_load,
    cache_store,
    compute_coeff,
    compute_tensor,
)
from stratint.coefficients import _trig_nodes, _trig_tensor

from oracles import (
    legendre_k1_golden,
    legendre_k2_banded,
    quad_coeff,
    trig_k1_golden,
    trig_k2_pattern,
)

INTERVALS = [Interval(0.0, 1.0), Interval(2.5, 3.75)]


@pytest.mark.parametrize("iv", INTERVALS)
@pytest.mark.parametrize("exp", [0, 1, 2, 3])
def test_legendre_k1_golden(iv, exp):
    tensor = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((exp,)), iv, (12,))
    want = legendre_k1_golden(exp, iv.length(), 13)
    assert np.max(np.abs(tensor.data - want)) < 1e-10


@pytest.mark.parametrize("iv", INTERVALS)
def test_legendre_k2_banded_golden(iv):
    tensor = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (10, 10))
    want = legendre_k2_banded(iv.length(), 11)
    assert np.max(np.abs(tensor.data - want)) < 1e-10


@pytest.mark.parametrize("iv", INTERVALS)
@pytest.mark.parametrize("exp", [1, 2])
def test_trig_k1_golden(iv, exp):
    tensor = compute_tensor(
        BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((exp,)), iv, (20,)
    )
    want = trig_k1_golden(exp, iv.length(), 21)
    assert np.max(np.abs(tensor.data - want)) < 1e-9


@pytest.mark.parametrize("iv", INTERVALS)
def test_trig_k2_pattern_golden(iv):
    tensor = compute_tensor(
        BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((0, 0)), iv, (20, 20)
    )
    want = trig_k2_pattern(iv.length(), 21)
    assert np.max(np.abs(tensor.data - want)) < 1e-9


@pytest.mark.parametrize("kind", list(BasisKind))
@pytest.mark.parametrize("iv", INTERVALS)
def test_against_quadrature_oracle(kind, iv):
    cases = [
        ((0,), (4,)),
        ((3,), (2,)),
        ((0, 0), (2, 3)),
        ((1, 2), (0, 4)),
        ((0, 0, 0), (1, 0, 2)),
        ((2, 0, 1), (3, 1, 0)),
    ]
    for exps, js in cases:
        spec = WeightSpec.from_exponents(exps)
        mine = compute_coeff(kind, spec, iv, js)
        ref = quad_coeff(kind.value, exps, iv.t, iv.T, js)
        assert mine == pytest.approx(ref, abs=2e-8)


@pytest.mark.parametrize("kind", list(BasisKind))
def test_k4_volume(kind):
    # constant weights at order zero: integral of phi_0^4 over the simplex
    iv = Interval(2.5, 3.75)
    L = iv.length()
    spec = WeightSpec.from_exponents((0, 0, 0, 0))
    got = compute_coeff(kind, spec, iv, (0, 0, 0, 0))
    want = L**4 / 24.0 / (L * L)
    assert got == pytest.approx(want, rel=1e-9)


# (weight exponents, order per axis) up to k=1 o=400, k=2 o=160, k=3 o=24, k=4 o=8
TRIG_RULE_CASES = [
    ((3,), 400), ((0,), 57), ((2,), 1),
    ((1, 3), 160), ((0, 2), 33),
    ((0, 2, 3), 24), ((3, 1, 0), 5),
    ((1, 2, 0, 3), 8), ((3, 3, 3, 3), 3),
]


@pytest.mark.parametrize("iv", [Interval(0.0, 1.0), Interval(2.5, 3.75), Interval(-3.0, 97.0)])
@pytest.mark.parametrize("exps,order", TRIG_RULE_CASES)
def test_trig_node_rule_converged(iv, exps, order):
    # the tensor at the rule's node count already equals the one at twice as many
    spec = WeightSpec.from_exponents(exps)
    orders = (order,) * len(exps)
    n = _trig_nodes(spec, orders)
    got = _trig_tensor(spec, iv, orders, n)
    ref = _trig_tensor(spec, iv, orders, 2 * n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(compute_tensor(BasisKind.TRIGONOMETRIC, spec, iv, orders).data, got)


def test_tensor_corner_matches_compute_coeff():
    iv = Interval(0.0, 1.0)
    spec = WeightSpec.from_exponents((1, 0))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (4, 5))
    assert tensor.data.shape == (5, 6)
    single = compute_coeff(BasisKind.LEGENDRE, spec, iv, (4, 5))
    assert single == pytest.approx(tensor.data[4, 5], abs=1e-14)


@pytest.mark.parametrize("iv", INTERVALS)
def test_parseval_box_sum(iv):
    # sum over the (p, p) box of C^2 telescopes for constant weights
    L = iv.length()
    p = 24
    tensor = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (p, p))
    got = float(np.sum(tensor.data**2))
    want = L * L / 4.0 + (L * L / 2.0) * p / (2.0 * p + 1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_validation_errors():
    iv = Interval(0.0, 1.0)
    with pytest.raises(CapabilityError):
        compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0,) * 5), iv, (1,) * 5)
    with pytest.raises(ArgumentError):
        compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (1,))
    with pytest.raises(ArgumentError):
        compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0,)), iv, (-1,))
    with pytest.raises(CapabilityError):
        compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0,)), iv, (513,))


def test_tensor_data_read_only():
    iv = Interval(0.0, 1.0)
    tensor = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0,)), iv, (3,))
    with pytest.raises(ValueError):
        tensor.data[0] = 99.0


def test_cache_round_trip(tmp_path):
    iv = Interval(2.5, 3.75)
    spec = WeightSpec.from_exponents((1, 0))
    tensor = compute_tensor(BasisKind.TRIGONOMETRIC, spec, iv, (6, 9))
    path = os.fspath(tmp_path / "c.stcf")
    cache_store(path, tensor)
    back = cache_load(path, BasisKind.TRIGONOMETRIC, spec, iv, (6, 9))
    assert np.array_equal(back.data, tensor.data)
    assert back.orders == (6, 9)


def test_cache_stale_on_any_parameter(tmp_path):
    iv = Interval(2.5, 3.75)
    spec = WeightSpec.from_exponents((1, 0))
    tensor = compute_tensor(BasisKind.TRIGONOMETRIC, spec, iv, (6, 9))
    path = os.fspath(tmp_path / "c.stcf")
    cache_store(path, tensor)
    stale = [
        (BasisKind.LEGENDRE, spec, iv, (6, 9)),
        (BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((0, 0)), iv, (6, 9)),
        (BasisKind.TRIGONOMETRIC, spec, Interval(0.0, 1.0), (6, 9)),
        (BasisKind.TRIGONOMETRIC, spec, iv, (6, 10)),
    ]
    for args in stale:
        with pytest.raises(StaleCacheError):
            cache_load(path, *args)


def test_cache_corruption(tmp_path):
    iv = Interval(0.0, 1.0)
    spec = WeightSpec.from_exponents((0,))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (4,))
    path = os.fspath(tmp_path / "c.stcf")
    cache_store(path, tensor)
    blob = open(path, "rb").read()
    open(path, "wb").write(b"ZZZZ" + blob[4:])
    with pytest.raises(CacheFormatError):
        cache_load(path, BasisKind.LEGENDRE, spec, iv, (4,))
    open(path, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(CacheFormatError):
        cache_load(path, BasisKind.LEGENDRE, spec, iv, (4,))


@given(
    orders=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=2),
    exps=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=2),
)
@settings(deadline=None, max_examples=20)
def test_cache_round_trip_property(tmp_path_factory, orders, exps):
    if len(orders) != len(exps):
        orders = orders[: len(exps)] + [2] * (len(exps) - len(orders))
    iv = Interval(0.0, 1.0)
    spec = WeightSpec.from_exponents(tuple(exps))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, tuple(orders))
    path = os.fspath(tmp_path_factory.mktemp("cache") / "t.stcf")
    cache_store(path, tensor)
    back = cache_load(path, BasisKind.LEGENDRE, spec, iv, tuple(orders))
    assert np.array_equal(back.data, tensor.data)
