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
from stratint import coefficients
from stratint.coefficients import _nodes, _structural_zeros, _tensor

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


RULE_INTERVALS = [Interval(0.0, 1.0), Interval(2.5, 3.75), Interval(-3.0, 97.0)]


def _check_node_rule(kind, iv, exps, order):
    # the tensor at the rule's node count already equals the one at twice as many
    spec = WeightSpec.from_exponents(exps)
    orders = (order,) * len(exps)
    n = _nodes(kind, spec, orders)
    got = _tensor(kind, spec, iv, orders, n)
    ref = _tensor(kind, spec, iv, orders, 2 * n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    if kind is BasisKind.LEGENDRE:
        got[_structural_zeros(spec, orders)] = 0.0
    assert np.array_equal(compute_tensor(kind, spec, iv, orders).data, got)


@pytest.mark.parametrize("iv", RULE_INTERVALS)
@pytest.mark.parametrize("exps,order", TRIG_RULE_CASES)
def test_trig_node_rule_converged(iv, exps, order):
    _check_node_rule(BasisKind.TRIGONOMETRIC, iv, exps, order)


@pytest.mark.parametrize("iv", RULE_INTERVALS)
@pytest.mark.parametrize("exps,order", TRIG_RULE_CASES)
def test_legendre_node_rule_converged(iv, exps, order):
    _check_node_rule(BasisKind.LEGENDRE, iv, exps, order)


@pytest.mark.parametrize("iv", RULE_INTERVALS)
@pytest.mark.parametrize("exps,order", [
    ((0,), 24), ((3,), 24), ((1,), 7),
    ((0, 0), 16), ((2, 1), 16), ((0, 3), 16), ((3, 3), 12),
    ((0, 0, 0), 8), ((1, 0, 2), 8), ((0, 3, 1), 8),
    ((0, 0, 0, 0), 5), ((0, 1, 0, 0), 5), ((3, 0, 0, 2), 5),
])
def test_structural_zeros_sound(iv, exps, order):
    # every entry the support rule zeroes is rounding noise in the unmasked collocation
    spec = WeightSpec.from_exponents(exps)
    orders = (order,) * len(exps)
    raw = _tensor(BasisKind.LEGENDRE, spec, iv, orders, _nodes(BasisKind.LEGENDRE, spec, orders))
    zero = _structural_zeros(spec, orders)
    assert np.max(np.abs(raw[zero]), initial=0.0) <= 1e-14 * np.max(np.abs(raw))


@pytest.mark.parametrize("iv", RULE_INTERVALS)
def test_legendre_k2_zeros_exact(iv):
    data = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (40, 40)).data
    j1, j2 = np.indices(data.shape)
    assert np.all(np.diag(data)[1:] == 0.0)
    assert np.all(data[abs(j1 - j2) >= 2] == 0.0)


@pytest.mark.parametrize("kind,exps,order", [
    (BasisKind.TRIGONOMETRIC, (0,), 10**7),
    (BasisKind.LEGENDRE, (0, 0, 0, 0), 512),
])
def test_oversized_request_refused_before_allocating(monkeypatch, kind, exps, order):
    def no_rule(*args):
        raise AssertionError("gauss_rule called")

    monkeypatch.setattr(coefficients, "gauss_rule", no_rule)
    with pytest.raises(CapabilityError):
        compute_tensor(kind, WeightSpec.from_exponents(exps), Interval(0.0, 1.0),
                       (order,) * len(exps))


@pytest.mark.parametrize("kind", list(BasisKind))
def test_tensor_depends_on_length_only(kind):
    # far from 0 the nodes still sit on [0, T - t], so t adds no rounding
    spec = WeightSpec.from_exponents((2, 0))
    near = compute_tensor(kind, spec, Interval(0.0, 1.25), (12, 12)).data
    far = compute_tensor(kind, spec, Interval(1e6, 1e6 + 1.25), (12, 12)).data
    assert np.array_equal(near, far)


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
