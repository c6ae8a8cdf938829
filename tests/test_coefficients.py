"""Coefficient tensors: golden expansions, quadrature oracle, caching."""

import dataclasses
import gc
import itertools
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratint import (
    ArgumentError,
    BasisKind,
    CacheFormatError,
    CapabilityError,
    DomainError,
    IntegralSpec,
    Interval,
    StaleCacheError,
    TruncationOrders,
    WeightSpec,
    cache_load,
    cache_store,
    compute_tensor,
    convergence_study,
    draw_table,
    eval_K_star,
    gauss_rule,
    gbm,
    phi_matrix,
    sample_truncated,
)
from stratint import basis, coefficients
from stratint.coefficients import (
    _legendre_bytes,
    _nodes,
    _structural_zeros,
    _tensor,
    _trig_bytes,
)

from mesh import draw_path
from oracles import (
    collocation_tensor,
    legendre_exact,
    legendre_exact_value,
    legendre_k1_golden,
    legendre_k2_banded,
    quad_coeff,
    trig_exact,
    trig_exact_value,
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
        mine = compute_tensor(kind, spec, iv, js).data[js]
        ref = quad_coeff(kind.value, exps, iv.t, iv.T, js)
        assert mine == pytest.approx(ref, abs=2e-8)


@pytest.mark.parametrize("kind", list(BasisKind))
def test_k4_volume(kind):
    # constant weights at order zero: integral of phi_0^4 over the simplex
    iv = Interval(2.5, 3.75)
    L = iv.length()
    spec = WeightSpec.from_exponents((0, 0, 0, 0))
    got = compute_tensor(kind, spec, iv, (0, 0, 0, 0)).data[0, 0, 0, 0]
    want = L**4 / 24.0 / (L * L)
    assert got == pytest.approx(want, rel=1e-9)


# (weight exponents, order per axis) up to k=1 o=400, k=2 o=160, k=3 o=24, k=4 o=8
RULE_CASES = [
    ((3,), 400), ((0,), 57), ((2,), 1),
    ((1, 3), 160), ((0, 2), 33),
    ((0, 2, 3), 24), ((3, 1, 0), 5),
    ((1, 2, 0, 3), 8), ((3, 3, 3, 3), 3),
]


RULE_INTERVALS = [Interval(0.0, 1.0), Interval(2.5, 3.75), Interval(-3.0, 97.0)]


def _former_trig_nodes(exps, orders):
    # the Gauss node count of the collocation that trigonometric tensors came
    # from before their closed form: a margin past the highest frequency
    return math.ceil(math.pi * sum((o + 1) // 2 for o in orders)) + sum(exps) + len(exps) + 16


@pytest.mark.parametrize("iv", RULE_INTERVALS)
@pytest.mark.parametrize("exps,order", RULE_CASES)
def test_trig_node_rule_converged(iv, exps, order):
    # an independent collocation at the former node rule, and at twice as many
    # nodes, agrees with the closed form; its own rounding reaches 2.7e-13 of
    # the largest entry, at (1, 3) o=160
    orders = (order,) * len(exps)
    got = compute_tensor(BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents(exps), iv, orders)
    n = _former_trig_nodes(exps, orders)
    for nodes in (n, 2 * n):
        ref = collocation_tensor("trigonometric", exps, iv.t, iv.T, orders, nodes)
        assert np.max(np.abs(got.data - ref)) <= 1e-12 * np.max(np.abs(ref)), nodes


@pytest.mark.parametrize("iv", RULE_INTERVALS)
@pytest.mark.parametrize("exps,order", RULE_CASES)
def test_legendre_node_rule_converged(iv, exps, order):
    # the tensor at the rule's node count already equals the one at twice as many
    spec = WeightSpec.from_exponents(exps)
    orders = (order,) * len(exps)
    n = _nodes(spec, orders)
    got = _tensor(spec, iv, orders, n)
    ref = _tensor(spec, iv, orders, 2 * n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    got[_structural_zeros(exps, orders)] = 0.0
    assert np.array_equal(compute_tensor(BasisKind.LEGENDRE, spec, iv, orders).data, got)


@pytest.mark.parametrize("iv", RULE_INTERVALS)
@pytest.mark.parametrize("exps,order", RULE_CASES)
def test_legendre_node_rule_tight(iv, exps, order):
    # one node fewer than the rule moves the tensor far past rounding (by 3.5e-9
    # of the largest entry at the least, (3, 3, 3, 3)): the rule is the boundary
    spec = WeightSpec.from_exponents(exps)
    orders = (order,) * len(exps)
    n = _nodes(spec, orders)
    short = _tensor(spec, iv, orders, n - 1)
    ref = _tensor(spec, iv, orders, 2 * n)
    assert np.max(np.abs(short - ref)) > 1e-10 * np.max(np.abs(ref))


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
    raw = _tensor(spec, iv, orders, _nodes(spec, orders))
    zero = _structural_zeros(exps, orders)
    assert np.max(np.abs(raw[zero]), initial=0.0) <= 1e-14 * np.max(np.abs(raw))


@pytest.mark.parametrize("iv", RULE_INTERVALS)
@pytest.mark.parametrize("exps,order", [
    ((0,), 40), ((3,), 40), ((1,), 7),
    ((0, 0), 20), ((2, 1), 20), ((0, 3), 16), ((3, 3), 12),
    ((0, 0, 0), 8), ((1, 0, 2), 8), ((0, 3, 1), 8),
    ((0, 0, 0, 0), 5), ((0, 1, 0, 0), 5), ((3, 0, 0, 2), 5),
])
def test_trig_structural_zeros_sound(iv, exps, order):
    # every entry the closed form gives as exact 0.0 is zero in the exact oracle
    orders = (order,) * len(exps)
    data = compute_tensor(BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents(exps), iv, orders).data
    zeros = [tuple(map(int, js)) for js in zip(*np.nonzero(data == 0.0))]
    assert not [js for js in zeros if trig_exact(exps, js)]


@pytest.mark.parametrize("n", range(1, 66))
def test_trig_structural_zeros_match_golden_patterns(n):
    # the closed form gives exact 0.0 at every zero of the printed k = 1 and
    # I00 expansions, and nowhere else
    def zeros(exps):
        spec, orders = WeightSpec.from_exponents(exps), (n - 1,) * len(exps)
        return compute_tensor(BasisKind.TRIGONOMETRIC, spec, Interval(0.0, 1.0), orders).data == 0.0

    assert np.array_equal(zeros((0, 0)), trig_k2_pattern(1.0, n) == 0.0)
    for exp in (1, 2):
        assert np.array_equal(zeros((exp,)), trig_k1_golden(exp, 1.0, n) == 0.0)


def test_trig_golden_at_high_order():
    # the closed form keeps to rounding where the collocation drifted to 6.0e-14
    # (exps 1, o = 8192) and 1.6e-14 (I00, o = 1000) of the largest entry
    iv = Interval(2.5, 3.75)
    k1 = compute_tensor(BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((1,)), iv, (8192,))
    want = trig_k1_golden(1, iv.length(), 8193)
    assert np.max(np.abs(k1.data - want)) <= 1e-15 * np.max(np.abs(want))
    k2 = compute_tensor(BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((0, 0)), iv, (1000,) * 2)
    want = trig_k2_pattern(iv.length(), 1001)
    assert np.max(np.abs(k2.data - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("exp", [1, 2])
def test_trig_golden_at_an_even_size(exp):
    # n = 20 ends on the sine of r = 10, which has no cosine partner
    iv = Interval(2.5, 3.75)
    k1 = compute_tensor(BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((exp,)), iv, (19,))
    assert np.max(np.abs(k1.data - trig_k1_golden(exp, iv.length(), 20))) < 1e-9
    k2 = compute_tensor(BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((0, 0)), iv, (19, 19))
    assert np.max(np.abs(k2.data - trig_k2_pattern(iv.length(), 20))) < 1e-9


def test_trig_supports_of_the_sample_set():
    # I0, I1 and I00 at p = 20 and I000 at p = 6 on [0, 0.01]: the rule leaves
    # these many terms per row, of 21, 21, 441 and 343
    iv = Interval(0.0, 0.01)
    sizes = []
    for exps, p in (((0,), 20), ((1,), 20), ((0, 0), 20), ((0, 0, 0), 6)):
        box = (p,) * len(exps)
        tensor = compute_tensor(BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents(exps), iv, box)
        sizes.append(len(tensor.support(box).coeffs))
    assert sizes == [1, 11, 41, 141]


# Every weight exponent in {0, 1, 2} per axis at k <= 2 and p = 8, k = 3 and
# p = 5, k = 4 and p = 3, then the cases of the coeffs benchmark, trigonometric
# here and Legendre below at p <= 8 ((0, 0) at p = 8 is in the grid already)
_EXPONENT_GRID = [
    (exps, p)
    for k, p in ((1, 8), (2, 8), (3, 5), (4, 3))
    for exps in itertools.product(range(3), repeat=k)
]
_EXACT_GRID = _EXPONENT_GRID + [((0, 0), 20), ((0, 0), 40), ((1, 0, 2), 8), ((1, 2, 0, 3), 4)]
# entries on _EXACT_GRID that the exact oracle proves zero but the closed form
# does not give as 0.0: terms reach them and cancel, in the outer integral or
# between integration levels (the frequency/degree zero rule the closed form
# replaced missed 56)
_TRIG_MISSES = 32


def test_trig_structural_zeros_against_exact_oracle():
    iv = Interval(2.5, 3.75)
    misses = 0
    for exps, p in _EXACT_GRID:
        spec = WeightSpec.from_exponents(exps)
        orders = (p,) * len(exps)
        data = compute_tensor(BasisKind.TRIGONOMETRIC, spec, iv, orders).data
        exact = np.zeros(data.shape)
        zero = np.zeros(data.shape, dtype=bool)
        for js in np.ndindex(data.shape):
            zero[js] = not trig_exact(exps, js)
            if not zero[js]:
                exact[js] = trig_exact_value(exps, js, iv.length())
        assert not np.any((data == 0.0) & ~zero), (exps, p)  # sound: every 0.0 is exact
        scale = np.max(np.abs(exact))
        # every exact zero is +0.0 but for the misses, which carry only noise
        missed = zero & ((data != 0.0) | np.signbit(data))
        assert np.max(np.abs(data[missed]), initial=0.0) <= 1e-14 * scale
        misses += np.count_nonzero(missed)
        # nonzero entries to 1e-13 relative; the smallest, down to 1e-5 of the
        # largest, carry rounding of ~1e-16 of the largest
        err = np.abs(data - exact)[~zero]
        assert np.all(err <= 1e-13 * np.abs(exact[~zero]) + 2e-15 * scale), (exps, p)
    assert misses == _TRIG_MISSES


_LEGENDRE_EXACT_GRID = _EXPONENT_GRID + [((1, 0, 2), 8), ((0, 0, 0), 8), ((1, 2, 0, 3), 6)]
# entries on _LEGENDRE_EXACT_GRID that the exact oracle proves zero but
# _structural_zeros does not: they hold through cancellations the span and
# parity rule cannot see, and the engine gives them as rounding noise
_LEGENDRE_MISSES = 276


def test_legendre_against_exact_oracle():
    iv = Interval(2.5, 3.75)
    misses = 0
    for exps, p in _LEGENDRE_EXACT_GRID:
        orders = (p,) * len(exps)
        data = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents(exps), iv, orders).data
        exact = np.zeros(data.shape)
        zero = np.zeros(data.shape, dtype=bool)
        for js in np.ndindex(data.shape):
            zero[js] = not legendre_exact(exps, js)
            exact[js] = legendre_exact_value(exps, js, iv.length())
        rule = _structural_zeros(exps, orders)
        assert not np.any(rule & ~zero), (exps, p)  # sound: every zero it sets is exact
        misses += np.count_nonzero(zero & ~rule)
        # to 1e-13 relative, and 2e-15 of the largest entry, which bounds the
        # noise of the misses too
        err = np.abs(data - exact)
        assert np.all(err <= 1e-13 * np.abs(exact) + 2e-15 * np.max(np.abs(exact))), (exps, p)
    assert misses == _LEGENDRE_MISSES


@pytest.mark.parametrize("iv", RULE_INTERVALS)
def test_legendre_k2_zeros_exact(iv):
    data = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (40, 40)).data
    j1, j2 = np.indices(data.shape)
    assert np.all(np.diag(data)[1:] == 0.0)
    assert np.all(data[abs(j1 - j2) >= 2] == 0.0)


@pytest.mark.parametrize("kind,exps,order", [
    (BasisKind.TRIGONOMETRIC, (0, 0), 10**5),  # the result alone takes 80 GB
    (BasisKind.LEGENDRE, (0, 0, 0, 0), 512),
])
def test_oversized_request_refused_before_allocating(monkeypatch, kind, exps, order):
    def no_rule(*args):
        raise AssertionError("gauss_rule called")

    monkeypatch.setattr(coefficients, "gauss_rule", no_rule)
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError):
            compute_tensor(kind, WeightSpec.from_exponents(exps), Interval(0.0, 1.0),
                           (order,) * len(exps))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("exps,order", [((0, 0), 800), ((1, 0, 2), 40), ((0, 0, 0, 0), 16)])
def test_trig_guard_counts_what_is_built(exps, order):
    # the guard's estimate is 1 to 1.5 times the traced peak of a build, and
    # the engine's caches keep under 4 MB once the tensor is dropped
    spec = WeightSpec.from_exponents(exps)
    orders = (order,) * len(exps)
    gc.collect()
    tracemalloc.start()
    try:
        tensor = compute_tensor(BasisKind.TRIGONOMETRIC, spec, Interval(0.5, 1.75), orders)
        peak = tracemalloc.get_traced_memory()[1]
        del tensor
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= _trig_bytes(spec, orders) <= 1.5 * peak
    assert kept < 4 * 2**20


@pytest.mark.parametrize("exps,order", [((0, 0), 512), ((1, 0, 2), 128), ((0, 0, 0, 0), 40)])
def test_legendre_guard_counts_what_is_built(exps, order):
    # the guard's estimate is 1 to 1.5 times the traced peak of a build with
    # its caches cold, and the caches (the P_j table, the integration matrix
    # and the zero mask of the one build) keep under 6 MB once the tensor is
    # dropped: 4.3 MB at (0, 0) o=512
    spec = WeightSpec.from_exponents(exps)
    orders = (order,) * len(exps)
    for cached in (coefficients._legendre_table, coefficients._structural_zeros,
                   basis._integration_matrix):
        cached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        tensor = compute_tensor(BasisKind.LEGENDRE, spec, Interval(0.5, 1.75), orders)
        peak = tracemalloc.get_traced_memory()[1]
        del tensor
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= _legendre_bytes(spec, orders, _nodes(spec, orders)) <= 1.5 * peak
    assert kept < 6 * 2**20


@pytest.mark.parametrize("kind", list(BasisKind))
def test_tensor_depends_on_length_only(kind):
    # far from 0 the nodes still sit on [0, T - t], so t adds no rounding
    spec = WeightSpec.from_exponents((2, 0))
    near = compute_tensor(kind, spec, Interval(0.0, 1.25), (12, 12)).data
    far = compute_tensor(kind, spec, Interval(1e6, 1e6 + 1.25), (12, 12)).data
    assert np.array_equal(near, far)


def test_tensor_corner_matches_larger_build():
    iv = Interval(0.0, 1.0)
    spec = WeightSpec.from_exponents((1, 0))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (4, 5))
    assert tensor.data.shape == (5, 6)
    larger = compute_tensor(BasisKind.LEGENDRE, spec, iv, (9, 9))
    assert tensor.data[4, 5] == pytest.approx(larger.data[4, 5], abs=1e-14)


@pytest.mark.parametrize("iv", INTERVALS)
def test_parseval_box_sum(iv):
    # sum over the (p, p) box of C^2 telescopes for constant weights
    L = iv.length()
    p = 24
    tensor = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (p, p))
    got = float(np.sum(tensor.data**2))
    want = L * L / 4.0 + (L * L / 2.0) * p / (2.0 * p + 1.0)
    assert got == pytest.approx(want, rel=1e-12)


# the order and tolerance per weight exponents: at p = 64 and 24 the worst gap
# off full ties is 1.8e-2 for (0, 0, 0), 2.3e-3 for (1, 0, 2) and 2.6e-2 for
# (0, 0, 0, 0), over both bases
_POINTWISE = {(0, 0): (256, 5e-3), (1, 2): (256, 5e-3), (0, 0, 0): (64, 2.5e-2),
              (1, 0, 2): (64, 4e-3), (0, 0, 0, 0): (24, 4e-2)}
# per multiplicity, points off ties, with tied pairs, and with every time tied
_POINTWISE_TIMES = {
    2: ((0.3, 0.7), (0.7, 0.3), (0.5, 0.5), (0.2, 0.2)),
    3: ((0.2, 0.5, 0.8), (0.8, 0.5, 0.2), (0.5, 0.2, 0.8), (0.3, 0.3, 0.7), (0.3, 0.7, 0.7),
        (0.5, 0.5, 0.5)),
    4: ((0.1, 0.4, 0.6, 0.9), (0.9, 0.6, 0.4, 0.1), (0.2, 0.2, 0.7, 0.7), (0.1, 0.4, 0.4, 0.9),
        (0.5, 0.5, 0.5, 0.5)),
}


def _square_sum(c, phi):
    """sum C_{j1..jk} phi_j1(t1) ... phi_jk(tk) over the box of c, for phi
    from phi_matrix at t1..tk."""
    value = c
    for l in reversed(range(c.ndim)):
        value = value @ phi[:, l]
    return float(value)


@pytest.mark.parametrize("kind", list(BasisKind))
@pytest.mark.parametrize("exps", list(_POINTWISE))
def test_square_partial_sums_converge_pointwise(kind, exps):
    # the paper's claim for square sums (p_1 = ... = p_k): off ties and at
    # tied pairs they converge to K*, which halves the product at each tied
    # pair; where all k times tie, to psi_1 ... psi_k / k!, which is K* only
    # for k = 2. A full tie does not move when the axes are permuted, so the
    # sum is 1/k! of the square sum of the kernel summed over permutations,
    # and that is the product of the weights there.
    iv = Interval(0.0, 1.0)
    spec = WeightSpec.from_exponents(exps)
    p, tol = _POINTWISE[exps]
    c = compute_tensor(kind, spec, iv, (p,) * len(exps)).data
    for times in _POINTWISE_TIMES[len(exps)]:
        got = _square_sum(c, phi_matrix(kind, p, np.array(times), iv))
        if len(set(times)) > 1:
            assert got == pytest.approx(eval_K_star(spec, times, iv.t), abs=tol), times
            continue
        full = math.prod(psi.value(times[0], iv.t) for psi in spec.weights)
        want = full / math.factorial(len(exps))
        if any(exps):
            assert got == pytest.approx(want, abs=tol), times
            continue
        # constant weights: exactly 1/k! at every order, so 1/6 and 1/24
        # where K* is 1/4 and 1/8
        small = compute_tensor(kind, spec, iv, (3,) * len(exps)).data
        for value in (got, _square_sum(small, phi_matrix(kind, 3, np.array(times), iv))):
            assert value == pytest.approx(want, abs=1e-14), times


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


@pytest.mark.parametrize("kind", list(BasisKind))
def test_overflowing_coefficients_refused(kind):
    spec = WeightSpec.from_exponents((2,))
    # C scales as L^(1/2 + 2): finite at L = 1e100, past double precision at 1e200
    assert np.isfinite(compute_tensor(kind, spec, Interval(0.0, 1e100), (3,)).data).all()
    with np.errstate(all="raise"):  # the build itself warns of nothing
        with pytest.raises(DomainError, match="overflow double precision"):
            compute_tensor(kind, spec, Interval(0.0, 1e200), (3,))


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
    blob = Path(path).read_bytes()
    Path(path).write_bytes(b"ZZZZ" + blob[4:])
    with pytest.raises(CacheFormatError):
        cache_load(path, BasisKind.LEGENDRE, spec, iv, (4,))
    Path(path).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CacheFormatError):
        cache_load(path, BasisKind.LEGENDRE, spec, iv, (4,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cache_with_non_finite_payload_is_corrupt(tmp_path, bad):
    iv = Interval(0.0, 1.0)
    spec = WeightSpec.from_exponents((0, 0))
    path = os.fspath(tmp_path / "c.stcf")
    cache_store(path, compute_tensor(BasisKind.LEGENDRE, spec, iv, (2, 2)))
    blob = Path(path).read_bytes()
    # the payload's last float64, before the text length (0: no text)
    last = len(blob) - 16
    Path(path).write_bytes(blob[:last] + struct.pack("<d", bad) + blob[last + 8:])
    with pytest.raises(CacheFormatError, match="not finite"):
        cache_load(path, BasisKind.LEGENDRE, spec, iv, (2, 2))


def test_cache_with_too_many_axes_is_corrupt(tmp_path):
    # a whole file of 255 axes of order 0: more axes than numpy arrays hold
    k = 255
    blob = coefficients._CACHE_MAGIC + struct.pack("<IBB", coefficients._CACHE_VERSION, 0, k)
    blob += struct.pack(f"<{k}I", *[0] * k) + struct.pack("<dd", 0.0, 1.0)
    blob += struct.pack("<Id", 1, 1.0) * k + struct.pack("<QdQ", 1, 0.5, 0)
    path = tmp_path / "c.stcf"
    path.write_bytes(blob)
    with pytest.raises(CacheFormatError, match="multiplicity 255"):
        cache_load(os.fspath(path), BasisKind.LEGENDRE, WeightSpec.from_exponents((0,)),
                   Interval(0.0, 1.0), (0,))


def _store_with_text(path, tensor, text):
    cache_store(path, tensor, lambda fh: fh.write(text))


def test_cache_text_round_trip_and_length(tmp_path):
    # the text follows the payload, behind its byte length; a file whose
    # length is not that of the text is not a whole cache
    iv, spec = Interval(0.0, 1.0), WeightSpec.from_exponents((1, 0))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (3, 2))
    path = os.fspath(tmp_path / "c.stcf")
    text = "j_1,j_2,value\r\n" * 5000  # more than one chunk
    _store_with_text(path, tensor, text)
    blob = Path(path).read_bytes()
    assert blob.endswith(struct.pack("<Q", len(text)) + text.encode())
    back = cache_load(path, BasisKind.LEGENDRE, spec, iv, (3, 2))
    assert np.array_equal(back.data, tensor.data)
    with coefficients._open_text(path, back) as fh:
        assert fh.read() == text.encode()
    cache_store(path, tensor)
    assert coefficients._open_text(path, tensor) is None  # no text
    for damaged in (blob[:-1], blob + b"\n"):
        Path(path).write_bytes(damaged)
        with pytest.raises(CacheFormatError, match="text length"):
            cache_load(path, BasisKind.LEGENDRE, spec, iv, (3, 2))
        with pytest.raises(CacheFormatError, match="text length"):
            coefficients._open_text(path, tensor)
    Path(path).write_bytes(blob[:-2] + b"\x80\n")
    cache_load(path, BasisKind.LEGENDRE, spec, iv, (3, 2))  # which reads no text
    with pytest.raises(CacheFormatError, match="not ASCII"):
        coefficients._open_text(path, tensor)
    other = compute_tensor(BasisKind.LEGENDRE, spec, Interval(0.0, 2.0), (3, 2))
    Path(path).write_bytes(blob)
    with pytest.raises(CacheFormatError, match="header"):
        coefficients._open_text(path, other)


def test_cache_load_reads_no_text(tmp_path):
    # a load holds the tensor, its np.isfinite mask (an eighth of its bytes)
    # and a read buffer, and not the multi-MB text stored beside it
    iv, spec = Interval(0.0, 1.0), WeightSpec.from_exponents((0, 0))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (128, 128))
    path = os.fspath(tmp_path / "c.stcf")
    _store_with_text(path, tensor, "0,0,0\r\n" * 2**20)
    assert os.path.getsize(path) > 7 * 2**20
    cache_load(path, BasisKind.LEGENDRE, spec, iv, (128, 128))
    gc.collect()
    tracemalloc.start()
    try:
        back = cache_load(path, BasisKind.LEGENDRE, spec, iv, (128, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, tensor.data)
    assert peak <= tensor.data.nbytes * 9 // 8 + 2**14


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


def test_support_of_a_box():
    iv = Interval(0.5, 1.75)
    tensor = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 1, 0)), iv, (6, 5, 6))
    for p in ((6, 5, 6), (3, 0, 5), (0, 0, 0)):
        box = tensor.data[tuple(slice(0, q + 1) for q in p)]
        support = tensor.support(p)
        assert np.array_equal(np.ravel_multi_index(support.axes, box.shape), np.flatnonzero(box))
        assert support.coeffs.tobytes() == box.reshape(-1)[np.flatnonzero(box)].tobytes()
        assert [a.dtype for a in support.axes] == [np.intp] * 3
    for bad in ((7, 5, 6), (6, 5), (-1, 0, 0)):
        with pytest.raises(ArgumentError):
            tensor.support(bad)


def test_a_sampled_tensor_is_a_plain_value(tmp_path):
    # sampling leaves nothing on a tensor: a used one holds the same fields,
    # prints, copies and stores like a fresh one, and cannot be changed
    iv = Interval(2.5, 3.75)
    spec = WeightSpec.from_exponents((1, 0))
    used = compute_tensor(BasisKind.TRIGONOMETRIC, spec, iv, (6, 9))
    fresh = dataclasses.replace(used)
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.TRIGONOMETRIC, iv=iv)
    for n in (1, 9):
        table = draw_table(2, 11, BasisKind.TRIGONOMETRIC, iv, seed=n, stream=range(n))
        sample_truncated(ispec, used, table, TruncationOrders((4, 9)))
    assert vars(used).keys() == vars(fresh).keys()
    assert repr(used) == repr(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        used.data = fresh.data
    cache_store(os.fspath(tmp_path / "used.stcf"), used)
    cache_store(os.fspath(tmp_path / "fresh.stcf"), fresh)
    assert (tmp_path / "used.stcf").read_bytes() == (tmp_path / "fresh.stcf").read_bytes()


_UNIT = Interval(0.0, 1.0)
# a value type that holds arrays, and one way to build an instance of it
_ARRAY_VALUES = {
    "CoeffTensor": lambda: compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)),
                                          _UNIT, (3, 3)),
    "GaussianTable": lambda: draw_table(2, 4, BasisKind.LEGENDRE, _UNIT, seed=3),
    "QuadratureRule": lambda: gauss_rule(5, _UNIT),
    "MeshPath": lambda: draw_path(2, 8, _UNIT, seed=3),
    "ConvergenceResult": lambda: convergence_study(gbm(), "milstein", (2, 4, 8, 16), 4, seed=3),
}


@pytest.mark.parametrize("make", list(_ARRAY_VALUES.values()), ids=list(_ARRAY_VALUES))
def test_array_values_compare_by_identity(make):
    # an array has no single truth value, so field-wise == would raise: two
    # instances built alike compare unequal, and each equals itself
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert len({a, a, b}) == 2


def test_tensor_of_a_view_is_not_changed_through_its_base():
    # the sampler's cached plans rely on data never changing
    iv = Interval(0.0, 1.0)
    tensor = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (4, 4))
    base = tensor.data.copy()
    view = dataclasses.replace(tensor, data=base[:])
    assert view.data.base is None
    before = view.support((4, 4)).coeffs.tobytes()
    base[:] = 0.0
    assert np.array_equal(view.data, tensor.data)
    assert dataclasses.replace(view).support((4, 4)).coeffs.tobytes() == before
    assert tensor.data.base is None  # compute_tensor hands over its own array, uncopied
