"""Mesh discretization oracle (tests/mesh.py), pair partitions, and exact moments."""

import ast
import dataclasses
import gc
import hashlib
import itertools
import math
import os
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratint import (
    ArgumentError,
    BasisKind,
    CapabilityError,
    Interval,
    IntegralSpec,
    TruncationOrders,
    WeightSpec,
    compute_tensor,
    draw_table,
    enumerate_pair_partitions,
    oracle,
    phi_matrix,
    sample_truncated,
    truncated_moment,
)

from mesh import (
    MeshPath,
    coarsen_path,
    discretize_ito,
    draw_path,
    strat_reference,
    table_from_path,
)
from oracles import isserlis_moment, slow_discretize, truncation_law

IV = Interval(0.0, 1.0)
IV2 = Interval(2.5, 3.75)


def _ispec(exps, indices, iv=IV, basis=BasisKind.LEGENDRE):
    return IntegralSpec(
        spec=WeightSpec.from_exponents(exps), indices=indices, basis=basis, iv=iv
    )


# ---------------------------------------------------------------- paths

def test_draw_path_layout():
    path = draw_path(2, 16, IV2, seed=4)
    assert path.mesh.shape == (17,)
    assert path.mesh[0] == IV2.t and path.mesh[-1] == IV2.T
    assert path.increments.shape == (3, 16)
    assert np.array_equal(path.increments[0], np.diff(path.mesh))
    assert path.steps == 16 and path.m == 2


def test_draw_path_validation():
    with pytest.raises(ArgumentError):
        draw_path(0, 8, IV, seed=1)
    with pytest.raises(ArgumentError):
        draw_path(1, 0, IV, seed=1)
    assert draw_path(1, 1, IV, seed=1).steps == 1


def test_mesh_path_row0_checked():
    mesh = np.linspace(0.0, 1.0, 9)
    inc = np.vstack([np.diff(mesh), np.ones(8)])
    MeshPath(mesh=mesh, increments=inc)
    bad = inc.copy()
    bad[0, 3] *= 1.0 + 1e-9
    with pytest.raises(ArgumentError):
        MeshPath(mesh=mesh, increments=bad)
    with pytest.raises(ArgumentError):
        MeshPath(mesh=mesh[::-1].copy(), increments=inc)


def test_coarsen_path():
    path = draw_path(2, 32, IV, seed=6)
    coarse = coarsen_path(path, 4)
    assert coarse.steps == 8
    assert np.array_equal(coarse.mesh, path.mesh[::4])
    # Brownian increments add up over merged cells
    want = np.add.reduceat(path.increments[1], np.arange(0, 32, 4))
    assert np.allclose(coarse.increments[1], want, atol=0.0)
    with pytest.raises(ArgumentError):
        coarsen_path(path, 5)
    with pytest.raises(ArgumentError):
        coarsen_path(path, 0)


def test_coarsen_compose():
    path = draw_path(1, 64, IV2, seed=6)
    once = coarsen_path(coarsen_path(path, 2), 4)
    straight = coarsen_path(path, 8)
    assert np.array_equal(once.mesh, straight.mesh)
    assert np.allclose(once.increments, straight.increments, atol=1e-15)


# --------------------------------------------------------- discretizer

@pytest.mark.parametrize(
    "exps,indices",
    [
        ((0,), (1,)),
        ((2,), (0,)),
        ((0, 0), (1, 2)),
        ((1, 0), (2, 2)),
        ((0, 1), (0, 1)),
        ((0, 0, 0), (1, 2, 1)),
        ((1, 0, 2), (0, 2, 0)),
    ],
)
def test_discretize_matches_slow(exps, indices):
    path = draw_path(2, 20, IV2, seed=9)
    fast = discretize_ito(_ispec(exps, indices, IV2), path)
    slow = slow_discretize(exps, indices, path.mesh, path.increments)
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-13)


def test_discretize_dt_only_exact():
    # every nested dt integral is a simplex count times dt^k on a uniform mesh
    path = draw_path(1, 256, IV, seed=2)
    for k in (1, 2, 3, 4):
        got = discretize_ito(_ispec((0,) * k, (0,) * k), path)
        want = math.comb(256, k) / 256.0**k
        assert got == pytest.approx(want, rel=1e-13)


def test_discretize_mesh_interval_must_match():
    path = draw_path(1, 8, IV, seed=0)
    with pytest.raises(ArgumentError):
        discretize_ito(_ispec((0,), (1,), IV2), path)
    with pytest.raises(ArgumentError):
        discretize_ito(_ispec((0,), (2,)), path)  # component beyond path.m


# ------------------------------------------------------ Stratonovich

def test_strat_correction_k2():
    path = draw_path(1, 64, IV, seed=3)
    ito = discretize_ito(_ispec((0, 0), (1, 1)), path)
    strat = strat_reference(_ispec((0, 0), (1, 1)), path)
    assert strat - ito == pytest.approx(0.5, abs=1e-14)
    # distinct indices carry no correction
    path2 = draw_path(2, 64, IV, seed=3)
    assert strat_reference(_ispec((0, 0), (1, 2)), path2) == discretize_ito(
        _ispec((0, 0), (1, 2)), path2
    )


def test_strat_correction_k2_weighted():
    # correction is half the plain integral of the merged weight
    path = draw_path(1, 64, IV2, seed=8)
    ito = discretize_ito(_ispec((1, 2), (1, 1), IV2), path)
    strat = strat_reference(_ispec((1, 2), (1, 1), IV2), path)
    t, T = IV2.t, IV2.T
    # integral of (t-s)^3 over [t, T]
    want = 0.5 * (-((t - T) ** 4) / 4.0)
    assert strat - ito == pytest.approx(want, rel=1e-12)


def test_strat_k3_against_identity():
    # triple same-index constant integral tends to W^3/6; check the
    # correction structure instead: strat - ito equals the two half terms
    path = draw_path(1, 512, IV, seed=5)
    spec = _ispec((0, 0, 0), (1, 1, 1))
    strat = strat_reference(spec, path)
    ito = discretize_ito(spec, path)
    # build the two reduced integrals by hand
    merged_left = discretize_ito(_ispec((0, 0), (0, 1)), path)
    merged_right = discretize_ito(_ispec((0, 0), (1, 0)), path)
    assert strat - ito == pytest.approx(
        0.5 * merged_left + 0.5 * merged_right, rel=1e-12
    )


def test_strat_k3_mixed_indices():
    path = draw_path(2, 128, IV, seed=7)
    # only the adjacent equal pair contributes
    spec = _ispec((0, 0, 0), (1, 1, 2))
    strat = strat_reference(spec, path)
    ito = discretize_ito(spec, path)
    want = 0.5 * discretize_ito(_ispec((0, 0), (0, 2)), path)
    assert strat - ito == pytest.approx(want, rel=1e-12)
    # no adjacent equal pair, no correction
    spec2 = _ispec((0, 0, 0), (1, 2, 1))
    assert strat_reference(spec2, path) == discretize_ito(spec2, path)


# SHA-256 of strat_reference over k = 1..3, exponents and indices 0-2, on one
# 64-step path per interval, recorded with the hand-written k = 2 and k = 3 rules
FROZEN_STRAT = {
    (0.0, 1.0): "5c632281628f7634a86f0757e8430219114f52dc967eb5b6cd94841951a80fc4",
    (2.5, 3.75): "08e8077af981be5736fad70d80ca303f3d695f70976a63fe001089e8e621324f",
}


@pytest.mark.parametrize("t, end", sorted(FROZEN_STRAT))
def test_strat_frozen_bytes(t, end):
    iv = Interval(t, end)
    path = draw_path(2, 64, iv, seed=11)
    digest = hashlib.sha256()
    for k in (1, 2, 3):
        for exps in itertools.product(range(3), repeat=k):
            for indices in itertools.product(range(3), repeat=k):
                value = strat_reference(_ispec(exps, indices, iv), path)
                digest.update(np.float64(value).tobytes())
    assert digest.hexdigest() == FROZEN_STRAT[t, end]


def test_strat_k4_pathwise():
    # the expansion coupled to the path tends to the Stratonovich reference,
    # not to the Ito discretization, once adjacent indices repeat
    n, steps, orders = 100, 2**11, (2, 4, 8)
    paths = [draw_path(2, steps, IV, seed=41, stream=r) for r in range(n)]
    phi = phi_matrix(BasisKind.LEGENDRE, 8, paths[0].mesh[:-1], IV)
    tables = [table_from_path(path, 8, BasisKind.LEGENDRE, phi) for path in paths]
    sq_ref, sq_ito = 0.0, 0.0
    for exps in ((0, 0, 0, 0), (0, 1, 0, 2)):
        tensor = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents(exps), IV, (8,) * 4)
        for indices in ((1, 1, 2, 2), (2, 1, 1, 2), (1, 1, 1, 2)):
            ispec = _ispec(exps, indices)
            ref_err, ito_err = np.zeros(len(orders)), 0.0
            for path, table in zip(paths, tables):
                ref, ito = strat_reference(ispec, path), discretize_ito(ispec, path)
                for n_p, p in enumerate(orders):
                    v = sample_truncated(ispec, tensor, table, TruncationOrders.uniform(4, p))
                    ref_err[n_p] += (ref - v) ** 2
                ito_err += (ito - v) ** 2  # v is I_8, the last order
            assert ref_err[-1] < ref_err[0], (exps, indices)
            assert ref_err[-1] < ito_err, (exps, indices)
            sq_ref += ref_err[-1]
            sq_ito += ito_err
    # pooled rms at p = 8: 0.049 against 0.133
    assert math.sqrt(sq_ref) < 0.5 * math.sqrt(sq_ito)
    # no adjacent equal pair, no correction
    spec = _ispec((0, 0, 0, 0), (1, 2, 1, 2))
    assert strat_reference(spec, paths[0]) == discretize_ito(spec, paths[0])


def test_strat_k4_converges_to_closed_value():
    # I*_(0000) with all four indices equal is W^4/24; every set of pairs is corrected
    spec = _ispec((0, 0, 0, 0), (1, 1, 1, 1))
    sq = np.zeros(3)
    for r in range(50):
        fine = draw_path(1, 2**12, IV, seed=43, stream=r)
        w = float(fine.increments[1].sum())
        for n_f, factor in enumerate((16, 4, 1)):
            sq[n_f] += (strat_reference(spec, coarsen_path(fine, factor)) - w**4 / 24.0) ** 2
    rms = np.sqrt(sq / 50)  # 0.019, 0.0099, 0.0060 on 2^8, 2^10, 2^12 steps
    assert rms[2] < rms[1] < rms[0]
    assert rms[2] < 0.5 * rms[0]


def test_strat_converges_to_closed_value():
    # I*_(00) same index equals half the squared total increment in the limit
    path = draw_path(1, 2**12, IV, seed=13)
    w = float(path.increments[1].sum())
    got = strat_reference(_ispec((0, 0), (1, 1)), path)
    assert got == pytest.approx(0.5 * w * w, abs=0.08)


# ---------------------------------------------------- table from path

def test_table_from_path_matches_manual():
    path = draw_path(2, 64, IV2, seed=21)
    table = table_from_path(path, 6, BasisKind.LEGENDRE)
    assert table.values.shape == (3, 7)
    phi = phi_matrix(BasisKind.LEGENDRE, 6, path.mesh[:-1], IV2)
    want = path.increments[1] @ phi.T
    assert np.allclose(table.values[1], want, atol=1e-13)
    assert table.values[0, 0] == pytest.approx(math.sqrt(IV2.length()), abs=1e-14)


def test_table_from_path_is_usable_by_sampler():
    path = draw_path(2, 128, IV, seed=1)
    table = table_from_path(path, 10, BasisKind.TRIGONOMETRIC)
    spec = WeightSpec.from_exponents((0, 0))
    tensor = compute_tensor(BasisKind.TRIGONOMETRIC, spec, IV, (10, 10))
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.TRIGONOMETRIC, iv=IV)
    v = sample_truncated(ispec, tensor, table, TruncationOrders.uniform(2, 10))
    assert np.isfinite(v)


# ------------------------------------------------------- partitions

def test_partition_counts():
    for k in range(9):
        for r in range(k // 2 + 1):
            want = math.factorial(k) // (
                2**r * math.factorial(r) * math.factorial(k - 2 * r)
            )
            assert len(enumerate_pair_partitions(k, r)) == want


def test_partition_k4_lists():
    full = {
        frozenset(map(frozenset, p.pairs)) for p in enumerate_pair_partitions(4, 2)
    }
    assert full == {
        frozenset({frozenset({1, 2}), frozenset({3, 4})}),
        frozenset({frozenset({1, 3}), frozenset({2, 4})}),
        frozenset({frozenset({1, 4}), frozenset({2, 3})}),
    }
    ones = {(p.pairs[0], p.singles) for p in enumerate_pair_partitions(4, 1)}
    assert ones == {
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
        ((2, 3), (1, 4)),
        ((2, 4), (1, 3)),
        ((3, 4), (1, 2)),
    }


@given(k=st.integers(min_value=0, max_value=8), data=st.data())
@settings(deadline=None, max_examples=40)
def test_partition_structure(k, data):
    r = data.draw(st.integers(min_value=0, max_value=k // 2))
    parts = enumerate_pair_partitions(k, r)
    seen = set()
    for part in parts:
        flat = [x for pair in part.pairs for x in pair] + list(part.singles)
        assert sorted(flat) == list(range(1, k + 1))
        assert all(a < b for a, b in part.pairs)
        key = (frozenset(map(frozenset, part.pairs)), part.singles)
        assert key not in seen
        seen.add(key)


def test_partition_validation():
    with pytest.raises(ArgumentError):
        enumerate_pair_partitions(3, 2)
    with pytest.raises(ArgumentError):
        enumerate_pair_partitions(-1, 0)


def test_partitions_enumerated_once_and_returned_fresh():
    first = enumerate_pair_partitions(6, 2)
    first.clear()  # the caller owns the list it gets
    again = enumerate_pair_partitions(6, 2)
    assert len(again) == 45 and again is not first
    assert again == enumerate_pair_partitions(6, 2)
    cached = oracle._pair_partitions.cache_info().currsize
    # past the moments' total multiplicity 8, nothing is kept
    assert len(enumerate_pair_partitions(10, 1)) == 45
    assert oracle._pair_partitions.cache_info().currsize == cached
    with pytest.raises(ArgumentError):
        enumerate_pair_partitions(8, 5)


# ---------------------------------------------------------- moments

def _tensor(exps, iv=IV, box=30, basis=BasisKind.LEGENDRE):
    return compute_tensor(basis, WeightSpec.from_exponents(exps), iv, (box,) * len(exps))


def test_trace_identity():
    for iv in (IV, IV2):
        tensor = _tensor((0, 0), iv, 50)
        ispec = _ispec((0, 0), (1, 1), iv)
        for p in (0, 1, 5, 50):
            m = truncated_moment([ispec], [tensor], [TruncationOrders.uniform(2, p)])
            assert abs(m - 0.5 * iv.length()) < 1e-12


def test_second_moment_parseval():
    tensor = _tensor((0, 0), IV, 40)
    ispec = _ispec((0, 0), (1, 2))
    for p in (1, 4, 16, 40):
        got = truncated_moment(
            [ispec, ispec], [tensor, tensor], [TruncationOrders.uniform(2, p)] * 2
        )
        want = 0.25 + 0.5 * p / (2.0 * p + 1.0)
        assert got == pytest.approx(want, abs=1e-13)


def test_truncation_law_exact_by_moments():
    # E[(X_P - X_p)^2] = E[X_P^2] - E[X_p^2] for nested truncations
    tensor = _tensor((0, 0), IV, 64)
    ispec = _ispec((0, 0), (1, 2))

    def second(p):
        return truncated_moment(
            [ispec, ispec], [tensor, tensor], [TruncationOrders.uniform(2, p)] * 2
        )

    for p in (1, 2, 8, 32):
        got = second(64) - second(p)
        assert got == pytest.approx(truncation_law(1.0, p, 64), abs=1e-13)


def test_k1_cross_moment():
    t0 = _tensor((0,))
    t1 = _tensor((1,))
    m = truncated_moment(
        [_ispec((0,), (1,)), _ispec((1,), (1,))],
        [t0, t1],
        [TruncationOrders.uniform(1, 30)] * 2,
    )
    want = float(t0.data @ t1.data)
    assert m == pytest.approx(want, rel=1e-13)


def test_odd_moment_zero():
    t0 = _tensor((0,))
    assert truncated_moment([_ispec((0,), (1,))], [t0], [TruncationOrders.uniform(1, 30)]) == 0.0


def test_dt_axes_are_deterministic():
    t0 = _tensor((0,))
    m = truncated_moment(
        [_ispec((0,), (0,)), _ispec((0,), (0,))],
        [t0, t0],
        [TruncationOrders.uniform(1, 30)] * 2,
    )
    assert m == pytest.approx(1.0, rel=1e-13)  # (integral of ds)^2 on [0,1]


def test_mixed_component_moment():
    # E[I00(1,2) * I00(2,1)] only pairs matched components
    tensor = _tensor((0, 0), IV, 20)
    a = _ispec((0, 0), (1, 2))
    b = _ispec((0, 0), (2, 1))
    m = truncated_moment([a, b], [tensor, tensor], [TruncationOrders.uniform(2, 20)] * 2)
    # C contracted against its transpose: L^2/4 minus the band sum
    c = tensor.data
    want = float(np.einsum("ab,ba->", c, c))
    assert m == pytest.approx(want, rel=1e-12)


def test_moment_validation():
    tensor = _tensor((0, 0))
    ispec = _ispec((0, 0), (1, 2))
    orders = TruncationOrders.uniform(2, 4)
    with pytest.raises(ArgumentError):
        truncated_moment([ispec, ispec, ispec], [tensor] * 3, [orders] * 3)
    with pytest.raises(ArgumentError):
        truncated_moment([ispec], [tensor], [TruncationOrders.uniform(2, 31)])
    # total multiplicity 8 is allowed
    big = _tensor((0, 0, 0, 0), box=2)
    bi = _ispec((0, 0, 0, 0), (1, 1, 2, 2))
    small = TruncationOrders.uniform(4, 2)
    truncated_moment([bi, bi], [big, big], [small, small])
    # tensor and spec must describe the same integral
    with pytest.raises(ArgumentError):
        truncated_moment([ispec], [big], [orders])


def test_k1_second_moment():
    t0 = _tensor((0,))
    ispec = _ispec((0,), (1,))
    orders = TruncationOrders.uniform(1, 30)
    m = truncated_moment([ispec] * 2, [t0] * 2, [orders] * 2)
    assert m == pytest.approx(1.0, rel=1e-13)  # E[I0^2] = L on [0,1]


def test_moment_rejects_mixed_single_and_list():
    tensor = _tensor((0, 0), box=4)
    ispec = _ispec((0, 0), (1, 2))
    orders = TruncationOrders.uniform(2, 4)
    with pytest.raises(ArgumentError):
        truncated_moment(ispec, [tensor], orders)
    with pytest.raises(ArgumentError):
        truncated_moment([ispec], tensor, [orders])


def test_moment_enumerates_within_components(monkeypatch):
    # Isserlis pairs only axes of one component: distinct components need one
    # pairing each, while a repeated component still gets every one of its 105
    built = []

    def counting(k, r):
        out = enumerate_pair_partitions(k, r)
        built.append(len(out))
        return out

    monkeypatch.setattr(oracle, "enumerate_pair_partitions", counting)
    tensor = _tensor((0, 0, 0, 0), box=2)
    orders = TruncationOrders.uniform(4, 2)

    def built_for(indices):
        # pairings are enumerated when a moment plan is compiled, and only then
        oracle._moment_plan.cache_clear()
        built.clear()
        ispec = _ispec((0, 0, 0, 0), indices)
        truncated_moment([ispec] * 2, [tensor] * 2, [orders] * 2)
        compiled = sum(built)
        truncated_moment([ispec] * 2, [tensor] * 2, [orders] * 2)
        assert sum(built) == compiled
        return compiled

    assert built_for((1, 2, 3, 4)) <= 4  # 105 when all eight axes are paired at once
    assert built_for((1, 1, 1, 1)) == 105


def _moment_args(basis, iv, operands):
    ispecs, tensors, orders = [], [], []
    for exps, indices, p in operands:
        ispecs.append(_ispec(exps, indices, iv, basis))
        tensors.append(_tensor(exps, iv, 3, basis))
        orders.append(TruncationOrders(p))
    return ispecs, tensors, orders


# (operands, whether the moment vanishes because a component appears an odd
# number of times): one and two operands, dt axes, repeated components, k = 8
_PLAN_CASES = (
    ([((0, 0), (1, 1), (3, 2))], False),
    ([((0, 1, 2), (0, 1, 1), (2, 3, 1))], False),
    ([((0, 0), (1, 2), (3, 3))], True),
    ([((1,), (0,), (2,))], False),
    ([((1,), (1,), (3,))] * 2, False),
    ([((0, 0), (1, 2), (3, 3)), ((1, 0), (2, 1), (2, 3))], False),
    ([((0, 2, 1), (1, 0, 2), (3, 1, 2)), ((2, 0), (2, 0), (1, 3))], True),
    ([((1, 0, 2), (0, 2, 0), (2, 3, 1)), ((0, 1), (2, 0), (3, 2))], False),
    ([((0, 0, 0, 0), (1, 1, 2, 2), (2, 3, 1, 2)), ((0, 1, 0, 1), (2, 1, 2, 1), (3, 2, 2, 1))],
     False),
    ([((0, 1, 2, 0), (1, 1, 1, 1), (3, 2, 1, 3)), ((2, 0, 1, 1), (1, 1, 1, 1), (1, 3, 3, 2))],
     False),
)


@pytest.mark.parametrize("basis", list(BasisKind))
@pytest.mark.parametrize("operands, vanishes", _PLAN_CASES)
def test_moment_plan_hit_gives_the_bits_of_a_miss(basis, operands, vanishes):
    ispecs, tensors, orders = _moment_args(basis, IV2, operands)
    oracle._moment_plan.cache_clear()
    first = truncated_moment(ispecs, tensors, orders)
    assert oracle._moment_plan.cache_info().misses == 1
    again = truncated_moment(ispecs, tensors, orders)
    assert oracle._moment_plan.cache_info().hits == 1
    assert float.hex(again) == float.hex(first)
    assert (first == 0.0) if vanishes else first != 0.0
    key = (tuple(s.indices for s in ispecs), tuple(o.p for o in orders))
    assert (oracle._moment_plan(*key) is None) == vanishes


def _arrays_in(value):
    """Every numpy array reachable through the tuples of a value."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays_in(item)]
    return []


def test_one_moment_plan_serves_every_basis_and_interval():
    operands = [((0, 1, 2), (1, 0, 2), (3, 2, 3)), ((1, 0, 2), (2, 0, 1), (3, 3, 1))]
    oracle._moment_plan.cache_clear()
    for basis, iv in itertools.product(BasisKind, (IV, IV2)):
        ispecs, tensors, orders = _moment_args(basis, iv, operands)
        got = truncated_moment(ispecs, tensors, orders)
        arrays = [t.data[tuple(slice(0, q + 1) for q in o.p)] for t, o in zip(tensors, orders)]
        want = isserlis_moment(arrays, [s.indices for s in ispecs], iv.length())
        assert got == pytest.approx(want, rel=1e-12)
    info = oracle._moment_plan.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    plan = oracle._moment_plan((operands[0][1], operands[1][1]), (operands[0][2], operands[1][2]))
    assert plan.dt_tops == (2, 3) and _arrays_in(plan) == []


def test_moment_checks_run_on_the_cached_path():
    # every argument error is raised after the plan of the same structure is
    # cached, so no check is skipped on a plan hit
    ispecs, tensors, orders = _moment_args(BasisKind.LEGENDRE, IV, [((0, 0), (1, 2), (3, 3))] * 2)
    truncated_moment(ispecs, tensors, orders)

    def raises(error, message, *args):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            truncated_moment(*args)

    raises(ArgumentError, "pass one spec, tensor and orders, or a list of each",
           ispecs[0], tensors, orders[0])
    raises(ArgumentError, "need one or two specs with matching tensors and orders",
           ispecs * 2, tensors * 2, orders * 2)
    raises(ArgumentError, "need one or two specs with matching tensors and orders",
           ispecs, tensors[:1], orders)
    trig = [dataclasses.replace(s, basis=BasisKind.TRIGONOMETRIC) for s in ispecs]
    raises(ArgumentError, "specs must share basis and interval",
           [ispecs[0], trig[1]], tensors, orders)
    raises(ArgumentError, "specs must share basis and interval",
           [ispecs[0], dataclasses.replace(ispecs[1], iv=IV2)], tensors, orders)
    deep = _ispec((0, 0, 0, 0, 0), (1, 1, 2, 2, 1))
    raises(CapabilityError, "total multiplicity 9 > 8 not supported",
           [deep, _ispec((0, 0, 0, 0), (1, 2, 3, 3))], tensors, orders)
    raises(ArgumentError, "tensor does not match its spec", trig, tensors, orders)
    raises(ArgumentError, "tensor does not match its spec",
           [dataclasses.replace(s, iv=IV2) for s in ispecs], tensors, orders)
    other = _tensor((1, 0), IV, 3)
    raises(ArgumentError, "tensor does not match its spec", ispecs, [tensors[0], other], orders)
    raises(ArgumentError, "orders (4, 3) exceed tensor orders (3, 3)",
           ispecs, tensors, [orders[0], TruncationOrders((4, 3))])
    raises(ArgumentError, "orders (3,) exceed tensor orders (3, 3)",
           ispecs, tensors, [orders[0], TruncationOrders((3,))])
    # and the cached plan still gives the moment
    assert truncated_moment(ispecs, tensors, orders) == pytest.approx(
        float(np.sum(tensors[0].data ** 2)), rel=1e-12)


def test_moment_keeps_no_tensor_alive():
    ispecs, tensors, orders = _moment_args(BasisKind.TRIGONOMETRIC, IV2,
                                           [((0, 0), (1, 0), (3, 2))] * 2)
    held = [weakref.ref(t) for t in tensors]
    truncated_moment(ispecs, tensors, orders)
    truncated_moment(ispecs, tensors, orders)  # from the cached plan
    del tensors
    gc.collect()
    assert [ref() for ref in held] == [None, None]


@st.composite
def _moment_operand(draw):
    """Weights, components (0 is dt) and per-axis truncation orders of one factor."""
    k = draw(st.integers(min_value=1, max_value=4))
    exps = tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    indices = tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    orders = tuple(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    return exps, indices, orders


@given(
    operands=st.lists(_moment_operand(), min_size=1, max_size=2),
    basis=st.sampled_from(list(BasisKind)),
    iv=st.sampled_from([IV, IV2]),
)
@example(operands=[((0, 0, 0, 0), (1, 1, 1, 1), (3, 3, 3, 3))] * 2,
         basis=BasisKind.LEGENDRE, iv=IV)
@example(operands=[((0, 1, 2, 0), (1, 1, 1, 1), (3, 2, 1, 3)),
                   ((2, 0, 1, 1), (1, 1, 1, 1), (1, 3, 3, 2))],
         basis=BasisKind.TRIGONOMETRIC, iv=IV2)
@example(operands=[((1, 0, 2), (0, 1, 0), (2, 3, 1)), ((0, 2, 1), (1, 0, 0), (3, 2, 0))],
         basis=BasisKind.LEGENDRE, iv=IV2)
@settings(derandomize=True, deadline=None, max_examples=40)
def test_moments_match_isserlis_brute_force(operands, basis, iv):
    ispecs, tensors, orders, arrays, components = [], [], [], [], []
    for exps, indices, p in operands:
        tensor = _tensor(exps, iv, 3, basis)
        ispecs.append(_ispec(exps, indices, iv, basis))
        tensors.append(tensor)
        orders.append(TruncationOrders(p))
        arrays.append(tensor.data[tuple(slice(0, q + 1) for q in p)])
        components.append(indices)
    got = truncated_moment(ispecs, tensors, orders)
    want = isserlis_moment(arrays, components, iv.length())
    assert got == pytest.approx(want, rel=1e-12)


def _frozen_moment_cases():
    """(basis, interval, operands) over k1, k2 in 1..4, spread over exponents and
    components 0-2, with orders that differ between the two operands."""
    n = 0
    for basis, iv in itertools.product(BasisKind, (IV, IV2)):
        for k1, k2 in itertools.product(range(1, 5), repeat=2):
            for _ in range(3):
                operands = []
                for k in (k1, k2):
                    n += 1
                    code = n * 2654435761 % 9**k
                    digits = [code // 3**d % 3 for d in range(2 * k)]
                    p = tuple((n + 2 * axis) % 4 for axis in range(k))
                    operands.append((tuple(digits[:k]), tuple(digits[k:]), p))
                yield basis, iv, operands
        # one component repeated on every axis
        yield basis, iv, [((0, 1, 2, 0), (1, 1, 1, 1), (3, 2, 1, 3)),
                          ((2, 0, 1, 1), (1, 1, 1, 1), (1, 3, 3, 2))]


# SHA-256 of float.hex of E[X] and E[XY] over _frozen_moment_cases, recorded
# while every pairing of all Gaussian axes was enumerated and mixed ones dropped.
# Re-recorded when compute_tensor came to zero the trigonometric entries that
# vanish by frequency and degree: one trigonometric value of 196 moved, by
# 1.5e-16 relative. Re-recorded again when trigonometric tensors came to be
# built in closed form, whose entries moved toward exact: 42 trigonometric
# values moved, by at most 3.3e-15 relative; the Legendre values are unchanged.
# Re-recorded again when Legendre tensors came to be built at half the nodes
# from an interval-free P_j table: 56 of the 196 Legendre values moved, by at
# most 6.5e-15 relative; the trigonometric values are unchanged
FROZEN_MOMENTS = "f2d7c936678180cace2ac383fac83879231262fbf89ff6358452af66ee9737f6"


def test_truncated_moment_frozen_bytes():
    tensors = {}
    digest = hashlib.sha256()
    for basis, iv, operands in _frozen_moment_cases():
        ispecs, ops, orders = [], [], []
        for exps, indices, p in operands:
            if (basis, iv, exps) not in tensors:
                tensors[basis, iv, exps] = _tensor(exps, iv, 3, basis)
            ispecs.append(_ispec(exps, indices, iv, basis))
            ops.append(tensors[basis, iv, exps])
            orders.append(TruncationOrders(p))
        for value in (truncated_moment(ispecs[0], ops[0], orders[0]),
                      truncated_moment(ispecs, ops, orders)):
            digest.update(float.hex(value).encode())
    assert digest.hexdigest() == FROZEN_MOMENTS


# ---------------------------------------------- oracle vs sampler MC

def test_pathwise_agreement_small():
    # coupled construction: the sampler evaluated on a path-derived table
    # approaches the discretization oracle on the same path
    spec = WeightSpec.from_exponents((0, 0))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, IV, (96, 96))
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV)
    sq = 0.0
    n = 40
    for r in range(n):
        path = draw_path(2, 2**10, IV, seed=33, stream=r)
        table = table_from_path(path, 96, BasisKind.LEGENDRE)
        fast = sample_truncated(ispec, tensor, table, TruncationOrders.uniform(2, 96))
        slow = strat_reference(ispec, path)
        sq += (fast - slow) ** 2
    rms = math.sqrt(sq / n)
    # truncation floor ~ L/sqrt(4*193) plus discretization noise
    assert rms < 0.08


@st.composite
def _mixed_specs(draw):
    """Weights, component indices (0 is dt), basis and interval of one integral."""
    k = draw(st.integers(min_value=1, max_value=4))
    exps = tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    indices = tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    basis = draw(st.sampled_from(list(BasisKind)))
    t = draw(st.sampled_from([0.0, 1.5]))
    return exps, indices, basis, Interval(t, t + draw(st.sampled_from([0.5, 1.25])))


@given(case=_mixed_specs(), seed=st.integers(0, 2**32))
@settings(derandomize=True, deadline=None, max_examples=12)
def test_sampled_moments_match_exact_moments(case, seed):
    # two routes to E[X] and E[X^2]: Monte Carlo rows of the generic
    # contraction, and pair-partition sums over the tensor
    exps, indices, basis, iv = case
    k, p, n = len(exps), 3, 2000
    tensor = compute_tensor(basis, WeightSpec.from_exponents(exps), iv, (p,) * k)
    ispec = IntegralSpec(spec=tensor.spec, indices=indices, basis=basis, iv=iv)
    orders = TruncationOrders.uniform(k, p)
    m = max(1, *indices)
    x = np.array([
        sample_truncated(ispec, tensor, draw_table(m, p, basis, iv, seed, stream=r), orders)
        for r in range(n)
    ])
    first = truncated_moment(ispec, tensor, orders)
    second = truncated_moment([ispec] * 2, [tensor] * 2, [orders] * 2)
    for values, want in ((x, first), (x * x, second)):
        se = float(np.std(values, ddof=1)) / math.sqrt(n)
        # the slack covers rows that are all dt, where X is a constant
        assert abs(float(np.mean(values)) - want) <= 5.0 * se + 1e-12 * (1.0 + abs(want))


def test_test_oracles_stay_independent():
    # tests/oracles.py is the second route; it must never import the library
    source = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(source) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [name for name in imported if name.split(".")[0] in ("stratint", "")]
