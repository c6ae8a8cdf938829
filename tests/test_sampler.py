"""Gaussian tables, truncated sampling, closed forms, batching."""

import math

import numpy as np
import pytest

from stratint import (
    CLOSED_FORM_EXPONENTS,
    CLOSED_FORM_NAMES,
    ArgumentError,
    BasisKind,
    GaussianTable,
    Interval,
    IntegralSpec,
    TruncationOrders,
    WeightSpec,
    compute_tensor,
    draw_table,
    sample_batch,
    sample_closed_form,
    sample_truncated,
)
from stratint.rng import DOMAIN_TABLE, normal_stream

IV = Interval(0.0, 1.0)
IV2 = Interval(2.5, 3.75)


def test_draw_table_layout():
    table = draw_table(3, 8, BasisKind.LEGENDRE, IV, seed=5)
    assert table.values.shape == (4, 9)
    # row 0 carries the deterministic dt column
    assert table.values[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(table.values[0, 1:])) < 1e-13
    # rows are the documented component streams
    for i in (1, 2, 3):
        want = normal_stream(5, 0, i, 9, domain=DOMAIN_TABLE)
        assert np.array_equal(table.values[i], want)


def test_draw_table_validation():
    with pytest.raises(ArgumentError):
        draw_table(0, 4, BasisKind.LEGENDRE, IV, seed=1)
    with pytest.raises(ArgumentError):
        draw_table(1, -1, BasisKind.LEGENDRE, IV, seed=1)


def test_truncation_orders():
    orders = TruncationOrders.uniform(3, 7)
    assert orders.p == (7, 7, 7)
    with pytest.raises(ArgumentError):
        TruncationOrders(p=(1, -2))


def _generic_setup(exps, indices, basis=BasisKind.LEGENDRE, iv=IV, box=12, seed=3):
    spec = WeightSpec.from_exponents(exps)
    tensor = compute_tensor(basis, spec, iv, (box,) * len(exps))
    table = draw_table(max(indices), box, basis, iv, seed=seed)
    ispec = IntegralSpec(spec=spec, indices=indices, basis=basis, iv=iv)
    return ispec, tensor, table


def test_sample_truncated_box_semantics():
    # truncating to p must equal summing the tensor sub-box by hand
    ispec, tensor, table = _generic_setup((0, 0), (1, 2))
    for p in (0, 3, 12):
        got = sample_truncated(ispec, tensor, table, TruncationOrders.uniform(2, p))
        box = tensor.data[: p + 1, : p + 1]
        za = table.values[1, : p + 1]
        zb = table.values[2, : p + 1]
        want = float(np.einsum("ab,a,b->", box, za, zb))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_sample_truncated_dt_component():
    # index 0 contracts against the deterministic integral column
    ispec, tensor, table = _generic_setup((0, 0), (0, 1))
    got = sample_truncated(ispec, tensor, table, TruncationOrders.uniform(2, 12))
    want = float(
        np.einsum(
            "ab,a,b->", tensor.data, table.values[0], table.values[1]
        )
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_sample_truncated_axis_order_invariance():
    # summation is exactly rounded, so axis order cannot change the result
    ispec, tensor, table = _generic_setup((1, 0), (2, 1))
    orders = TruncationOrders.uniform(2, 12)
    got = sample_truncated(ispec, tensor, table, orders)
    terms = (
        tensor.data
        * table.values[2][:, None]
        * table.values[1][None, :]
    )
    for order in ("C", "F"):
        assert got == math.fsum(np.ravel(terms, order=order).tolist())


def test_sample_truncated_validation():
    ispec, tensor, table = _generic_setup((0, 0), (1, 2))
    with pytest.raises(ArgumentError):
        sample_truncated(ispec, tensor, table, TruncationOrders.uniform(1, 3))
    with pytest.raises(ArgumentError):
        sample_truncated(ispec, tensor, table, TruncationOrders.uniform(2, 13))
    other_basis = draw_table(2, 12, BasisKind.TRIGONOMETRIC, IV, seed=3)
    with pytest.raises(ArgumentError):
        sample_truncated(ispec, tensor, other_basis, TruncationOrders.uniform(2, 3))
    other_iv = draw_table(2, 12, BasisKind.LEGENDRE, IV2, seed=3)
    with pytest.raises(ArgumentError):
        sample_truncated(ispec, tensor, other_iv, TruncationOrders.uniform(2, 3))
    bad_index = IntegralSpec(
        spec=tensor.spec, indices=(1, 5), basis=BasisKind.LEGENDRE, iv=IV
    )
    with pytest.raises(ArgumentError):
        sample_truncated(bad_index, tensor, table, TruncationOrders.uniform(2, 3))
    wrong_spec = compute_tensor(
        BasisKind.LEGENDRE, WeightSpec.from_exponents((1, 0)), IV, (12, 12)
    )
    with pytest.raises(ArgumentError):
        sample_truncated(ispec, wrong_spec, table, TruncationOrders.uniform(2, 3))


@pytest.mark.parametrize("iv", [IV, IV2])
@pytest.mark.parametrize("name", sorted(CLOSED_FORM_NAMES))
def test_closed_forms_match_generic(name, iv):
    basis, k = CLOSED_FORM_NAMES[name]
    exps = CLOSED_FORM_EXPONENTS[name]
    p = 20
    box = 2 * p if basis is BasisKind.TRIGONOMETRIC else p
    spec = WeightSpec.from_exponents(exps)
    tensor = compute_tensor(basis, spec, iv, (box,) * k)
    tol = 1e-9 if basis is BasisKind.TRIGONOMETRIC else 5e-9
    for seed in (0, 1, 2):
        table = draw_table(2, box, basis, iv, seed=seed)
        index_choices = [(1,)] if k == 1 else [(1, 2), (2, 1), (1, 1)]
        for indices in index_choices:
            ispec = IntegralSpec(spec=spec, indices=indices, basis=basis, iv=iv)
            fast = sample_closed_form(name, table, iv, p, indices)
            slow = sample_truncated(
                ispec, tensor, table, TruncationOrders.uniform(k, box)
            )
            assert fast == pytest.approx(slow, abs=tol)


def test_diagonal_identity_exact():
    # same-index I00: every band term is a - a = 0.0, so the value collapses
    # to half L times the squared level-0 term and does not move with p
    table = draw_table(1, 40, BasisKind.LEGENDRE, IV2, seed=9)
    L = IV2.length()
    a0 = table.values[1, 0]
    base = sample_closed_form("I00", table, IV2, 0, (1, 1))
    assert base == pytest.approx(0.5 * L * a0 * a0, rel=1e-15)
    for p in (1, 7, 40):
        assert sample_closed_form("I00", table, IV2, p, (1, 1)) == base


def test_closed_form_validation():
    table = draw_table(2, 10, BasisKind.LEGENDRE, IV, seed=1)
    with pytest.raises(ArgumentError):
        sample_closed_form("I99", table, IV, 5)
    with pytest.raises(ArgumentError):
        sample_closed_form("I00", table, IV, -1)
    with pytest.raises(ArgumentError):
        sample_closed_form("I00", table, IV, 11)  # table too small
    with pytest.raises(ArgumentError):
        sample_closed_form("I00t", table, IV, 5)  # basis mismatch
    with pytest.raises(ArgumentError):
        sample_closed_form("I00", table, IV2, 5)  # interval mismatch
    with pytest.raises(ArgumentError):
        sample_closed_form("I00", table, IV, 5, (1, 3))  # component beyond m


def test_trig_closed_form_needs_double_depth():
    table = draw_table(2, 2 * 6, BasisKind.TRIGONOMETRIC, IV, seed=1)
    sample_closed_form("I00t", table, IV, 6)
    with pytest.raises(ArgumentError):
        sample_closed_form("I00t", table, IV, 7)


def test_sample_batch_rows_are_streams():
    spec = WeightSpec.from_exponents((0, 0))
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV)
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, IV, (8, 8))
    orders = [TruncationOrders.uniform(2, 8)]
    rows = sample_batch([ispec], [tensor], 2, orders, seed=5, n=7)
    assert rows.shape == (7, 1)
    for r in (0, 3, 6):
        table = draw_table(2, 8, BasisKind.LEGENDRE, IV, seed=5, stream=r)
        want = sample_truncated(ispec, tensor, table, orders[0])
        assert rows[r, 0] == want


def test_sample_batch_thread_invariance():
    spec = WeightSpec.from_exponents((0, 0))
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV)
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, IV, (8, 8))
    orders = [TruncationOrders.uniform(2, 8)]
    one = sample_batch([ispec], [tensor], 2, orders, seed=5, n=600, threads=1)
    four = sample_batch([ispec], [tensor], 2, orders, seed=5, n=600, threads=4)
    assert np.array_equal(one, four)


def test_sample_batch_multiple_integrals():
    s1 = WeightSpec.from_exponents((0,))
    s2 = WeightSpec.from_exponents((0, 0))
    i1 = IntegralSpec(spec=s1, indices=(1,), basis=BasisKind.LEGENDRE, iv=IV)
    i2 = IntegralSpec(spec=s2, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV)
    t1 = compute_tensor(BasisKind.LEGENDRE, s1, IV, (6,))
    t2 = compute_tensor(BasisKind.LEGENDRE, s2, IV, (6, 6))
    orders = [TruncationOrders.uniform(1, 6), TruncationOrders.uniform(2, 6)]
    rows = sample_batch([i1, i2], [t1, t2], 2, orders, seed=2, n=5)
    assert rows.shape == (5, 2)
    # first column is just sqrt(L) * zeta_0 of the row table
    for r in range(5):
        table = draw_table(2, 6, BasisKind.LEGENDRE, IV, seed=2, stream=r)
        assert rows[r, 0] == pytest.approx(table.values[1, 0], abs=1e-14)


def test_table_provenance_frozen():
    table = draw_table(1, 4, BasisKind.LEGENDRE, IV, seed=0)
    assert isinstance(table, GaussianTable)
    with pytest.raises(ValueError):
        table.values[0, 0] = 2.0


def test_draw_table_batch_rows_are_stream_tables():
    for basis, iv in ((BasisKind.LEGENDRE, IV2), (BasisKind.TRIGONOMETRIC, IV)):
        batch = draw_table(3, 9, basis, iv, seed=2**63 + 4, stream=range(5, 12))
        assert batch.values.shape == (7, 4, 10)
        assert batch.stream == range(5, 12)
        for r, stream in enumerate(range(5, 12)):
            one = draw_table(3, 9, basis, iv, seed=2**63 + 4, stream=stream)
            assert batch.values[r].tobytes() == one.values.tobytes()
    assert draw_table(2, 4, BasisKind.LEGENDRE, IV, seed=1, stream=range(0)).values.shape == (
        0, 3, 5)


def test_sample_truncated_refuses_a_batch():
    spec = WeightSpec.from_exponents((0, 0))
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV)
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, IV, (4, 4))
    batch = draw_table(2, 4, BasisKind.LEGENDRE, IV, seed=1, stream=range(3))
    with pytest.raises(ArgumentError):
        sample_truncated(ispec, tensor, batch, TruncationOrders.uniform(2, 4))


def test_closed_form_registry_views():
    for name, exps in CLOSED_FORM_EXPONENTS.items():
        basis, k = CLOSED_FORM_NAMES[name]
        assert len(exps) == k
        assert tuple(int(c) for c in name[1:].rstrip("t")) == exps
        assert (basis is BasisKind.TRIGONOMETRIC) == name.endswith("t")
    assert CLOSED_FORM_NAMES.keys() == CLOSED_FORM_EXPONENTS.keys()


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_NAMES))
def test_closed_form_batch_rows_equal_single_tables(name):
    # p = 7, 8, 10 and 128 put 8 or more terms in a band sum, where a 2-D
    # np.sum would group the additions differently from the 1-D one
    basis, k = CLOSED_FORM_NAMES[name]
    max_j = 2 * 128 if basis is BasisKind.TRIGONOMETRIC else 128
    singles = [draw_table(2, max_j, basis, IV2, seed=6, stream=r) for r in range(50)]
    index_choices = [(1,), (2,)] if k == 1 else [(1, 2), (2, 1), (1, 1)]
    for n in (1, 2, 9, 50):
        batch = draw_table(2, max_j, basis, IV2, seed=6, stream=range(n))
        for p in (0, 1, 7, 8, 10, 128):
            for indices in index_choices:
                got = sample_closed_form(name, batch, IV2, p, indices)
                assert got.shape == (n,)
                want = [sample_closed_form(name, t, IV2, p, indices) for t in singles[:n]]
                assert got.tobytes() == np.array(want).tobytes()
