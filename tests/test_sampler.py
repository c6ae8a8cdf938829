"""Gaussian tables, truncated sampling, closed forms, batching."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratint import (
    CLOSED_FORM_EXPONENTS,
    CLOSED_FORM_NAMES,
    ArgumentError,
    BasisKind,
    DomainError,
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
from stratint import sampler
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
    for seed in (0, 1, 2):
        table = draw_table(2, box, basis, iv, seed=seed)
        index_choices = [(1,)] if k == 1 else [(1, 2), (2, 1), (1, 1)]
        for indices in index_choices:
            ispec = IntegralSpec(spec=spec, indices=indices, basis=basis, iv=iv)
            fast = sample_closed_form(name, table, iv, p, indices)
            slow = sample_truncated(
                ispec, tensor, table, TruncationOrders.uniform(k, box)
            )
            assert fast == pytest.approx(slow, abs=1e-13)


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


def test_sample_batch_draws_once_per_block(monkeypatch):
    streams = []

    def counting(*args, **kwargs):
        streams.append(kwargs["stream"])
        return draw_table(*args, **kwargs)

    monkeypatch.setattr(sampler, "draw_table", counting)
    spec = WeightSpec.from_exponents((0, 0))
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV)
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, IV, (4, 4))
    sample_batch([ispec], [tensor], 2, TruncationOrders.uniform(2, 4), seed=5, n=600)
    assert len(streams) == math.ceil(600 / sampler._BATCH_CHUNK) == 3
    assert streams == [range(0, 256), range(256, 512), range(512, 600)]


# weight exponents, component indices (0 is dt), tensor orders, truncation orders
_FROZEN_SPECS = (
    ((0,), (1,), (12,), (10,)),
    ((0, 1), (0, 2), (8, 8), (8, 5)),
    ((1, 0, 2), (1, 0, 2), (5, 5, 5), (4, 5, 3)),
    ((0, 2, 0, 1), (2, 1, 0, 1), (3, 3, 3, 3), (3, 2, 1, 3)),
)
# SHA-256 of the rows of n = 1, 7, 300 at threads=1, then n = 600 at threads=2,
# recorded when every row drew its own table; the trigonometric two were
# re-recorded when compute_tensor came to zero the entries that vanish by
# frequency and degree, which moved the last bits, and again when trigonometric
# tensors came to be built in closed form, whose entries moved toward exact:
# rows moved by at most 1.6e-15 of their column's largest value. The Legendre
# two were re-recorded when Legendre tensors came to be built at half the nodes
# from an interval-free P_j table: rows moved by at most 3.4e-15 of their
# column's largest value
FROZEN_BATCH = {
    ("legendre", 0.5, 1.75):
        "8646599b836491af463e87f708e231747115a024331fbfb1a1d192142e01f740",
    ("legendre", 2.5, 3.0):
        "ccd616bc3bec3e91d5cd49eb4091b6af01240b73705d2cdad934426f959471f4",
    ("trigonometric", 0.5, 1.75):
        "412d9e92c8a490dc7197b23527c44a8adcca71c23aeb53666197cf75b004e404",
    ("trigonometric", 2.5, 3.0):
        "caea83137caa1fe3e4b5b8fec0ba3b8a2929d29b25951403eceadeeb3c2170a5",
}


@pytest.mark.parametrize("basis, t, end", sorted(FROZEN_BATCH))
def test_sample_batch_frozen_bytes(basis, t, end):
    basis, iv = BasisKind(basis), Interval(t, end)
    ispecs, tensors, orders = [], [], []
    for exps, indices, tensor_orders, p in _FROZEN_SPECS:
        spec = WeightSpec.from_exponents(exps)
        ispecs.append(IntegralSpec(spec=spec, indices=indices, basis=basis, iv=iv))
        tensors.append(compute_tensor(basis, spec, iv, tensor_orders))
        orders.append(TruncationOrders(p))
    digest = hashlib.sha256()
    for n, threads in ((1, 1), (7, 1), (300, 1), (600, 2)):
        rows = sample_batch(ispecs, tensors, 2, orders, seed=17, n=n, threads=threads)
        digest.update(rows.tobytes())
    assert digest.hexdigest() == FROZEN_BATCH[basis.value, t, end]


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


# weight exponents, component indices (0 is dt), truncation orders
_BATCH_SPECS = (
    ((0,), (0,), (9,)),
    ((2,), (2,), (16,)),
    ((0, 1), (0, 2), (7, 12)),
    ((1, 0, 2), (1, 0, 2), (5, 3, 4)),
    ((0, 2, 0, 1), (2, 1, 0, 1), (3, 2, 1, 3)),
    ((0, 0), (1, 2), (20, 20)),
    # 9**4 terms: sub-blocks of 2 or 3 rows, each summed row by row
    ((0, 0, 0, 0), (1, 2, 1, 2), (8, 8, 8, 8)),
    # 13**4 terms, a support larger than one contraction block: one row per block
    ((0, 0, 0, 0), (1, 2, 1, 2), (12, 12, 12, 12)),
)


def _one_nonzero(tensor):
    data = np.zeros_like(tensor.data)
    data[(1,) * data.ndim] = tensor.data[(0,) * data.ndim]
    return dataclasses.replace(tensor, data=data)


def test_sample_truncated_batch_rows_equal_single_tables():
    # n = 0, 1, the certified sum's row threshold and its neighbours, the
    # contraction block's row count (by support length) and its neighbours,
    # and 257; boxes with an empty support (zeros of either sign) and with
    # one nonzero entry
    rows = sampler._CERTIFY_ROWS
    cases = [(exps, indices, p, None) for exps, indices, p in _BATCH_SPECS]
    cases += [((0, 0), (1, 2), (10, 10), lambda t: dataclasses.replace(t, data=0.0 * t.data)),
              ((0, 1), (2, 1), (10, 10), _one_nonzero)]
    for basis in BasisKind:
        # every table is cut from one draw: each row of a batch is its
        # stream's own table (test_draw_table_batch_rows_are_stream_tables)
        whole = draw_table(2, 20, basis, IV2, seed=4, stream=range(sampler._CONTRACT_TERMS + 1))
        singles = [dataclasses.replace(whole, values=v, stream=r)
                   for r, v in enumerate(whole.values)]
        for exps, indices, p, edit in cases:
            spec = WeightSpec.from_exponents(exps)
            tensor = compute_tensor(basis, spec, IV2, p)
            if edit is not None:
                tensor = edit(tensor)
            step = max(1, sampler._CONTRACT_TERMS // max(1, len(tensor.support(p).coeffs)))
            counts = sorted({0, 1, rows - 1, rows, rows + 1, step - 1, step, step + 1, 257})
            ispec = IntegralSpec(spec=spec, indices=indices, basis=basis, iv=IV2)
            orders = TruncationOrders(p)
            want = [sample_truncated(ispec, tensor, t, orders) for t in singles[:counts[-1]]]
            assert all(type(v) is float for v in want)
            for n in counts:
                batch = dataclasses.replace(whole, values=whole.values[:n], stream=range(n))
                got = sample_truncated(ispec, tensor, batch, orders)
                assert got.shape == (n,)
                assert got.tobytes() == np.array(want[:n]).tobytes(), (basis, exps, n)


# The benchmark's sample set: (weight exponents, component indices, order)
_BENCH_SPECS = {
    BasisKind.LEGENDRE: (((0,), (1,), 10), ((1,), (1,), 10), ((0, 0), (1, 2), 10),
                         ((0, 1), (1, 2), 10), ((1, 0), (2, 1), 10), ((0, 0, 0), (1, 2, 1), 6)),
    BasisKind.TRIGONOMETRIC: (((0,), (1,), 20), ((1,), (1,), 20), ((0, 0), (1, 2), 20),
                              ((0, 0, 0), (1, 2, 1), 6)),
}
# SHA-256 of 2048 rows of that set on [0, 0.01], recorded when each row was
# summed by its own math.fsum. The trigonometric digest was re-recorded when
# compute_tensor came to zero the entries that vanish by frequency and degree:
# rows moved by at most 1.7e-15 of their column's largest value, and a row now
# sums 194 terms instead of 815. It was re-recorded again when trigonometric
# tensors came to be built in closed form: entries moved toward exact (I00's
# largest error against its printed expansion went 2.4e-18 -> 2.2e-19), rows
# by at most 1.7e-15 of their column's largest value, on the same 194 terms.
# The Legendre digest was re-recorded when Legendre tensors came to be built at
# half the nodes from an interval-free P_j table: rows moved by at most 1.8e-15
# of their column's largest value
FROZEN_BENCH_ROWS = {
    BasisKind.LEGENDRE: "21ea028702724eb8241ac59768386fac4153eaf768442b4a8c70a01139ced102",
    BasisKind.TRIGONOMETRIC: "0584218e30958dd870ec04f8c0b73e75681f8bc4e6c59b27ffcf2a542767053a",
}


def _bench_rows_digest(basis):
    iv = Interval(0.0, 0.01)
    ispecs, tensors, orders = [], [], []
    for exps, indices, p in _BENCH_SPECS[basis]:
        spec = WeightSpec.from_exponents(exps)
        ispecs.append(IntegralSpec(spec=spec, indices=indices, basis=basis, iv=iv))
        tensors.append(compute_tensor(basis, spec, iv, (p,) * len(exps)))
        orders.append(TruncationOrders.uniform(len(exps), p))
    rows = sample_batch(ispecs, tensors, 2, orders, seed=23, n=2048)
    return hashlib.sha256(rows.tobytes()).hexdigest()


@pytest.mark.parametrize("basis", list(BasisKind))
def test_sample_batch_frozen_bench_rows(basis):
    assert _bench_rows_digest(basis) == FROZEN_BENCH_ROWS[basis]


@pytest.mark.parametrize("basis", list(BasisKind))
def test_sample_batch_bytes_without_certificate(monkeypatch, basis):
    # every row falls back to math.fsum: the bytes are the certified ones
    calls = []

    def reject(r, t, bound):
        calls.append(len(r))
        return np.zeros(r.shape, dtype=bool)

    monkeypatch.setattr(sampler, "_certify", reject)
    assert _bench_rows_digest(basis) == FROZEN_BENCH_ROWS[basis]
    # a support of one or two terms is summed without the certificate
    certified = [
        p for exps, _, p in _BENCH_SPECS[basis]
        if len(compute_tensor(basis, WeightSpec.from_exponents(exps), Interval(0.0, 0.01),
                              (p,) * len(exps)).support((p,) * len(exps)).coeffs) > 2
    ]
    assert sum(calls) == 2048 * len(certified)


def _full_box_fsum(tensor, indices, p, table):
    """The sum before the support was cached: math.fsum over every term of the
    box, zeros included, each term C * ((zeta_a * zeta_b) * zeta_c)."""
    box = tensor.data[tuple(slice(0, q + 1) for q in p)]
    factor = table[indices[0], : p[0] + 1]
    for i, q in zip(indices[1:], p[1:]):
        factor = factor[..., None] * table[i, : q + 1]
    return math.fsum((box * factor).ravel().tolist())


# largest tensor order per multiplicity, so an example builds in milliseconds
_SMALL_ORDERS = {1: 12, 2: 9, 3: 5, 4: 3}


@functools.lru_cache(maxsize=None)
def _small_tensor(basis, exps, orders):
    return compute_tensor(basis, WeightSpec.from_exponents(exps), IV2, orders)


@st.composite
def _small_blocks(draw):
    basis = draw(st.sampled_from(list(BasisKind)))
    k = draw(st.integers(1, 4))
    exps = tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    orders = tuple(draw(st.lists(st.integers(0, _SMALL_ORDERS[k]), min_size=k, max_size=k)))
    p = tuple(draw(st.integers(0, o)) for o in orders)
    indices = tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    max_j = max(p) + draw(st.integers(0, 4))
    edit = draw(st.sampled_from(["none", "zero", "one"]))
    where = tuple(draw(st.integers(0, q)) for q in p)
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32))
    return basis, exps, orders, p, indices, max_j, edit, where, rows, seed


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_small_blocks())
def test_small_blocks_equal_full_box_fsum(case):
    # blocks of fewer than _CERTIFY_ROWS rows, summed row by row, and larger
    # ones, summed by the certified sum, gather only the support's terms;
    # each row keeps the bytes of math.fsum over the whole box
    basis, exps, orders, p, indices, max_j, edit, where, rows, seed = case
    tensor = _small_tensor(basis, exps, orders)
    if edit == "zero":  # zeros of either sign: the sum is +0.0
        tensor = dataclasses.replace(tensor, data=-0.0 * tensor.data)
    elif edit == "one":
        data = np.zeros_like(tensor.data)
        data[where] = tensor.data[(0,) * len(exps)] or 1.0
        tensor = dataclasses.replace(tensor, data=data)
    ispec = IntegralSpec(spec=tensor.spec, indices=indices, basis=basis, iv=IV2)
    batch = draw_table(2, max_j, basis, IV2, seed, stream=range(rows))
    got = sample_truncated(ispec, tensor, batch, TruncationOrders(p))
    want = np.array([_full_box_fsum(tensor, indices, p, t) for t in batch.values])
    assert got.tobytes() == want.tobytes()
    if edit == "zero":
        assert got.tobytes() == np.zeros(rows).tobytes()
    single = draw_table(2, max_j, basis, IV2, seed)
    assert sample_truncated(ispec, tensor, single, TruncationOrders(p)) == _full_box_fsum(
        tensor, indices, p, single.values)


def test_large_support_block_uses_the_certified_sum(monkeypatch):
    # Legendre (0, 0) at p = 200: a box of 40 401 terms, but a support of 401,
    # so 256 rows go to the certified sum in blocks of 40, not one at a time
    spec = WeightSpec.from_exponents((0, 0))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, IV, (200, 200))
    assert len(tensor.support((200, 200)).coeffs) == 401
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV)
    batch = draw_table(2, 200, BasisKind.LEGENDRE, IV, seed=6, stream=range(256))
    widths = []
    wrapped = sampler._column_sums

    def column_sums(terms):
        widths.append(terms.shape[1])
        return wrapped(terms)

    monkeypatch.setattr(sampler, "_column_sums", column_sums)
    got = sample_truncated(ispec, tensor, batch, TruncationOrders((200, 200)))
    assert widths == [40] * 6 + [16]
    want = np.array([_full_box_fsum(tensor, (1, 2), (200, 200), t) for t in batch.values])
    assert got.tobytes() == want.tobytes()


def _count_plans(monkeypatch):
    """A list that gets one entry per plan the sampler builds from here on."""
    built = []

    def plan(*args):
        built.append(args)
        return make(*args)

    make = sampler._Plan
    monkeypatch.setattr(sampler, "_Plan", plan)
    return built


def test_support_cache_shared_across_boxes_and_tables(monkeypatch):
    # one tensor used in turn with two boxes and two table widths gives each
    # row the bytes of math.fsum over its whole box, on the small and the
    # certified path, from one plan per box and width
    spec = WeightSpec.from_exponents((1, 0, 2))
    shared = compute_tensor(BasisKind.LEGENDRE, spec, IV2, (8, 8, 8))
    ispec = IntegralSpec(spec=spec, indices=(1, 0, 2), basis=BasisKind.LEGENDRE, iv=IV2)
    built = _count_plans(monkeypatch)
    for n in (1, 5, 300):
        for p in ((8, 8, 8), (5, 3, 8)):
            for max_j in (10, 20):
                table = draw_table(2, max_j, BasisKind.LEGENDRE, IV2, seed=n, stream=range(n))
                got = sample_truncated(ispec, shared, table, TruncationOrders(p))
                want = [_full_box_fsum(shared, (1, 0, 2), p, t) for t in table.values]
                assert got.tobytes() == np.array(want).tobytes(), (n, p, max_j)
    assert len(built) == 2 * 2
    assert sum(key[0] == (shared,) for key in sampler._PLANS) == 2 * 2


def test_plan_gathers_from_flat_table_rows():
    # term t's factor on axis l sits at component * width + j in a table row
    # of width max_j + 1 per component; a spec of smaller k reads the slot one
    # past the end of the row, which holds 1.0
    iv = Interval(0.5, 1.75)
    specs = (WeightSpec.from_exponents((0, 1, 0)), WeightSpec.from_exponents((1,)))
    tensors = [compute_tensor(BasisKind.LEGENDRE, specs[0], iv, (6, 5, 6)),
               compute_tensor(BasisKind.LEGENDRE, specs[1], iv, (6,))]
    ispecs = [IntegralSpec(spec=s, indices=i, basis=BasisKind.LEGENDRE, iv=iv)
              for s, i in zip(specs, ((1, 0, 2), (2,)))]
    orders = [TruncationOrders((3, 0, 5)), TruncationOrders((6,))]
    plan = sampler._plan(ispecs, tensors, orders, 2, 8, BasisKind.LEGENDRE, iv)
    deep, flat = tensors[0].support((3, 0, 5)).axes, tensors[1].support((6,)).axes
    size = len(deep[0])
    assert [g.dtype for g in plan.gather] == [np.intp] * 3
    assert np.array_equal(plan.gather[0], np.concatenate((9 * 1 + deep[0], 9 * 2 + flat[0])))
    for l, i in ((1, 0), (2, 2)):
        pad = np.full(len(flat[0]), 3 * 9)
        assert np.array_equal(plan.gather[l], np.concatenate((9 * i + deep[l], pad)))
    assert plan.bounds == ((0, size), (size, len(plan.coeffs))) and plan.padded
    assert not any(a.flags.writeable for a in (*plan.gather, plan.coeffs))
    # tables whose rows hold j <= 5 only
    _raises("table holds indices up to 5, need 6", sampler._plan, ispecs, tensors, orders,
            2, 5, BasisKind.LEGENDRE, iv)


def test_sample_traffic_fits_the_plan_cache(monkeypatch):
    # the `sample` benchmark workload's two spec sets at its block sizes ask
    # for 12 plans: a second round of the same calls builds none
    sets = []
    for basis, specs in _BENCH_SPECS.items():
        iv = Interval(0.0, 0.01)
        ispecs, tensors, orders = [], [], []
        for exps, indices, p in specs:
            spec = WeightSpec.from_exponents(exps)
            ispecs.append(IntegralSpec(spec=spec, indices=indices, basis=basis, iv=iv))
            tensors.append(compute_tensor(basis, spec, iv, (p,) * len(exps)))
            orders.append(TruncationOrders.uniform(len(exps), p))
        sets.append((ispecs, tensors, orders))
    built = _count_plans(monkeypatch)
    for round_ in range(2):
        for n in (2, 128, 1, 64, 512):
            for ispecs, tensors, orders in sets:
                sample_batch(ispecs, tensors, 2, orders, seed=n, n=n)
        assert len(built) == 12, round_
    assert 12 <= sampler._PLAN_CACHE_SIZE
    assert sum(p.nbytes for p in sampler._PLANS.values()) <= sampler._PLAN_CACHE_BYTES


def test_plan_cache_bound_by_bytes(monkeypatch):
    # plans leave oldest first once their arrays and key tensors hold more
    # than _PLAN_CACHE_BYTES, and a tensor lives only while a key holds it;
    # the newest plan stays whatever its size
    spec = WeightSpec.from_exponents((1, 0))
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV2)
    table = draw_table(2, 6, BasisKind.LEGENDRE, IV2, seed=3)
    orders = TruncationOrders((6, 6))

    def cache_one():
        tensor = compute_tensor(BasisKind.LEGENDRE, spec, IV2, (6, 6))
        sample_truncated(ispec, tensor, table, orders)
        (plan,) = [p for key, p in sampler._PLANS.items() if key[0] == (tensor,)]
        arrays = (*plan.gather, plan.coeffs, plan.dt, tensor.data)
        assert plan.nbytes == sum(a.nbytes for a in arrays)
        return weakref.ref(tensor), plan.nbytes

    def fill(bound):
        monkeypatch.setattr(sampler, "_PLANS", {})
        monkeypatch.setattr(sampler, "_PLAN_CACHE_BYTES", bound)
        (old, size), (new, _) = cache_one(), cache_one()
        gc.collect()
        return old() is not None, new() is not None, size

    size = fill(2**40)[2]
    assert fill(2 * size) == (True, True, size)  # up to the bound: both stay
    assert fill(2 * size - 1) == (False, True, size)  # a byte over: the oldest goes
    assert fill(1) == (False, True, size)  # over the bound alone: the newest stays
    assert len(sampler._PLANS) == 1


def _raises(message, fn, *args, **kwargs):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        fn(*args, **kwargs)


def test_sampling_error_messages():
    ispec, tensor, table = _generic_setup((0, 0), (1, 2))
    o3 = TruncationOrders.uniform(2, 3)
    trig = draw_table(2, 12, BasisKind.TRIGONOMETRIC, IV, seed=3)
    _raises("basis mismatch between spec, tensor and table", sample_truncated,
            ispec, tensor, trig, o3)
    other = compute_tensor(BasisKind.LEGENDRE, WeightSpec.from_exponents((1, 0)), IV, (12, 12))
    _raises("weight mismatch between spec and tensor", sample_truncated, ispec, other, table, o3)
    shifted = draw_table(2, 12, BasisKind.LEGENDRE, IV2, seed=3)
    _raises("interval mismatch between spec, tensor and table", sample_truncated,
            ispec, tensor, shifted, o3)
    moved = compute_tensor(BasisKind.LEGENDRE, tensor.spec, IV2, (12, 12))
    _raises("interval mismatch between spec, tensor and table", sample_truncated,
            ispec, moved, table, o3)
    _raises("need 2 truncation orders, got 1", sample_truncated,
            ispec, tensor, table, TruncationOrders.uniform(1, 3))
    _raises("orders (3, 13) exceed tensor orders (12, 12)", sample_truncated,
            ispec, tensor, table, TruncationOrders((3, 13)))
    small = draw_table(2, 4, BasisKind.LEGENDRE, IV, seed=3)
    _raises("table holds indices up to 4, need 5", sample_truncated,
            ispec, tensor, small, TruncationOrders((5, 2)))
    wide = IntegralSpec(spec=tensor.spec, indices=(1, 5), basis=BasisKind.LEGENDRE, iv=IV)
    _raises("table has 2 components, need 5", sample_truncated, wide, tensor, table, o3)

    _raises("need at least one integral spec", sample_batch, [], [], 2, o3, 1, 1)
    _raises("need 1 tensors, got 2", sample_batch, [ispec], [tensor] * 2, 2, o3, 1, 1)
    _raises("need n >= 0, got -1", sample_batch, [ispec], [tensor], 2, o3, 1, -1)
    _raises("need threads >= 1, got 0", sample_batch, [ispec], [tensor], 2, o3, 1, 1, 0)
    for bad in (1.0, True, "3", None):
        _raises(f"n must be an integer, got {bad!r}", sample_batch, [ispec], [tensor], 2, o3, 1, bad)
        _raises(f"m must be an integer, got {bad!r}", sample_batch, [ispec], [tensor], bad, o3, 1, 1)
    for bad in ("2", None, 2.5, True):
        _raises(f"threads must be an integer, got {bad!r}", sample_batch,
                [ispec], [tensor], 2, o3, 1, 1, bad)
    elsewhere = IntegralSpec(spec=tensor.spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=IV2)
    _raises("all specs in a batch must share basis and interval", sample_batch,
            [ispec, elsewhere], [tensor, moved], 2, o3, 1, 1)
    _raises("m=1 components cannot cover indices [(1, 2)]", sample_batch,
            [ispec], [tensor], 1, o3, 1, 1)
    _raises("need 1 truncation orders, got 2", sample_batch, [ispec], [tensor], 2, [o3] * 2, 1, 1)


def test_equal_but_distinct_spec_and_interval_are_accepted():
    ispec, tensor, table = _generic_setup((0, 1), (2, 1))
    twin = IntegralSpec(spec=WeightSpec.from_exponents((0, 1)), indices=(2, 1),
                        basis=BasisKind.LEGENDRE, iv=Interval(IV.t, IV.T))
    assert twin.spec is not tensor.spec and twin.iv is not tensor.iv
    assert twin.iv is not table.iv
    orders = TruncationOrders((12, 7))
    assert (sample_truncated(twin, tensor, table, orders)
            == sample_truncated(ispec, tensor, table, orders))
    # the batch's specs share an interval equal to, not the same as, the first one's
    rows = sample_batch([ispec, twin], [tensor, tensor], 2, orders, seed=7, n=3)
    want = sample_batch([ispec, ispec], [tensor, tensor], 2, orders, seed=7, n=3)
    assert rows.tobytes() == want.tobytes()


def _fsum_outcome(terms):
    """math.fsum of each column, or the exception of the first column that raises."""
    sums = []
    for column in terms.T:
        try:
            sums.append(math.fsum(column.tolist()))
        except (OverflowError, ValueError) as exc:
            return type(exc), str(exc)
    return np.array(sums, dtype=float).tobytes()


def _column_sums_outcome(terms):
    try:
        return sampler._column_sums(terms).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_TINY = 2.0**-1074
_MAX = sys.float_info.max
_SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 2.0**-53, -2.0**-53, 2.0**-54, _TINY, -_TINY,
                     2.0**-1022, 1e-300, -1e-300, 1e300, -1e300])


def _floats(rng, size):
    """Finite floats: any bit pattern, O(1), subnormal, 53-bit integers times
    scales from 2**-1060 to 1e300, and special values."""
    bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(float)
    bits[~np.isfinite(bits)] = 1.0
    scale = rng.choice([1.0, 2.0**-30, 2.0**-1000, 2.0**-1060, 1e-300, 1e300, 2.0**40], size)
    choices = [
        bits,
        rng.uniform(-4.0, 4.0, size),
        rng.integers(-2**40, 2**40, size) * _TINY,
        rng.integers(-2**53, 2**53, size) * 2.0**-53 * scale,
        rng.choice(_SPECIAL, size),
    ]
    return np.choose(rng.integers(0, len(choices), size), choices)


def _column(rng, kind):
    """One column of terms, drawn to hit the certificate's edges."""
    xs = _floats(rng, rng.integers(0, 13))
    if kind == "cancel":
        # pairs that cancel exactly around a small remainder
        xs = np.concatenate((xs, -xs, _floats(rng, rng.integers(0, 4))))
    elif kind == "tie":
        # among pairs that cancel: a plus half an ulp of a, or near it; or
        # (1 + j 2**-52) + (1 - m 2**-53), exponents one apart, whose sum
        # 2 + (2j - m) 2**-53 is a tie when it is at least 2
        scale = rng.choice([-1.0, 1.0]) * 2.0**rng.integers(-1000, 1000)
        a = rng.uniform(1.0, 2.0) * scale
        half = math.ulp(a) / 2
        j = int(rng.integers(1, 2**30))
        m = (2 * j - 2) % 4 + 4 * int(rng.integers(1, 2**20))
        pair = rng.choice([[a, rng.choice([half, -half, half / 2, 3 * half])],
                           [(1 + j * 2.0**-52) * scale, (1 - m * 2.0**-53) * scale]])
        xs = np.concatenate((pair, xs, -xs))
    elif kind == "power":
        # a power of two with small corrections of either sign: t of either sign
        e = rng.integers(-1000, 1000)
        q = 2.0**(e - 55)
        xs = np.concatenate(([2.0**e], rng.integers(-3, 4, rng.integers(1, 5)) * q,
                             rng.choice([_TINY, -_TINY, q * 2**-60, -q * 2**-60],
                                        rng.integers(0, 4))))
    elif kind == "zero":
        xs = np.concatenate((xs * 0.0, xs, -xs))
    elif kind == "big":
        # mixes from 1e300 down, and sums that overflow part way
        xs = np.concatenate((xs, rng.choice([1e300, -1e300, _MAX, -_MAX, 1e-300],
                                            rng.integers(0, 5))))
    return rng.permutation(xs)


_KINDS = ("free", "cancel", "tie", "power", "zero", "big")


@st.composite
def _terms(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=16))
    columns = [_column(rng, kind) for kind in kinds]
    terms = np.zeros((max(map(len, columns)), len(columns)))
    for c, column in enumerate(columns):  # zeros below change no exact sum
        terms[:len(column), c] = column
    return terms


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_terms())
def test_column_sums_equal_fsum(terms):
    assert _column_sums_outcome(terms) == _fsum_outcome(terms)


def test_column_sums_edges():
    cases = [
        [[1.0, 2.0**-53]],  # a tie rounds to even
        [[1.0 + 2.0**-52, 2.0**-53]],  # a tie rounds up to even
        [[1 + 2.0**-51, 1 - 2.0**-52]], [[1 + 2.0**-50, 1 - 2.0**-52]],  # exponents one apart
        [[1.0, -2.0**-54, -2.0**-80]],  # below a power of two
        [[1.0, -2.0**-54, 2.0**-80]],  # a tie-breaking remainder
        [[-0.0]], [[-0.0, -0.0]], [[0.0, -0.0]], [[3.5, -3.5]], [[]],
        [[_TINY, -_TINY, _TINY]], [[2.0**-1022, -_TINY]],
        [[1e300, 1e-300, -1e300]],
        [[_MAX, -_MAX, 1.0]], [[_MAX, _MAX, -_MAX]], [[_MAX, _MAX, -_MAX, -_MAX, 1.0]],
        [[math.inf, 1.0]], [[math.inf, -math.inf]], [[math.nan, 1.0]],
    ]
    for columns in cases:
        n = max(map(len, columns))
        terms = np.array(columns, dtype=float).reshape(len(columns), n).T
        assert _column_sums_outcome(terms) == _fsum_outcome(terms), columns


_TINY_SUM_VALUES = (0.0, -0.0, _TINY, -_TINY, 2.0**-1022, -2.0**-1022, 1.0, -1.0, 2.0**-53,
                    1e308, -1e308, _MAX, -_MAX, 2.0**1019, -(2.0**1019), 2.0**1018)


@pytest.mark.parametrize("n", [1, 2])
def test_column_sums_of_one_or_two_terms_equal_fsum(n):
    # every column alone, since an overflow in any column raises for the block
    for column in itertools.product(_TINY_SUM_VALUES, repeat=n):
        terms = np.array(column).reshape(n, 1)
        assert _column_sums_outcome(terms) == _fsum_outcome(terms), column
    columns = np.array(list(itertools.product((0.0, -0.0, _TINY, -_TINY, 1.0), repeat=n))).T
    assert _column_sums_outcome(columns) == _fsum_outcome(columns)
    assert np.signbit(sampler._column_sums(np.array([[-0.0, -0.0]]).T[:n])).sum() == 0


@pytest.mark.parametrize("exps, n_terms", [((0,), 1), ((1,), 2)])
def test_overflowing_one_or_two_term_supports_raise(exps, n_terms):
    # I0 at order 1 has one support term and I1 two; every term is 1e308, so
    # I0's sum is finite and I1's overflows only as a sum
    iv = Interval(0.0, 4.0)
    spec = WeightSpec.from_exponents(exps)
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (1,))
    assert len(tensor.support((1,)).coeffs) == n_terms
    values = np.zeros((sampler._CERTIFY_ROWS, 2, 2))
    values[-1, 1] = np.divide(1e308, tensor.data, out=np.zeros(2), where=tensor.data != 0)
    ispec = IntegralSpec(spec=spec, indices=(1,), basis=BasisKind.LEGENDRE, iv=iv)
    orders = TruncationOrders((1,))

    def table(values):
        return GaussianTable(m=1, max_j=1, values=values.copy(), basis=BasisKind.LEGENDRE,
                             iv=iv, seed=0, stream=range(len(values)))

    if n_terms == 1:
        assert sample_truncated(ispec, tensor, table(values), orders)[-1] == 1e308
        values[-1, 1] *= 2.0  # now the term itself overflows
    with pytest.raises(DomainError, match="overflows"):
        sample_truncated(ispec, tensor, table(values), orders)


@pytest.mark.parametrize("n", [1, 5, 9])
def test_overflowing_sample_raises_without_a_warning(n):
    # finite coefficients whose row sums pass the double range: numpy warned
    # of the overflow, which the RuntimeWarning filter turned into the error.
    # Stream 0 of seed 7 overflows, so every n has a row that does; n = 1
    # and 5 take the small-block sum, n = 9 the certified one
    iv = Interval(0.0, 1.6e44)
    spec = WeightSpec.from_exponents((3, 3))
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (2, 2))
    ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=iv)
    table = draw_table(2, 2, BasisKind.LEGENDRE, iv, seed=7, stream=range(n))
    with pytest.raises(DomainError, match="overflows"):
        sample_truncated(ispec, tensor, table, TruncationOrders((2, 2)))
    # the spec before it is finite, and the error names the one that is not
    i0 = IntegralSpec(spec=WeightSpec.from_exponents((0,)), indices=(1,),
                      basis=BasisKind.LEGENDRE, iv=iv)
    t0 = compute_tensor(BasisKind.LEGENDRE, i0.spec, iv, (2,))
    orders = [TruncationOrders((2,)), TruncationOrders((2, 2))]
    with pytest.raises(DomainError, match=re.escape("components (1, 2) on")):
        sample_batch([i0, ispec], [t0, tensor], 2, orders, seed=7, n=n)


@pytest.mark.parametrize("name, iv", [
    # the band products pass the double range: inf came back with a warning
    ("I00t", Interval(-8e307, 8e307)),
    # length**3.5 raised a bare OverflowError
    ("I3", Interval(0.0, 1e200)),
])
def test_overflowing_closed_form_raises(name, iv):
    basis, _ = CLOSED_FORM_NAMES[name]
    for stream in (1, range(4)):  # stream 1 overflows at p = 10
        table = draw_table(2, 20, basis, iv, seed=0, stream=stream)
        with pytest.raises(DomainError, match="overflows"):
            sample_closed_form(name, table, iv, 10)


def test_sample_batch_transient_memory_is_bounded():
    # the contraction works in blocks of about one row's terms, so a batch
    # of 256 rows peaks near the memory of a single row
    spec = WeightSpec.from_exponents((0, 0, 0, 0))
    ispec = IntegralSpec(spec=spec, indices=(1, 2, 1, 2), basis=BasisKind.LEGENDRE, iv=IV)
    tensor = compute_tensor(BasisKind.LEGENDRE, spec, IV, (12,) * 4)
    args = ([ispec], [tensor], 2, TruncationOrders.uniform(4, 12), 9)
    sample_batch(*args, 1)  # the first draw loads scipy.special
    peaks = {}
    for n in (1, 256):
        tracemalloc.start()
        try:
            sample_batch(*args, n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[256] <= 2 * peaks[1], peaks


def test_closed_form_registry_views():
    for name, exps in CLOSED_FORM_EXPONENTS.items():
        basis, k = CLOSED_FORM_NAMES[name]
        assert len(exps) == k
        assert tuple(int(c) for c in name[1:].rstrip("t")) == exps
        assert (basis is BasisKind.TRIGONOMETRIC) == name.endswith("t")
    assert CLOSED_FORM_NAMES.keys() == CLOSED_FORM_EXPONENTS.keys()


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_NAMES))
def test_closed_form_batch_rows_equal_single_tables(name):
    # p >= 7 puts 8 or more terms in a band sum, where a reduction whose
    # kernel numpy picks by layout could group a batch row's additions
    # differently from one table's
    basis, k = CLOSED_FORM_NAMES[name]
    max_j = 2 * 130 if basis is BasisKind.TRIGONOMETRIC else 130
    singles = [draw_table(2, max_j, basis, IV2, seed=6, stream=r) for r in range(257)]
    index_choices = [(1,), (2,)] if k == 1 else [(1, 2), (2, 1), (1, 1)]
    for n in (1, 2, 9, 50, 257):
        batch = draw_table(2, max_j, basis, IV2, seed=6, stream=range(n))
        for p in (0, 1, 7, 8, 10, 128, 129, 130):
            for indices in index_choices:
                got = sample_closed_form(name, batch, IV2, p, indices)
                assert got.shape == (n,)
                want = [sample_closed_form(name, t, IV2, p, indices) for t in singles[:n]]
                assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_NAMES))
def test_closed_form_on_the_smallest_table(name):
    # a table that holds exactly the indices p needs gives the value of a deeper one
    basis, k = CLOSED_FORM_NAMES[name]
    depth = 2 if basis is BasisKind.TRIGONOMETRIC else 1
    index_choices = [(1,), (2,)] if k == 1 else [(1, 2), (2, 1), (1, 1)]
    for p in range(5):
        small = draw_table(2, depth * p, basis, IV2, seed=8, stream=range(5))
        deep = draw_table(2, depth * p + 3, basis, IV2, seed=8, stream=range(5))
        for indices in index_choices:
            got = sample_closed_form(name, small, IV2, p, indices)
            want = sample_closed_form(name, deep, IV2, p, indices)
            assert got.tobytes() == want.tobytes()


# SHA-256 of each closed form on one batch of 40 tables, over p and index
# choices, recorded when every row was reduced by its own np.sum; the nine
# forms with band sums were re-recorded when each band became one
# three-operand einsum of x * y * w (sampler._band) in place of np.sum of
# precomputed terms, which moved their last bits; I0-I3 are unchanged.
# I10, I20 and I11 were re-recorded when I10 and I20 came to be derived
# from I01 and I02 by the Stratonovich product rule (sampler._shuffled);
# I11 reads I10. Each moved by at most 8.7e-16 of its largest value
FROZEN_CLOSED_FORMS = {
    "I0": "ca9f4dad76443bbb8a778ea9a0b4594267ee3e71073125455608f638f96267f3",
    "I00": "94d40eb28f808cf34958fad3f8b1c5b47fba839516dc7680fc0f5d4b2a44657f",
    "I00t": "b1a7c17e498b6225feaf06c347d795af7888014d1972c37a7b27a48444769086",
    "I01": "6540c610c5f7286a60f193bb7aac719e02318858058d9582c4643ba89f7c1546",
    "I02": "e08cc6e99e8bd54a9a5e5cd1ac43403b4acf6a1ecb46ffb93a95c3bd6c06b8be",
    "I1": "b849012f58eba4e7b06f08f8d8c62c8ce3b9c0d70e4782a6c2c17f8e0d62e2a0",
    "I10": "40ac6db70469feada1298dcdd48fe42f2c9334889300351b9e8864b72ad90a59",
    "I11": "31a57810ed58f5ddb6f4590f0c6375db69dd12349619aeab644fbc9481f6478a",
    "I1t": "ee82b5c7f044d537063636f3e42e5d9eac9c6517604b3c6492623b545a28bd73",
    "I2": "e70b0026105451240cec5eac727f0aeedaf6f9d83bf26b061f37210806cb6c5f",
    "I20": "3930158e55419a3f03857276a61d8bb7a5e68d31006536b772168e7dafb86abc",
    "I2t": "4e623dedff7b15e24d7678b8073d32e063bd8c5ab1a0c700edb860727c82df29",
    "I3": "9fc4b563bb6c855997242223ea4dc6690a4d5ebdd796e933ba39063ca4a1f200",
}


@pytest.mark.parametrize("name", sorted(FROZEN_CLOSED_FORMS))
def test_closed_form_frozen_bytes(name):
    basis, k = CLOSED_FORM_NAMES[name]
    max_j = 2 * 130 if basis is BasisKind.TRIGONOMETRIC else 130
    batch = draw_table(2, max_j, basis, IV2, seed=23, stream=range(40))
    index_choices = [(1,), (2,)] if k == 1 else [(1, 2), (2, 1), (1, 1)]
    digest = hashlib.sha256()
    for p in (0, 1, 2, 3, 5, 8, 13, 130):
        for indices in index_choices:
            digest.update(sample_closed_form(name, batch, IV2, p, indices).tobytes())
    assert digest.hexdigest() == FROZEN_CLOSED_FORMS[name]


# weight exponents, component indices (0 is dt), tensor orders, truncation
# orders: multiplicities 1 to 4, boxes below the tensor's orders, and the
# (0, 0) tensor sampled twice, with other components and another box
_JOINT_SPECS = (
    ((0,), (1,), (6,), (6,)),
    ((0, 0), (1, 2), (5, 5), (5, 5)),
    ((0, 0), (2, 0), (5, 5), (3, 4)),
    ((1, 0, 2), (1, 0, 2), (4, 4, 4), (4, 2, 3)),
    ((0, 2, 0, 1), (2, 1, 0, 1), (3, 3, 3, 3), (3, 2, 1, 3)),
    ((1,), (2,), (6,), (2,)),
)


def _joint_set(basis, iv):
    built, ispecs, tensors, orders = {}, [], [], []
    for exps, indices, tensor_orders, p in _JOINT_SPECS:
        spec = WeightSpec.from_exponents(exps)
        if (exps, tensor_orders) not in built:
            built[exps, tensor_orders] = compute_tensor(basis, spec, iv, tensor_orders)
        ispecs.append(IntegralSpec(spec=spec, indices=indices, basis=basis, iv=iv))
        tensors.append(built[exps, tensor_orders])
        orders.append(TruncationOrders(p))
    assert tensors[1] is tensors[2]
    return ispecs, tensors, orders


def _per_spec(ispecs, tensors, orders, seed, n):
    """Each spec's column by its own sample_truncated call on the block's table."""
    max_j = max(max(o.p) for o in orders)
    block = draw_table(2, max_j, ispecs[0].basis, ispecs[0].iv, seed, stream=range(n))
    return block, np.stack([sample_truncated(i, t, block, o)
                            for i, t, o in zip(ispecs, tensors, orders)], axis=1)


@pytest.mark.parametrize("basis", list(BasisKind))
@pytest.mark.parametrize("n", range(1, 9))
def test_joint_small_blocks_equal_per_spec_sums(basis, n):
    # blocks of fewer than _CERTIFY_ROWS rows sum every spec in one gather
    # chain; each column keeps the bytes of its spec's own call, and of
    # math.fsum over the whole box
    ispecs, tensors, orders = _joint_set(basis, IV2)
    got = sample_batch(ispecs, tensors, 2, orders, seed=31, n=n)
    block, want = _per_spec(ispecs, tensors, orders, 31, n)
    assert got.tobytes() == want.tobytes()
    for r, table in enumerate(block.values):
        for c, (ispec, tensor, o) in enumerate(zip(ispecs, tensors, orders)):
            assert got[r, c] == _full_box_fsum(tensor, ispec.indices, o.p, table)


def test_joint_plan_cache_serves_no_stale_plan():
    # tensors on another interval are built after the last ones are dropped,
    # more times than the cache holds plans: each set gets its own plan, and
    # a tensor lives only while a plan's key holds it
    ivs = [IV, IV2, Interval(0.5, 1.75)] * sampler._PLAN_CACHE_SIZE
    first = None
    for step, iv in enumerate(ivs):
        ispecs, tensors, orders = _joint_set(BasisKind.LEGENDRE, iv)
        got = sample_batch(ispecs, tensors, 2, orders, seed=step, n=1 + step % 3)
        assert got.tobytes() == _per_spec(ispecs, tensors, orders, step, 1 + step % 3)[1].tobytes()
        assert len(sampler._PLANS) <= sampler._PLAN_CACHE_SIZE
        if first is None:
            first = weakref.ref(tensors[0])
        del ispecs, tensors, orders
        gc.collect()
        held = first()
        assert held is None or any(held in key[0] for key in sampler._PLANS)
        assert step > 0 or held is not None  # held by the plans just made
        del held
    assert first() is None  # whose entries have gone
    # a tensor made right after one is dropped often takes its id: tensors
    # with other coefficients in the same support each get their own plan,
    # for a joint block and for one spec's block on either path
    ispecs, tensors, orders = (x[1:2] for x in _joint_set(BasisKind.TRIGONOMETRIC, IV))
    for step in range(20):
        scaled = [dataclasses.replace(t, data=(step + 2.0) * t.data) for t in tensors]
        got = sample_batch(ispecs, scaled, 2, orders, seed=step, n=1)
        assert got.tobytes() == _per_spec(ispecs, scaled, orders, step, 1)[1].tobytes()
        for n in (1, 9):
            table = draw_table(2, 5, BasisKind.TRIGONOMETRIC, IV, seed=step, stream=range(n))
            got = sample_truncated(ispecs[0], scaled[0], table, orders[0])
            want = [_full_box_fsum(scaled[0], ispecs[0].indices, orders[0].p, t)
                    for t in table.values]
            assert got.tobytes() == np.array(want).tobytes(), (step, n)
        del scaled
        gc.collect()


def test_joint_small_blocks_keep_every_check():
    ispecs, tensors, orders = _joint_set(BasisKind.LEGENDRE, IV2)
    sample_batch(ispecs, tensors, 2, orders, seed=1, n=1)  # a cached plan for this key
    # the same tensors, orders and components with other specs: provenance
    wrong_weight = [dataclasses.replace(ispecs[0], spec=WeightSpec.from_exponents((1,)))]
    wrong_weight += ispecs[1:]
    _raises("weight mismatch between spec and tensor", sample_batch,
            wrong_weight, tensors, 2, orders, seed=1, n=1)
    elsewhere = [dataclasses.replace(s, iv=IV) for s in ispecs]
    _raises("interval mismatch between spec, tensor and table", sample_batch,
            elsewhere, tensors, 2, orders, seed=1, n=1)
    trig = [dataclasses.replace(s, basis=BasisKind.TRIGONOMETRIC) for s in ispecs]
    _raises("basis mismatch between spec, tensor and table", sample_batch,
            trig, tensors, 2, orders, seed=1, n=1)
    # one spec's basis or interval apart from the others'
    for one in (trig[:1] + ispecs[1:], ispecs[:5] + elsewhere[5:]):
        _raises("all specs in a batch must share basis and interval", sample_batch,
                one, tensors, 2, orders, seed=1, n=1)
    # orders beyond the tensor's, or of the wrong length
    too_deep = orders[:1] + [TruncationOrders((6, 5))] + orders[2:]
    _raises("orders (6, 5) exceed tensor orders (5, 5)", sample_batch,
            ispecs, tensors, 2, too_deep, seed=1, n=1)
    short = orders[:1] + [TruncationOrders((5,))] + orders[2:]
    _raises("need 2 truncation orders, got 1", sample_batch,
            ispecs, tensors, 2, short, seed=1, n=1)
    _raises("need 6 truncation orders, got 5", sample_batch,
            ispecs, tensors, 2, orders[:5], seed=1, n=1)
    # the arguments the plan's key does not hold: n, threads, m and the seed
    for n in (-1, 1.0, True, "1"):
        message = "need n >= 0, got -1" if n == -1 else f"n must be an integer, got {n!r}"
        _raises(message, sample_batch, ispecs, tensors, 2, orders, seed=1, n=n)
    _raises("need threads >= 1, got 0", sample_batch, ispecs, tensors, 2, orders, 1, 1, 0)
    indices = [s.indices for s in ispecs]
    for m in (0, 1):
        _raises(f"m={m} components cannot cover indices {indices}", sample_batch,
                ispecs, tensors, m, orders, seed=1, n=1)
    _raises("m must be an integer, got 2.0", sample_batch, ispecs, tensors, 2.0, orders, 1, 1)
    _raises("seed must be in [0, 2**64), got -1", sample_batch,
            ispecs, tensors, 2, orders, seed=-1, n=1)
    _raises("seed must be an integer, got 1.5", sample_batch,
            ispecs, tensors, 2, orders, seed=1.5, n=1)
    # and the plan cached before still gives the per-spec bytes
    got = sample_batch(ispecs, tensors, 2, orders, seed=1, n=1)
    assert got.tobytes() == _per_spec(ispecs, tensors, orders, 1, 1)[1].tobytes()


@pytest.mark.parametrize("basis", list(BasisKind))
def test_joint_plan_hit_gives_the_bytes_of_a_miss(monkeypatch, basis):
    # a call whose plan is cached looks it up before it draws and never
    # reaches _plan; its rows are those of the call that built the plan
    ispecs, tensors, orders = _joint_set(basis, IV2)
    planned = []
    make = sampler._plan
    monkeypatch.setattr(sampler, "_plan", lambda *args: planned.append(args) or make(*args))
    # a list of orders, and one TruncationOrders for a (0, 0) tensor sampled twice
    for args in ((ispecs, tensors, orders), (ispecs[1:3], tensors[1:3], orders[1])):
        for n in range(1, sampler._CERTIFY_ROWS):
            monkeypatch.setattr(sampler, "_PLANS", {})
            miss = sample_batch(args[0], args[1], 2, args[2], seed=40 + n, n=n)
            assert len(planned) == 1
            hit = sample_batch(args[0], args[1], 2, args[2], seed=40 + n, n=n)
            assert len(planned) == 1
            assert hit.tobytes() == miss.tobytes()
            planned.clear()


def test_joint_hits_from_two_threads_equal_sequential_calls():
    # one-row calls on one cached plan from two threads at once, with a
    # short switch interval: the calls share no buffer that one could
    # overwrite while the other reads it
    ispecs, tensors, orders = _joint_set(BasisKind.LEGENDRE, IV2)
    seeds = range(200)
    want = [sample_batch(ispecs, tensors, 2, orders, seed=s, n=1).tobytes() for s in seeds]
    got = [[], []]
    failures = []

    def work(t):
        try:
            for s in seeds:
                got[t].append(sample_batch(ispecs, tensors, 2, orders, seed=s, n=1).tobytes())
        except Exception as exc:  # kept, so a thread that raises fails the test
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert got == [want, want]


def test_joint_plan_cache_under_threads():
    # more spec sets than the cache holds plans, sampled from more threads
    # than cores with a short switch interval: lookups race evictions, and
    # every row keeps its single-threaded bytes
    sets = []
    for step in range(sampler._PLAN_CACHE_SIZE + 3):
        ispecs, tensors, orders = _joint_set(BasisKind.LEGENDRE, Interval(0.0, 1.0 + step))
        sets.append((ispecs[step % 6:], tensors[step % 6:], orders[step % 6:]))
    want = [sample_batch(s[0], s[1], 2, s[2], seed=i, n=1 + i % 5) for i, s in enumerate(sets)]
    failures = []

    def work(offset):
        try:
            for rep in range(30):
                i = (offset + rep) % len(sets)
                ispecs, tensors, orders = sets[i]
                got = sample_batch(ispecs, tensors, 2, orders, seed=i, n=1 + i % 5)
                if got.tobytes() != want[i].tobytes():
                    failures.append(i)
        except Exception as exc:  # kept, so a thread that raises fails the test
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(sampler._PLANS) <= sampler._PLAN_CACHE_SIZE
