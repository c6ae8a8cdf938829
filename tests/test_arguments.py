"""Every public integer, real number, orders and basis argument is checked
where it comes in.

An integer argument is a Python or numpy integer: a bool, float, str or None
is refused with an ArgumentError that names the argument, and so is a value
below the argument's least. A real number argument is a finite real number,
kept as a float: a bool, str, None, complex, nan or inf is refused. Truncation
orders are a TruncationOrders, or a list of them where one is allowed, never
a plain tuple. A basis is a BasisKind member, never its string.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from stratint import (
    ArgumentError,
    BasisKind,
    CapabilityError,
    IntegralSpec,
    Interval,
    SdeProblem,
    TruncationOrders,
    WeightPoly,
    WeightSpec,
    basis_integrals,
    cache_load,
    cache_store,
    compute_tensor,
    convergence_study,
    draw_table,
    enumerate_pair_partitions,
    gauss_rule,
    gbm,
    integrate,
    monomial_weight,
    normal_stream,
    phi_matrix,
    sample_batch,
    sample_closed_form,
    sample_truncated,
    truncated_moment,
)
from stratint import sampler

LEG = BasisKind.LEGENDRE
IV = Interval(0.0, 1.0)
SPEC = WeightSpec.from_exponents((0, 0))
TENSOR = compute_tensor(LEG, SPEC, IV, (2, 3))
ISPEC = IntegralSpec(spec=SPEC, indices=(1, 2), basis=LEG, iv=IV)
ORDERS = TruncationOrders((2, 3))
TABLE = draw_table(2, 3, LEG, IV, seed=1)
GBM = gbm()


def _problem(**changes):
    fields = dict(dim=1, m=1, coefficients=GBM.coefficients, x0=np.array([1.0]), t_end=1.0)
    return SdeProblem(**{**fields, **changes})


INTEGERS = (True, 2.0, "2", None, -1)
BASES = INTEGERS + ("legendre",)
REALS = (True, "1", None, 1j, math.nan, -math.inf)
ORDERS_OTHER = ((2, 3), [(2, 3)], None, "23")

# (function and argument, the name its message gives, a call with the value
# put in, the values tried); `path` is a cache file of TENSOR. The values past
# INTEGERS are the probes of inputs that used to pass, or to fail with an
# error other than ArgumentError.
CASES = [
    ("compute_tensor.orders", "orders", lambda v, path: compute_tensor(LEG, SPEC, IV, (v, 3)),
     INTEGERS + (2.7,)),
    ("compute_tensor.orders-all", "orders", lambda v, path: compute_tensor(LEG, SPEC, IV, v),
     (("2", "3"),)),
    ("compute_tensor.kind", "kind", lambda v, path: compute_tensor(v, SPEC, IV, (2, 3)), BASES),
    ("cache_load.orders", "orders", lambda v, path: cache_load(path, LEG, SPEC, IV, (v, 3)),
     INTEGERS + (2.7,)),
    ("cache_load.orders-all", "orders", lambda v, path: cache_load(path, LEG, SPEC, IV, v),
     (("2", "3"),)),
    ("cache_load.kind", "kind", lambda v, path: cache_load(path, v, SPEC, IV, (2, 3)), BASES),
    ("CoeffTensor.support.p", "p", lambda v, path: TENSOR.support((v, 3)), INTEGERS),
    ("TruncationOrders.p", "p", lambda v, path: TruncationOrders((v, 2)), INTEGERS + (1.5,)),
    ("TruncationOrders.uniform.k", "k", lambda v, path: TruncationOrders.uniform(v, 2), INTEGERS),
    ("IntegralSpec.indices", "indices",
     lambda v, path: IntegralSpec(spec=SPEC, indices=(v, 2), basis=LEG, iv=IV), INTEGERS + (1.0,)),
    ("IntegralSpec.basis", "basis",
     lambda v, path: IntegralSpec(spec=SPEC, indices=(1, 2), basis=v, iv=IV), BASES),
    ("draw_table.m", "m", lambda v, path: draw_table(v, 3, LEG, IV, seed=1), INTEGERS),
    ("draw_table.max_j", "max_j", lambda v, path: draw_table(2, v, LEG, IV, seed=1), INTEGERS),
    ("draw_table.basis", "basis", lambda v, path: draw_table(2, 3, v, IV, seed=1), BASES),
    ("draw_table.seed", "seed", lambda v, path: draw_table(2, 3, LEG, IV, seed=v), INTEGERS),
    ("draw_table.stream", "stream", lambda v, path: draw_table(2, 3, LEG, IV, 1, stream=v),
     INTEGERS),
    ("sample_closed_form.p", "p", lambda v, path: sample_closed_form("I00", TABLE, IV, v),
     INTEGERS),
    ("sample_closed_form.indices", "indices",
     lambda v, path: sample_closed_form("I00", TABLE, IV, 1, (v, 2)), INTEGERS),
    ("sample_batch.m", "m", lambda v, path: sample_batch([ISPEC], [TENSOR], v, ORDERS, 1, 1),
     INTEGERS),
    ("sample_batch.seed", "seed",
     lambda v, path: sample_batch([ISPEC], [TENSOR], 2, ORDERS, v, 1), INTEGERS),
    ("sample_batch.n", "n", lambda v, path: sample_batch([ISPEC], [TENSOR], 2, ORDERS, 1, v),
     INTEGERS),
    ("sample_batch.threads", "threads",
     lambda v, path: sample_batch([ISPEC], [TENSOR], 2, ORDERS, 1, 1, threads=v), INTEGERS),
    ("normal_stream.seed", "seed", lambda v, path: normal_stream(v, 0, 1, 3), INTEGERS),
    ("normal_stream.stream", "stream", lambda v, path: normal_stream(1, v, 1, 3), INTEGERS),
    ("normal_stream.component", "component", lambda v, path: normal_stream(1, 0, v, 3),
     INTEGERS),
    ("normal_stream.count", "count", lambda v, path: normal_stream(1, 0, 1, v), INTEGERS),
    ("normal_stream.domain", "domain", lambda v, path: normal_stream(1, 0, 1, 3, v), INTEGERS),
    ("gauss_rule.n", "n", lambda v, path: gauss_rule(v, IV), INTEGERS + (3.0,)),
    ("phi_matrix.max_j", "max_j", lambda v, path: phi_matrix(LEG, v, [0.5], IV),
     INTEGERS + (2.5,)),
    ("phi_matrix.kind", "kind", lambda v, path: phi_matrix(v, 2, [0.5], IV), BASES),
    ("basis_integrals.max_j", "max_j", lambda v, path: basis_integrals(LEG, IV, v), INTEGERS),
    ("basis_integrals.kind", "kind", lambda v, path: basis_integrals(v, IV, 2), BASES),
    ("monomial_weight.exponent", "exponent", lambda v, path: monomial_weight(v),
     INTEGERS + (1.5,)),
    ("enumerate_pair_partitions.k", "k", lambda v, path: enumerate_pair_partitions(v, 1),
     INTEGERS + (4.0,)),
    ("enumerate_pair_partitions.r", "r", lambda v, path: enumerate_pair_partitions(4, v),
     INTEGERS),
    ("integrate.steps", "steps", lambda v, path: integrate(GBM, "euler", v, 1), INTEGERS),
    ("integrate.seed", "seed", lambda v, path: integrate(GBM, "euler", 4, v), INTEGERS),
    ("integrate.p", "p", lambda v, path: integrate(GBM, "euler", 4, 1, p=v), INTEGERS),
    ("convergence_study.step_counts", "level",
     lambda v, path: convergence_study(GBM, "euler", (v, 2, 4, 8), 2, 1), INTEGERS),
    ("convergence_study.n_paths", "n_paths",
     lambda v, path: convergence_study(GBM, "euler", (1, 2, 4, 8), v, 1), INTEGERS),
    ("convergence_study.seed", "seed",
     lambda v, path: convergence_study(GBM, "euler", (1, 2, 4, 8), 2, v), INTEGERS),
    ("convergence_study.p", "p",
     lambda v, path: convergence_study(GBM, "euler", (1, 2, 4, 8), 2, 1, p=v), INTEGERS),
    ("SdeProblem.dim", "dim", lambda v, path: _problem(dim=v), INTEGERS),
    ("SdeProblem.m", "m", lambda v, path: _problem(m=v), INTEGERS),
    ("SdeProblem.t_end", "t_end", lambda v, path: _problem(t_end=v), REALS),
    ("Interval.t", "t", lambda v, path: Interval(v, 1.0), REALS),
    ("Interval.T", "T", lambda v, path: Interval(0.0, v), REALS),
    ("WeightPoly.coeffs", "coeffs", lambda v, path: WeightPoly((v, 1.0)), REALS),
    ("sample_truncated.orders", "orders",
     lambda v, path: sample_truncated(ISPEC, TENSOR, TABLE, v), ORDERS_OTHER + ([ORDERS],)),
    ("sample_batch.orders", "orders",
     lambda v, path: sample_batch([ISPEC], [TENSOR], 2, v, 1, 1), ORDERS_OTHER),
    ("sample_batch.orders-rows", "orders",
     lambda v, path: sample_batch([ISPEC], [TENSOR], 2, v, 1, 9), ORDERS_OTHER),
    ("truncated_moment.orders", "orders",
     lambda v, path: truncated_moment([ISPEC], [TENSOR], v), ORDERS_OTHER),
]


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cache") / "tensor.stcf")
    cache_store(out, TENSOR)
    return out


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{label}={value!r}")
    for label, name, call, values in CASES for value in values
])
def test_arguments_are_checked_at_the_boundary(name, call, value, path):
    # an ArgumentError that names the argument, never a TypeError, IndexError
    # or KeyError from deeper in, nor a value read as some other integer
    with pytest.raises(ArgumentError) as caught:
        call(value, path)
    assert re.search(rf"\b{name}s?\b", str(caught.value)), str(caught.value)


def test_numpy_integers_are_python_ints(path):
    i = np.int64
    tensor = compute_tensor(LEG, SPEC, IV, (i(2), i(3)))
    assert tensor.orders == (2, 3) and {type(o) for o in tensor.orders} == {int}
    assert tensor.data.tobytes() == TENSOR.data.tobytes()
    loaded = cache_load(path, LEG, SPEC, IV, (i(2), i(3)))
    assert {type(o) for o in loaded.orders} == {int}
    assert loaded.data.tobytes() == TENSOR.data.tobytes()
    ispec = IntegralSpec(spec=SPEC, indices=[i(1), i(2)], basis=LEG, iv=IV)
    assert ispec == ISPEC and hash(ispec) == hash(ISPEC)
    orders = TruncationOrders([i(2), i(3)])
    assert orders == ORDERS and hash(orders) == hash(ORDERS)
    assert TruncationOrders.uniform(i(2), i(3)) == TruncationOrders((3, 3))
    for n in (1, 9):  # a small block, and one sample_truncated sums
        want = sample_batch([ISPEC], [TENSOR], 2, ORDERS, 5, n)
        got = sample_batch([ispec], [TENSOR], i(2), orders, i(5), i(n), threads=i(1))
        assert got.tobytes() == want.tobytes()
    table = draw_table(i(2), i(3), LEG, IV, seed=i(1), stream=i(0))
    assert table.values.tobytes() == TABLE.values.tobytes()
    assert (sample_closed_form("I00", table, IV, i(3), (i(2), i(1))).tobytes()
            == sample_closed_form("I00", TABLE, IV, 3, (2, 1)).tobytes())
    assert (normal_stream(i(1), np.arange(3), i(2), i(4), i(1)).tobytes()
            == normal_stream(1, range(3), 2, 4, 1).tobytes())
    assert gauss_rule(i(4), IV).nodes.tobytes() == gauss_rule(4, IV).nodes.tobytes()
    assert (phi_matrix(LEG, i(3), [0.5], IV).tobytes()
            == phi_matrix(LEG, 3, [0.5], IV).tobytes())
    assert monomial_weight(i(2)) == monomial_weight(2)
    assert enumerate_pair_partitions(i(4), i(1)) == enumerate_pair_partitions(4, 1)
    problem = _problem(dim=i(1), m=i(1))
    assert type(problem.dim) is type(problem.m) is int
    assert (integrate(problem, "milstein", i(8), i(3), p=i(2)).tobytes()
            == integrate(GBM, "milstein", 8, 3, p=2).tobytes())


def test_a_list_of_indices_is_kept_as_a_tuple():
    # once the unhashable list reached the sampler's plan key
    ispec = IntegralSpec(spec=SPEC, indices=[1, 2], basis=LEG, iv=IV)
    assert ispec.indices == (1, 2)
    want = sample_batch([ISPEC], [TENSOR], 2, ORDERS, 5, 3)
    assert sample_batch([ispec], [TENSOR], 2, ORDERS, 5, 3).tobytes() == want.tobytes()


def test_real_numbers_are_floats():
    iv = Interval(0, np.float32(1))
    assert iv == IV and type(iv.t) is type(iv.T) is float
    weight = WeightPoly([np.int64(1), np.float64(-0.5)])
    assert weight.coeffs == (1.0, -0.5) and {type(c) for c in weight.coeffs} == {float}
    assert type(_problem(t_end=np.float64(2.0)).t_end) is float
    with pytest.raises(ArgumentError, match="^T must be a finite real number"):
        Interval(0.0, 10**400)  # an int past the float range
    spec = WeightSpec((weight, WeightPoly((1,))))
    want = compute_tensor(LEG, WeightSpec((WeightPoly((1.0, -0.5)), WeightPoly((1.0,)))),
                          IV, (2, 3))
    assert compute_tensor(LEG, spec, iv, (2, 3)).data.tobytes() == want.data.tobytes()


def test_orders_are_refused_before_any_draw(monkeypatch):
    sample_batch([ISPEC], [TENSOR], 2, ORDERS, 1, 1)  # its plan is cached
    draws = []
    monkeypatch.setattr(sampler, "normal_stream", lambda *args: draws.append(args))
    for orders in ORDERS_OTHER:
        for n in (1, 9):
            with pytest.raises(ArgumentError, match="orders"):
                sample_batch([ISPEC], [TENSOR], 2, orders, 1, n)
        assert sampler._cached_plan([ISPEC], [TENSOR], 2, orders, 1, 1) is None
    assert draws == []


def test_gauss_rule_past_the_memory_bound_is_refused_first():
    gauss_rule(4, IV)
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="n = 20000 Gauss nodes need over 2 GiB"):
            gauss_rule(20000, IV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
