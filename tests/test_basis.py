"""Basis functions, intervals, and Gauss rules."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratint import (
    ArgumentError,
    BasisKind,
    CapabilityError,
    DomainError,
    Interval,
    WeightSpec,
    basis_integrals,
    compute_tensor,
    gauss_rule,
    phi_matrix,
)
from stratint import coefficients
from stratint.basis import _base_gauss, _integration_matrix, _legendre_rows

from oracles import phi_independent

INTERVALS = [Interval(0.0, 1.0), Interval(2.5, 3.75), Interval(-1.5, 0.25)]


def test_interval_validation():
    with pytest.raises(ArgumentError):
        Interval(1.0, 1.0)
    with pytest.raises(ArgumentError):
        Interval(2.0, 1.0)
    for t, T in ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (0.0, math.nan)):
        with pytest.raises(ArgumentError):
            Interval(t, T)
    assert Interval(0.5, 2.0).length() == 1.5


@pytest.mark.parametrize("kind", list(BasisKind))
@pytest.mark.parametrize("iv", INTERVALS)
def test_phi_matches_independent_evaluation(kind, iv):
    x = np.linspace(iv.t, iv.T, 37)
    rows = phi_matrix(kind, 12, x, iv)
    assert rows.shape == (13, 37)
    for j in range(13):
        ref = phi_independent(kind.value, j, x, iv.t, iv.T)
        assert np.max(np.abs(rows[j] - ref)) < 1e-12


def test_phi_matrix_at_one_point():
    iv = Interval(0.0, 2.0)
    v = phi_matrix(BasisKind.LEGENDRE, 0, np.array([1.3]), iv)
    assert v.shape == (1, 1)
    assert v[0, 0] == pytest.approx(math.sqrt(0.5), abs=1e-15)


@pytest.mark.parametrize("kind", list(BasisKind))
def test_orthonormality(kind):
    iv = Interval(2.5, 3.75)
    top = 25
    if kind is BasisKind.LEGENDRE:
        rule = gauss_rule(top + 1, iv)
    else:
        # trig products up to frequency 13 need a finer composite rule
        panels = 40
        edges = np.linspace(iv.t, iv.T, panels + 1)
        base = gauss_rule(16, Interval(-1.0, 1.0))
        hw = 0.5 * iv.length() / panels
        nodes = (0.5 * (edges[:-1] + edges[1:]))[:, None] + hw * base.nodes
        rule_nodes = nodes.ravel()
        rule_weights = np.tile(hw * base.weights, panels)
        rows = phi_matrix(kind, top, rule_nodes, iv)
        gram = (rows * rule_weights) @ rows.T
        assert np.max(np.abs(gram - np.eye(top + 1))) < 1e-12
        return
    rows = phi_matrix(kind, top, rule.nodes, iv)
    gram = (rows * rule.weights) @ rows.T
    assert np.max(np.abs(gram - np.eye(top + 1))) < 1e-12


def test_phi_domain_checked():
    iv = Interval(0.0, 1.0)
    with pytest.raises(DomainError):
        phi_matrix(BasisKind.LEGENDRE, 3, np.array([-0.1, 0.5]), iv)
    with pytest.raises(DomainError):
        phi_matrix(BasisKind.TRIGONOMETRIC, 1, np.array([1.0001]), iv)


def test_order_limits():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ArgumentError):
        phi_matrix(BasisKind.LEGENDRE, -1, np.array([0.5]), iv)
    with pytest.raises(CapabilityError):
        phi_matrix(BasisKind.LEGENDRE, 513, np.array([0.5]), iv)
    # the trigonometric branch has no such cap
    phi_matrix(BasisKind.TRIGONOMETRIC, 513, np.array([0.5]), iv)


@given(n=st.integers(min_value=1, max_value=40))
@settings(deadline=None, max_examples=25)
def test_gauss_rule_polynomial_exactness(n):
    iv = Interval(-0.5, 1.75)
    rule = gauss_rule(n, iv)
    deg = 2 * n - 1
    # integral of x^deg over the interval, exactly
    exact = (iv.T ** (deg + 1) - iv.t ** (deg + 1)) / (deg + 1)
    got = rule.integrate(rule.nodes**deg)
    assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_gauss_rule_weight_sum():
    for n in (1, 2, 7, 64):
        rule = gauss_rule(n, Interval(2.5, 3.75))
        assert math.fsum(rule.weights.tolist()) == pytest.approx(1.25, abs=1e-14)
        assert np.all(np.diff(rule.nodes) > 0)


@pytest.mark.parametrize("kind", list(BasisKind))
@pytest.mark.parametrize("iv", INTERVALS)
def test_basis_integrals_column(kind, iv):
    got = basis_integrals(kind, iv, 15)
    assert got.shape == (16,)
    assert got[0] == pytest.approx(math.sqrt(iv.length()), rel=1e-15)
    # phi_j for j >= 1 is orthogonal to the constant phi_0: no quadrature noise
    assert not np.any(got[1:])


def _full_row_gauss(n):
    """The Gauss rule by Newton over all n + 1 Legendre rows at every step."""
    k = np.arange(1, n + 1)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        rows = _legendre_rows(n, x)
        dpn = n * (x * rows[n] - rows[n - 1]) / (x * x - 1.0)
        dx = rows[n] / dpn
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    rows = _legendre_rows(n, x)
    dpn = n * (x * rows[n] - rows[n - 1]) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    return x[order], w[order]


@pytest.mark.parametrize("n", [1, 2, 3, 20, 150, 1000])
def test_gauss_rule_equals_full_row_newton(n):
    # Newton reads only P_{n-1} and P_n of the rows: a transcription of the
    # iteration here pins the nodes' and weights' bits
    x, w = _base_gauss(n)
    want_x, want_w = _full_row_gauss(n)
    assert x.tobytes() == want_x.tobytes()
    assert w.tobytes() == want_w.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 144, 650])
def test_integration_matrix_exact_on_monomials(n):
    x, _ = _base_gauss(n)
    s = _integration_matrix(n)
    d = np.arange(n)[:, None]
    got = (x**d) @ s.T
    want = (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
    assert np.max(np.abs(got - want)) < 1e-14


def test_integration_matrix_cache_is_bounded():
    # building at more n than the cache holds keeps it within its bound, and
    # a matrix built again after its entry has gone has the same bytes
    bound = _integration_matrix.cache_info().maxsize
    assert bound >= 9  # the distinct n of one `coeffs` benchmark process
    first = _integration_matrix(3).tobytes()
    for n in range(4, bound + 8):
        _integration_matrix(n)
        assert _integration_matrix.cache_info().currsize <= bound
    assert _integration_matrix(3).tobytes() == first
    assert first == _integration_matrix.__wrapped__(3).tobytes()


def test_integration_matrix_holds_three_squares():
    # the differences and the halving are made in place: a cold build at
    # n = 1024 peaked at five n x n arrays, and now holds three, the rows of
    # P_m, the weighted rows and the matrix
    n = 1024
    _base_gauss(n)
    tracemalloc.start()
    try:
        _integration_matrix.__wrapped__(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.01 * 8 * n * n


def test_integration_matrix_kept_only_when_small(monkeypatch):
    # a Legendre build keeps the matrix through coefficients._kept: one over
    # its byte bound is built for the call and dropped
    spec, iv = WeightSpec.from_exponents((0, 0)), Interval(0.0, 1.0)
    n = 21  # the nodes of a (0, 0) build at order 20
    for bound, kept in ((8 * n * n, 1), (8 * n * n - 1, 0)):
        monkeypatch.setattr(coefficients, "_KEPT_BYTES", bound)
        _integration_matrix.cache_clear()
        compute_tensor(BasisKind.LEGENDRE, spec, iv, (20, 20))
        assert _integration_matrix.cache_info().currsize == kept


@given(
    j=st.integers(min_value=0, max_value=8),
    u=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=-5.0, max_value=5.0),
    length=st.floats(min_value=0.25, max_value=8.0),
)
@settings(deadline=None, max_examples=60)
def test_affine_covariance(j, u, t, length):
    # phi on any interval is the unit-interval phi rescaled by 1/sqrt(L)
    unit = Interval(0.0, 1.0)
    iv = Interval(t, t + length)
    for kind in BasisKind:
        a = phi_matrix(kind, j, np.array([u]), unit)[j, 0]
        b = phi_matrix(kind, j, np.array([t + length * u]), iv)[j, 0]
        assert b == pytest.approx(a / math.sqrt(length), rel=1e-10, abs=1e-10)
