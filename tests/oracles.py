"""Independent checking tools for the test suite.

Everything here is deliberately written against the math, not against the
package: coefficients come from iterated mapped Gauss quadrature over the
simplex, or exactly for the trigonometric basis by nested integration in
Q[1/pi], discretized integrals from a pure-Python ordered-tuple loop, and the
golden expansions are frozen literal formulas. Agreement between these and
the library is the point of the tests that import them.
"""

import functools
import math
from fractions import Fraction

import numpy as np

_GX, _GW = np.polynomial.legendre.leggauss(48)


def phi_independent(kind, j, x, t, T):
    """Evaluate the orthonormal basis function by a second route."""
    x = np.asarray(x, dtype=float)
    L = T - t
    if kind == "legendre":
        c = np.zeros(j + 1)
        c[j] = 1.0
        z = 2.0 * (x - t) / L - 1.0
        return math.sqrt((2 * j + 1) / L) * np.polynomial.legendre.legval(z, c)
    if j == 0:
        return np.full(x.shape, 1.0 / math.sqrt(L))
    r = (j + 1) // 2
    theta = 2.0 * math.pi * r * (x - t) / L
    if j % 2 == 1:
        return math.sqrt(2.0 / L) * np.sin(theta)
    return math.sqrt(2.0 / L) * np.cos(theta)


def quad_coeff(kind, exps, t, T, js):
    """Simplex Fourier coefficient via nested 48-point Gauss panels.

    js holds the basis order per level, innermost first, like the tensor
    axes. Exact for the polynomial integrands in play and ~1e-13 for the
    low-frequency trigonometric ones, which is all the tests ask of it.
    """
    k = len(exps)
    if len(js) != k:
        raise ValueError("one basis order per weight")

    def level(l, upper):
        # integral over [t, upper] of psi_l * phi_{j_l} * level(l-1)
        upper = np.asarray(upper, dtype=float)
        half = 0.5 * (upper - t)
        mid = 0.5 * (upper + t)
        x = mid[..., None] + half[..., None] * _GX
        f = (t - x) ** exps[l] * phi_independent(kind, js[l], x, t, T)
        if l > 0:
            f = f * level(l - 1, x)
        return half * (f @ _GW)

    return float(level(k - 1, np.asarray(T)))


def collocation_tensor(kind, exps, t, T, orders, n):
    """Every coefficient of the box by collocation at n Gauss-Legendre nodes.

    Each nested integral is held by its values at the nodes and integrated
    from t through its Legendre series (numpy.polynomial's legint), which is
    exact below degree n and converges fast for the smooth trigonometric
    integrands; the outer integral is the Gauss rule itself. Axes as the
    tensor's, innermost first.
    """
    leg = np.polynomial.legendre
    x, w = leg.leggauss(n)
    half = 0.5 * (T - t)
    s = t + half * (x + 1.0)
    m = np.arange(n)
    to_series = (leg.legvander(x, n - 1) * w[:, None]).T * ((2 * m + 1) / 2.0)[:, None]
    integrate = half * leg.legvander(x, n) @ leg.legint(np.eye(n), lbnd=-1) @ to_series

    def rows(level):
        phi = [phi_independent(kind, j, s, t, T) for j in range(orders[level] + 1)]
        return (t - s) ** exps[level] * np.array(phi)

    f = np.ones(n)
    for level in range(len(exps) - 1):
        f = (f[..., None, :] * rows(level)) @ integrate.T
    return f @ (rows(len(exps) - 1) * (half * w)).T


# Exact trigonometric coefficients. On x = u / L in [0, 1], with weights
# (-x)^e and phi_j = cos (j even) or sin (j odd) of 2 pi r x, r = (j + 1) // 2,
# every nested integral is a finite sum of terms x^a cos(2 pi nu x) and
# x^a sin(2 pi nu x), nu >= 0, with sin only at nu > 0. A function is a dict
# from (a, nu, type) to its coefficient, and a coefficient is an element of
# Q[1/pi]: a dict from the power of 1/pi to a nonzero Fraction. pi is
# transcendental, so a coefficient is zero iff its dict is empty.

_COS, _SIN = "cos", "sin"


def _accumulate(fn, key, poly, scale, shift=0):
    """fn[key] += scale * pi^-shift * poly, dropping what cancels."""
    target = fn.setdefault(key, {})
    for power, c in poly.items():
        v = target.get(power + shift, 0) + scale * c
        if v:
            target[power + shift] = v
        else:
            target.pop(power + shift, None)
    if not target:
        del fn[key]


def _times(fn, exp, j):
    """fn * (-x)^exp * phi_j without its normalising constant."""
    r, basis = (j + 1) // 2, _SIN if j % 2 else _COS
    sign = Fraction((-1) ** exp)
    out = {}
    for (a, nu, kind), poly in fn.items():
        if r == 0:
            _accumulate(out, (a + exp, nu, kind), poly, sign)
            continue
        # kind(nu) basis(r) = (sum_sign kind'(nu + r) + diff_sign kind'(nu - r)) / 2
        if kind == basis:
            new, sum_sign, diff_sign = _COS, (-1 if kind == _SIN else 1), 1
        else:
            new, sum_sign, diff_sign = _SIN, 1, (1 if kind == _SIN else -1)
        _accumulate(out, (a + exp, nu + r, new), poly, sign * Fraction(sum_sign, 2))
        diff = nu - r
        if diff < 0 and new == _SIN:  # sin is odd
            diff_sign = -diff_sign
        if diff != 0 or new == _COS:
            _accumulate(out, (a + exp, abs(diff), new), poly, sign * Fraction(diff_sign, 2))
    return out


@functools.lru_cache(maxsize=None)
def _antiderivative(a, nu, kind):
    """int_0^x of y^a kind(2 pi nu y) dy as ((a', nu', type), Fraction, power of 1/pi)."""
    if nu == 0:
        return (((a + 1, 0, _COS), Fraction(1, a + 1), 0),)
    w = Fraction(1, 2 * nu)  # 1 / omega = w / pi
    # int y^a cos = y^a sin / omega - (a / omega) int y^(a-1) sin, and
    # int y^a sin = -y^a cos / omega + (a / omega) int y^(a-1) cos; at a = 0
    # the sine's lower limit leaves 1 / omega
    if kind == _COS:
        head, sign, other = ((a, nu, _SIN), w, 1), -1, _SIN
    else:
        head, sign, other = ((a, nu, _COS), -w, 1), 1, _COS
    if a == 0:
        tail = (((0, 0, _COS), w, 1),) if kind == _SIN else ()
    else:
        tail = tuple((key, sign * a * w * c, power + 1)
                     for key, c, power in _antiderivative(a - 1, nu, other))
    return (head,) + tail


def _integrate(fn):
    out = {}
    for (a, nu, kind), poly in fn.items():
        for key, c, power in _antiderivative(a, nu, kind):
            _accumulate(out, key, poly, c, power)
    return out


@functools.lru_cache(maxsize=None)
def _trig_nested(exps, js):
    """int_0^x of the integrand of the last level of js, innermost first."""
    if not js:
        return {(0, 0, _COS): {0: Fraction(1)}}
    return _integrate(_times(_trig_nested(exps[:-1], js[:-1]), exps[-1], js[-1]))


@functools.lru_cache(maxsize=None)
def _definite(a, nu, kind):
    """int_0^1 of x^a kind(2 pi nu x) as {power of 1/pi: Fraction}: the
    antiderivative at x = 1, where sin(2 pi nu) = 0 and cos(2 pi nu) = 1, is
    the sum of its cosine coefficients."""
    out = {}
    for key, c, power in _antiderivative(a, nu, kind):
        if key[2] == _COS:
            out[power] = out.get(power, 0) + c
    return {power: c for power, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def _outer(a, nu, kind, exp, j):
    """int_0^1 of x^a kind(2 pi nu x) (-x)^exp phi_j, as trig_exact returns it."""
    out = {}
    for key, poly in _times({(a, nu, kind): {0: Fraction(1)}}, exp, j).items():
        for power, c in _definite(*key).items():
            _accumulate(out, None, poly, c, power)
    return out.get(None, {})


def trig_exact(exps, js):
    """The trigonometric coefficient for weights (t - s)^exps at js, innermost
    first, without its factor L^(sum exps + k/2) sqrt(2)^#{l: j_l > 0}, as a
    dict from the power of 1/pi to a Fraction: empty iff the coefficient is 0."""
    exps, js = tuple(exps), tuple(js)
    out = {}
    for key, poly in _trig_nested(exps[:-1], js[:-1]).items():
        for power, c in _outer(*key, exps[-1], js[-1]).items():
            _accumulate(out, None, poly, c, power)
    return out.get(None, {})


def trig_exact_value(exps, js, L):
    """trig_exact as a float on an interval of length L, factors restored."""
    poly = trig_exact(exps, js)
    scale = L ** (sum(exps) + len(js) / 2) * math.sqrt(2.0) ** sum(j > 0 for j in js)
    return scale * math.fsum(float(c) * math.pi ** -power for power, c in poly.items())


# Exact Legendre coefficients. On x = u / L in [0, 1], phi_j = sqrt((2j + 1) / L)
# P_j(2x - 1) and the weight (t - s)^e = (-L x)^e, so every nested integral is a
# polynomial in x with rational coefficients, held as a tuple of Fractions
# (coefficients of 1, x, x^2, ...).

@functools.lru_cache(maxsize=None)
def _shifted_legendre(j):
    """P_j(2x - 1) as integer coefficients of 1, x, ..., x^j."""
    return tuple((-1) ** (j + m) * math.comb(j, m) * math.comb(j + m, m) for m in range(j + 1))


def _times_legendre(poly, j):
    out = [Fraction(0)] * (len(poly) + j)
    for a, c in enumerate(poly):
        if c:
            for b, q in enumerate(_shifted_legendre(j)):
                out[a + b] += c * q
    return out


@functools.lru_cache(maxsize=None)
def _legendre_nested(exps, js):
    """F(x) = int_0^x y^e P_j(2y - 1) F'(y) dy for the last level of js, F' the
    level inside it (1 when there is none), innermost first."""
    if not js:
        return (Fraction(1),)
    e = exps[-1]
    g = _times_legendre(_legendre_nested(exps[:-1], js[:-1]), js[-1])
    return (Fraction(0),) * (e + 1) + tuple(c / (e + 1 + m) for m, c in enumerate(g))


@functools.lru_cache(maxsize=None)
def legendre_exact(exps, js):
    """The Legendre coefficient for weights (t - s)^exps at js, innermost first,
    without its factor (-1)^(sum exps) L^(sum exps + k/2) prod_l sqrt(2 j_l + 1):
    F_k(1), the outermost nested integral on [0, 1], as a Fraction, zero iff the
    coefficient is 0."""
    exps, js = tuple(exps), tuple(js)
    e = exps[-1]
    g = _times_legendre(_legendre_nested(exps[:-1], js[:-1]), js[-1])
    return sum((c / (e + 1 + m) for m, c in enumerate(g) if c), Fraction(0))


def legendre_exact_value(exps, js, L):
    """legendre_exact as a float on an interval of length L, factors restored:
    C = (-1)^(sum exps) L^(sum exps + k/2) prod_l sqrt(2 j_l + 1) F_k(1)."""
    scale = (-1) ** sum(exps) * L ** (sum(exps) + len(js) / 2)
    return scale * math.prod(math.sqrt(2 * j + 1) for j in js) * float(legendre_exact(exps, js))


def slow_discretize(exps, indices, mesh, increments):
    """Left-endpoint iterated sum over strictly ordered index tuples.

    Pure Python on purpose; keep the mesh small when calling it.
    """
    t = mesh[0]
    n = len(mesh) - 1
    k = len(exps)
    total = 0.0

    def rec(level, start, acc):
        nonlocal total
        for q in range(start, n):
            value = acc * (t - mesh[q]) ** exps[level] * increments[indices[level]][q]
            if level == k - 1:
                total += value
            else:
                rec(level + 1, q + 1, value)

    rec(0, 0, 1.0)
    return total


# Frozen golden expansions. The k=1 Legendre coefficients below are the
# printed closed forms for weights (t-s)^l, l = 0..3; the k=2 objects are the
# full sparse patterns, so comparing against them checks every entry of a
# computed tensor including the zeros.

def legendre_k1_golden(exp, L, n):
    c = np.zeros(n)
    if exp == 0:
        c[0] = math.sqrt(L)
    elif exp == 1:
        s = -0.5 * L**1.5
        c[0] = s
        c[1] = s / math.sqrt(3.0)
    elif exp == 2:
        s = L**2.5 / 3.0
        c[0] = s
        c[1] = s * math.sqrt(3.0) / 2.0
        c[2] = s / (2.0 * math.sqrt(5.0))
    elif exp == 3:
        s = -0.25 * L**3.5
        c[0] = s
        c[1] = s * 3.0 * math.sqrt(3.0) / 5.0
        c[2] = s / math.sqrt(5.0)
        c[3] = s / (5.0 * math.sqrt(7.0))
    else:
        raise ValueError("no frozen expansion for this exponent")
    return c


def legendre_k2_banded(L, n):
    """Pattern for exps (0, 0): data[j1, j2] multiplies zeta^(i1)_j1 zeta^(i2)_j2."""
    m = np.zeros((n, n))
    m[0, 0] = 0.5 * L
    for i in range(1, n):
        band = 0.5 * L / math.sqrt(4.0 * i * i - 1.0)
        m[i - 1, i] = band
        m[i, i - 1] = -band
    return m


def trig_k1_golden(exp, L, n):
    c = np.zeros(n)
    if exp == 1:
        c[0] = -0.5 * L**1.5
        for r in range(1, n // 2 + 1):
            c[2 * r - 1] = math.sqrt(2.0) * L**1.5 / (2.0 * math.pi * r)
    elif exp == 2:
        c[0] = L**2.5 / 3.0
        for r in range(1, n // 2 + 1):
            c[2 * r - 1] = -(L**2.5) / (math.sqrt(2.0) * math.pi * r)
            if 2 * r < n:
                c[2 * r] = L**2.5 / (math.sqrt(2.0) * math.pi**2 * r**2)
    else:
        raise ValueError("no frozen expansion for this exponent")
    return c


def trig_k2_pattern(L, n):
    m = np.zeros((n, n))
    m[0, 0] = 0.5 * L
    for r in range(1, n // 2 + 1):
        band = 0.5 * L / (math.pi * r)
        if 2 * r < n:
            m[2 * r, 2 * r - 1] = band
            m[2 * r - 1, 2 * r] = -band
        m[2 * r - 1, 0] = math.sqrt(2.0) * band
        m[0, 2 * r - 1] = -math.sqrt(2.0) * band
    return m


def i00_prefix(a, b, L):
    """Closed-form truncated I*_(00) at every order at once.

    a, b are coefficient arrays shaped (..., n); out[..., p] is the value
    truncated at order p. Used to vectorize the truncation-law Monte Carlo.
    """
    i = np.arange(1, a.shape[-1], dtype=float)
    band = 1.0 / np.sqrt(4.0 * i * i - 1.0)
    d = (a[..., :-1] * b[..., 1:] - a[..., 1:] * b[..., :-1]) * band
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 0] * b[..., 0]
    np.cumsum(d, axis=-1, out=out[..., 1:])
    out[..., 1:] += out[..., 0:1]
    return 0.5 * L * out


def truncation_law(L, p, p_ref):
    """E[(I*_(00)(p_ref) - I*_(00)(p))^2] for distinct indices."""
    return L * L / 4.0 * (1.0 / (2.0 * p + 1.0) - 1.0 / (2.0 * p_ref + 1.0))


def _pairings(axes):
    """Every partition of the list `axes` into disordered pairs."""
    if not axes:
        yield ()
        return
    first, rest = axes[0], axes[1:]
    for n, other in enumerate(rest):
        for tail in _pairings(rest[:n] + rest[n + 1:]):
            yield ((first, other),) + tail


def isserlis_moment(arrays, components, L):
    """E[prod_op sum_J arrays[op][J] prod_l zeta^(components[op][l])_(J_l)].

    arrays[op] holds one factor's coefficients, already cut to its truncation
    orders; components[op] gives each axis its Wiener component, 0 for dt.
    zeta^(0)_j is the integral of phi_j over the interval of length L, which is
    sqrt(L) at j = 0 and zero above for both bases. By Isserlis' rule the
    Gaussian part is a sum over every pairing of all Gaussian axes of the
    product of E[zeta^(i)_j zeta^(i')_j'] = [i == i'][j == j']; each pairing
    is summed over the whole outer-product index grid under equality masks.
    """
    full = np.asarray(arrays[0], dtype=float)
    for a in arrays[1:]:
        full = np.multiply.outer(full, a)
    comps = [c for cs in components for c in cs]
    grids = np.indices(full.shape, sparse=True)
    for axis, c in enumerate(comps):
        if c == 0:
            full = full * np.where(grids[axis] == 0, math.sqrt(L), 0.0)
    total = 0.0
    for pairing in _pairings([axis for axis, c in enumerate(comps) if c != 0]):
        if any(comps[a] != comps[b] for a, b in pairing):
            continue  # independent zero-mean factors
        mask = np.ones(full.shape, dtype=bool)
        for a, b in pairing:
            mask &= grids[a] == grids[b]
        total += float(np.sum(full, where=mask))
    return total
