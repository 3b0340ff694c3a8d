"""mu_table against an exact reference in rational arithmetic.

The float inputs (the activation's and the link's coefficients, eta and the
noise scale) convert to Fractions exactly. psi's terms y^k q_k(z) and the
noise-folded label powers E[(link + zeta)^k] are built from them in exact
polynomial arithmetic, straight from the activation (not from the float
oracle polynomials), and every Gaussian moment is an integer from
_moment_zj_hek and gaussian_moment. So the reference is the exact value of
the table that the float inputs define.

A float entry may differ from it by rounding only: at most 1e-13 of M_i,
the sum of the absolute values of the terms that make up mu_i. A scale such
as max |mu| would not do: for online He3 + 0.3 He4 with the quadratic link
every entry of the float table reads 0.0, while the exact mu_2 is 5.8e-16,
what is left of terms of order 10 that cancel.

The two exact moment routes, mu_integrand_moments and
alignment_gain_moments, are held to the same kind of bound against the same
exact psi and labels: each mean within 1e-13 of its M, each variance within
1e-13 of M2 + M^2, M2 the M of the second moment. Each M sums the absolute
values of the terms that the float route adds. mu_integrand_moments
multiplies He_i's monomial coefficients out before it takes a Gaussian mean,
so its M takes those coefficients' absolute values too, where mu_table's
reads E[z^j He_i] whole. The gain's moments E[A(s) B(z)] at correlation
kappa come from Mehler's formula, sum_i kappa^i E[A He_i] E[B He_i] / i!,
which is rational in kappa.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from silab.hermite import (
    MAX_DEGREE, DegreeOverflowError, MonomialPoly, _moment_zj_hek, _pairings, gaussian_moment,
    hermite_poly,
)
from silab.model import NoiseSpec
from silab.oracles import OracleSpec, alignment_gain_moments, mu_integrand_moments, mu_table

# An exact polynomial is a list of Fractions, entry j multiplying z**j.


def _add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for p in (a, b):
        for j, v in enumerate(p):
            out[j] += v
    return out


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _scale(c, a):
    return [c * v for v in a]


def _derivative(a):
    return [j * a[j] for j in range(1, len(a))] or [Fraction(0)]


def _power(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _mul(out, a)
    return out


def _compose(a, inner):
    out = [a[-1]]
    for c in reversed(a[:-1]):
        out = _add(_mul(out, inner), [c])
    return out


def _degree(a):
    return max((j for j, v in enumerate(a) if v), default=0)


def _exact_psi(kind, act, eta, d, depth):
    """psi's y-power terms {k: q_k}, from the activation's coefficients."""
    sigma = [Fraction(c) for c in act.coeffs]
    eta = Fraction(eta)
    sp = _derivative(sigma)
    if kind == "online":
        return {1: sp}
    if kind == "alternating":
        return {1: sp, 2: _scale(eta, _mul(sigma, sp))}
    if kind == "batch_reuse":
        terms = {1: sp}
        high = sp
        for k in range(2, _degree(sigma) + 1):
            high = _derivative(high)
            rate = (eta * d) ** (k - 1) / math.factorial(k - 1)
            terms[k] = _scale(rate, _mul(high, _power(sp, k - 1)))
        return terms
    # deep_alternating: psi = y prod_i (1 + eta y tail_i F_i) sigma'(F_{i-1}),
    # F_0 = z, F_i = sigma(F_{i-1}), tail_i = prod_{j > i} sigma'(F_{j-1})
    f = [[Fraction(0), Fraction(1)]]
    for _ in range(1, depth):
        f.append(_compose(sigma, f[-1]))
    sp_at = [_compose(sp, f[i - 1]) for i in range(1, depth)]
    terms = {1: [Fraction(1)]}
    for i in range(1, depth):
        tail = [Fraction(1)]
        for j in range(i + 1, depth):
            tail = _mul(tail, sp_at[j - 1])
        factor = {0: sp_at[i - 1], 1: _scale(eta, _mul(_mul(tail, f[i]), sp_at[i - 1]))}
        product = {}
        for ka, qa in terms.items():
            for kb, qb in factor.items():
                product[ka + kb] = _add(product.get(ka + kb, [Fraction(0)]), _mul(qa, qb))
        terms = product
    return terms


def _noise_moment(noise, j):
    """E[zeta^j], exact in the noise scale."""
    if j == 0:
        return Fraction(1)
    if noise.is_none or j % 2:
        return Fraction(0)
    scale = Fraction(noise.tau) ** j
    return scale * (gaussian_moment(j) if noise.family == "gaussian" else math.factorial(j))


def _exact_label(link, noise, k):
    """E_zeta[(link(s) + zeta)^k], exact."""
    link = [Fraction(c) for c in link.coeffs]
    out = [Fraction(0)]
    for l in range(k + 1):
        out = _add(out, _scale(math.comb(k, l) * _noise_moment(noise, k - l), _power(link, l)))
    return out


def _hermite_coefficient(p, i):
    """E[p(z) He_i(z)]. The moments E[z^j He_i] are never negative, so on
    |p_j| this is the scale sum_j |p_j| |E[z^j He_i]|."""
    return sum(c * _moment_zj_hek(j, i) for j, c in enumerate(p))


def _exact_table(kind, act, eta, d, depth, link, noise):
    """The exact mu_i and their scales M_i, for i = 1 .. max_k deg q_k + 1."""
    psi = {k: q for k, q in _exact_psi(kind, act, eta, d, depth).items() if any(q)}
    r = max(_degree(q) for q in psi.values()) + 1
    labels = {k: _exact_label(link, noise, k) for k in psi}
    mus, scales = [], []
    for i in range(1, r + 1):
        mus.append(sum(_hermite_coefficient(labels[k], i) * _hermite_coefficient(q, i - 1)
                       for k, q in psi.items()))
        scales.append(sum(_hermite_coefficient(list(map(abs, labels[k])), i)
                          * _hermite_coefficient(list(map(abs, q)), i - 1)
                          for k, q in psi.items()))
    return mus, scales


HE3 = hermite_poly(3)
ACTIVATIONS = {
    "He3": HE3,
    "He3+0.3He4": HE3 + hermite_poly(4).scale(0.3),
    "He5": hermite_poly(5),
    "cubic": MonomialPoly((0.0, 0.7, -1.1, 0.4)),
    "z2": MonomialPoly.monomial(2),
}
LINKS = {
    "He3": HE3,
    "He3+0.7He2": HE3 + hermite_poly(2).scale(0.7),
    "quadratic": MonomialPoly((0.2, -0.5, 1.3)),
}
NOISES = [NoiseSpec(), NoiseSpec("gaussian", 0.5), NoiseSpec("laplace", 0.3)]
KINDS = ("online", "batch_reuse", "alternating", "deep_alternating")


def _cases():
    """Every kind x activation x link x noise x d, with a seeded eta in
    [1e-4, 10^0.5]; deep_alternating takes the activations of degree <= 3,
    at a seeded depth of 2 or 3."""
    rng = np.random.default_rng(20241020)
    cases = []
    for kind in KINDS:
        for act_name, act in ACTIVATIONS.items():
            if kind == "deep_alternating" and act.degree > 3:
                continue
            for link_name, link in LINKS.items():
                for noise in NOISES:
                    for d in (25, 50, 400):
                        eta = float(10 ** rng.uniform(-4.0, 0.5))
                        depth = int(rng.integers(2, 4)) if kind == "deep_alternating" else 2
                        case_id = f"{kind}-{act_name}-{link_name}-{noise.family}-d{d}"
                        cases.append(pytest.param(kind, act, eta, d, depth, link, noise,
                                                  id=case_id))
    return cases


@pytest.mark.parametrize("kind, act, eta, d, depth, link, noise", _cases())
def test_mu_table_matches_exact_arithmetic(kind, act, eta, d, depth, link, noise):
    spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)
    got = mu_table(spec, link, noise, d).mus
    exact, scales = _exact_table(kind, act, eta, d, depth, link, noise)
    assert len(got) == len(exact)
    for i, (m, e, scale) in enumerate(zip(got, exact, scales), start=1):
        assert abs(Fraction(m) - e) <= Fraction(1, 10**13) * scale, f"mu_{i}"
        if e == 0:
            assert m == 0.0, f"mu_{i} is exactly 0"
        elif m != 0.0:
            assert (m > 0) == (e > 0), f"mu_{i} has the wrong sign"


def _within(got, exact, scale, what):
    assert abs(Fraction(got) - exact) <= Fraction(1, 10**13) * scale, what


# The moment references hold a polynomial as (integer coefficients, common
# denominator), which sums far faster than Fractions do.


def _ints(p):
    den = math.lcm(*(Fraction(c).denominator for c in p))
    return tuple(int(c * den) for c in p), den


def _iabs(a):
    return tuple(abs(c) for c in a[0]), a[1]


def _iconv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _imul(a, b):
    return _iconv(a[0], b[0]), a[1] * b[1]


def _iadd(a, b):
    den = math.lcm(a[1], b[1])
    out = [0] * max(len(a[0]), len(b[0]))
    for p, scale in ((a[0], den // a[1]), (b[0], den // b[1])):
        for j, c in enumerate(p):
            out[j] += c * scale
    return tuple(out), den


def _weigh(a, weight):
    """sum_j a_j weight(j)."""
    return Fraction(sum(c * weight(j) for j, c in enumerate(a[0]) if c), a[1])


@lru_cache(maxsize=None)
def _hermite(i):
    """He_i's monomial coefficients, exact integers."""
    c = [0] * (i + 1)
    for m in range(i // 2 + 1):
        c[i - 2 * m] = (-1) ** m * _pairings(i, m)
    return c


@lru_cache(maxsize=None)
def _route_weight(j, i, times, absolute):
    """E[z^j h(z)^times] for h = He_i, or for |He_i|, its coefficients'
    absolute values: the float route multiplies He_i's monomial coefficients
    out before it takes the Gaussian mean, so with absolute=True this sums
    the absolute values of the terms that it adds."""
    h = [abs(c) for c in _hermite(i)] if absolute else _hermite(i)
    p = (0,) * j + (1,)
    for _ in range(times):
        p = _iconv(p, h)
    return sum(c * gaussian_moment(m) for m, c in enumerate(p))


def _route_moment(a, a_abs, i, times):
    """E[a(z) He_i(z)^times] and its scale, as the float route sums them;
    a_abs bounds a's coefficients in absolute value."""
    return (_weigh(a, lambda j: _route_weight(j, i, times, False)),
            _weigh(a_abs, lambda j: _route_weight(j, i, times, True)))


@lru_cache(maxsize=None)
def _label(link, noise, n):
    return _ints(_exact_label(link, noise, n))


def _psi_and_labels(kind, act, eta, d, depth, link, noise):
    """psi's nonzero terms {k: q_k}, the labels E[(link + zeta)^n] for n up to
    twice the largest k, and the pair sums {n: (Q_n, scale)}, Q_n = sum over
    k + l = n of q_k q_l and its scale the same sum of |q_k| |q_l|."""
    psi = {k: _ints(q) for k, q in _exact_psi(kind, act, eta, d, depth).items() if any(q)}
    labels = {n: _label(link, noise, n) for n in range(1, 2 * max(psi) + 1)}
    pairs = {}
    for k, qk in psi.items():
        for l, ql in psi.items():
            q, q_abs = pairs.get(k + l, (((0,), 1), ((0,), 1)))
            pairs[k + l] = (_iadd(q, _imul(qk, ql)), _iadd(q_abs, _imul(_iabs(qk), _iabs(ql))))
    return psi, labels, pairs


@pytest.mark.parametrize("kind, act, eta, d, depth, link, noise", _cases())
def test_mu_integrand_moments_match_exact_arithmetic(kind, act, eta, d, depth, link, noise):
    spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)
    psi, labels, pairs = _psi_and_labels(kind, act, eta, d, depth, link, noise)
    r = max(_degree(q[0]) for q in psi.values()) + 1
    try:
        means, variances = mu_integrand_moments(spec, link, noise, d)
    except DegreeOverflowError:
        # the largest products, at index r: q_k q_l He_(r-1)^2 and label He_r^2
        top = max(max(_degree(q[0]) for q, _ in pairs.values()) + 2 * (r - 1),
                  _degree(labels[2 * max(psi)][0]) + 2 * r)
        assert top > MAX_DEGREE
        return
    assert len(means) == len(variances) == r
    for i, (got_mean, got_var) in enumerate(zip(means, variances), start=1):
        mean = scale = second = scale2 = 0
        for k, qk in psi.items():
            (lv, ls), (qv, qs) = (_route_moment(labels[k], _iabs(labels[k]), i, 1),
                                  _route_moment(qk, _iabs(qk), i - 1, 1))
            mean, scale = mean + lv * qv, scale + ls * qs
        for n, (q, q_abs) in pairs.items():
            (lv, ls), (qv, qs) = (_route_moment(labels[n], _iabs(labels[n]), i, 2),
                                  _route_moment(q, q_abs, i - 1, 2))
            second, scale2 = second + lv * qv, scale2 + ls * qs
        _within(got_mean, mean, scale, f"mean_{i}")
        _within(got_var, second - mean * mean, scale2 + scale * scale, f"variance_{i}")


@lru_cache(maxsize=None)
def _zj_hek(j, i):
    return _moment_zj_hek(j, i)


@lru_cache(maxsize=None)
def _hermite_coefficients(a, shift):
    """E[z^shift a(z) He_i(z)] for i = 0 .. deg a + shift; E[z^m He_i] is 0
    unless m >= i and m - i is even."""
    coeffs, n = a[0], len(a[0])
    return tuple(sum(coeffs[j] * _zj_hek(j + shift, i)
                     for j in range(max(i - shift, (i - shift) % 2), n, 2))
                 for i in range(n + shift)), a[1]


def _mehler(parts, kappa):
    """sum of c kappa^e E[A(s) B(z)] over the parts (c, e, a, b), for standard
    normal s, z with correlation kappa, from the Hermite coefficients a_i =
    E[A He_i] and b_i = E[B He_i] (Mehler: E[A(s) B(z)] = sum_i kappa^i a_i
    b_i / i!), in integers over one denominator. The parts share the
    denominators of a and of b."""
    num, den = kappa.numerator, kappa.denominator
    top = max(len(a[0]) for _, _, a, _ in parts) + 2
    total = sum(c * num ** (i + e) * den ** (top - i - e)
                * (math.factorial(top) // math.factorial(i)) * x * y
                for c, e, a, b in parts for i, (x, y) in enumerate(zip(a[0], b[0])))
    return Fraction(total, den**top * math.factorial(top) * parts[0][2][1] * parts[0][3][1])


@pytest.mark.parametrize("kind, act, eta, d, depth, link, noise", _cases())
def test_alignment_gain_moments_match_exact_arithmetic(kind, act, eta, d, depth, link, noise):
    spec = OracleSpec(kind=kind, activation=act, eta=eta, depth=depth)
    psi, labels, pairs = _psi_and_labels(kind, act, eta, d, depth, link, noise)
    # <theta_star, g> = psi(y, z) (s - kappa z). The mean reads labels[k](s)
    # s^a q_k(z) z^b with weight c kappa^e at (c, e, a, b) = (1, 0, 1, 0),
    # (-1, 1, 0, 1); the second moment reads labels[n](s) s^a Q_n(z) z^b at
    # (1, 0, 2, 0), (-2, 1, 1, 1), (1, 2, 0, 2). The scales take the absolute
    # values of c and of every coefficient (E[s^m z^n] >= 0 at kappa >= 0).
    moments = []
    for terms, weights in (
        ([(labels[k], q, _iabs(q)) for k, q in psi.items()], ((1, 0, 1, 0), (-1, 1, 0, 1))),
        ([(labels[n], q, q_abs) for n, (q, q_abs) in pairs.items()],
         ((1, 0, 2, 0), (-2, 1, 1, 1), (1, 2, 0, 2))),
    ):
        value_parts, scale_parts = [], []
        for label, q, q_abs in terms:
            value_parts.append([(c, e, _hermite_coefficients(label, a), _hermite_coefficients(q, b))
                                for c, e, a, b in weights])
            scale_parts.append([(abs(c), e, _hermite_coefficients(_iabs(label), a),
                                 _hermite_coefficients(q_abs, b)) for c, e, a, b in weights])
        moments.append((value_parts, scale_parts))
    for kappa in (0.05, 0.2, 0.5):
        got_mean, got_var = alignment_gain_moments(spec, link, noise, d, kappa)
        kappa = Fraction(kappa)
        (mean, scale), (moment2, scale2) = [
            (sum(_mehler(parts, kappa) for parts in values),
             sum(_mehler(parts, kappa) for parts in scales))
            for values, scales in moments
        ]
        _within(got_mean, mean, scale, f"mean at kappa={float(kappa)}")
        _within(got_var, moment2 - mean * mean, scale2 + scale * scale,
                f"variance at kappa={float(kappa)}")
