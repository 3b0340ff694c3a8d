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
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from silab.hermite import MonomialPoly, _moment_zj_hek, gaussian_moment, hermite_poly
from silab.model import NoiseSpec
from silab.oracles import OracleSpec, mu_table

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
