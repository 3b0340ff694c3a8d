"""Update oracles for spherical single-index training, and their mu tables.

Every variant fits the generic step

    w <- normalize(w + gamma * psi(y, <x, w>) * P_w x),    P_w = I - w w^T,

where psi is a bivariate polynomial in the label y and the preactivation z.
Four oracles are provided, both as literal multi-step procedures (what the
algorithms execute: apply_step, with each oracle's per-sample coefficient
built once per spec by _step_coefficient) and as effective single-step
polynomials (what the analysis uses, see effective_psi):

  online            psi(y, z) = y sigma'(z)
  batch_reuse       psi(y, z) = y sigma'(z)
                      + sum_{k>=2} ((eta d)^{k-1}/(k-1)!) sigma^{(k)}(z)
                                   (sigma'(z))^{k-1} y^k
                    (Taylor surrogate of the literal two-step update, with
                    the projected squared norm of x replaced by d)
  alternating       psi(y, z) = y sigma'(z) + eta y^2 sigma(z) sigma'(z)
  deep_alternating  product oracle of the sparse D-layer recurrence
                    F_0 = z, F_i = sigma(F_{i-1}) with unit layer scalars

The mixed coefficients are stored unnormalized, matching the Hermite
convention u_k(g) = E[g He_k]:

    mu_i = E_{(a,b) ~ N(0,I_2)} E_zeta[ psi(link(a) + zeta, b) He_i(a) He_{i-1}(b) ].

With this convention the exact one-step drift of the alignment
kappa = <theta_star, w> is

    E[<theta_star, g>] = sum_i mu_i kappa^{i-1} (1 - kappa^2) / (i-1)!

(equivalently sum_i i! mu^_i kappa^{i-1} (1-kappa^2) in terms of the
normalized coefficients mu^_i = mu_i / (i! (i-1)!)); see
expected_alignment_gain. Analytic tables are exact (integer moment
arithmetic); mu_monte_carlo provides the independent sampling route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Literal, NamedTuple, get_args

import numpy as np

from .hermite import (
    MAX_DEGREE,
    MonomialPoly,
    _expand,
    _gaussian_mean,
    _hermite_block,
    _hermite_coeffs,
    _horner,
    _is_zero,
    _moment_rows,
    _padd,
    _pmul,
    _pscale,
    gaussian_moment,
)
from .model import NoiseSpec, TeacherSpec, is_integer, unit_vector

OracleKind = Literal["online", "batch_reuse", "alternating", "deep_alternating"]

ORACLE_KINDS = get_args(OracleKind)


@dataclass(frozen=True)
class OracleSpec:
    """Which update rule is in force, plus its hyperparameters.

    eta scales the non-correlational part of the update (unused by the
    online oracle); gamma is the global step size; depth only applies to
    deep_alternating. A spec is a frozen value, so the step coefficient it
    caches on first access always matches its fields; derive others with
    dataclasses.replace.
    """

    kind: OracleKind
    activation: MonomialPoly
    gamma: float = 0.0
    eta: float = 0.0
    depth: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if not (math.isfinite(self.eta) and math.isfinite(self.gamma)):
            raise ValueError(
                f"eta and gamma must be finite, got eta={self.eta}, gamma={self.gamma}"
            )
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.kind == "deep_alternating" and self.depth < 2:
            raise ValueError("deep_alternating needs depth >= 2")

    @cached_property
    def _coefficient(self) -> Callable:
        return _step_coefficient(self)

    def __getstate__(self) -> dict:
        # pickle cannot send the coefficient closure; it is rebuilt on first use
        state = dict(self.__dict__)
        state.pop("_coefficient", None)
        return state


@dataclass(frozen=True)
class Psi:
    """Effective single-step oracle as a bivariate polynomial sum_k y^k q_k(z)."""

    terms: tuple[tuple[int, MonomialPoly], ...]

    @property
    def z_degree(self) -> int:
        return max((q.degree for _, q in self.terms), default=0)

    def term(self, k: int) -> MonomialPoly:
        for kk, q in self.terms:
            if kk == k:
                return q
        return MonomialPoly.zero()

    def __call__(self, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        acc = np.zeros(np.broadcast_shapes(y.shape, z.shape))
        for k, q in self.terms:
            acc = acc + y**k * q(z)
        return acc


def _bivariate_product(a: dict[int, tuple], b: dict[int, tuple]) -> dict[int, tuple]:
    """Product of two bivariate polynomials sum_k y^k q_k(z), q_k as tuples."""
    out: dict[int, tuple] = {}
    for ka, qa in a.items():
        for kb, qb in b.items():
            prod = _pmul(qa, qb)
            key = ka + kb
            out[key] = _padd(out[key], prod) if key in out else prod
    return out


@lru_cache(maxsize=None)
def _psi_polys(activation: MonomialPoly, kind: str, depth: int) -> tuple[tuple[float, ...], ...]:
    """The eta-free polynomials of effective_psi, before any scale, as tuples.

    online: (sigma',); alternating: (sigma', sigma sigma'); batch_reuse:
    (sigma', sigma^(k) sigma'^(k-1) for k = 2..deg sigma); deep_alternating:
    for each layer i = 1..depth-1, sigma'(F_{i-1}) followed by
    tail_i F_i sigma'(F_{i-1}), with tail_i the product of sigma'(F_{j-1})
    over j > i.
    """
    sp = activation.derivative()
    if kind == "online":
        polys = (sp,)
    elif kind == "alternating":
        polys = (sp, activation * sp)
    elif kind == "batch_reuse":
        polys = (sp,) + tuple(
            activation.derivative(k) * sp.power(k - 1) for k in range(2, activation.degree + 1)
        )
    else:  # deep_alternating, unit layer scalars
        f_levels = [MonomialPoly.monomial(1)]
        for _ in range(1, depth):
            f_levels.append(activation.compose(f_levels[-1]))
        sp_levels = [sp.compose(f_levels[i - 1]) for i in range(1, depth)]
        out: list[MonomialPoly] = []
        for i in range(1, depth):
            tail = MonomialPoly.const(1.0)
            for j in range(i + 1, depth):
                tail = tail * sp_levels[j - 1]
            out += [sp_levels[i - 1], tail * f_levels[i] * sp_levels[i - 1]]
        polys = tuple(out)
    return tuple(q.coeffs for q in polys)


def _rate_d_exponent(kind: str) -> float:
    """The d-exponent of the rate s = eta d^e at which the oracle's y^k term
    scales: 1 for batch_reuse, whose surrogate replaces the squared projected
    norm of x by d, and 0 for every other kind."""
    return 1.0 if kind == "batch_reuse" else 0.0


def _rate_power(kind: str, eta: float, d: int, k: int) -> float:
    """s^(k-1) for the rate s = eta d^_rate_d_exponent(kind) at which the
    oracle's y^k term scales, as s^(k-1)/(k-1)!. Raises ValueError naming eta
    where the power overflows."""
    s = eta * d ** _rate_d_exponent(kind)
    try:
        return s ** (k - 1)
    except OverflowError:
        raise ValueError(f"the oracle's y^{k} scale overflows at eta={eta}") from None


def _psi_terms(parts: tuple, kind: str, eta: float, d: int) -> list:
    """effective_psi's terms as (k, coefficient tuple), from _psi_polys parts.

    The y^k term is parts[k - 1] scaled by s^(k-1)/(k-1)!, s^(k-1) from
    _rate_power (for alternating, eta^1/1! is eta exactly); deep_alternating takes the
    bivariate product over the layers instead. These are the float
    operations, in the order, that building psi from fresh polynomials
    applies. An eta whose s^(k-1) overflows raises ValueError, as does a d
    that is not an integer >= 1 (a bool or a float is not; see
    model.is_integer).
    """
    if not (is_integer(d) and d >= 1):
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    if kind == "deep_alternating":  # one factor a~_i sigma'(F_{i-1}) per layer
        acc = {0: (1.0,)}
        for sp_level, eta_part in zip(parts[::2], parts[1::2]):
            acc = _bivariate_product(acc, {0: sp_level, 1: _pscale(eta, eta_part)})
        raw = {k + 1: q for k, q in acc.items()}  # leading y of the w-step
    else:
        raw = {1: parts[0]}
        for k in range(2, len(parts) + 1):
            raw[k] = _pscale(_rate_power(kind, eta, d, k) / math.factorial(k - 1), parts[k - 1])
    terms = [(k, raw[k]) for k in sorted(raw) if not _is_zero(raw[k])]
    return terms or [(1, (0.0,))]


@lru_cache(maxsize=256, typed=True)
def _psi_terms_and_pairs(
    activation: MonomialPoly, kind: str, depth: int, eta: float, d: int
) -> tuple[tuple, tuple]:
    """psi's terms (k, q_k) and their pair products (k + l, q_k q_l).

    The pairs run over k, then l, both in the terms' order. Both exact
    moment routes read them, so a (spec, d) forms its products once for
    every index and every kappa. A bounded cache (a theory_atlas pass asks
    for 24 keys), typed so that an int eta or d, which can round differently
    in (eta d)^(k-1), gets its own entry.
    """
    terms = tuple(_psi_terms(_psi_polys(activation, kind, depth), kind, eta, d))
    pairs = tuple((k + l, _pmul(qk, ql)) for k, qk in terms for l, ql in terms)
    return terms, pairs


def effective_psi(spec: OracleSpec, d: int) -> Psi:
    """The single-step polynomial oracle used by the theory layer.

    For batch_reuse this is the Taylor surrogate in which the squared
    projected norm of x is replaced by its order, d. Terms with zero
    coefficient polynomials are dropped.

    The eta-free polynomials (sigma', sigma sigma', sigma^(k) sigma'^(k-1),
    and the deep recurrence's sigma'(F_{i-1}) and tail_i F_i sigma'(F_{i-1}))
    are memoized per (activation, kind, depth) in _psi_polys; each call only
    scales them by s^(k-1)/(k-1)! (_rate_power), or, for deep_alternating,
    forms the bivariate product over the layers (_psi_terms). Those are the
    operations, in the order, that a fresh construction applies to the same
    products, so the result is bit for bit the same. (Keys compare by value:
    two activations that differ only in the sign of a zero coefficient share
    an entry, and so may differ in the signs of zero coefficients of psi,
    never in a mu table, whose expansions skip zero coefficients.)
    """
    parts = _psi_polys(spec.activation, spec.kind, spec.depth)
    terms = _psi_terms(parts, spec.kind, spec.eta, d)
    return Psi(tuple((k, MonomialPoly._of(q)) for k, q in terms))


@dataclass(frozen=True)
class MuTable:
    """Mixed coefficients mu_1..mu_r of an oracle against a teacher.

    components breaks mu down by the y-power k of the oracle term that
    produced it (mus[i] is the sum over k of components[k][i]).
    """

    mus: tuple[float, ...]
    d: int
    components: tuple[tuple[int, tuple[float, ...]], ...]

    @property
    def r(self) -> int:
        return len(self.mus)

    @property
    def istar(self) -> tuple[int, ...]:
        """The indices attaining the minimum in the sign condition
        argmin_{mu_i != 0} |mu_i|^{-1} d^{((i-2)/2) v 0} at the table's d."""
        return _istar_set(self.mus, self.d)

    def mu(self, i: int) -> float:
        """mu_i for i >= 1, with indices past the table length identically zero."""
        if i < 1:
            raise ValueError("mu index must be at least 1")
        return self.mus[i - 1] if i <= len(self.mus) else 0.0


def _d_exp_iterations(i: int) -> float:
    """Dimension exponent of the T contribution at index i: (i-2)/2 joined at 0."""
    return max((i - 2) / 2.0, 0.0)


def _istar_set(mus, d: int) -> tuple[int, ...]:
    scores = {}
    for i, m in enumerate(mus, start=1):
        if m != 0.0:
            scores[i] = d ** _d_exp_iterations(i) / abs(m)
    if not scores:
        return ()
    best = min(scores.values())
    return tuple(i for i, s in sorted(scores.items()) if s <= best * (1 + 1e-12))


class _MuPlan(NamedTuple):
    """What a mu table needs that does not depend on eta or d.

    parts: _psi_polys of the family; rows: the moment rows _expand reads,
    covering every q_k the family's psi can have; labels[k]: the Hermite
    expansion of E_zeta[(link(s) + zeta)^k], padded with zeros to one past
    the longest table the family gives.
    """

    parts: tuple
    rows: tuple
    labels: tuple


@lru_cache(maxsize=None)
def _mu_plan(
    activation: MonomialPoly, kind: str, depth: int, link: MonomialPoly, noise: NoiseSpec
) -> _MuPlan:
    parts = _psi_polys(activation, kind, depth)
    if kind == "deep_alternating":
        # a y-power's q_k is a sum of products of one factor per layer
        n_powers = len(parts) // 2 + 1
        deg = sum(max(len(sp), len(eta_part)) - 1 for sp, eta_part in zip(parts[::2], parts[1::2]))
    else:
        n_powers = len(parts)
        deg = max(len(q) for q in parts) - 1
    deg = min(deg, MAX_DEGREE)  # a longer product raises before it is expanded
    labels = [()]
    for k in range(1, n_powers + 1):
        u_y = _expand(_noise_folded_power(link, noise, k).coeffs)
        labels.append(u_y + (0.0,) * (deg + 2 - len(u_y)))
    return _MuPlan(parts, _moment_rows(deg), tuple(labels))


def mu_table(spec: OracleSpec, link: MonomialPoly, noise: NoiseSpec, d: int) -> MuTable:
    """Exact mu_i by separating psi into y^k q_k(z) terms.

    The label marginal folds the noise in exactly: E_zeta[(link(s)+zeta)^k]
    is expanded binomially with the noise family's exact central moments, so
    each term contributes u_i(E_zeta[(link+zeta)^k]) * u_{i-1}(q_k).

    Only q_k depends on eta. Everything else is memoized in a plan per
    (activation, kind, depth, link, noise) (_mu_plan): the unscaled oracle
    polynomials, the moment rows of the change of basis and the label side's
    Hermite expansions. The keys are frozen values, and per call the table
    runs the float operations a construction from fresh polynomials runs, in
    the same order, on coefficient tuples (see effective_psi), so a table is
    bit for bit what it would be without the plan. An index past an
    expansion's length reads 0.0 and still enters the product, which keeps
    the sign of a zero component. An eta at which any mu_i is not finite
    raises ValueError naming it.
    """
    plan = _mu_plan(spec.activation, spec.kind, spec.depth, link, noise)
    terms = _psi_terms(plan.parts, spec.kind, spec.eta, d)
    r = max(len(q) for _, q in terms)
    components = []
    mus = [0.0] * r
    for k, q in terms:
        u_q = _expand(q, plan.rows) + (0.0,) * (r - len(q))
        u_y = plan.labels[k]
        contrib = tuple([u_y[i] * u_q[i - 1] for i in range(1, r + 1)])
        components.append((k, contrib))
        mus = [m + v for m, v in zip(mus, contrib)]
    if not all(map(math.isfinite, mus)):
        raise ValueError(f"the mu table is not finite at eta={spec.eta}")
    return MuTable(mus=tuple(mus), d=d, components=tuple(components))


def mu_of_eta(spec: OracleSpec, teacher: TeacherSpec) -> Callable[[float], MuTable]:
    """The map eta -> mu table of spec (at that eta) against the teacher."""
    return lambda eta: mu_table(replace(spec, eta=eta), teacher.link, teacher.noise, teacher.d)


@dataclass(frozen=True)
class SignCheck:
    passed: bool
    istar: tuple[int, ...]


def check_sign_assumption(mu: MuTable) -> SignCheck:
    """Sign condition on the dominant indices.

    Among indices with mu_i != 0, the minimizers of |mu_i|^{-1} d^{((i-2)/2) v 0}
    must all have mu_i > 0. Raises on an all-zero table (degenerate oracle)
    and on one with an entry that is not finite.
    """
    if not all(map(math.isfinite, mu.mus)):
        raise ValueError(f"the mu table is not finite: {mu.mus}")
    if all(m == 0.0 for m in mu.mus):
        raise ValueError("degenerate oracle: every mu_i vanishes")
    istar = mu.istar
    return SignCheck(passed=all(mu.mu(i) > 0 for i in istar), istar=istar)


def _check_kappa(kappa: float) -> None:
    """An alignment is a correlation: finite, with |kappa| <= 1."""
    if not (math.isfinite(kappa) and abs(kappa) <= 1.0):
        raise ValueError(f"kappa must be finite with |kappa| <= 1, got {kappa}")


def expected_alignment_gain(mu: MuTable, kappa: float) -> float:
    """Exact one-step drift E[<theta_star, g>] at alignment kappa.

    Equals sum_i mu_i kappa^{i-1} (1 - kappa^2) / (i-1)! for the unnormalized
    mu convention used here (Stein's lemma applied to the bivariate Hermite
    expansion of the oracle). Raises ValueError unless kappa is finite with
    |kappa| <= 1.
    """
    _check_kappa(kappa)
    total = 0.0
    for i, m in enumerate(mu.mus, start=1):
        if m != 0.0:
            total += m * kappa ** (i - 1) / math.factorial(i - 1)
    return total * (1.0 - kappa**2)


@lru_cache(maxsize=None)
def _noise_folded_power(link: MonomialPoly, noise: NoiseSpec, k: int) -> MonomialPoly:
    """E_zeta[(link(s) + zeta)^k] as an exact polynomial in s, memoized."""
    out = MonomialPoly.zero()
    for l in range(k + 1):
        m = noise.moment(k - l)
        if m != 0.0:
            out = out + link.power(l).scale(math.comb(k, l) * m)
    return out


@lru_cache(maxsize=None)
def _label_moment(link: MonomialPoly, noise: NoiseSpec, k: int, i: int, times: int) -> float:
    """E_s[E_zeta[(link(s) + zeta)^k] He_i(s)^times] (times 1 or 2), memoized."""
    p = _noise_folded_power(link, noise, k).coeffs
    hei = _hermite_coeffs(i)
    for _ in range(times):
        p = _pmul(p, hei)
    return _gaussian_mean(p)


def mu_integrand_moments(spec: OracleSpec, link: MonomialPoly, noise: NoiseSpec, d: int):
    """Exact mean and variance of the mu-defining integrand, per index.

    The integrand for index i is psi(link(s)+zeta, b) He_i(s) He_{i-1}(b)
    with independent standard normal s, b. Its variance fixes the exact
    standard error of any Monte Carlo estimate of mu_i, which for the
    heavy-tailed high-index integrands is far more reliable than a sample
    standard error. The label side depends on (link, noise, k, i) only and
    is memoized (_label_moment). Each expectation is E[p(z)] =
    _expand(p)[0], read through _gaussian_mean, which sums only that entry,
    in the same order. psi's terms and their pair products q_k q_l come
    from _psi_terms_and_pairs, formed once per (spec, d) for every index and
    shared with alignment_gain_moments.

    The exact means are mu_table's mus. The means here come from their own
    route, which multiplies He_{i-1}'s monomial coefficients out and
    cancels: an entry whose exact value is 0, and which mu_table reads as
    0.0, can read nonzero here, and the other entries can differ from
    mu_table's in their last bits.
    """
    terms, pairs = _psi_terms_and_pairs(spec.activation, spec.kind, spec.depth, spec.eta, d)
    r = max(len(q) for _, q in terms)
    means = []
    variances = []
    for i in range(1, r + 1):
        heim1 = _hermite_coeffs(i - 1)
        mean = 0.0
        second = 0.0
        for k, qk in terms:
            mean += _label_moment(link, noise, k, i, 1) * _gaussian_mean(_pmul(qk, heim1))
        for kl, qkl in pairs:
            e_s = _label_moment(link, noise, kl, i, 2)
            second += e_s * _gaussian_mean(_pmul(_pmul(qkl, heim1), heim1))
        means.append(mean)
        variances.append(max(second - mean * mean, 0.0))
    return np.array(means), np.array(variances)


@lru_cache(maxsize=4096)
def _corr_moment(m: int, n: int, rho: float) -> float:
    """E[s^m z^n] for jointly standard normal (s, z) with correlation rho.

    A pure function of (m, n, rho), memoized across calls in a bounded cache
    (a theory_atlas pass reads 384 distinct moments, at three rho).
    """
    total = 0.0
    for j in range(m + 1):
        em = gaussian_moment(m - j)
        en = gaussian_moment(j + n)
        if em and en:
            total += (
                math.comb(m, j)
                * rho**j
                * (1.0 - rho * rho) ** ((m - j) / 2.0)
                * em
                * en
            )
    return total


def _coefficient_sum(total: float, a: tuple, b: tuple, bracket: Callable) -> float:
    """total + sum of a_alpha b_beta bracket(alpha, beta) over nonzero a_alpha, b_beta.

    Each term is added to the running total in turn (alpha outer, beta
    inner), so a caller that passes its running sum gets the bits of one
    flat loop.
    """
    for alpha, ca in enumerate(a):
        if ca == 0.0:
            continue
        for beta, cb in enumerate(b):
            if cb == 0.0:
                continue
            total += ca * cb * bracket(alpha, beta)
    return total


def alignment_gain_moments(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    kappa: float,
):
    """Exact mean and variance of <theta_star, g> for a weight at alignment kappa.

    The mean reproduces expected_alignment_gain by an independent route
    (direct correlated-Gaussian moments instead of the Stein expansion); the
    variance, E[A(s) B(z) (s - kappa z)^2] summed over the pairs of psi's
    terms, fixes the exact standard error of the sampling estimate. The
    kappa-free terms and pair products are read from _psi_terms_and_pairs,
    so the kappas of one (spec, d) form them once. Each moment E[s^m z^n] at
    correlation kappa is computed once and then read from _corr_moment's
    cache, in this call and later ones. Raises ValueError, before any moment
    is read, unless kappa is finite with |kappa| <= 1.
    """
    _check_kappa(kappa)
    terms, pairs = _psi_terms_and_pairs(spec.activation, spec.kind, spec.depth, spec.eta, d)

    def mean_bracket(alpha, beta):
        return _corr_moment(alpha + 1, beta, kappa) - kappa * _corr_moment(alpha, beta + 1, kappa)

    def second_bracket(alpha, beta):
        return (
            _corr_moment(alpha + 2, beta, kappa)
            - 2.0 * kappa * _corr_moment(alpha + 1, beta + 1, kappa)
            + kappa * kappa * _corr_moment(alpha, beta + 2, kappa)
        )

    mean = 0.0
    for k, qk in terms:
        mean = _coefficient_sum(mean, _noise_folded_power(link, noise, k).coeffs, qk, mean_bracket)
    second = 0.0
    for kl, qkl in pairs:
        label = _noise_folded_power(link, noise, kl).coeffs
        second += _coefficient_sum(0.0, label, qkl, second_bracket)
    return mean, max(second - mean * mean, 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo routes (independent of the exact tables)
# ---------------------------------------------------------------------------


MU_MC_CHUNK = 200_000  # draws that mu_monte_carlo samples at once
GAIN_MC_CHUNK = 50_000  # draws that alignment_gain_monte_carlo samples at once


def _median_of_means(sample: Callable, n_outputs: int, n_draws: int, chunk: int, blocks: int):
    """Median-of-means estimate and standard error of n_outputs expectations.

    sample(m) draws m samples and returns one row of m integrand values per
    output. The n_draws // blocks draws of each block are taken in chunks of
    at most chunk; each row's sum and sum of squares accumulate per block.
    The estimate is the median of the block means (their only entry when
    blocks is 1), and the standard error comes from the variance about the
    grand mean of all used draws. Returns two arrays of length n_outputs.
    Raises ValueError unless n_draws >= blocks >= 1.
    """
    if not n_draws >= blocks >= 1:
        raise ValueError(f"need n_draws >= blocks >= 1, got n_draws={n_draws}, blocks={blocks}")
    per_block = n_draws // blocks
    block_means = np.zeros((blocks, n_outputs))
    total_sq = np.zeros(n_outputs)
    for row in block_means:
        seen = 0
        while seen < per_block:
            m = min(chunk, per_block - seen)
            for i, v in enumerate(sample(m)):
                row[i] += v.sum()
                total_sq[i] += (v * v).sum()
            seen += m
        row /= per_block
    used = per_block * blocks
    mean = block_means[0] if blocks == 1 else np.median(block_means, axis=0)
    var = np.maximum(total_sq / used - block_means.mean(axis=0) ** 2, 0.0)
    return mean, np.sqrt(var / used)


def mu_monte_carlo(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    n_draws: int,
    rng: np.random.Generator,
    blocks: int = 1,
):
    """Monte Carlo estimate of the mu table from its defining expectation.

    Returns (estimates, sample_standard_errors), each of length r. With
    blocks > 1 the estimate is a median of block means, which keeps its
    calibration for the heavily right-skewed high-index integrands (plain
    means there are dominated by rare tail draws); the exact yardstick for
    either estimator is mu_integrand_moments. The draws are taken in chunks
    of MU_MC_CHUNK. Raises ValueError unless n_draws >= blocks >= 1.
    """
    psi = effective_psi(spec, d)
    r = psi.z_degree + 1

    def sample(m):
        s = rng.standard_normal(m)
        b = rng.standard_normal(m)
        y = link(s) + noise.draw(rng, m)
        psi_val = psi(y, b)
        he_s = _hermite_block(s, r)
        he_b = _hermite_block(b, r - 1)
        # a generator: the estimator holds one index's row at a time
        return (psi_val * he_s[i] * he_b[i - 1] for i in range(1, r + 1))

    return _median_of_means(sample, r, n_draws, MU_MC_CHUNK, blocks)


def alignment_gain_monte_carlo(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    kappa: float,
    n_draws: int,
    rng: np.random.Generator,
    blocks: int = 1,
):
    """Monte Carlo mean and stderr of <theta_star, psi(y, <x,w>) P_w x>.

    The weight is held fixed at alignment kappa with theta_star; inputs are
    full d-dimensional Gaussian draws. blocks > 1 gives a median-of-means
    estimate (see mu_monte_carlo); alignment_gain_moments provides the exact
    yardstick. The draws are taken in chunks of GAIN_MC_CHUNK. Raises
    ValueError unless kappa is finite with |kappa| <= 1 and
    n_draws >= blocks >= 1.
    """
    _check_kappa(kappa)
    psi = effective_psi(spec, d)
    theta = unit_vector(d)
    w = np.zeros(d)
    w[0] = kappa
    w[1] = math.sqrt(1.0 - kappa**2)

    def sample(m):
        x = rng.standard_normal((m, d))
        z = x @ w
        s = x @ theta
        y = link(s) + noise.draw(rng, m)
        return (psi(y, z) * (s - kappa * z),)

    mean, se = _median_of_means(sample, 1, n_draws, GAIN_MC_CHUNK, blocks)
    return float(mean[0]), float(se[0])


# ---------------------------------------------------------------------------
# Literal update steps
# ---------------------------------------------------------------------------


class StepResult(NamedTuple):
    """Outcome of one update: new weight, mean raw update, pre-normalization
    norm, and whether the step was rejected (zero denominator)."""

    w: np.ndarray
    raw_update: np.ndarray
    prenorm: float
    rejected: bool


_FLOAT64 = np.dtype(float)


def _as_step_input(x, y):
    """One sample as a 1-D float row and a float label, or a batch of B >= 2
    samples as a (B, d) float array and (B,) labels.

    What run() passes comes back as the very same objects: at B = 1 a 1-D
    float64 ndarray row of the drawn data with a Python float label, and
    otherwise a 2-D float64 ndarray block with a 1-D float64 ndarray of
    labels (np.asarray(..., dtype=float) would return those unchanged too,
    so skipping it cannot change a bit). Anything else (lists, other dtypes,
    ndarray subclasses, a (1, d) block) goes through np.asarray, and one
    sample found there comes back as its row and a float label. There a
    scalar label is lifted to one sample, and labels that are not 1-D raise
    ValueError. Either way, a batch with no samples or with a label count
    other than its sample count raises ValueError.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1 and type(y) is float:
        return x, y
    if (
        type(x) is np.ndarray
        and type(y) is np.ndarray
        and x.dtype is _FLOAT64
        and y.dtype is _FLOAT64
        and x.ndim == 2
        and y.ndim == 1
    ):
        xb, yb = x, y
    else:
        xb = np.asarray(x, dtype=float)
        if xb.ndim == 1:
            xb = xb[None, :]
        yb = np.asarray(y, dtype=float)
        if yb.ndim == 0:
            yb = yb[None]
        elif yb.ndim != 1:
            raise ValueError(f"a step needs 1-D labels, got labels of shape {yb.shape}")
    n = len(xb)
    if n != len(yb) or not n:
        raise ValueError(
            f"a step needs one label per sample and at least one sample, "
            f"got {n} samples and {len(yb)} labels"
        )
    if n == 1:
        return xb[0], yb.item(0)
    return xb, yb


def _step_coefficient(spec: OracleSpec) -> Callable:
    """The per-sample step coefficient c(y, z, xsq) of spec's oracle.

    The literal update moves w along mean(c x), projected onto the tangent
    space at w. The coefficient runs unchanged on Python floats (one sample)
    and on arrays (a batch), with the Horner coefficients of the activation
    and of sigma' and the hyperparameters bound in; OracleSpec builds it once.
    xsq is |x|^2 per sample, which apply_step computes only for batch_reuse.
    """
    act, sp, eta = spec.activation.coeffs, spec.activation.derivative().coeffs, spec.eta
    if spec.kind == "online":
        # spherical correlation-loss SGD

        def coef(y, z, xsq):
            return y * _horner(sp, z)

    elif spec.kind == "batch_reuse":
        # Literal two-pass step: an eta-step preactivation shift on the same
        # sample, then the gamma-step. Both gradient evaluations reuse the
        # sample; no Taylor surrogate is involved here.

        def coef(y, z, xsq):
            # <x, w~> for the per-sample intermediate w~ = w + eta y sigma'(z) P_w x
            t = z + eta * y * _horner(sp, z) * (xsq - z * z)
            return y * _horner(sp, t)

    elif spec.kind == "alternating":
        # the first-layer step times the trial scalar a~ = 1 + eta y sigma(z)

        def coef(y, z, xsq):
            return (y * (1.0 + eta * y * _horner(act, z))) * _horner(sp, z)

    else:
        # Layer-wise trial updates on the sparse deep recurrence. Every layer
        # scalar gets a transient a~ computed from the same sample (persistent
        # scalars stay at 1), and the first-layer step uses the product of
        # a~_i sigma'(F_{i-1}).
        depth = spec.depth

        def coef(y, z, xsq):
            f_vals = [z]
            for _ in range(1, depth):
                f_vals.append(_horner(act, f_vals[-1]))
            sp_vals = [_horner(sp, f_vals[i - 1]) for i in range(1, depth)]
            c = y
            for i in range(1, depth):
                tail = 1.0
                for j in range(i + 1, depth):
                    tail = tail * sp_vals[j - 1]
                atilde = 1.0 + eta * y * tail * f_vals[i]
                c = (c * atilde) * sp_vals[i - 1]
            return c

    return coef


def apply_step(w: np.ndarray, x, y, spec: OracleSpec) -> StepResult:
    """One update of the configured oracle: its per-sample coefficients,
    their projected mean, and the normalization. Batches average the raw
    updates.

    One sample steps as a row: a 1-D x with a float label, which is what
    run() passes at B = 1, or a (1, d) block with one label, which
    _as_step_input turns into its row. z = x w is a ddot and |x|^2 (batch_reuse
    only) the einsum "i,i->", the bits that a (1, d) block gives through
    numpy's dot and the einsum "ij,ij->i" (x.dot(x) would not: it differs in
    the last bit on about half of all draws at d = 25). The coefficient is
    then scalar arithmetic on Python floats, and the mean update is x c. A
    batch runs the same coefficient on arrays, and its mean update is x^T c,
    divided by B in place. Both give the bits of the batched array formulas.
    The update w + gamma v is formed in place as (v gamma) + w, the same
    products and sums, and divided by its norm in place.

    The bits of a step depend on the memory layout of x. x w, x^T c and w v
    are taken with ndarray.dot, which costs less dispatch than @. On a block
    whose rows BLAS can address, which includes every C-order float64 block
    and so everything run() passes (rows and row slices of its drawn data),
    both make the same BLAS call, so the bits are those of @ and of run().
    A strided view that BLAS cannot address as it is, such as X[::2, 1::2],
    takes a different product loop and may differ in the last bit; pass
    np.ascontiguousarray(x) to replay a run from such a view.
    """
    x, y = _as_step_input(x, y)
    coef = spec._coefficient
    if x.ndim == 1:
        xsq = float(np.einsum("i,i->", x, x)) if spec.kind == "batch_reuse" else None
        v = x * coef(y, float(x.dot(w)), xsq)
    else:
        xsq = np.einsum("ij,ij->i", x, x) if spec.kind == "batch_reuse" else None
        v = x.T.dot(coef(y, x.dot(w), xsq))
        v /= len(x)
    # Projection is linear, so projecting the batch mean equals the mean of
    # per-sample projected updates. v is fresh, so it is projected in place.
    v -= w * w.dot(v)
    gamma = spec.gamma
    if gamma == 0.0:
        # exact no-op; w is already unit so renormalizing would only add noise
        return StepResult(w, v, 1.0, False)
    t = v * gamma
    t += w
    prenorm = math.sqrt(t.dot(t))  # what np.linalg.norm computes for a vector
    if prenorm == 0.0:
        return StepResult(w, v, prenorm, True)
    t /= prenorm  # t is fresh; in place gives the bits of t / prenorm
    return StepResult(t, v, prenorm, False)
