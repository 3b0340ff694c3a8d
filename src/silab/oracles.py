"""Update oracles for spherical single-index training, and their mu tables.

Every variant fits the generic step

    w <- normalize(w + gamma * psi(y, <x, w>) * P_w x),    P_w = I - w w^T,

where psi is a bivariate polynomial in the label y and the preactivation z.
Four oracles are provided, both as literal multi-step procedures (what the
algorithms execute, see the step_* functions) and as effective single-step
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
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Literal, NamedTuple

import numpy as np

from .hermite import (
    MAX_DEGREE,
    MonomialPoly,
    _expand,
    _hermite_block,
    _hermite_coeffs,
    _is_zero,
    _moment_rows,
    _padd,
    _pmul,
    _pscale,
    gaussian_moment,
)
from .model import NoiseSpec, TeacherSpec

OracleKind = Literal["online", "batch_reuse", "alternating", "deep_alternating"]

ORACLE_KINDS = ("online", "batch_reuse", "alternating", "deep_alternating")


@dataclass
class OracleSpec:
    """Which update rule is in force, plus its hyperparameters.

    eta scales the non-correlational part of the update (unused by the
    online oracle); gamma is the global step size; depth only applies to
    deep_alternating. Instances are treated as immutable once used: derived
    activation coefficients are cached on first access.
    """

    kind: OracleKind
    activation: MonomialPoly
    gamma: float = 0.0
    eta: float = 0.0
    depth: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.kind == "deep_alternating" and self.depth < 2:
            raise ValueError("deep_alternating needs depth >= 2")

    @cached_property
    def _sigma_prime(self) -> MonomialPoly:
        return self.activation.derivative()


@dataclass(frozen=True)
class Psi:
    """Effective single-step oracle as a bivariate polynomial sum_k y^k q_k(z)."""

    terms: tuple[tuple[int, MonomialPoly], ...]

    @property
    def y_degree(self) -> int:
        return max((k for k, _ in self.terms), default=0)

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


def _psi_terms(parts: tuple, spec: OracleSpec, d: int) -> list:
    """effective_psi's terms as (k, coefficient tuple), from _psi_polys parts.

    The scales by eta or (eta d)^(k-1)/(k-1)! and, for deep_alternating,
    the bivariate product over the layers: the float operations, in the
    order, that building psi from fresh polynomials applies.
    """
    kind, eta = spec.kind, spec.eta
    if kind == "online":
        raw = {1: parts[0]}
    elif kind == "alternating":
        raw = {1: parts[0], 2: _pscale(eta, parts[1])}
    elif kind == "batch_reuse":
        raw = {1: parts[0]}
        for k in range(2, len(parts) + 1):
            coeff = (eta * d) ** (k - 1) / math.factorial(k - 1)
            raw[k] = _pscale(coeff, parts[k - 1])
    else:  # deep_alternating: one factor a~_i sigma'(F_{i-1}) per layer
        acc = {0: (1.0,)}
        for sp_level, eta_part in zip(parts[::2], parts[1::2]):
            acc = _bivariate_product(acc, {0: sp_level, 1: _pscale(eta, eta_part)})
        raw = {k + 1: q for k, q in acc.items()}  # leading y of the w-step
    terms = [(k, raw[k]) for k in sorted(raw) if not _is_zero(raw[k])]
    return terms or [(1, (0.0,))]


def effective_psi(spec: OracleSpec, d: int) -> Psi:
    """The single-step polynomial oracle used by the theory layer.

    For batch_reuse this is the Taylor surrogate in which the squared
    projected norm of x is replaced by its order, d. Terms with zero
    coefficient polynomials are dropped.

    The eta-free polynomials (sigma', sigma sigma', sigma^(k) sigma'^(k-1),
    and the deep recurrence's sigma'(F_{i-1}) and tail_i F_i sigma'(F_{i-1}))
    are memoized per (activation, kind, depth) in _psi_polys; each call only
    scales them by eta or (eta d)^(k-1)/(k-1)! and, for deep_alternating,
    forms the bivariate product over the layers (_psi_terms). Those are the
    operations, in the order, that a fresh construction applies to the same
    products, so the result is bit for bit the same. (Keys compare by value:
    two activations that differ only in the sign of a zero coefficient share
    an entry, and so may differ in the signs of zero coefficients of psi,
    never in a mu table, whose expansions skip zero coefficients.)
    """
    parts = _psi_polys(spec.activation, spec.kind, spec.depth)
    terms = _psi_terms(parts, spec, d)
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


def _istar_set(mus, d: int) -> tuple[int, ...]:
    scores = {}
    for i, m in enumerate(mus, start=1):
        if m != 0.0:
            scores[i] = d ** (max(i - 2, 0) / 2.0) / abs(m)
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
        n_powers = {"online": 1, "alternating": 2}.get(kind, len(parts))
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
    the sign of a zero component.
    """
    plan = _mu_plan(spec.activation, spec.kind, spec.depth, link, noise)
    terms = _psi_terms(plan.parts, spec, d)
    r = max(len(q) for _, q in terms)
    components = []
    mus = [0.0] * r
    for k, q in terms:
        u_q = _expand(q, plan.rows)
        u_q += (0.0,) * (r - len(u_q))
        u_y = plan.labels[k]
        contrib = tuple([u_y[i] * u_q[i - 1] for i in range(1, r + 1)])
        components.append((k, contrib))
        mus = [m + v for m, v in zip(mus, contrib)]
    mus = tuple(mus)
    return MuTable(mus=mus, d=d, components=tuple(components))


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
    must all have mu_i > 0. Raises on an all-zero table (degenerate oracle).
    """
    if all(m == 0.0 for m in mu.mus):
        raise ValueError("degenerate oracle: every mu_i vanishes")
    istar = mu.istar
    return SignCheck(passed=all(mu.mu(i) > 0 for i in istar), istar=istar)


def expected_alignment_gain(mu: MuTable, kappa: float) -> float:
    """Exact one-step drift E[<theta_star, g>] at alignment kappa.

    Equals sum_i mu_i kappa^{i-1} (1 - kappa^2) / (i-1)! for the unnormalized
    mu convention used here (Stein's lemma applied to the bivariate Hermite
    expansion of the oracle).
    """
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
    return _expand(p)[0]


def mu_integrand_moments(spec: OracleSpec, link: MonomialPoly, noise: NoiseSpec, d: int):
    """Exact mean and variance of the mu-defining integrand, per index.

    The integrand for index i is psi(link(s)+zeta, b) He_i(s) He_{i-1}(b)
    with independent standard normal s, b. Its variance fixes the exact
    standard error of any Monte Carlo estimate of mu_i, which for the
    heavy-tailed high-index integrands is far more reliable than a sample
    standard error. The label side depends on (link, noise, k, i) only and
    is memoized (_label_moment).
    """
    terms = _psi_terms(_psi_polys(spec.activation, spec.kind, spec.depth), spec, d)
    r = max(len(q) for _, q in terms)
    means = []
    variances = []
    for i in range(1, r + 1):
        heim1 = _hermite_coeffs(i - 1)
        mean = 0.0
        second = 0.0
        for k, qk in terms:
            mean += _label_moment(link, noise, k, i, 1) * _expand(_pmul(qk, heim1))[0]
        for k, qk in terms:
            for l, ql in terms:
                e_s = _label_moment(link, noise, k + l, i, 2)
                e_b = _expand(_pmul(_pmul(_pmul(qk, ql), heim1), heim1))[0]
                second += e_s * e_b
        means.append(mean)
        variances.append(max(second - mean * mean, 0.0))
    return np.array(means), np.array(variances)


def _corr_moment(m: int, n: int, rho: float) -> float:
    """E[s^m z^n] for jointly standard normal (s, z) with correlation rho."""
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
    terms, fixes the exact standard error of the sampling estimate. Each
    moment E[s^m z^n] is computed once per call.
    """
    terms = _psi_terms(_psi_polys(spec.activation, spec.kind, spec.depth), spec, d)
    corr = lru_cache(maxsize=None)(lambda m, n: _corr_moment(m, n, kappa))
    mean = 0.0
    for k, qk in terms:
        for alpha, ca in enumerate(_noise_folded_power(link, noise, k).coeffs):
            if ca == 0.0:
                continue
            for beta, cb in enumerate(qk):
                if cb == 0.0:
                    continue
                mean += ca * cb * (corr(alpha + 1, beta) - kappa * corr(alpha, beta + 1))
    second = 0.0
    for k, qk in terms:
        for l, ql in terms:
            qkl = _pmul(qk, ql)
            total = 0.0
            for alpha, ca in enumerate(_noise_folded_power(link, noise, k + l).coeffs):
                if ca == 0.0:
                    continue
                for beta, cb in enumerate(qkl):
                    if cb == 0.0:
                        continue
                    total += ca * cb * (
                        corr(alpha + 2, beta)
                        - 2.0 * kappa * corr(alpha + 1, beta + 1)
                        + kappa * kappa * corr(alpha, beta + 2)
                    )
            second += total
    return mean, max(second - mean * mean, 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo routes (independent of the exact tables)
# ---------------------------------------------------------------------------


def _check_draws(n_draws: int, blocks: int, chunk: int) -> None:
    if not n_draws >= blocks >= 1:
        raise ValueError(f"need n_draws >= blocks >= 1, got n_draws={n_draws}, blocks={blocks}")
    if chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk}")


def mu_monte_carlo(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    n_draws: int,
    rng: np.random.Generator,
    chunk: int = 200_000,
    blocks: int = 1,
):
    """Monte Carlo estimate of the mu table from its defining expectation.

    Returns (estimates, sample_standard_errors), each of length r. With
    blocks > 1 the estimate is a median of block means, which keeps its
    calibration for the heavily right-skewed high-index integrands (plain
    means there are dominated by rare tail draws); the exact yardstick for
    either estimator is mu_integrand_moments. Raises ValueError unless
    n_draws >= blocks >= 1 and chunk >= 1.
    """
    _check_draws(n_draws, blocks, chunk)
    psi = effective_psi(spec, d)
    r = psi.z_degree + 1
    per_block = n_draws // blocks
    block_means = np.zeros((blocks, r))
    total_sq = np.zeros(r)

    def accumulate(count, out_row):
        seen = 0
        while seen < count:
            m = min(chunk, count - seen)
            s = rng.standard_normal(m)
            b = rng.standard_normal(m)
            y = link(s) + noise.draw(rng, m)
            psi_val = psi(y, b)
            he_s = _hermite_block(s, r)
            he_b = _hermite_block(b, r - 1)
            for i in range(1, r + 1):
                v = psi_val * he_s[i] * he_b[i - 1]
                out_row[i - 1] += v.sum()
                total_sq[i - 1] += (v * v).sum()
            seen += m

    for blk in range(blocks):
        accumulate(per_block, block_means[blk])
        block_means[blk] /= per_block
    used = per_block * blocks
    if blocks == 1:
        mean = block_means[0]
    else:
        mean = np.median(block_means, axis=0)
    grand = block_means.mean(axis=0)
    var = np.maximum(total_sq / used - grand**2, 0.0)
    return mean, np.sqrt(var / used)


def alignment_gain_monte_carlo(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    kappa: float,
    n_draws: int,
    rng: np.random.Generator,
    chunk: int = 50_000,
    blocks: int = 1,
):
    """Monte Carlo mean and stderr of <theta_star, psi(y, <x,w>) P_w x>.

    The weight is held fixed at alignment kappa with theta_star; inputs are
    full d-dimensional Gaussian draws. blocks > 1 gives a median-of-means
    estimate (see mu_monte_carlo); alignment_gain_moments provides the exact
    yardstick. Raises ValueError unless n_draws >= blocks >= 1 and chunk >= 1.
    """
    _check_draws(n_draws, blocks, chunk)
    psi = effective_psi(spec, d)
    theta = np.zeros(d)
    theta[0] = 1.0
    w = np.zeros(d)
    w[0] = kappa
    w[1] = math.sqrt(1.0 - kappa**2)
    per_block = n_draws // blocks
    block_means = np.zeros(blocks)
    total_sq = 0.0
    for blk in range(blocks):
        seen = 0
        acc = 0.0
        while seen < per_block:
            m = min(chunk, per_block - seen)
            x = rng.standard_normal((m, d))
            z = x @ w
            s = x @ theta
            y = link(s) + noise.draw(rng, m)
            v = psi(y, z) * (s - kappa * z)
            acc += v.sum()
            total_sq += (v * v).sum()
            seen += m
        block_means[blk] = acc / per_block
    used = per_block * blocks
    mean = float(block_means[0] if blocks == 1 else np.median(block_means))
    var = max(total_sq / used - block_means.mean() ** 2, 0.0)
    return mean, math.sqrt(var / used)


# ---------------------------------------------------------------------------
# Literal update steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepResult:
    """Outcome of one update: new weight, mean raw update, pre-normalization
    norm, and whether the step was rejected (zero denominator)."""

    w: np.ndarray
    raw_update: np.ndarray
    prenorm: float
    rejected: bool


_FLOAT64 = np.dtype(float)


def _as_batch(x, y):
    """x as a (B, d) float array and y as a (B,) one.

    A 2-D float64 ndarray x with a 1-D float64 ndarray y, which is what run()
    passes (a row block of the drawn data and its label slice), comes back as
    the very same objects: np.asarray(..., dtype=float) would return them
    unchanged too, so skipping it cannot change a bit. Anything else (lists,
    other dtypes, ndarray subclasses, a single sample) goes through np.asarray.
    """
    if (
        type(x) is np.ndarray
        and type(y) is np.ndarray
        and x.dtype is _FLOAT64
        and y.dtype is _FLOAT64
        and x.ndim == 2
        and y.ndim == 1
    ):
        return x, y
    xb = np.asarray(x, dtype=float)
    if xb.ndim == 1:
        xb = xb[None, :]
    yb = np.asarray(y, dtype=float)
    if yb.ndim == 0:
        yb = yb[None]
    return xb, yb


# Per-sample step coefficients c(y, z): the literal update moves w along
# mean(c x), projected onto the tangent space at w. Each one runs unchanged
# on Python floats (one sample) and on arrays (a batch). xsq is |x|^2 per
# sample, computed only for batch_reuse.


def _c_online(spec: OracleSpec, y, z, xsq):
    return y * spec._sigma_prime(z)


def _c_batch_reuse(spec: OracleSpec, y, z, xsq):
    # <x, w~> for the per-sample intermediate w~ = w + eta y sigma'(z) P_w x
    t = z + spec.eta * y * spec._sigma_prime(z) * (xsq - z * z)
    return y * spec._sigma_prime(t)


def _c_alternating(spec: OracleSpec, y, z, xsq):
    atilde = 1.0 + spec.eta * y * spec.activation(z)
    return (y * atilde) * spec._sigma_prime(z)


def _c_deep_alternating(spec: OracleSpec, y, z, xsq):
    depth = spec.depth
    f_vals = [z]
    for _ in range(1, depth):
        f_vals.append(spec.activation(f_vals[-1]))
    sp_vals = [spec._sigma_prime(f_vals[i - 1]) for i in range(1, depth)]
    c = y
    for i in range(1, depth):
        tail = 1.0
        for j in range(i + 1, depth):
            tail = tail * sp_vals[j - 1]
        atilde = 1.0 + spec.eta * y * tail * f_vals[i]
        c = (c * atilde) * sp_vals[i - 1]
    return c


_COEFFICIENTS = {
    "online": _c_online,
    "batch_reuse": _c_batch_reuse,
    "alternating": _c_alternating,
    "deep_alternating": _c_deep_alternating,
}


def _normalize_step(w: np.ndarray, g: np.ndarray, gamma: float) -> StepResult:
    if gamma == 0.0:
        # exact no-op; w is already unit so renormalizing would only add noise
        return StepResult(w, g, 1.0, False)
    v = w + gamma * g
    prenorm = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a vector
    if prenorm == 0.0:
        return StepResult(w, g, prenorm, True)
    v /= prenorm  # v is fresh; in place gives the bits of v / prenorm
    return StepResult(v, g, prenorm, False)


def _step(w: np.ndarray, x, y, spec: OracleSpec, coef) -> StepResult:
    """The step shared by every oracle: coefficients, projected mean, normalization.

    With one sample the coefficient is scalar arithmetic on Python floats,
    and the mean update is x c; with a batch it is the same arithmetic on
    arrays. Both give the bits of the batched array formulas.

    xb w and w v are taken with ndarray.dot, which costs less dispatch than
    @. On a block whose rows BLAS can address, which includes every C-order
    float64 block and so everything run() passes, both make the same BLAS
    call (gemv for xb w, ddot for w v), so the bits are those of @. On a
    strided view that BLAS cannot take as it is, dot and @ fall back to
    different loops and may differ in the last bit.
    """
    xb, yb = _as_batch(x, y)
    z = xb.dot(w)
    xsq = np.einsum("ij,ij->i", xb, xb) if coef is _c_batch_reuse else None
    if len(xb) == 1:
        c = coef(spec, yb.item(0), z.item(0), None if xsq is None else xsq.item(0))
        v = xb[0] * c
    else:
        c = coef(spec, yb, z, xsq)
        v = xb.T @ c / c.shape[0]
    # Projection is linear, so projecting the batch mean equals the mean of
    # per-sample projected updates. v is fresh, so it is projected in place.
    v -= w * w.dot(v)
    return _normalize_step(w, v, spec.gamma)


def step_online(w: np.ndarray, x, y, spec: OracleSpec) -> StepResult:
    """Spherical correlation-loss SGD step; batches average the raw updates."""
    return _step(w, x, y, spec, _c_online)


def step_batch_reuse(w: np.ndarray, x, y, spec: OracleSpec) -> StepResult:
    """Literal two-pass step: an eta-step preactivation shift on the same
    sample, then the gamma-step. Both gradient evaluations reuse the sample;
    no Taylor surrogate is involved here."""
    return _step(w, x, y, spec, _c_batch_reuse)


def step_alternating(w: np.ndarray, a: float, x, y, spec: OracleSpec):
    """Deprecated: apply_step(w, x, y, spec) gives the same StepResult.

    The persistent second-layer weight a is never trained, so 1.0 is its
    only value; it is returned unchanged, and any other value raises.
    """
    warnings.warn("step_alternating is deprecated; use apply_step(w, x, y, spec)",
                  DeprecationWarning, stacklevel=2)
    if a != 1.0:
        raise ValueError(f"the second-layer weight is 1.0 on every path, got a={a}")
    return _step(w, x, y, spec, _c_alternating), a


def step_deep_alternating(w: np.ndarray, x, y, spec: OracleSpec) -> StepResult:
    """Layer-wise trial updates on the sparse deep recurrence.

    Every layer scalar gets a transient a~ computed from the same sample
    (persistent scalars stay at 1), and the first-layer step uses the product
    of a~_i sigma'(F_{i-1}).
    """
    return _step(w, x, y, spec, _c_deep_alternating)


def apply_step(w: np.ndarray, x, y, spec: OracleSpec) -> StepResult:
    """Dispatch one update of the configured oracle.

    The bits of a step depend on the memory layout of x. A C-order block
    (what run() passes: row slices of its drawn data) gives run()'s bits.
    A strided view that BLAS cannot address as it is, such as X[::2, 1::2],
    takes a different product loop and may differ in the last bit; pass
    np.ascontiguousarray(x) to replay a run from such a view.
    """
    return _step(w, x, y, spec, _COEFFICIENTS[spec.kind])
