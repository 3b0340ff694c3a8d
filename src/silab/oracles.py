"""Update oracles for spherical single-index training, and their mu tables.

Every variant fits the generic step

    w <- normalize(w + gamma * psi(y, <x, w>) * P_w x),    P_w = I - w w^T,

where psi is a bivariate polynomial in the label y and the preactivation z.
Four oracles are provided, both as literal multi-step procedures (what the
algorithms execute, see the step_* functions) and as effective single-step
polynomials (what the analysis uses, see effective_psi):

  online            psi(y, z) = a * y sigma'(z)
  batch_reuse       psi(y, z) = y sigma'(z)
                      + sum_{k>=2} ((eta d)^{k-1}/(k-1)!) sigma^{(k)}(z)
                                   (sigma'(z))^{k-1} y^k
                    (Taylor surrogate of the literal two-step update, with
                    the projected squared norm of x replaced by d)
  alternating       psi(y, z) = a y sigma'(z) + eta y^2 sigma(z) sigma'(z)
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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Literal

import numpy as np

from .hermite import MonomialPoly, expand, hermite_poly
from .model import NoiseSpec

OracleKind = Literal["online", "batch_reuse", "alternating", "deep_alternating"]

ORACLE_KINDS = ("online", "batch_reuse", "alternating", "deep_alternating")


@dataclass
class OracleSpec:
    """Which update rule is in force, plus its hyperparameters.

    eta scales the non-correlational part of the update (unused by the
    online oracle); gamma is the global step size; depth only applies to
    deep_alternating. degree_bound caps the length of the mu table (defaults
    to one past the z-degree of the effective oracle, beyond which every
    coefficient vanishes). Instances are treated as immutable once used:
    derived activation coefficients are cached on first access.
    """

    kind: OracleKind
    activation: MonomialPoly
    gamma: float = 0.0
    eta: float = 0.0
    depth: int = 2
    degree_bound: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.kind == "deep_alternating" and self.depth < 2:
            raise ValueError("deep_alternating needs depth >= 2")
        if self.degree_bound is not None and self.degree_bound < 1:
            raise ValueError("degree_bound must be a positive integer")

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


def _bivariate_product(a: dict[int, MonomialPoly], b: dict[int, MonomialPoly]):
    out: dict[int, MonomialPoly] = {}
    for ka, qa in a.items():
        for kb, qb in b.items():
            prod = qa * qb
            key = ka + kb
            out[key] = out[key] + prod if key in out else prod
    return out


def effective_psi(spec: OracleSpec, d: int, a: float = 1.0) -> Psi:
    """The single-step polynomial oracle used by the theory layer.

    For batch_reuse this is the Taylor surrogate in which the squared
    projected norm of x is replaced by its order, d. Terms with zero
    coefficient polynomials are dropped.
    """
    sigma = spec.activation
    sp = sigma.derivative()
    if spec.kind == "online":
        raw = {1: sp.scale(a)}
    elif spec.kind == "alternating":
        raw = {1: sp.scale(a), 2: (sigma * sp).scale(spec.eta)}
    elif spec.kind == "batch_reuse":
        raw = {1: sp}
        for k in range(2, sigma.degree + 1):
            coeff = (spec.eta * d) ** (k - 1) / math.factorial(k - 1)
            raw[k] = (sigma.derivative(k) * sp.power(k - 1)).scale(coeff)
    else:  # deep_alternating, unit layer scalars
        f_levels = [MonomialPoly.monomial(1)]
        for _ in range(1, spec.depth):
            f_levels.append(sigma.compose(f_levels[-1]))
        sp_levels = [sp.compose(f_levels[i - 1]) for i in range(1, spec.depth)]
        acc = {0: MonomialPoly.const(1.0)}
        for i in range(1, spec.depth):
            tail = MonomialPoly.const(1.0)
            for j in range(i + 1, spec.depth):
                tail = tail * sp_levels[j - 1]
            factor = {
                0: sp_levels[i - 1],
                1: (tail * f_levels[i] * sp_levels[i - 1]).scale(spec.eta),
            }
            acc = _bivariate_product(acc, factor)
        raw = {k + 1: q for k, q in acc.items()}  # leading y of the w-step
    terms = tuple(sorted((k, q) for k, q in raw.items() if not q.is_zero))
    if not terms:
        terms = ((1, MonomialPoly.zero()),)
    return Psi(terms)


@dataclass(frozen=True)
class MuTable:
    """Mixed coefficients mu_1..mu_r of an oracle against a teacher.

    components breaks mu down by the y-power k of the oracle term that
    produced it (mus[i] is the sum over k of components[k][i]); istar is the
    set of indices attaining the minimum in the sign condition
    argmin_{mu_i != 0} |mu_i|^{-1} d^{((i-2)/2) v 0} at the table's d.
    """

    mus: tuple[float, ...]
    d: int
    istar: tuple[int, ...]
    components: tuple[tuple[int, tuple[float, ...]], ...]

    @property
    def r(self) -> int:
        return len(self.mus)

    def mu(self, i: int) -> float:
        """mu_i, with indices past the table length identically zero."""
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


def mu_table(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    a: float = 1.0,
) -> MuTable:
    """Exact mu_i by separating psi into y^k q_k(z) terms.

    The label marginal folds the noise in exactly: E_zeta[(link(s)+zeta)^k]
    is expanded binomially with the noise family's exact central moments, so
    each term contributes u_i(E_zeta[(link+zeta)^k]) * u_{i-1}(q_k).
    """
    psi = effective_psi(spec, d, a)
    r = spec.degree_bound if spec.degree_bound is not None else psi.z_degree + 1
    components = []
    mus = np.zeros(r)
    for k, q in psi.terms:
        u_q = expand(q)
        ypoly = MonomialPoly.zero()
        for l in range(k + 1):
            m = noise.moment(k - l)
            if m != 0.0:
                ypoly = ypoly + link.power(l).scale(math.comb(k, l) * m)
        u_y = expand(ypoly)
        contrib = tuple(u_y[i] * u_q[i - 1] for i in range(1, r + 1))
        components.append((k, contrib))
        mus += np.array(contrib)
    return MuTable(
        mus=tuple(float(v) for v in mus),
        d=d,
        istar=_istar_set(mus, d),
        components=tuple(components),
    )


@dataclass(frozen=True)
class SignCheck:
    passed: bool
    istar: tuple[int, ...]


def check_sign_assumption(mu: MuTable, d: int | None = None) -> SignCheck:
    """Sign condition on the dominant indices.

    Among indices with mu_i != 0, the minimizers of |mu_i|^{-1} d^{((i-2)/2) v 0}
    must all have mu_i > 0. Raises on an all-zero table (degenerate oracle).
    """
    if all(m == 0.0 for m in mu.mus):
        raise ValueError("degenerate oracle: every mu_i vanishes")
    istar = _istar_set(mu.mus, mu.d if d is None else d)
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


def _noise_folded_power(link: MonomialPoly, noise: NoiseSpec, k: int) -> MonomialPoly:
    """E_zeta[(link(s) + zeta)^k] as an exact polynomial in s."""
    out = MonomialPoly.zero()
    for l in range(k + 1):
        m = noise.moment(k - l)
        if m != 0.0:
            out = out + link.power(l).scale(math.comb(k, l) * m)
    return out


def mu_integrand_moments(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    a: float = 1.0,
):
    """Exact mean and variance of the mu-defining integrand, per index.

    The integrand for index i is psi(link(s)+zeta, b) He_i(s) He_{i-1}(b)
    with independent standard normal s, b. Its variance fixes the exact
    standard error of any Monte Carlo estimate of mu_i, which for the
    heavy-tailed high-index integrands is far more reliable than a sample
    standard error.
    """
    psi = effective_psi(spec, d, a)
    r = spec.degree_bound if spec.degree_bound is not None else psi.z_degree + 1
    means = []
    variances = []
    for i in range(1, r + 1):
        hei = hermite_poly(i)
        heim1 = hermite_poly(i - 1)
        mean = 0.0
        second = 0.0
        for k, qk in psi.terms:
            mean += expand(_noise_folded_power(link, noise, k) * hei)[0] * expand(qk * heim1)[0]
        for k, qk in psi.terms:
            for l, ql in psi.terms:
                e_s = expand(_noise_folded_power(link, noise, k + l) * hei * hei)[0]
                e_b = expand(qk * ql * heim1 * heim1)[0]
                second += e_s * e_b
        means.append(mean)
        variances.append(max(second - mean * mean, 0.0))
    return np.array(means), np.array(variances)


@lru_cache(maxsize=None)
def _std_moment(m: int) -> int:
    if m % 2 == 1:
        return 0
    out = 1
    for v in range(m - 1, 0, -2):
        out *= v
    return out


def _corr_moment(m: int, n: int, rho: float) -> float:
    """E[s^m z^n] for jointly standard normal (s, z) with correlation rho."""
    total = 0.0
    for j in range(m + 1):
        em = _std_moment(m - j)
        en = _std_moment(j + n)
        if em and en:
            total += (
                math.comb(m, j)
                * rho**j
                * (1.0 - rho * rho) ** ((m - j) / 2.0)
                * em
                * en
            )
    return total


def _cross_expect(a_poly: MonomialPoly, b_poly: MonomialPoly, kappa: float) -> float:
    """E[A(s) B(z) (s - kappa z)^2] under correlation kappa."""
    total = 0.0
    for alpha, ca in enumerate(a_poly.coeffs):
        if ca == 0.0:
            continue
        for beta, cb in enumerate(b_poly.coeffs):
            if cb == 0.0:
                continue
            total += ca * cb * (
                _corr_moment(alpha + 2, beta, kappa)
                - 2.0 * kappa * _corr_moment(alpha + 1, beta + 1, kappa)
                + kappa * kappa * _corr_moment(alpha, beta + 2, kappa)
            )
    return total


def alignment_gain_moments(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    kappa: float,
    a: float = 1.0,
):
    """Exact mean and variance of <theta_star, g> for a weight at alignment kappa.

    The mean reproduces expected_alignment_gain by an independent route
    (direct correlated-Gaussian moments instead of the Stein expansion); the
    variance fixes the exact standard error of the sampling estimate.
    """
    psi = effective_psi(spec, d, a)
    mean = 0.0
    for k, qk in psi.terms:
        ap = _noise_folded_power(link, noise, k)
        for alpha, ca in enumerate(ap.coeffs):
            if ca == 0.0:
                continue
            for beta, cb in enumerate(qk.coeffs):
                if cb == 0.0:
                    continue
                mean += ca * cb * (
                    _corr_moment(alpha + 1, beta, kappa)
                    - kappa * _corr_moment(alpha, beta + 1, kappa)
                )
    second = 0.0
    for k, qk in psi.terms:
        for l, ql in psi.terms:
            second += _cross_expect(
                _noise_folded_power(link, noise, k + l), qk * ql, kappa
            )
    return mean, max(second - mean * mean, 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo routes (independent of the exact tables)
# ---------------------------------------------------------------------------


def _hermite_block(z: np.ndarray, max_order: int) -> np.ndarray:
    """He_0..He_max_order evaluated on z, shape (max_order+1, len(z))."""
    out = np.empty((max_order + 1, z.shape[0]))
    out[0] = 1.0
    if max_order >= 1:
        out[1] = z
    for j in range(1, max_order):
        out[j + 1] = z * out[j] - j * out[j - 1]
    return out


def mu_monte_carlo(
    spec: OracleSpec,
    link: MonomialPoly,
    noise: NoiseSpec,
    d: int,
    n_draws: int,
    rng: np.random.Generator,
    a: float = 1.0,
    chunk: int = 200_000,
    blocks: int = 1,
):
    """Monte Carlo estimate of the mu table from its defining expectation.

    Returns (estimates, sample_standard_errors), each of length r. With
    blocks > 1 the estimate is a median of block means, which keeps its
    calibration for the heavily right-skewed high-index integrands (plain
    means there are dominated by rare tail draws); the exact yardstick for
    either estimator is mu_integrand_moments.
    """
    psi = effective_psi(spec, d, a)
    r = spec.degree_bound if spec.degree_bound is not None else psi.z_degree + 1
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
    a: float = 1.0,
    chunk: int = 50_000,
    blocks: int = 1,
):
    """Monte Carlo mean and stderr of <theta_star, psi(y, <x,w>) P_w x>.

    The weight is held fixed at alignment kappa with theta_star; inputs are
    full d-dimensional Gaussian draws. blocks > 1 gives a median-of-means
    estimate (see mu_monte_carlo); alignment_gain_moments provides the exact
    yardstick.
    """
    psi = effective_psi(spec, d, a)
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


def _as_batch(x, y):
    xb = np.asarray(x, dtype=float)
    if xb.ndim == 1:
        xb = xb[None, :]
    yb = np.asarray(y, dtype=float)
    if yb.ndim == 0:
        yb = yb[None]
    return xb, yb


# Per-sample step coefficients c(y, z, a): the literal update moves w along
# mean(c x), projected onto the tangent space at w. Each one runs unchanged
# on Python floats (one sample) and on arrays (a batch). xsq is |x|^2 per
# sample, computed only for batch_reuse.


def _c_online(spec: OracleSpec, y, z, a, xsq):
    return y * spec._sigma_prime(z)


def _c_batch_reuse(spec: OracleSpec, y, z, a, xsq):
    # <x, w~> for the per-sample intermediate w~ = w + eta y sigma'(z) P_w x
    t = z + spec.eta * y * spec._sigma_prime(z) * (xsq - z * z)
    return y * spec._sigma_prime(t)


def _c_alternating(spec: OracleSpec, y, z, a, xsq):
    atilde = a + spec.eta * y * spec.activation(z)
    return (y * atilde) * spec._sigma_prime(z)


def _c_deep_alternating(spec: OracleSpec, y, z, a, xsq):
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
        return StepResult(w=w, raw_update=g, prenorm=1.0, rejected=False)
    v = w + gamma * g
    prenorm = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a vector
    if prenorm == 0.0:
        return StepResult(w=w, raw_update=g, prenorm=prenorm, rejected=True)
    return StepResult(w=v / prenorm, raw_update=g, prenorm=prenorm, rejected=False)


def _step(w: np.ndarray, x, y, spec: OracleSpec, coef, a: float = 1.0) -> StepResult:
    """The step shared by every oracle: coefficients, projected mean, normalization.

    With one sample the coefficient is scalar arithmetic on Python floats,
    and the mean update is x c; with a batch it is the same arithmetic on
    arrays. Both give the bits of the batched array formulas.
    """
    xb, yb = _as_batch(x, y)
    z = xb @ w
    xsq = np.einsum("ij,ij->i", xb, xb) if coef is _c_batch_reuse else None
    if xb.shape[0] == 1:
        c = coef(spec, float(yb[0]), float(z[0]), a, None if xsq is None else float(xsq[0]))
        v = xb[0] * c
    else:
        c = coef(spec, yb, z, a, xsq)
        v = xb.T @ c / c.shape[0]
    # Projection is linear, so projecting the batch mean equals the mean of
    # per-sample projected updates.
    return _normalize_step(w, v - w * (w @ v), spec.gamma)


def step_online(w: np.ndarray, x, y, spec: OracleSpec) -> StepResult:
    """Spherical correlation-loss SGD step; batches average the raw updates."""
    return _step(w, x, y, spec, _c_online)


def step_batch_reuse(w: np.ndarray, x, y, spec: OracleSpec) -> StepResult:
    """Literal two-pass step: an eta-step preactivation shift on the same
    sample, then the gamma-step. Both gradient evaluations reuse the sample;
    no Taylor surrogate is involved here."""
    return _step(w, x, y, spec, _c_batch_reuse)


def step_alternating(w: np.ndarray, a: float, x, y, spec: OracleSpec):
    """Second-layer trial step feeding the first-layer step on one sample.

    The trial value a~ = a + eta y sigma(z) is used only inside this update;
    the persistent second-layer weight is returned unchanged.
    """
    return _step(w, x, y, spec, _c_alternating, a), a


def step_deep_alternating(w: np.ndarray, x, y, spec: OracleSpec) -> StepResult:
    """Layer-wise trial updates on the sparse deep recurrence.

    Every layer scalar gets a transient a~ computed from the same sample
    (persistent scalars stay at 1), and the first-layer step uses the product
    of a~_i sigma'(F_{i-1}).
    """
    return _step(w, x, y, spec, _c_deep_alternating)


def apply_step(w: np.ndarray, x, y, spec: OracleSpec, a: float = 1.0) -> StepResult:
    """Dispatch one update of the configured oracle."""
    return _step(w, x, y, spec, _COEFFICIENTS[spec.kind], a)
