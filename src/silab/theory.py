"""Closed-form predictors and deterministic oracles for recovery times.

All constants are set to 1: predictions are order-level and meant to be
validated through ratio, slope, and identity tests rather than absolute
iteration counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .oracles import MuTable, OracleSpec, _d_exp_iterations, _rate_d_exponent, _rate_power

PHASE_GRID = 256  # points of phase_boundaries' log-spaced eta grid
_SIGN_MARGIN = 1e-9  # relative margin at which a sign is read off C
_C_AGREEMENT = 1e-12  # relative gap between the two ends' C that abstains
_LEMMA_TOL = 1e-9  # relative excess over a lemma bound that counts as a violation


def _check_d(mu: MuTable, d: int | None) -> int:
    """The table's d, after checking that a given d agrees with it."""
    if d is not None and d != mu.d:
        raise ValueError(f"d={d} differs from the mu table's d={mu.d}")
    return mu.d


def _positive(mu: MuTable) -> list[tuple[int, float]]:
    """(i, mu_i) for every index with mu_i > 0, the terms a recovery time counts."""
    return [(i, m) for i, m in enumerate(mu.mus, 1) if m > 0]


def _argmin(entries: Sequence[tuple[int, float]]) -> tuple[float, int]:
    """The least value of (i, value) entries, given in increasing i as
    _positive gives them, and the lowest i that attains it (min keeps the
    first of equal values)."""
    i, v = min(entries, key=itemgetter(1))
    return v, i


def _check_gamma(gamma: float) -> None:
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class Prediction:
    """Predicted weak-recovery iteration counts.

    t_per_i holds (i, gamma^-1 mu_i^-1 d^((i-2)/2 v 0)) for indices with
    positive mu; t is their minimum, attained at dominant_i. gamma_max is the
    largest admissible step size max_i mu_i d^-(i/2 v 1). The optimal-step
    fields evaluate the same prediction with gamma at gamma_max, which
    collapses to mu_i^-2 d^((i-1) v 1) per index.
    """

    t_per_i: tuple[tuple[int, float], ...]
    t: float
    dominant_i: int
    gamma_max: float
    t_optimal_per_i: tuple[tuple[int, float], ...]
    t_optimal: float
    dominant_i_optimal: int


def gamma_max(mu: MuTable, d: int | None = None) -> float:
    """Largest admissible step size, constants 1: max_i mu_i d^-(i/2 v 1),
    where i/2 v 1 is the T exponent (i-2)/2 v 0 plus 1."""
    d = _check_d(mu, d)
    vals = [m * d ** -(_d_exp_iterations(i) + 1.0) for i, m in _positive(mu)]
    if not vals:
        raise ValueError("no positive mu entry; no admissible step size")
    return max(vals)


def predict_T(mu: MuTable, gamma: float, d: int | None = None) -> Prediction:
    """Evaluate the recovery-time formula at a given step size and, jointly,
    at the best admissible one.

    Raises ValueError naming gamma when a predicted time is 0.0 or not
    finite, which happens where gamma mu_i or mu_i^2 leaves the float range.
    """
    d = _check_d(mu, d)
    _check_gamma(gamma)
    positive = _positive(mu)
    if not positive:
        raise ValueError("no positive mu entry; no prediction")
    entries = [(i, d ** _d_exp_iterations(i) / (gamma * m)) for i, m in positive]
    opt = [(i, d ** max(i - 1, 1) / (m * m)) for i, m in positive]
    t, dominant = _argmin(entries)
    t_opt, dominant_opt = _argmin(opt)
    if not all(0.0 < v < math.inf for _, v in entries + opt):
        raise ValueError(f"a predicted time is 0 or not finite at gamma={gamma}: "
                         "gamma mu_i or mu_i^2 leaves the float range")
    return Prediction(
        t_per_i=tuple(entries),
        t=t,
        dominant_i=dominant,
        gamma_max=gamma_max(mu, d),
        t_optimal_per_i=tuple(opt),
        t_optimal=t_opt,
        dominant_i_optimal=dominant_opt,
    )


@dataclass(frozen=True)
class PhaseBoundary:
    """Learning-rate crossing between two competing recovery-time terms.

    i < j are the Hermite indices of the competing terms (equal for a
    degenerate within-index boundary between two oracle powers); powers are
    the y-powers that produced them when uniquely attributable. exponent is
    the analytic d-exponent of the threshold when the oracle kind admits one.
    argmin_switch marks crossings where the overall argmin actually changes.
    """

    i: int
    j: int
    eta_star: float
    exponent: float | None
    powers: tuple[int, int] | None
    degenerate: bool
    argmin_switch: bool


def _t_value(mu: MuTable, i: int, d: int) -> float:
    m = mu.mu(i)
    if m <= 0:
        return math.inf
    return d ** _d_exp_iterations(i) / m


def _dominant_index(mu: MuTable, d: int) -> int | None:
    times = [(i, d ** _d_exp_iterations(i) / m) for i, m in _positive(mu)]
    return _argmin(times)[1] if times else None


def _power_attribution(mu: MuTable, i: int) -> int | None:
    """The unique y-power feeding mu_i, or None when mixed/absent."""
    powers = [k for k, contrib in mu.components if contrib[i - 1] != 0.0]
    return powers[0] if len(powers) == 1 else None


def _analytic_exponent(kind: str, mi: int, mj: int, ki: int, kj: int) -> float:
    """d-exponent of the eta at which the y^ki term at index mi meets the
    y^kj term at index mj, for ki < kj; the rate's own d-exponent comes off."""
    return (max(mj - 1, 1) - max(mi - 1, 1)) / (2.0 * (kj - ki)) - _rate_d_exponent(kind)


def _eta_free_coefficients(lo: MuTable, hi: MuTable, eta_lo: float, eta_hi: float):
    """C[i, k] = components[k][i] / eta^(k-1), with the k-1 of each column.

    Returns (cols, powers, dpow, zero), so that mu_i(eta) = sum_k cols[k][i]
    eta^powers[k] for the 0-based index i; dpow[i] is d^(a_(i+1)), with
    a_i = max((i-2)/2, 0), and zero[i] marks an index whose components are
    all 0.0. All four are Python lists, which a bisection midpoint reads for
    less than numpy scalars cost. Returns None (the scan then reads every
    sign from a real table) unless the two tables agree on r, on the
    component keys, on which entries are exactly 0.0, and on every C to
    1e-12 relative.
    """
    keys = [k for k, _ in hi.components]
    if lo.r != hi.r or [k for k, _ in lo.components] != keys:
        return None
    comp_lo = np.array([c for _, c in lo.components]).T
    comp_hi = np.array([c for _, c in hi.components]).T
    if not np.array_equal(comp_lo == 0.0, comp_hi == 0.0):
        return None
    powers = np.array(keys) - 1
    c_lo = comp_lo / eta_lo**powers
    c_hi = comp_hi / eta_hi**powers
    if not np.all(np.abs(c_lo - c_hi) <= _C_AGREEMENT * np.maximum(np.abs(c_lo), np.abs(c_hi))):
        return None
    dpow = [hi.d ** _d_exp_iterations(i) for i in range(1, hi.r + 1)]
    zero = np.all(c_hi == 0.0, axis=1)
    return c_hi.T.tolist(), powers.tolist(), dpow, zero.tolist()


def _c_mu(fit, eta, idx):
    """mu and B = sum_k |C[idx, k] eta^(k-1)| of 0-based indices idx, off C.

    fit is what _eta_free_coefficients returns. Either eta is a float and idx
    an int (a bisection midpoint), or fit holds arrays, eta is a column of
    grid etas and idx an index array (the grid: shape (grid, len(idx))). Each
    element runs the float operations of the scalar case, in its order.
    """
    cols, powers, _, _ = fit
    mu = b = 0.0
    for col, p in zip(cols, powers):
        v = col[idx] * eta**p
        mu, b = mu + v, b + abs(v)
    return mu, b


def _c_pair(fit, i, j, mb_i, mb_j):
    """What C says of log T_i - log T_j, from the (mu, B) of 0-based i and j.

    mb_i and mb_j are what _c_mu returns for i and j, at one eta (ints i, j)
    or over the grid (index arrays i, j, with fit as arrays). Returns (gap,
    decided, nonpos). Where decided, both mu are positive and log T_i -
    log T_j has the sign of gap; nonpos marks where either mu is
    non-positive, and neither holds where C leaves the sign in doubt (see
    phase_boundaries for the margins).
    """
    _, _, dpow, zero = fit
    (mu_i, b_i), (mu_j, b_j) = mb_i, mb_j
    nonpos = (mu_i < -_SIGN_MARGIN * b_i) | zero[i] | (mu_j < -_SIGN_MARGIN * b_j) | zero[j]
    # log T_i - log T_j > 0 exactly when d^(a_i) mu_j - d^(a_j) mu_i > 0
    gap = dpow[i] * mu_j - dpow[j] * mu_i
    tol = _SIGN_MARGIN * (dpow[i] * b_j + dpow[j] * b_i)
    decided = (mu_i > _SIGN_MARGIN * b_i) & (mu_j > _SIGN_MARGIN * b_j) & (abs(gap) > tol)
    return gap, decided, nonpos


def _grid_signs(etas: np.ndarray, ends: tuple[MuTable, MuTable], fit, mu_of_eta, d: int, r: int):
    """Sign of log T_i - log T_j for every pair i < j (in row-major order) at
    every grid eta, nan where mu_i <= 0 or mu_j <= 0, shape (pairs, grid).

    Where C (fit) fixes a sign, it is read from there: mu and B of every
    index once over the grid, then the verdict of the live pairs, those with
    no index that is zero (a pair with one is non-positive wherever C is
    read). Every other grid point, and both ends, is read from its real
    table, built once, for every pair.
    """
    lo, hi = ends
    iu, ju = np.triu_indices(r, 1)
    signs = np.full((len(iu), len(etas)), np.nan)
    real = np.ones(len(etas), dtype=bool)
    if fit is not None:
        fit = [np.asarray(f) for f in fit]
        zero = fit[3]
        live = np.flatnonzero(~(zero[iu] | zero[ju]))
        i, j = iu[live], ju[live]
        mu, b = _c_mu(fit, etas[:, None], np.arange(r))
        gap, decided, nonpos = _c_pair(fit, i, j, (mu[:, i], b[:, i]), (mu[:, j], b[:, j]))
        signs[live] = np.where(nonpos, np.nan, gap).T
        real = ~np.all(nonpos | decided, axis=1)
        real[[0, -1]] = True
    for g in np.flatnonzero(real):
        tab = lo if g == 0 else hi if g == len(etas) - 1 else mu_of_eta(float(etas[g]))
        log_t = [math.log(_t_value(tab, i, d)) if tab.mu(i) > 0 else None
                 for i in range(1, r + 1)]
        signs[:, g] = [
            math.nan if log_t[i] is None or log_t[j] is None else log_t[i] - log_t[j]
            for i, j in zip(iu, ju)
        ]
    return np.sign(signs)


def phase_boundaries(
    mu_of_eta: Callable[[float], MuTable],
    d: int,
    eta_range: tuple[float, float],
    spec: OracleSpec,
) -> tuple[PhaseBoundary, ...]:
    """Locate recovery-time crossings over a learning-rate range.

    For every pair of indices with positive mu somewhere in the range, the
    first sign change of the log-ratio of their T contributions on the
    PHASE_GRID log grid is bracketed and bisected to floating-point resolution
    (the two contributions then agree to much better than 1e-9 relative). A
    grid cell brackets only where the two signs differ, so a cell where the
    contributions tie at both ends does not, and a pair tied at every eta
    (an online table, whose mu_i all share one y-power) has no crossing.
    Degenerate boundaries, where two oracle powers share their leading Hermite
    index and hence no T-pair crossing exists, are reported analytically at
    the constants-1 validity edge d**exponent, and only when that edge lies
    in eta_range, ends included.

    The scan reads the grid and the bisection only as signs. It builds real
    tables at the two grid ends and relies on mu_table's contract: component
    k of a table scales exactly as eta^(k-1), so mu_i(eta) = sum_k C[i, k]
    eta^(k-1) with C free of eta, and the end tables fix C. With B_i =
    sum_k |C[i, k] eta^(k-1)|, index i counts as positive where this
    polynomial exceeds 1e-9 B_i and as non-positive where it is below
    -1e-9 B_i; an index whose components are all 0.0 at both ends is zero.
    For two positive indices, log T_i - log T_j has the sign of
    d^(a_i) mu_j - d^(a_j) mu_i, with a_i = max((i-2)/2, 0), and that sign
    counts where its size exceeds 1e-9 (d^(a_i) B_j + d^(a_j) B_i). Two
    helpers read C, for the grid and the bisection alike: _c_mu gives (mu_i,
    B_i) and _c_pair the verdict of a pair from them. The grid takes (mu, B)
    of every index once and the verdict of the live pairs only, those
    without a zero index (the others are non-positive wherever C is read). A
    grid point where any sign does not count gets its real table, which
    fills every pair. Each bisection midpoint reads the sign of its pair the
    same way until C first leaves it in doubt: an index of the pair that
    does not count as positive, or a sign that does not count, which near
    the root means within about 1e-9 relative of it. That midpoint and every
    later one of the crossing get their real tables without asking C again.
    A sign that counts is the real table's and is not 0, so every step of
    the bisection, and eta*, is bit for bit the full scan's. The two probes
    around eta* are real tables. The y-powers of a crossing are read off the
    top end table: by the same contract, which entries are 0.0 does not
    depend on eta.
    If the end tables differ in r, in their component keys, in which entries
    are exactly 0.0, or in C by more than 1e-12 relative, every grid point
    and every midpoint gets its real table (the full scan). The tables must
    carry d; a different one raises ValueError.
    """
    lo, hi = eta_range
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"eta_range must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")
    etas = np.geomspace(lo, hi, PHASE_GRID)
    ends = (mu_of_eta(float(etas[0])), mu_of_eta(float(etas[-1])))
    for tab in ends:
        _check_d(tab, d)
    r = ends[0].r

    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    fit = _eta_free_coefficients(*ends, float(etas[0]), float(etas[-1]))
    signs = _grid_signs(etas, ends, fit, mu_of_eta, d, r)
    a, b = signs[:, :-1], signs[:, 1:]
    brackets = (a * b <= 0) & (a != b)  # false where either is nan, or both are 0
    first = np.argmax(brackets, axis=1)  # one boundary per pair: its first bracket
    out: list[PhaseBoundary] = []
    for p in np.flatnonzero(brackets[np.arange(len(pairs)), first]):
        i, j = pairs[p]
        g = int(first[p])
        e_lo, e_hi = float(etas[g]), float(etas[g + 1])
        lo_above = signs[p, g] > 0  # unchanged by every move of e_lo
        in_doubt = fit is None  # set at the first midpoint C leaves in doubt
        for _ in range(200):
            mid = math.sqrt(e_lo * e_hi)
            if (e_hi - e_lo) <= 1e-15 * e_lo:
                e_lo = e_hi = mid
                break
            decided = False
            if not in_doubt:
                fm, decided, _ = _c_pair(
                    fit, i - 1, j - 1, _c_mu(fit, mid, i - 1), _c_mu(fit, mid, j - 1))
                in_doubt = not decided
            if not decided:
                tab = mu_of_eta(mid)
                fm = math.log(_t_value(tab, i, d)) - math.log(_t_value(tab, j, d))
                if fm == 0.0:
                    e_lo = e_hi = mid
                    break
            if (fm > 0) == lo_above:
                e_lo = mid
            else:
                e_hi = mid
        eta_star = math.sqrt(e_lo * e_hi)
        ki, kj = _power_attribution(ends[1], i), _power_attribution(ends[1], j)
        exponent = None
        powers = None
        if ki is not None and kj is not None and ki != kj:
            (k_lo, m_lo), (k_hi, m_hi) = sorted(((ki, i), (kj, j)))
            exponent = _analytic_exponent(spec.kind, m_lo, m_hi, k_lo, k_hi)
            powers = (ki, kj)
        dom_lo = _dominant_index(mu_of_eta(eta_star * 0.99), d)
        dom_hi = _dominant_index(mu_of_eta(eta_star * 1.01), d)
        switch = {dom_lo, dom_hi} == {i, j}
        out.append(
            PhaseBoundary(
                i=i,
                j=j,
                eta_star=eta_star,
                exponent=exponent,
                powers=powers,
                degenerate=False,
                argmin_switch=switch,
            )
        )

    # Within-index boundaries: two powers sharing the leading Hermite index.
    leading: dict[int, list[int]] = {}
    for k, lead in _leading_indices(ends[1]):
        leading.setdefault(lead, []).append(k)
    for m, ks in leading.items():
        for k_lo, k_hi in itertools.combinations(sorted(ks), 2):
            exp = _analytic_exponent(spec.kind, m, m, k_lo, k_hi)
            edge = float(d**exp)
            if lo <= edge <= hi:
                out.append(PhaseBoundary(i=m, j=m, eta_star=edge, exponent=exp,
                                         powers=(k_lo, k_hi), degenerate=True,
                                         argmin_switch=False))
    return tuple(sorted(out, key=lambda b: (b.eta_star, b.i, b.j)))


def recursion_oracle(
    mu: MuTable,
    gamma: float,
    d: int | None = None,
    c_target: float = 0.5,
    t_max: int = 10_000_000,
) -> int | None:
    """First step at which the deterministic noiseless alignment recursion

        alpha_{t+1} = alpha_t + gamma * sum_i mu_i alpha_t^{i-1},
        alpha_0 = d^{-1/2}

    reaches c_target, or None within t_max. Negative-mu terms are dropped
    (their contribution is asymptotically negligible under the sign
    condition). gamma must be finite and positive, as for predict_T.
    """
    d = _check_d(mu, d)
    _check_gamma(gamma)
    if not 0 < c_target < 1:
        raise ValueError("c_target must lie in (0, 1)")
    terms = _positive(mu)
    if not terms:
        return None
    alpha = d**-0.5
    if alpha >= c_target:
        return 0
    for t in range(1, t_max + 1):
        alpha = alpha + gamma * sum(m * alpha ** (i - 1) for i, m in terms)
        if alpha >= c_target:
            return t
        if not math.isfinite(alpha):
            return None
    return None


@dataclass(frozen=True)
class LemmaReport:
    """Result of replaying a discrete recursion against its closed-form bounds.

    max_excess is the largest signed relative overshoot observed (positive
    would mean a bound was violated beyond float noise); checks count the
    time points actually compared within each bound's validity window.
    """

    max_excess: float
    n_violations: int
    t_checked_upper: int
    t_checked_lower: int
    window_truncated: bool


def _check_lemma_inputs(a: float, c: float) -> None:
    for name, v in (("a", a), ("c", c)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")


def gronwall_check(a: float, c: float, t_max: int) -> LemmaReport:
    """Iterate m_t = a + c * sum_{j<t} m_j exactly and compare with the
    geometric bounds a(1+c)^t (two-sided, tight) and a e^{ct} (upper); a
    relative excess above 1e-9 counts as a violation."""
    _check_lemma_inputs(a, c)
    m = a
    total = a
    max_excess = -math.inf
    violations = 0
    for t in range(t_max + 1):
        geo = a * (1.0 + c) ** t
        expo = a * math.exp(c * t)
        for excess in ((m - geo) / geo, (geo - expo) / expo, (geo - m) / geo):
            max_excess = max(max_excess, excess)
            if excess > _LEMMA_TOL:
                violations += 1
        m = a + c * total
        total += m
    return LemmaReport(
        max_excess=max_excess,
        n_violations=violations,
        t_checked_upper=t_max + 1,
        t_checked_lower=t_max + 1,
        window_truncated=False,
    )


def bihari_lasalle_check(a: float, c: float, k: int, t_max: int) -> LemmaReport:
    """Iterate m_t = a + c * sum_{j<t} m_j^{k-1} and compare with the
    superlinear closed-form bounds inside their validity windows:

        upper  a (1 - (k-2) c a^{k-2} t)^{-1/(k-2)}   for t < 1/(c (k-2) a^{k-2})
        lower  a (1 - (c/2) a^{k-2} t)^{-1/(k-2)}     for t < (a^{-(k-2)} - c)/(c (k-2))

    Time points at or beyond a window edge are skipped (the bound is +inf or
    stated inapplicable there); the report notes when t_max was truncated.
    A relative excess above 1e-9 counts as a violation.
    """
    _check_lemma_inputs(a, c)
    if k < 3:
        raise ValueError("superlinear bound needs k >= 3")
    p = k - 2
    upper_window = 1.0 / (c * p * a**p)
    lower_window = max((a**-p - c) / (c * p), 0.0)
    truncated = t_max >= upper_window
    m = a
    total_pow = a ** (k - 1)
    max_excess = -math.inf
    violations = 0
    checked_up = 0
    checked_lo = 0
    for t in range(t_max + 1):
        if t < upper_window:
            ub = a * (1.0 - p * c * a**p * t) ** (-1.0 / p)
            excess = (m - ub) / ub
            checked_up += 1
            max_excess = max(max_excess, excess)
            if excess > _LEMMA_TOL:
                violations += 1
        if t < lower_window:
            lb = a * (1.0 - 0.5 * c * a**p * t) ** (-1.0 / p)
            excess = (lb - m) / lb
            checked_lo += 1
            max_excess = max(max_excess, excess)
            if excess > _LEMMA_TOL:
                violations += 1
        if t >= upper_window and t >= lower_window:
            break
        m = a + c * total_pow
        total_pow += m ** (k - 1)
    return LemmaReport(
        max_excess=max_excess,
        n_violations=violations,
        t_checked_upper=checked_up,
        t_checked_lower=checked_lo,
        window_truncated=truncated,
    )


def _first_nonzero(contrib: Sequence[float]) -> int | None:
    for idx, v in enumerate(contrib, start=1):
        if v != 0.0:
            return idx
    return None


def _leading_indices(mu: MuTable) -> list[tuple[int, int]]:
    """(k, p_k) for each y-power k with a nonzero component, p_k the index
    of its first nonzero entry."""
    return [(k, p) for k, contrib in mu.components if (p := _first_nonzero(contrib)) is not None]


def gamma_auto(spec: OracleSpec, mu: MuTable, d: int | None = None) -> float:
    """Step-size choice with constants set to 1.

    The oracle-specific weak-recovery prescription built from the leading
    index p_k of each oracle power k (for matched activations these indices
    are the information exponents of the corresponding link powers):

        max_k s^(k-1) d^-(p_k/2 v 1),   s = eta d^e the oracle's rate.

    s^(k-1) comes from _rate_power (e from _rate_d_exponent), which raises
    ValueError naming eta where it overflows. Online has the one power k = 1, so its rule reads
    d^-(p/2 v 1).
    """
    d = _check_d(mu, d)
    terms = [_rate_power(spec.kind, spec.eta, d, k) * d ** -(_d_exp_iterations(p_k) + 1.0)
             for k, p_k in _leading_indices(mu)]
    if not terms:
        raise ValueError("degenerate oracle: every mu_i vanishes")
    return float(max(terms))
