"""Closed-form predictors and deterministic oracles for recovery times.

All constants are set to 1: predictions are order-level and meant to be
validated through ratio, slope, and identity tests rather than absolute
iteration counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .oracles import MuTable, OracleSpec

PHASE_GRID = 256  # points of phase_boundaries' log-spaced eta grid


def _d_exp_iterations(i: int) -> float:
    """Dimension exponent of the T contribution at index i: (i-2)/2 joined at 0."""
    return max((i - 2) / 2.0, 0.0)


def _d_exp_gamma(i: int) -> float:
    """Dimension exponent of the step-size cap at index i: i/2 joined at 1."""
    return max(i / 2.0, 1.0)


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
    """Largest admissible step size, constants 1: max_i mu_i d^-(i/2 v 1)."""
    d = mu.d if d is None else d
    vals = [m * d ** (-_d_exp_gamma(i)) for i, m in enumerate(mu.mus, 1) if m > 0]
    if not vals:
        raise ValueError("no positive mu entry; no admissible step size")
    return max(vals)


def predict_T(mu: MuTable, gamma: float, d: int | None = None) -> Prediction:
    """Evaluate the recovery-time formula at a given step size and, jointly,
    at the best admissible one."""
    d = mu.d if d is None else d
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    entries = [
        (i, d ** _d_exp_iterations(i) / (gamma * m))
        for i, m in enumerate(mu.mus, 1)
        if m > 0
    ]
    if not entries:
        raise ValueError("no positive mu entry; no prediction")
    t = min(v for _, v in entries)
    dominant = min(i for i, v in entries if v == t)
    opt = [(i, d ** max(i - 1, 1) / (m * m)) for i, m in enumerate(mu.mus, 1) if m > 0]
    t_opt = min(v for _, v in opt)
    dominant_opt = min(i for i, v in opt if v == t_opt)
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
    vals = {i: _t_value(mu, i, d) for i in range(1, mu.r + 1) if mu.mu(i) > 0}
    if not vals:
        return None
    best = min(vals.values())
    return min(i for i, v in vals.items() if v == best)


def _power_attribution(mu: MuTable, i: int) -> int | None:
    """The unique y-power feeding mu_i, or None when mixed/absent."""
    powers = [k for k, contrib in mu.components if contrib[i - 1] != 0.0]
    return powers[0] if len(powers) == 1 else None


def _analytic_exponent(kind: str, mi: int, mj: int, ki: int, kj: int) -> float:
    num = max(mj - 1, 1) - max(mi - 1, 1)
    exp = num / (2.0 * (kj - ki))
    if kind == "batch_reuse":
        exp -= 1.0
    return exp


def phase_boundaries(
    mu_of_eta: Callable[[float], MuTable],
    d: int,
    eta_range: tuple[float, float],
    spec: OracleSpec | None = None,
) -> tuple[PhaseBoundary, ...]:
    """Locate recovery-time crossings over a learning-rate range.

    For every pair of indices with positive mu somewhere in the range, the
    first sign change of the log-ratio of their T contributions on the
    PHASE_GRID log grid is bracketed and bisected to floating-point resolution
    (the two contributions then agree to much better than 1e-9 relative).
    Degenerate boundaries, where two oracle powers share their leading Hermite
    index and hence no T-pair crossing exists, are reported analytically at
    the constants-1 validity edge d**exponent.
    """
    lo, hi = eta_range
    if not (0 < lo < hi):
        raise ValueError("eta_range must be increasing and positive")
    etas = np.geomspace(lo, hi, PHASE_GRID)
    tables = [mu_of_eta(float(e)) for e in etas]
    r = tables[0].r
    kind = spec.kind if spec is not None else None

    # log T_i on the grid, read once per (table, index); None where mu_i <= 0
    log_t = {
        i: [math.log(_t_value(tab, i, d)) if tab.mu(i) > 0 else None for tab in tables]
        for i in range(1, r + 1)
    }
    out: list[PhaseBoundary] = []
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            diffs = [
                math.nan if a is None or b is None else a - b
                for a, b in zip(log_t[i], log_t[j])
            ]
            for g in range(PHASE_GRID - 1):
                a, b = diffs[g], diffs[g + 1]
                if math.isnan(a) or math.isnan(b) or a * b > 0:
                    continue
                e_lo, e_hi = float(etas[g]), float(etas[g + 1])
                f_lo = a
                for _ in range(200):
                    mid = math.sqrt(e_lo * e_hi)
                    tab = mu_of_eta(mid)
                    fm = math.log(_t_value(tab, i, d)) - math.log(_t_value(tab, j, d))
                    if fm == 0.0 or (e_hi - e_lo) <= 1e-15 * e_lo:
                        e_lo = e_hi = mid
                        break
                    if (fm > 0) == (f_lo > 0):
                        e_lo, f_lo = mid, fm
                    else:
                        e_hi = mid
                eta_star = math.sqrt(e_lo * e_hi)
                ref = mu_of_eta(eta_star)
                ki = _power_attribution(ref, i)
                kj = _power_attribution(ref, j)
                exponent = None
                powers = None
                if kind in ("batch_reuse", "alternating", "deep_alternating") and (
                    ki is not None and kj is not None and ki != kj
                ):
                    if ki < kj:
                        exponent = _analytic_exponent(kind, i, j, ki, kj)
                    else:
                        exponent = _analytic_exponent(kind, j, i, kj, ki)
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
                break  # one boundary per pair: its first bracket

    # Within-index boundaries: two powers sharing the leading Hermite index.
    if kind in ("batch_reuse", "alternating", "deep_alternating"):
        ref = tables[-1]
        leading: dict[int, list[int]] = {}
        for k, contrib in ref.components:
            nz = [idx + 1 for idx, v in enumerate(contrib) if v != 0.0]
            if nz:
                leading.setdefault(min(nz), []).append(k)
        for m, ks in leading.items():
            ks = sorted(ks)
            for a_idx in range(len(ks)):
                for b_idx in range(a_idx + 1, len(ks)):
                    exp = _analytic_exponent(kind, m, m, ks[a_idx], ks[b_idx])
                    out.append(
                        PhaseBoundary(
                            i=m,
                            j=m,
                            eta_star=float(d**exp),
                            exponent=exp,
                            powers=(ks[a_idx], ks[b_idx]),
                            degenerate=True,
                            argmin_switch=False,
                        )
                    )
    return tuple(sorted(out, key=lambda b: (b.eta_star, b.i, b.j)))


def recursion_oracle(
    mu: MuTable,
    gamma: float,
    d: int | None = None,
    c_target: float = 0.5,
    t_max: int = 10_000_000,
    include_negative: bool = False,
) -> int | None:
    """First step at which the deterministic noiseless alignment recursion

        alpha_{t+1} = alpha_t + gamma * sum_i mu_i alpha_t^{i-1},
        alpha_0 = d^{-1/2}

    reaches c_target, or None within t_max. Negative-mu terms are dropped by
    default (their contribution is asymptotically negligible under the sign
    condition); include_negative retains them for exploration.
    """
    d = mu.d if d is None else d
    if not 0 < c_target < 1:
        raise ValueError("c_target must lie in (0, 1)")
    terms = [
        (i, m)
        for i, m in enumerate(mu.mus, 1)
        if (m > 0 or (include_negative and m != 0))
    ]
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


def gronwall_check(a: float, c: float, t_max: int, tol: float = 1e-9) -> LemmaReport:
    """Iterate m_t = a + c * sum_{j<t} m_j exactly and compare with the
    geometric bounds a(1+c)^t (two-sided, tight) and a e^{ct} (upper)."""
    if a <= 0 or c <= 0:
        raise ValueError("need a, c > 0")
    m = a
    total = a
    max_excess = -math.inf
    violations = 0
    for t in range(t_max + 1):
        geo = a * (1.0 + c) ** t
        expo = a * math.exp(c * t)
        for excess in ((m - geo) / geo, (geo - expo) / expo, (geo - m) / geo):
            max_excess = max(max_excess, excess)
            if excess > tol:
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


def bihari_lasalle_check(
    a: float, c: float, k: int, t_max: int, tol: float = 1e-9
) -> LemmaReport:
    """Iterate m_t = a + c * sum_{j<t} m_j^{k-1} and compare with the
    superlinear closed-form bounds inside their validity windows:

        upper  a (1 - (k-2) c a^{k-2} t)^{-1/(k-2)}   for t < 1/(c (k-2) a^{k-2})
        lower  a (1 - (c/2) a^{k-2} t)^{-1/(k-2)}     for t < (a^{-(k-2)} - c)/(c (k-2))

    Time points at or beyond a window edge are skipped (the bound is +inf or
    stated inapplicable there); the report notes when t_max was truncated.
    """
    if a <= 0 or c <= 0:
        raise ValueError("need a, c > 0")
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
            if excess > tol:
                violations += 1
        if t < lower_window:
            lb = a * (1.0 - 0.5 * c * a**p * t) ** (-1.0 / p)
            excess = (lb - m) / lb
            checked_lo += 1
            max_excess = max(max_excess, excess)
            if excess > tol:
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


def gamma_auto(
    spec: OracleSpec,
    mu: MuTable,
    d: int | None = None,
    mode: str = "weak",
    eps: float = 0.1,
    c: float = 0.5,
) -> float:
    """Step-size choice with constants set to 1.

    weak mode returns the oracle-specific prescription built from the leading
    index of each oracle power (for matched activations these indices are the
    information exponents of the corresponding link powers):

        online            d^-(p/2 v 1)
        alternating       max{ d^-(p/2 v 1), eta d^-(p2/2 v 1) }
        batch_reuse       max_k (eta d)^{k-1} d^-(p_k/2 v 1)
        deep_alternating  max_k eta^{k-1} d^-(p_k/2 v 1)

    strong mode scales the generic cap by the accuracy target:
    d^-1 eps max_i mu_i c^{i-1}.
    """
    d = mu.d if d is None else d
    if mode == "strong":
        vals = [m * c ** (i - 1) for i, m in enumerate(mu.mus, 1) if m > 0]
        if not vals:
            raise ValueError("no positive mu entry")
        return eps * max(vals) / d
    if mode != "weak":
        raise ValueError(f"unknown mode {mode!r}")

    comps = dict(mu.components)
    if spec.kind == "online":
        p = _first_nonzero(mu.mus)
        if p is None:
            raise ValueError("degenerate oracle: every mu_i vanishes")
        return float(d ** (-_d_exp_gamma(p)))
    terms = []
    for k, contrib in sorted(comps.items()):
        p_k = _first_nonzero(contrib)
        if p_k is None:
            continue
        if spec.kind in ("alternating", "deep_alternating"):
            scale = spec.eta ** (k - 1)
        else:  # batch_reuse
            scale = (spec.eta * d) ** (k - 1)
        terms.append(scale * d ** (-_d_exp_gamma(p_k)))
    if not terms:
        raise ValueError("degenerate oracle: every mu_i vanishes")
    return float(max(terms))
